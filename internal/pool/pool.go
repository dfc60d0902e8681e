// Package pool implements a concurrent, replicated concentrator pool:
// N fault-injectable multichip switches (one primary plus hot spares)
// behind a single Route/Run facade, in the style of a replicated,
// hot-swappable switch core behind an arbiter (cf. the Tiny Tera's
// sliced crossbar behind a central arbiter).
//
// Each replica carries a health-state machine driven by the health
// plane of PR 1 — BIST scans and online delivery-guarantee checks:
//
//	Healthy ──violation──▶ Suspect ──trip──▶ Quarantined
//	   ▲                      │                  │ half-open probe scan
//	   │  clean serving round │                  ▼
//	   └──────────────────────┘             Repaired (degraded contract)
//	   ▲                                         │
//	   └──────────── probe scan finds no fault ──┘
//
// The breaker trips after TripThreshold consecutive contract
// violations; a tripped replica is quarantined and probed with a BIST
// scan after an exponentially growing re-admission backoff (half-open
// circuit). A probe that localizes faults re-admits the replica under
// its recomputed DegradedSwitch contract (Repaired); a probe that finds
// the fabric clean re-admits it at full contract (Healthy, backoff
// reset); a probe that cannot restore a positive guarantee threshold
// leaves the breaker open and doubles the backoff.
//
// The failover arbiter retargets traffic within the round that exposes
// a failure: when the serving replica's round violates its live
// contract, the round's setup is replayed on the next-best replica
// (best surviving ⌊α′m′⌋, preferring Healthy/Repaired over Suspect)
// until one satisfies its contract. In-flight payload streams drain
// gracefully — a setup-cycle switch holds its paths until the streamed
// payloads complete, so the retarget happens between setup cycles and
// never truncates a delivered stream.
//
// Per-round admission control applies Lemma 2 to the *live* replica
// set: an (n, m′, 1−ε′/m′) partial concentrator guarantees routing only
// for ⌊α′m′⌋ = m′−ε′ simultaneous messages, so offered load above the
// serving replica's live threshold is shed at admission (with
// retry-after accounting) instead of overloading a degraded fabric.
package pool

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"sort"
	"sync"

	"concentrators/internal/bitvec"
	"concentrators/internal/byzantine"
	"concentrators/internal/core"
	"concentrators/internal/health"
	"concentrators/internal/link"
	"concentrators/internal/overload"
	"concentrators/internal/partition"
	"concentrators/internal/switchsim"
	"concentrators/internal/timing"
)

// State is the health state of one replica in the pool.
type State int

// The replica health states.
const (
	// Healthy serves under the full (n, m, 1−ε/m) contract.
	Healthy State = iota
	// Suspect has violated its contract fewer than TripThreshold
	// consecutive times; it serves only when nothing better survives.
	Suspect
	// Quarantined is out of rotation (breaker open) awaiting its next
	// half-open probe scan.
	Quarantined
	// Repaired serves under a recomputed degraded (n, m′, 1−ε′/m′)
	// contract derived from its localized faults.
	Repaired
)

// String names the state.
func (s State) String() string {
	switch s {
	case Healthy:
		return "healthy"
	case Suspect:
		return "suspect"
	case Quarantined:
		return "quarantined"
	case Repaired:
		return "repaired"
	default:
		return fmt.Sprintf("State(%d)", int(s))
	}
}

// Config tunes the pool's breaker and arbiter.
type Config struct {
	// TripThreshold is the number of consecutive contract violations
	// that trips a replica's circuit breaker. 0 means the default (2).
	TripThreshold int
	// ProbeAfter is the base re-admission backoff: rounds between a
	// trip and the quarantined replica's first half-open probe scan.
	// The backoff doubles with every successive trip or failed probe.
	// 0 means the default (2).
	ProbeAfter int
	// BackoffMax caps the exponential re-admission backoff, in rounds.
	// 0 means the default (32).
	BackoffMax int
	// RetryAfterCap caps the retry-after rounds advertised to shed
	// messages. 0 means the default (8).
	RetryAfterCap int
	// HedgeQuantile enables hedged dispatch: a round whose serving
	// latency exceeds this quantile of the pool's observed latency is
	// re-offered to the next-ranked healthy replica, first completion
	// wins, the loser's duplicate deliveries are discarded. Must be in
	// (0,1); 0 disables hedging. Requires ≥ 2 replicas.
	HedgeQuantile float64
	// HedgeBudget caps hedged rounds as a fraction of all rounds, so
	// tail chasing can never double the pool's routing work. Must be in
	// (0,1]; 0 means the default (0.25). Ignored unless hedging is on.
	HedgeBudget float64
	// Deadline is the per-round latency SLO in rounds: a served round
	// whose latency exceeds it books its deliveries DeadlineMissed
	// (they still count Delivered — the fabric met the ⌊α′m′⌋
	// guarantee; the SLO is a separate ledger). 0 disables.
	Deadline int
	// Overload, when non-nil, closes the admission loop: the static
	// ⌊α′m′⌋ gate becomes AIMD on the admitted fraction (driven by
	// per-round deadline-miss and client-backlog congestion signals),
	// and sustained overload steps the advertised contract down through
	// the brownout state machine (and back up through its probation
	// window). Nil keeps the open-loop static gate.
	Overload *overload.Config
	// Lease enables partition-safe primary election: a lease-based
	// primary role with monotonic fencing tokens, quorum-gated
	// membership decisions, and suspicion clocks over a control-plane
	// partition fault plane. Lease.Rounds 0 keeps the legacy
	// instantly-consistent arbiter.
	Lease LeaseConfig
	// Byzantine arms the ledger against replicas that lie: frame
	// provenance verification at the receiving edge, seeded witness
	// cross-examination audits, and arbiter cross-checks of health
	// reports against ledger evidence. The zero value keeps the legacy
	// trusting ledger (bit-identical pre-byzantine trajectories).
	Byzantine ByzantineConfig
}

// ByzantineConfig tunes the pool's byzantine containment: the verified
// receiving edge and the witness audit cadence.
type ByzantineConfig struct {
	// Verify enables receiving-edge frame provenance: every delivery
	// claim of an accepted round is stamped [epoch][seq][keyed checksum]
	// at the sending edge and re-verified at the ledger. A claim whose
	// keyed sum does not verify books Forged; a valid tag repeating
	// inside the sliding dedup window books Duplicated; neither is ever
	// counted Delivered. Off, the ledger takes claims at face value —
	// the experimental control that double-counts under replay.
	Verify bool
	// AuditEvery is the witness cross-examination cadence: every
	// AuditEvery rounds the pool re-routes one sampled claim through up
	// to two witness replicas and convicts persistent disagreement
	// through the standard breaker. 0 disables audits. Ignored unless
	// Verify.
	AuditEvery int
	// Seed keys the provenance checksum (byzantine.DeriveKey), draws
	// the audit sampling, and seeds the behavior plane installed by
	// InjectBehavior. 0 means the default (1).
	Seed int64
}

// LeaseConfig tunes the pool's partition-safe primary lease.
type LeaseConfig struct {
	// Rounds is the lease duration: a primary grant is valid for this
	// many rounds and renewed every round the arbiter hears the holder.
	// A holder that misses Rounds consecutive renewals self-fences —
	// it stops serving rather than risk a dual-primary. 0 disables the
	// lease machinery entirely (the legacy in-round failover arbiter).
	Rounds int
	// Unfenced is the split-brain experimental control: the ledger
	// accepts deliveries carrying stale fencing tokens, and the arbiter
	// fails over eagerly on suspicion instead of waiting out the lease
	// — exactly the double-delivery mistake fencing exists to prevent.
	Unfenced bool
	// Seed seeds the control-plane partition plane installed by
	// InjectPartition (flapping-cut draws). 0 means the default (1).
	Seed int64
}

func (c Config) withDefaults() (Config, error) {
	if c.TripThreshold < 0 || c.ProbeAfter < 0 || c.BackoffMax < 0 || c.RetryAfterCap < 0 {
		return c, fmt.Errorf("pool: negative config field: %+v", c)
	}
	if c.TripThreshold == 0 {
		c.TripThreshold = 2
	}
	if c.ProbeAfter == 0 {
		c.ProbeAfter = 2
	}
	if c.BackoffMax == 0 {
		c.BackoffMax = 32
	}
	if c.BackoffMax < c.ProbeAfter {
		return c, fmt.Errorf("pool: BackoffMax %d < ProbeAfter %d", c.BackoffMax, c.ProbeAfter)
	}
	if c.RetryAfterCap == 0 {
		c.RetryAfterCap = 8
	}
	switch {
	case math.IsNaN(c.HedgeQuantile) || c.HedgeQuantile < 0 || c.HedgeQuantile >= 1:
		return c, fmt.Errorf("pool: hedge quantile %v outside [0,1)", c.HedgeQuantile)
	case math.IsNaN(c.HedgeBudget) || c.HedgeBudget < 0 || c.HedgeBudget > 1:
		return c, fmt.Errorf("pool: hedge budget %v outside [0,1]", c.HedgeBudget)
	case c.Deadline < 0:
		return c, fmt.Errorf("pool: negative deadline SLO %d", c.Deadline)
	}
	if c.HedgeBudget == 0 {
		c.HedgeBudget = 0.25
	}
	if c.Overload != nil {
		if err := c.Overload.Validate(); err != nil {
			return c, err
		}
		ov := c.Overload.WithDefaults()
		c.Overload = &ov
	}
	switch {
	case c.Lease.Rounds < 0:
		return c, fmt.Errorf("pool: negative lease duration %d", c.Lease.Rounds)
	case c.Lease.Unfenced && c.Lease.Rounds == 0:
		return c, fmt.Errorf("pool: the unfenced control needs Lease.Rounds > 0")
	}
	if c.Lease.Seed == 0 {
		c.Lease.Seed = 1
	}
	if c.Byzantine.AuditEvery < 0 {
		return c, fmt.Errorf("pool: negative witness audit cadence %d", c.Byzantine.AuditEvery)
	}
	if c.Byzantine.Seed == 0 {
		c.Byzantine.Seed = 1
	}
	return c, nil
}

// replica is one switch in the pool. Its embedded ReplicaCheckpoint is
// its live control-plane state, so a checkpoint is a copy of it; the
// six plane fields there stay zero and only the copy checkpointLocked
// returns fills them. What a checkpoint must not hold lives beside it:
// the switch, the contract derived from the fault record, the board's
// chaos-injected planes, and the monitors, which restart cold.
type replica struct {
	ReplicaCheckpoint

	sw       core.FaultInjectable
	stages   int // len(sw.StageChips()): the board's output links sit at this stage
	degraded *health.DegradedSwitch

	// Board hardware: the wire corruption plane and the timing fault
	// plane (chaos injection).
	plane  *link.CorruptionPlane
	tplane *timing.Plane

	// Monitors: the receiver's link monitor over the board's output
	// wires and the observed serving-latency histogram.
	monitor *link.LinkMonitor
	lat     timing.Histogram
}

// contract returns the replica's live serving contract: the degraded
// wrapper once faults are localized, the raw switch otherwise.
func (r *replica) contract() core.Concentrator {
	if r.degraded != nil {
		return r.degraded
	}
	return r.sw
}

// threshold is the replica's live guarantee threshold ⌊α′m′⌋.
func (r *replica) threshold() int { return core.Threshold(r.contract()) }

// servable reports whether the arbiter may target traffic here.
func (r *replica) servable() bool {
	if r.Killed || r.State == Quarantined {
		return false
	}
	return r.threshold() > 0
}

// rank orders replicas for election: lower is better.
func (r *replica) rank() int {
	if r.State == Suspect {
		return 1
	}
	return 0
}

// ReplicaStats is one replica's externally visible health.
type ReplicaStats struct {
	State      State
	Killed     bool
	Outputs    int // live m′
	Threshold  int // live ⌊α′m′⌋
	Trips      int
	Probes     int
	Scans      int
	Violations int
	Repairs    int
	// RoundsServed counts rounds this replica's routing was accepted.
	RoundsServed int
	// Corrupted counts deliveries this replica's wires corrupted (all
	// stripped before delivery accounting).
	Corrupted int
	// LinksQuarantined counts output wires the receiver's link monitor
	// convicted and quarantined on this replica.
	LinksQuarantined int
	// SlowConvictions counts times the relative-percentile detector
	// convicted this replica as a gray straggler; Canaries counts the
	// timed canary replays its probes ran.
	SlowConvictions, Canaries int
	// LatencyP50 and LatencyP99 are witnessed quantiles of this
	// replica's observed serving latency, in rounds.
	LatencyP50, LatencyP99 int
}

// Stats summarizes the pool's lifetime accounting.
type Stats struct {
	Rounds int
	// Offered/Admitted/Shed count messages at the admission gate;
	// Delivered counts messages routed by the accepted serving round.
	Offered, Admitted, Shed, Delivered int
	// RetryAfterTotal sums the retry-after rounds advertised to shed
	// messages (RetryAfterTotal/Shed is the mean advertised wait).
	RetryAfterTotal int
	// Failovers counts arbiter retargets; SameRoundFailovers counts
	// those completed inside the round that exposed the failure (the
	// rest happen between rounds, at election time).
	Failovers, SameRoundFailovers int
	// Violations counts rounds whose routing violated the serving
	// contract even after every servable replica was tried.
	Violations int
	Trips      int
	Probes     int
	Scans      int
	Repairs    int
	// CorruptedDeliveries counts deliveries corrupted in flight across
	// every replica; none of them is ever counted in Delivered.
	CorruptedDeliveries int
	// Hedges counts rounds re-offered to a second replica; HedgeWins
	// counts those the spare finished first (the primary's duplicate
	// deliveries were discarded).
	Hedges, HedgeWins int
	// SlowConvictions counts replicas the relative-percentile detector
	// tripped as gray stragglers; Canaries counts timed canary replays
	// run by half-open probes.
	SlowConvictions, Canaries int
	// DeadlineMissed counts delivered messages whose round latency was
	// over the Deadline SLO. Unlike the session-level conservation law,
	// they remain in Delivered — the fabric met its ⌊α′m′⌋ guarantee;
	// the SLO is a separate ledger over the same deliveries.
	DeadlineMissed int
	// Latency is the pool-wide served-round latency histogram (the
	// winning replica's latency each round); P50/P99/P999 accessors
	// give the witnessed tail.
	Latency timing.Histogram
	// LinksQuarantined counts output wires convicted by replica link
	// monitors and folded into degraded serving contracts.
	LinksQuarantined int
	// AdmitFraction is the closed-loop controller's current admitted
	// fraction of the live threshold (1 when the controller is off).
	AdmitFraction float64
	// BrownoutLevel is the current contract-degradation level (0 =
	// nominal); BrownoutEnters and BrownoutExits are the booked
	// step-down and step-up transitions.
	BrownoutLevel, BrownoutEnters, BrownoutExits int
	// CongestedRounds counts rounds the overload congestion signal
	// (deadline miss, contract violation, or client backlog over the
	// configured factor of the threshold) fired.
	CongestedRounds int
	// Fenced counts late deliveries rejected at the ledger because the
	// serving replica's fencing token had gone stale — its lease lapsed
	// and the primary role moved on. Fenced frames are never counted
	// Delivered; they are the seventh term of the conservation law.
	Fenced int
	// StaleDelivered counts deliveries the *unfenced* control ledger
	// accepted under a stale fencing token (always 0 with fencing on) —
	// the split-brain double-delivery that fencing prevents.
	StaleDelivered int
	// LeaseHandoffs counts primary-lease transfers: fencing-token bumps
	// that moved the primary role between replicas.
	LeaseHandoffs int
	// FrozenRounds counts rounds the arbiter heard fewer than a quorum
	// of replicas and froze membership decisions (no trips, no probe
	// verdicts, no elections) rather than act on a minority view.
	FrozenRounds int
	// ShadowServed counts frames physically delivered by stale
	// believers — replicas serving on a superseded lease grant;
	// DualPrimaryRounds counts rounds where both the rightful primary
	// and at least one stale believer delivered frames (split brain;
	// fencing keeps the stale side out of Delivered).
	ShadowServed, DualPrimaryRounds int
	// InFlightAcks counts delivery acks still buffered behind a
	// control-plane partition; each is booked Delivered or Fenced when
	// its edge heals.
	InFlightAcks int
	// Forged counts delivery claims whose provenance tag failed the
	// keyed checksum at the receiving edge; Duplicated counts claims
	// whose valid tag repeated inside the sliding dedup window. They
	// are the eighth-law ledger terms — never counted Delivered.
	Forged, Duplicated int
	// Audits counts witness cross-examinations run;
	// AuditDisagreements counts those whose witnesses contradicted the
	// primary's claimed routing; WitnessConvictions counts replicas
	// the audit tally convicted (tripped through the standard
	// breaker). Equivocations counts health reports the arbiter caught
	// forking against its own ledger evidence.
	Audits, AuditDisagreements, WitnessConvictions, Equivocations int
	// FenceToken is the current primary lease's monotonic fencing
	// token; LeaseHolder is the replica index holding it (−1 none).
	FenceToken  uint64
	LeaseHolder int
	Replicas    []ReplicaStats
}

// MeanRetryAfter returns the mean retry-after advertised per shed
// message — RetryAfterTotal spread over Shed — or 0 when nothing was
// shed.
func (s Stats) MeanRetryAfter() float64 {
	if s.Shed == 0 {
		return 0
	}
	return float64(s.RetryAfterTotal) / float64(s.Shed)
}

// ShedMessage records one admission-control rejection.
type ShedMessage struct {
	// Input is the shed message's input wire.
	Input int
	// RetryAfter is the advertised wait before re-offering, in rounds:
	// it grows exponentially with consecutive shedding rounds (the pool
	// is persistently over its live threshold) and is capped.
	RetryAfter int
}

// RoundResult is the outcome of one pool round.
type RoundResult struct {
	// Round is the pool's round counter at execution.
	Round int64
	// Result is the serving replica's accepted round (nil when no
	// replica could serve).
	Result *switchsim.Result
	// ServedBy is the serving replica's index, −1 when none.
	ServedBy int
	// Threshold is the serving contract's live ⌊α′m′⌋ used at
	// admission (0 when no replica was servable).
	Threshold int
	// Shed lists admission-control rejections, in input order.
	Shed []ShedMessage
	// FailedOver reports an in-round arbiter retarget.
	FailedOver bool
	// Violated reports that every servable replica violated its
	// contract this round (Result then holds the last attempt).
	Violated bool
	// Latency is the winning replica's serving latency in rounds
	// (1 + its timing-plane delay); 0 when no replica served.
	Latency int
	// Hedged reports that the round was re-offered to a spare;
	// HedgeWon that the spare finished first and its result stands.
	Hedged, HedgeWon bool
	// DeadlineMissed reports that the round's latency was over the
	// pool's Deadline SLO (its deliveries are booked against the SLO).
	DeadlineMissed bool
	// Fenced counts frames rejected at the ledger this round under a
	// stale fencing token (late acks flushing after a heal included).
	Fenced int
	// Frozen reports the arbiter heard fewer than a quorum of replicas
	// this round and froze membership decisions.
	Frozen bool
	// LeaseToken is the fencing token current when the round ran
	// (0 when the lease machinery is off).
	LeaseToken uint64
	// ShadowDelivered counts frames physically delivered this round by
	// stale believers — the split-brain ground truth the Fenced ledger
	// is checked against.
	ShadowDelivered int
	// TrueDelivered is the round's physically delivered frame count —
	// the ground truth the byzantine ledger terms are checked against
	// (it equals the Delivered increment only when nobody lied).
	TrueDelivered int
	// Misrouted counts physically delivered frames whose acked output
	// was a lie; ReplayedInjected and ForgedInjected count stale
	// re-emissions and fabricated acks injected into the round's claim
	// stream. All three are plane ground truth, not ledger verdicts.
	Misrouted, ReplayedInjected, ForgedInjected int
	// Forged and Duplicated are the receiving edge's bookings this
	// round.
	Forged, Duplicated int
	// Equivocated reports the arbiter caught the serving replica
	// forking its health report this round.
	Equivocated bool
}

// Pool is a replicated concentrator switch pool. All methods are safe
// for concurrent use; each Run or Route executes one atomic round.
type Pool struct {
	mu       sync.Mutex
	cfg      Config
	replicas []*replica
	active   int
	round    int64
	// shedStreak counts consecutive rounds that shed load, driving the
	// advertised retry-after backoff.
	shedStreak int
	// batch holds a shedding round's admitted messages, reused from
	// round to round. Every reader (serving, hedges, failovers, shadow
	// and dark serving, witness audits) is inside Run, and a Result's
	// payloads point into the Runner's streams, not into the batch.
	batch []switchsim.Message
	// scanLatency is the number of rounds a BIST probe scan takes to
	// complete: a probe's verdict lands scanLatency rounds after it is
	// due. Only SetScanLatency changes it.
	scanLatency int
	// ledger is every conservation-relevant counter, kept in the form
	// a checkpoint copies whole.
	ledger LedgerCheckpoint
	n, m   int
	// lat is the pool-wide served-latency histogram driving the hedge
	// trigger quantile; slow is the relative-percentile gray-failure
	// detector over per-replica latencies.
	lat  timing.Histogram
	slow *health.SlowDetector
	// Closed-loop overload control (nil when Config.Overload is nil):
	// aimd caps the admitted fraction, brown steps the advertised
	// contract down under sustained congestion, and clientBacklog is
	// the latest queue depth clients reported via NoteBacklog.
	aimd          *overload.AIMD
	brown         *overload.Brownout
	clientBacklog int
	// Partition-safe primary lease (active when Config.Lease.Rounds >
	// 0): pplane filters which control-plane edges the arbiter sees
	// each round, fenceToken is the monotonic fencing token of the
	// current grant, leaseHolder/leaseExpiry its holder and horizon,
	// susp the per-replica suspicion clocks with last-known-good
	// contracts, and inflight the delivery acks buffered behind cut
	// edges awaiting their fencing verdict.
	pplane      *partition.Plane
	fenceToken  uint64
	leaseHolder int
	leaseExpiry int64
	susp        *health.SuspicionClock
	inflight    []PendingAck
	// Byzantine containment (armed by Config.Byzantine.Verify or
	// InjectBehavior): bplane schedules which actors lie, stamper mints
	// frame provenance at the sending edge, verifier re-derives it at
	// the ledger, wtally folds witness audits into convictions.
	bplane   *byzantine.Plane
	stamper  *byzantine.Stamper
	verifier *byzantine.Verifier
	wtally   *health.WitnessTally
}

// PendingAck is one delivery acknowledgement buffered behind a
// control-plane partition: Frames frames served by Replica under
// fencing token Token, to be booked Delivered (token still current) or
// Fenced (lease moved on) when the replica's edge heals.
type PendingAck struct {
	Replica int
	Token   uint64
	Frames  int
}

// New builds a pool over the given switches: the first is the initial
// primary, the rest are hot spares. Every switch must share the same
// (n, m) geometry; each gets its own fault plane if none is installed,
// and no two may share one, so a fault injected into one replica never
// shows on another.
func New(cfg Config, switches ...core.FaultInjectable) (*Pool, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	if len(switches) == 0 {
		return nil, fmt.Errorf("pool: need at least one replica")
	}
	if cfg.HedgeQuantile > 0 && len(switches) < 2 {
		return nil, fmt.Errorf("pool: hedged dispatch needs ≥ 2 replicas, got %d", len(switches))
	}
	p := &Pool{cfg: cfg, n: switches[0].Inputs(), m: switches[0].Outputs(), leaseHolder: -1}
	p.susp = health.NewSuspicionClock(len(switches))
	slow, err := health.NewSlowDetector(len(switches))
	if err != nil {
		return nil, fmt.Errorf("pool: %w", err)
	}
	p.slow = slow
	if cfg.Overload != nil {
		p.aimd, p.brown = overload.NewAIMD(), overload.NewBrownout()
	}
	for i, sw := range switches {
		if sw == nil {
			return nil, fmt.Errorf("pool: replica %d is nil", i)
		}
		if sw.Inputs() != p.n || sw.Outputs() != p.m {
			return nil, fmt.Errorf("pool: replica %d is %d×%d, want %d×%d",
				i, sw.Inputs(), sw.Outputs(), p.n, p.m)
		}
		if sw.ActiveFaultPlane() == nil {
			if err := sw.SetFaultPlane(core.NewFaultPlane()); err != nil {
				return nil, fmt.Errorf("pool: replica %d: %w", i, err)
			}
		}
		for _, r := range p.replicas {
			if r.sw.ActiveFaultPlane() == sw.ActiveFaultPlane() {
				return nil, fmt.Errorf("pool: replicas %d and %d share one fault plane", r.ID, i)
			}
		}
		p.replicas = append(p.replicas, &replica{
			ReplicaCheckpoint: ReplicaCheckpoint{
				ID: i, ProbeAt: -1,
				WireFaults: make(map[int]health.LocalizedFault),
			},
			sw: sw, stages: len(sw.StageChips()), monitor: link.NewLinkMonitor(link.MonitorConfig{}),
		})
	}
	return p, nil
}

// Size returns the number of replicas.
func (p *Pool) Size() int { return len(p.replicas) }

// Active returns the current primary's index.
func (p *Pool) Active() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.active
}

// Threshold returns the live admission threshold ⌊α′m′⌋ of the serving
// replica (0 when no replica is servable).
func (p *Pool) Threshold() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	if best := p.bestLocked(nil, nil, nil); best >= 0 {
		return p.effectiveThresholdLocked(p.replicas[best].threshold())
	}
	return 0
}

// Stats returns a snapshot of the pool's accounting.
func (p *Pool) Stats() Stats {
	p.mu.Lock()
	defer p.mu.Unlock()
	l := p.ledger
	s := Stats{
		Rounds: l.Rounds, Offered: l.Offered, Admitted: l.Admitted,
		Shed: l.Shed, Delivered: l.Delivered,
		RetryAfterTotal: l.RetryAfterTotal,
		Failovers:       l.Failovers, SameRoundFailovers: l.SameRoundFailovers,
		Violations: l.Violations, Trips: l.Trips, Probes: l.Probes,
		Scans: l.Scans, Repairs: l.Repairs,
		CorruptedDeliveries: l.CorruptedDeliveries,
		Hedges:              l.Hedges, HedgeWins: l.HedgeWins,
		SlowConvictions: l.SlowConvictions, Canaries: l.Canaries,
		DeadlineMissed:   l.DeadlineMissed,
		LinksQuarantined: l.LinksQuarantined,
		CongestedRounds:  l.CongestedRounds,
		Fenced:           l.Fenced, StaleDelivered: l.StaleDelivered,
		LeaseHandoffs: l.LeaseHandoffs, FrozenRounds: l.FrozenRounds,
		ShadowServed: l.ShadowServed, DualPrimaryRounds: l.DualPrimaryRounds,
		Forged: l.Forged, Duplicated: l.Duplicated,
		Audits: l.Audits, AuditDisagreements: l.AuditDisagreements,
		WitnessConvictions: l.WitnessConvictions, Equivocations: l.Equivocations,
		Latency:       p.lat.Snapshot(),
		AdmitFraction: 1,
		FenceToken:    p.fenceToken,
		LeaseHolder:   p.leaseHolder,
		Replicas:      make([]ReplicaStats, len(p.replicas)),
	}
	for i, r := range p.replicas {
		s.Replicas[i] = ReplicaStats{
			State: r.State, Killed: r.Killed,
			Outputs: r.contract().Outputs(), Threshold: r.threshold(),
			Trips: r.Trips, Probes: r.Probes, Scans: r.Scans,
			Violations: r.Violations, Repairs: r.Repairs,
			RoundsServed: r.RoundsServed,
			Corrupted:    r.Corrupted, LinksQuarantined: r.LinkQuarantines,
			SlowConvictions: r.SlowConvictions, Canaries: r.Canaries,
			LatencyP50: r.lat.P50(), LatencyP99: r.lat.P99(),
		}
	}
	for _, ack := range p.inflight {
		s.InFlightAcks += ack.Frames
	}
	if p.aimd != nil {
		s.AdmitFraction = p.aimd.Fraction()
		s.BrownoutLevel = p.brown.Level()
		s.BrownoutEnters = p.brown.Enters()
		s.BrownoutExits = p.brown.Exits()
	}
	return s
}

// InjectFault adds a chip fault to replica i's live fault plane — the
// chaos harness's fault-injection port.
func (p *Pool) InjectFault(i int, f core.ChipFault) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	r, err := p.replicaLocked(i)
	if err != nil {
		return err
	}
	plane := r.sw.ActiveFaultPlane().Clone()
	plane.Add(f)
	if err := core.ValidateFaultPlane(r.sw, plane); err != nil {
		return err
	}
	r.sw.ActiveFaultPlane().Add(f)
	return nil
}

// Kill powers replica i off: it is quarantined immediately and probe
// scans cannot revive it until Revive. Killing the primary makes the
// next round elect (or fail over to) the best surviving replica.
func (p *Pool) Kill(i int) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	r, err := p.replicaLocked(i)
	if err != nil {
		return err
	}
	r.Killed = true
	r.State = Quarantined
	r.ConsecViol = 0
	p.openBreaker(r, p.round)
	return nil
}

// Revive powers a killed replica back on with a clean fault plane (the
// board was swapped). It stays quarantined until a half-open probe
// scan — scheduled for the next round — confirms its health. Reviving
// a replica that is not killed is an error: it would needlessly
// quarantine a serving fabric.
func (p *Pool) Revive(i int) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	r, err := p.replicaLocked(i)
	if err != nil {
		return err
	}
	if !r.Killed {
		return fmt.Errorf("pool: replica %d is not killed", i)
	}
	r.Killed = false
	p.wipeLocked(r)
	// The swapped board brings fresh wires and fresh silicon too: its
	// corruption and timing planes go with the controller state.
	r.plane = nil
	r.tplane = nil
	if err := r.sw.SetFaultPlane(core.NewFaultPlane()); err != nil {
		return err
	}
	r.State = Quarantined
	r.ProbeAt = p.round + 1
	r.PendingScan = true
	return nil
}

// SetScanLatency changes the probe-scan latency mid-run (a chaos
// harness injection).
func (p *Pool) SetScanLatency(rounds int) error {
	if rounds < 0 {
		return fmt.Errorf("pool: negative scan latency %d", rounds)
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	p.scanLatency = rounds
	return nil
}

func (p *Pool) replicaLocked(i int) (*replica, error) {
	if i < 0 || i >= len(p.replicas) {
		return nil, fmt.Errorf("pool: replica %d out of range [0,%d)", i, len(p.replicas))
	}
	return p.replicas[i], nil
}

// openBreaker schedules the replica's next half-open probe with
// exponential re-admission backoff.
func (p *Pool) openBreaker(r *replica, round int64) {
	if r.Backoff == 0 {
		r.Backoff = p.cfg.ProbeAfter
	} else {
		r.Backoff = min(r.Backoff*2, p.cfg.BackoffMax)
	}
	r.ProbeAt = round + int64(r.Backoff+p.scanLatency)
	r.PendingScan = true
}

// trip opens replica r's circuit breaker.
func (p *Pool) trip(r *replica, round int64) {
	r.Trips++
	p.ledger.Trips++
	r.State = Quarantined
	r.ConsecViol = 0
	p.openBreaker(r, round)
}

// noteViolation records one contract violation against r and trips the
// breaker once the consecutive count reaches the threshold.
func (p *Pool) noteViolation(r *replica, round int64) {
	r.Violations++
	r.ConsecViol++
	if r.State == Healthy || r.State == Repaired {
		r.State = Suspect
	}
	if r.ConsecViol >= p.cfg.TripThreshold {
		p.trip(r, round)
	}
}

// probeDueLocked completes due half-open probe scans: a BIST scan
// against the replica's live plane decides re-admission (full or
// degraded contract) or another quarantine period with doubled backoff.
// A verdict the arbiter cannot hear (vis false), or must not act on
// from a minority view (frozen), is deferred one round without touching
// the backoff — a deferral is not a failed probe. A nil vis hears every
// replica.
func (p *Pool) probeDueLocked(round int64, vis []bool, frozen bool) {
	for _, r := range p.replicas {
		if !r.PendingScan || r.ProbeAt < 0 || round < r.ProbeAt {
			continue
		}
		if frozen || (vis != nil && !vis[r.ID]) {
			r.ProbeAt = round + 1
			continue
		}
		p.probeOneLocked(r, round)
	}
}

// probeOneLocked lands one due half-open probe verdict on replica r.
func (p *Pool) probeOneLocked(r *replica, round int64) {
	r.PendingScan = false
	r.ProbeAt = -1
	r.Probes++
	p.ledger.Probes++
	if r.Killed {
		p.openBreaker(r, round) // power is off: probe fails outright
		return
	}
	rep, err := health.Scan(r.sw)
	r.Scans++
	p.ledger.Scans++
	if err != nil {
		p.openBreaker(r, round)
		return
	}
	if r.SlowConvicted {
		// A slow conviction gates re-admission behind a timed
		// canary replay: the BIST scan above only vouches for
		// correctness, and a gray replica is perfectly correct.
		if !p.canaryPassLocked(r, round) {
			p.openBreaker(r, round)
			return
		}
		r.SlowConvicted = false
		p.slow.Reset(r.ID)
		r.lat.Reset()
	}
	if rep.Healthy {
		// The fabric is clean (transient fault, or repaired via
		// Revive). The scan only vouches for the chips: wires the
		// receiver has quarantined stay quarantined, so the rebuild
		// keeps the degraded contract when any are on record —
		// otherwise a clean probe would re-admit at full contract
		// and the noisy wire would flap the breaker forever.
		r.KnownFaults = nil
		if err := p.rebuildContractLocked(r); err != nil {
			p.openBreaker(r, round)
			return
		}
		if r.degraded != nil {
			r.State = Repaired
		} else {
			r.State = Healthy
			r.Backoff = 0
		}
		r.ConsecViol = 0
		r.Repairs++
		p.ledger.Repairs++
		return
	}
	for _, lf := range rep.Faults {
		r.learnFault(lf)
	}
	if len(rep.Faults) == 0 && len(r.WireFaults) == 0 {
		// Violations without a localized chip or a convicted wire:
		// the scan cannot derive a degradation that covers them.
		// Keep the breaker open.
		p.openBreaker(r, round)
		return
	}
	if err := p.rebuildContractLocked(r); err != nil || r.degraded == nil {
		p.openBreaker(r, round) // nothing worth serving survives
		return
	}
	r.State = Repaired
	r.ConsecViol = 0
	r.Repairs++
	p.ledger.Repairs++
	// backoff is deliberately NOT reset: a repaired replica that
	// trips again waits longer before its next re-admission.
}

// learnFault merges one scan-localized chip fault into the record,
// which stays sorted by (stage, chip): a new chip is inserted, and a
// known chip's unknown mode is upgraded to a known one, never the
// reverse.
func (c *ReplicaCheckpoint) learnFault(lf health.LocalizedFault) {
	i, seen := slices.BinarySearchFunc(c.KnownFaults, lf, func(a, b health.LocalizedFault) int {
		return cmp.Or(cmp.Compare(a.Stage, b.Stage), cmp.Compare(a.Chip, b.Chip))
	})
	switch {
	case !seen:
		c.KnownFaults = slices.Insert(c.KnownFaults, i, lf)
	case !c.KnownFaults[i].ModeKnown && lf.ModeKnown:
		c.KnownFaults[i] = lf
	}
}

// bestLocked elects the best servable replica not in skip that the
// arbiter can both hear (vis) and reach (reach): best state rank
// (Healthy/Repaired before Suspect), then highest live threshold, then
// — for stability — the current active (under the lease arbiter, the
// lease holder: grantLocked moves both), then lowest index. Nil vis and
// reach see every replica. The lease arbiter passes its round's view:
// granting a lease to a board that cannot receive it, or whose health
// is hearsay, is how split brains start.
func (p *Pool) bestLocked(skip map[int]bool, vis, reach []bool) int {
	best := -1
	for i, r := range p.replicas {
		if skip[i] || !r.servable() || (vis != nil && (!vis[i] || !reach[i])) {
			continue
		}
		if best == -1 {
			best = i
			continue
		}
		b := p.replicas[best]
		switch {
		case r.rank() != b.rank():
			if r.rank() < b.rank() {
				best = i
			}
		case r.threshold() != b.threshold():
			if r.threshold() > b.threshold() {
				best = i
			}
		case i == p.active && best != p.active:
			best = i
		}
	}
	return best
}

// electLocked makes active the best servable replica, counting a
// between-rounds failover when the primary changes.
func (p *Pool) electLocked() {
	best := p.bestLocked(nil, nil, nil)
	if best >= 0 && best != p.active {
		p.active = best
		p.ledger.Failovers++
	}
}

// admit applies Lemma 2 admission control: at most thr messages enter;
// the rest are shed with a retry-after that backs off exponentially
// over consecutive shedding rounds. The admission window rotates with
// the round (a round-robin arbiter): it is the thr messages that start
// at the first input at or past round mod n, wrapping past the last
// input, so under persistent overload every input takes its fair turn
// at being shed, instead of a fixed input-order priority that starves
// the high wires forever. msgs is in ascending input order, and so are
// both lists. A shedding round's admitted list is the Pool's batch,
// valid until the next round.
func (p *Pool) admit(msgs []switchsim.Message, thr int, round int64) (admitted []switchsim.Message, shed []ShedMessage) {
	if len(msgs) <= thr {
		p.shedStreak = 0
		return msgs, nil
	}
	p.shedStreak++
	retryAfter := min(1<<min(p.shedStreak-1, 10), p.cfg.RetryAfterCap)
	offset := int(round % int64(p.n))
	first := sort.Search(len(msgs), func(i int) bool { return msgs[i].Input >= offset })
	// The window is msgs[first:end] or, when it wraps, msgs[:end-len]
	// then msgs[first:]; the shed list is the rest, in input order.
	var rest [2][]switchsim.Message
	if end := first + thr; end <= len(msgs) {
		admitted = append(p.batch[:0], msgs[first:end]...)
		rest = [2][]switchsim.Message{msgs[:first], msgs[end:]}
	} else {
		end -= len(msgs)
		admitted = append(append(p.batch[:0], msgs[:end]...), msgs[first:]...)
		rest[0] = msgs[end:first]
	}
	shed = make([]ShedMessage, 0, len(msgs)-thr)
	for _, part := range rest {
		for _, msg := range part {
			shed = append(shed, ShedMessage{Input: msg.Input, RetryAfter: retryAfter})
		}
	}
	p.batch = admitted
	p.ledger.RetryAfterTotal += retryAfter * len(shed)
	return admitted, shed
}

// effectiveThresholdLocked applies the closed-loop overload control to
// a replica's live ⌊α′m′⌋: the brownout scale steps the advertised
// contract down under sustained congestion, then the AIMD fraction
// caps what admission may pass this round. Without Config.Overload it
// is the identity.
func (p *Pool) effectiveThresholdLocked(thr int) int {
	if thr <= 0 {
		return thr
	}
	if p.brown != nil {
		thr = int(math.Floor(float64(thr) * p.brown.Scale()))
		if thr < 1 {
			thr = 1
		}
	}
	if p.aimd != nil {
		thr = p.aimd.Cap(thr)
	}
	return thr
}

// observeOverloadLocked feeds one round's verdict into the closed
// loop: a congested round (deadline miss, contract violation, or
// client backlog above the configured factor of the live threshold)
// decreases the AIMD fraction multiplicatively and advances the
// brownout entry streak; a clean round increases additively and
// advances the brownout probation window.
func (p *Pool) observeOverloadLocked(thr int, deadlineMissed, violated bool) {
	if p.aimd == nil {
		return
	}
	congested := deadlineMissed || violated ||
		float64(p.clientBacklog) > p.cfg.Overload.BacklogFactor*float64(thr)
	if congested {
		p.ledger.CongestedRounds++
		p.aimd.OnCongestion()
	} else {
		p.aimd.OnClean()
	}
	p.brown.Observe(congested)
}

// Run executes one pool round over the given messages, which list their
// inputs in strictly ascending order (one valid bit per input wire at
// setup); any other batch is an error and no round. Both arbiters
// share the round: the arbiter's step picks the serving replica
// (legacy: land due probes and elect the best servable replica; lease:
// see leaseStepLocked), admission control sheds load above its live
// ⌊α′m′⌋, and serveLocked routes the round — failing over within the
// round if the serving replica violates its contract. Under the lease
// arbiter a holder the arbiter cannot hear serves dark, and stale
// believers shadow-serve.
func (p *Pool) Run(msgs []switchsim.Message) (*RoundResult, error) {
	prev := -1
	for _, msg := range msgs {
		if msg.Input < 0 || msg.Input >= p.n {
			return nil, fmt.Errorf("pool: message input %d out of range [0,%d)", msg.Input, p.n)
		}
		if msg.Input <= prev {
			return nil, fmt.Errorf("pool: message input %d after input %d: a batch lists its inputs in strictly ascending order", msg.Input, prev)
		}
		prev = msg.Input
	}

	p.mu.Lock()
	defer p.mu.Unlock()

	round := p.round
	p.round++
	p.ledger.Rounds++
	p.ledger.Offered += len(msgs)
	rr := &RoundResult{Round: round, ServedBy: -1}

	leased := p.cfg.Lease.Rounds > 0
	var vis, reach []bool // the lease arbiter's view; nil sees everything
	holder := -1
	if leased {
		vis, reach, holder = p.leaseStepLocked(round, rr)
	} else {
		p.probeDueLocked(round, nil, false)
		p.electLocked()
		if p.replicas[p.active].servable() {
			holder = p.active
		}
	}
	if holder < 0 {
		// No replica can serve: everything is refused.
		_, rr.Shed = p.admit(msgs, 0, round)
		p.ledger.Shed += len(rr.Shed)
		if len(msgs) > 0 {
			rr.Violated = true
			p.ledger.Violations++
		}
		return rr, nil
	}

	// Admission against the holder's live contract — or, while a lease
	// holder is dark, its last-known-good contract: graceful degradation
	// to the most recent real threshold, not a guess.
	rawThr := p.replicas[holder].threshold()
	heard := vis == nil || vis[holder]
	if !heard {
		if lkg, ok := p.susp.LastKnownGood(holder); ok {
			rawThr = lkg
		}
	}
	thr := p.effectiveThresholdLocked(rawThr)
	admitted, shed := p.admit(msgs, thr, round)
	rr.Threshold = thr
	rr.Shed = shed
	p.ledger.Admitted += len(admitted)
	p.ledger.Shed += len(shed)

	var frames int
	if heard && !rr.Frozen {
		frames = p.serveLocked(round, holder, admitted, rr, rawThr, vis, reach)
	} else {
		frames = p.serveDarkLocked(round, admitted, rr, vis)
	}
	if leased {
		p.shadowServeLocked(round, admitted, rr, vis, frames)
	}
	return rr, nil
}

// serveLocked routes the round on replica cur with in-round failover:
// on a contract violation the round's setup is replayed on the
// next-best replica the arbiter can hear and reach, until one satisfies
// its contract. Wire corruption counts as a violation: the corrupted
// deliveries are stripped (never counted Delivered) and the round
// retargets. The legacy arbiter retargets the primary; the lease
// arbiter hands the lease off under a bumped fencing token. An accepted
// round may be hedged, then settles its claims and feeds the deadline,
// slow-replica and overload loops. Returns the frames physically
// delivered.
func (p *Pool) serveLocked(round int64, cur int, admitted []switchsim.Message, rr *RoundResult, rawThr int, vis, reach []bool) int {
	tried := make(map[int]bool)
	for {
		r := p.replicas[cur]
		res, ok := p.judgedAttemptLocked(r, round, admitted)
		if ok {
			r.ConsecViol = 0
			if r.State == Suspect {
				// A clean round closes the breaker — back to the state
				// the live contract implies.
				if r.degraded != nil {
					r.State = Repaired
				} else {
					r.State = Healthy
				}
			}
			lat := 1 + p.timingDelayLocked(r, round)
			winner, wlat, wres := r, lat, res
			if p.shouldHedgeLocked(lat) {
				if s, sres, slat := p.hedgeLocked(r, tried, admitted, round); s != nil {
					rr.Hedged = true
					if slat < wlat {
						// First completion wins: the straggling
						// primary's duplicate deliveries are discarded
						// by the receiver.
						winner, wlat, wres = s, slat, sres
						rr.HedgeWon = true
						p.ledger.HedgeWins++
					}
				}
			}
			r.lat.Observe(lat)
			p.slow.Observe(r.ID, lat)
			winner.RoundsServed++
			p.lat.Observe(wlat)
			rr.Latency = wlat
			rr.Result = wres
			rr.ServedBy = winner.ID
			rr.Threshold = p.effectiveThresholdLocked(winner.threshold())
			p.settleClaimsLocked(winner, round, wres, admitted, rr)
			if p.cfg.Deadline > 0 && wlat > p.cfg.Deadline {
				rr.DeadlineMissed = true
				p.ledger.DeadlineMissed += len(wres.Delivered)
			}
			p.sweepSlowLocked(round)
			p.observeOverloadLocked(rawThr, rr.DeadlineMissed, false)
			return len(wres.Delivered)
		}
		p.noteViolation(r, round)
		tried[r.ID] = true
		next := p.bestLocked(tried, vis, reach)
		if next < 0 {
			// Every servable replica violated: best effort, flagged.
			rr.Violated = true
			p.ledger.Violations++
			frames := 0
			if res != nil {
				rr.Result = res
				rr.ServedBy = r.ID
				frames = len(res.Delivered)
				p.bookAcksLocked(r.LeaseToken, frames, rr)
			}
			p.observeOverloadLocked(rawThr, false, true)
			return frames
		}
		if p.cfg.Lease.Rounds > 0 {
			p.grantLocked(round, next, reach)
		} else {
			p.active = next
			p.ledger.Failovers++
		}
		p.ledger.SameRoundFailovers++
		rr.FailedOver = true
		cur = next
	}
}

// judgedAttemptLocked routes the admitted batch on replica r, strips
// the deliveries its wires corrupt, escalates the links its monitor
// convicted, and judges the round against the contract it ran under —
// captured before escalation, which may rebuild it. The result is nil
// when the route itself failed; the verdict is true for a round with
// no corrupted delivery that met its guarantee.
func (p *Pool) judgedAttemptLocked(r *replica, round int64, admitted []switchsim.Message) (*switchsim.Result, bool) {
	c := r.contract()
	res, err := switchsim.Run(c, admitted)
	if err != nil {
		return nil, false
	}
	res, corrupt := p.applyWireNoiseLocked(r, round, res)
	p.escalateLinksLocked(r)
	return res, corrupt == 0 && switchsim.CheckGuarantee(c, admitted, res) == nil
}

// Route implements core.Concentrator: one Run round of payload-free
// messages, so it takes the same arbiter, failover, hedging and ledger
// path as any other round. Shed and undelivered inputs map to −1.
func (p *Pool) Route(valid *bitvec.Vector) ([]int, error) {
	if valid.Len() != p.n {
		return nil, fmt.Errorf("pool: valid vector has %d bits, want %d", valid.Len(), p.n)
	}
	ones := valid.Ones()
	msgs := make([]switchsim.Message, len(ones))
	for i, in := range ones {
		msgs[i].Input = in
	}
	rr, err := p.Run(msgs)
	if err != nil {
		return nil, err
	}
	out := make([]int, p.n)
	for i := range out {
		out[i] = -1
	}
	if rr.Result != nil {
		for _, d := range rr.Result.Delivered {
			out[d.Input] = d.Output
		}
	}
	return out, nil
}

// Name implements core.Concentrator.
func (p *Pool) Name() string {
	p.mu.Lock()
	defer p.mu.Unlock()
	return fmt.Sprintf("pool(%d× %s)", len(p.replicas), p.replicas[0].sw.Name())
}

// Inputs implements core.Concentrator.
func (p *Pool) Inputs() int { return p.n }

// Outputs implements core.Concentrator: the base geometry m. Degraded
// replicas compact their routing into [0, m′) ⊂ [0, m), so routed
// outputs always fit.
func (p *Pool) Outputs() int { return p.m }

// EpsilonBound implements core.Concentrator: m minus the live serving
// threshold, so Threshold(pool) = ⌊α′m′⌋ of the serving replica.
func (p *Pool) EpsilonBound() int { return p.m - p.Threshold() }

// GateDelays implements core.Concentrator: the serving path plus one
// arbiter delay.
func (p *Pool) GateDelays() int { return p.activeContract().GateDelays() + 1 }

// ChipsTraversed implements core.Concentrator: messages cross the
// arbiter board.
func (p *Pool) ChipsTraversed() int { return p.activeContract().ChipsTraversed() + 1 }

// ChipCount implements core.Concentrator: every replica's chips plus
// the arbiter.
func (p *Pool) ChipCount() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	total := 1
	for _, r := range p.replicas {
		total += r.sw.ChipCount()
	}
	return total
}

// DataPinsPerChip implements core.Concentrator.
func (p *Pool) DataPinsPerChip() int { return p.activeContract().DataPinsPerChip() }

func (p *Pool) activeContract() core.Concentrator {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.replicas[p.active].contract()
}

// States returns every replica's current health state.
func (p *Pool) States() []State {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make([]State, len(p.replicas))
	for i, r := range p.replicas {
		out[i] = r.State
	}
	return out
}
