package pool

import (
	"fmt"
	"maps"

	"concentrators/internal/byzantine"
	"concentrators/internal/health"
	"concentrators/internal/link"
	"concentrators/internal/overload"
	"concentrators/internal/partition"
	"concentrators/internal/timing"
)

// Pool durability: checkpoints of the control plane, and the rolling
// drain/rejoin maintenance path built on them.
//
// What a checkpoint captures is exactly what a controller restart must
// not forget: the health/breaker state machines, the localized fault
// record each degraded contract is derived from, the aggregate and
// per-replica ledgers, the admission state (shed streak, AIMD
// fraction, brownout level), and the chaos-injected wire/timing fault
// planes (board wiring — it does not heal when the controller
// reboots). What it deliberately does NOT capture is monitoring
// state: latency histograms, EWMA link monitors, and slow-detector
// windows restart cold. They are estimators over observations, not
// ledgers — a rebooted controller re-learns them in a few rounds, and
// journaling every observation would make the checkpoint O(history)
// instead of O(state).
//
// Each checkpointed struct is the live state it records: the pool's
// counters are one LedgerCheckpoint, the overload machines' states are
// their snapshot structs, and every replica embeds its
// ReplicaCheckpoint. A checkpoint copies them whole and cannot miss a
// field; only the replica's plane fields are filled in the copy, from
// the live planes. What a restart forgets is written once, in
// wipeLocked (Drain, Revive) and coldStartLocked (monitors).
//
// Degraded contracts are not serialized either: they are pure
// functions of the fault record, so Restore re-derives them through
// contractFor, the derivation that built them live.

// ReplicaCheckpoint is the serializable control-plane state of one
// replica, and, embedded in it, that replica's live state.
type ReplicaCheckpoint struct {
	ID     int
	State  State
	Killed bool

	// Breaker machine. Backoff is the current re-admission backoff
	// (0 = never tripped); ProbeAt is the round of the next half-open
	// probe verdict (−1 none); PendingScan reports a probe scan in
	// flight (half-open).
	ConsecViol  int
	Backoff     int
	ProbeAt     int64
	PendingScan bool

	// Gray-failure conviction (gates rejoin behind a timed canary:
	// BIST cannot see slowness).
	SlowConvicted bool

	// Primary-lease belief: the fencing token and horizon of the last
	// grant the board heard. The belief is durable — a restarted
	// controller must still fence a board serving on a pre-crash grant.
	// It is the board's own view: a board serving past LeaseUntil has
	// self-fenced, and one serving with LeaseToken behind the arbiter's
	// current token is a stale believer whose deliveries the ledger
	// fences.
	LeaseToken uint64
	LeaseUntil int64

	// Fault record: scan-localized chip faults plus quarantined output
	// wires, from which the degraded contract is re-derived.
	// KnownFaults holds one entry per chip, sorted by (stage, chip);
	// WireFaults maps each output wire the receiver's link monitor
	// quarantined to its fault, and is never nil in a live replica.
	KnownFaults []health.LocalizedFault
	WireFaults  map[int]health.LocalizedFault

	// Chaos-injected hardware planes (board wiring survives a
	// controller reboot; a rebuilt pool re-injects them from here).
	// Every plane's faults are recorded in insertion order, the order
	// the plane applies them in: a restored plane re-adds them in that
	// order and draws exactly what the original drew. A live replica
	// keeps its planes beside this struct and these six fields zero.
	HasWirePlane      bool
	WirePlaneSeed     int64
	WirePlaneFaults   []link.WireFault
	HasTimingPlane    bool
	TimingPlaneSeed   int64
	TimingPlaneFaults []timing.Fault

	// Byzantine replay surface: the ring of recently emitted genuine
	// claims, what a Replay fault re-emits verbatim, original tags and
	// all. It must survive a restart — a receiver that forgot them
	// would book the replay Delivered instead of Duplicated.
	Recent []byzantine.Claim

	// Accounting.
	Trips, Probes, Scans, Violations, RoundsServed, Repairs int
	Corrupted, LinkQuarantines                              int
	SlowConvictions, Canaries                               int
}

// LedgerCheckpoint is the durable slice of the pool's aggregate Stats:
// every conservation-relevant counter, none of the monitoring state
// (the latency histogram restarts cold alongside the other monitors).
type LedgerCheckpoint struct {
	Rounds                             int
	Offered, Admitted, Shed, Delivered int
	RetryAfterTotal                    int
	Failovers, SameRoundFailovers      int
	Violations                         int
	Trips, Probes, Scans, Repairs      int
	CorruptedDeliveries                int
	Hedges, HedgeWins                  int
	SlowConvictions, Canaries          int
	DeadlineMissed                     int
	LinksQuarantined                   int
	CongestedRounds                    int
	// Partition-tolerance ledger terms (PR 7): the Fenced conservation
	// term and its split-brain companions survive a restart like every
	// other conservation-relevant counter.
	Fenced, StaleDelivered          int
	LeaseHandoffs, FrozenRounds     int
	ShadowServed, DualPrimaryRounds int
	// Byzantine ledger terms: the Forged/Duplicated conservation terms
	// and the audit/equivocation record behind the convictions.
	Forged, Duplicated                                            int
	Audits, AuditDisagreements, WitnessConvictions, Equivocations int
}

// Checkpoint is the serializable control-plane state of the whole
// pool: what a process restart restores via Restore.
type Checkpoint struct {
	Round         int64
	Active        int
	ShedStreak    int
	ClientBacklog int
	Ledger        LedgerCheckpoint
	// Closed-loop admission state; meaningful only when the pool was
	// built with Config.Overload.
	AIMD     overload.AIMDSnapshot
	Brownout overload.BrownoutSnapshot
	// Partition-safe lease state (meaningful when Config.Lease.Rounds >
	// 0): the monotonic fencing token MUST survive a restart — a reborn
	// arbiter that reissued token 1 would re-legitimize every fenced
	// shadow primary. Buffered acks and suspicion clocks ride along so
	// recovery neither loses nor double-books an in-flight delivery.
	FenceToken  uint64
	LeaseHolder int
	LeaseExpiry int64
	Suspicion   health.SuspicionSnapshot
	InFlight    []PendingAck
	// The control-plane partition plane at checkpoint time: board
	// visibility does not heal because the controller rebooted.
	HasPartitionPlane bool
	PartitionSeed     int64
	PartitionFaults   []partition.Fault
	// Byzantine containment state. The behavior plane survives like its
	// sibling planes (a lying controller does not repent because the
	// arbiter rebooted). The verification edges are restored exactly:
	// the dedup window (or a replay inside the outage books Delivered),
	// the stamper's sequence counter (or post-restart genuine frames
	// collide with the window), and the per-replica audit streaks (or a
	// liar resets its record by crashing the arbiter). The checksum key
	// is deliberately NOT here — it re-derives from the configured seed,
	// and a checkpoint that carried it would hand the key to anything
	// able to read the journal.
	HasBehaviorPlane bool
	BehaviorSeed     int64
	BehaviorFaults   []byzantine.Fault
	VerifierWindow   []uint64
	StamperNextSeq   uint32
	WitnessStreaks   []int
	Replicas         []ReplicaCheckpoint
}

// checkpointLocked copies r's live state and records its planes.
func (r *replica) checkpointLocked() ReplicaCheckpoint {
	cp := r.ReplicaCheckpoint
	cp.KnownFaults = append([]health.LocalizedFault(nil), r.KnownFaults...)
	cp.WireFaults = maps.Clone(r.WireFaults)
	cp.Recent = append([]byzantine.Claim(nil), r.Recent...)
	if r.plane != nil {
		cp.HasWirePlane = true
		cp.WirePlaneSeed = r.plane.Seed()
		cp.WirePlaneFaults = append([]link.WireFault(nil), r.plane.Faults()...)
	}
	if r.tplane != nil {
		cp.HasTimingPlane = true
		cp.TimingPlaneSeed = r.tplane.Seed()
		cp.TimingPlaneFaults = append([]timing.Fault(nil), r.tplane.Faults()...)
	}
	return cp
}

// restoredReplica is a replica's control plane rebuilt from a
// checkpoint and not yet installed. Restore and Rejoin build every
// part that can fail before they assign anything, so a checkpoint they
// reject leaves the pool as it was.
type restoredReplica struct {
	ReplicaCheckpoint
	plane    *link.CorruptionPlane
	tplane   *timing.Plane
	degraded *health.DegradedSwitch
}

// rebuild validates cp against r's board and builds the live state it
// restores: the fault record, through the probe's merge rule (the
// checkpoint may come from a journal, and the rule sorts it), copies
// of the wire map and the replay ring, the planes, and the serving
// contract the fault record derives. The plane fields stay zero, as in
// every live replica.
func (r *replica) rebuild(cp ReplicaCheckpoint) (restoredReplica, error) {
	b := restoredReplica{ReplicaCheckpoint: cp}
	b.KnownFaults = nil
	for _, lf := range cp.KnownFaults {
		b.learnFault(lf)
	}
	b.WireFaults = make(map[int]health.LocalizedFault, len(cp.WireFaults))
	maps.Copy(b.WireFaults, cp.WireFaults)
	b.Recent = append([]byzantine.Claim(nil), cp.Recent...)
	b.HasWirePlane, b.WirePlaneSeed, b.WirePlaneFaults = false, 0, nil
	b.HasTimingPlane, b.TimingPlaneSeed, b.TimingPlaneFaults = false, 0, nil
	if cp.HasWirePlane {
		b.plane = link.NewCorruptionPlane(cp.WirePlaneSeed)
		for _, f := range cp.WirePlaneFaults {
			if err := b.plane.Add(f); err != nil {
				return b, fmt.Errorf("pool: replica %d checkpoint carries invalid wire fault: %w", cp.ID, err)
			}
		}
	}
	if cp.HasTimingPlane {
		b.tplane = timing.NewPlane(cp.TimingPlaneSeed)
		for _, f := range cp.TimingPlaneFaults {
			if err := b.tplane.Add(f); err != nil {
				return b, fmt.Errorf("pool: replica %d checkpoint carries invalid timing fault: %w", cp.ID, err)
			}
		}
	}
	var err error
	if b.degraded, err = contractFor(r.sw, &b.ReplicaCheckpoint); err != nil {
		return b, fmt.Errorf("pool: replica %d contract does not rebuild from checkpoint: %w", cp.ID, err)
	}
	return b, nil
}

// installLocked makes b replica r's live state and restarts r's
// monitors (latency record, link monitor, slow-detector window) cold.
func (p *Pool) installLocked(r *replica, b restoredReplica) {
	r.ReplicaCheckpoint = b.ReplicaCheckpoint
	r.plane, r.tplane, r.degraded = b.plane, b.tplane, b.degraded
	p.coldStartLocked(r)
}

// CheckpointReplica captures replica i's control-plane state — the
// first step of the rolling drain/rejoin maintenance path.
func (p *Pool) CheckpointReplica(i int) (ReplicaCheckpoint, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	r, err := p.replicaLocked(i)
	if err != nil {
		return ReplicaCheckpoint{}, err
	}
	return r.checkpointLocked(), nil
}

// Drain takes replica i gracefully out of rotation for a maintenance
// restart: it is quarantined with no probe scheduled (it cannot be
// re-admitted until Rejoin), and its controller state — health record,
// breaker counters, monitors — is wiped, exactly what rebooting the
// board's controller does. The silicon and board wiring (chip, wire,
// and timing fault planes) survive the reboot untouched. Traffic the
// replica was serving retargets at the next election; nothing
// in-flight is lost, because a drain happens between rounds by
// construction (the pool lock serializes it against Run).
//
// Drain does not count as a breaker trip: the backoff sequence is
// untouched and no violation is booked. Checkpoint first — Drain is
// the restart, and the wipe is the point.
func (p *Pool) Drain(i int) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	r, err := p.replicaLocked(i)
	if err != nil {
		return err
	}
	if r.Killed {
		return fmt.Errorf("pool: replica %d is killed; revive it instead of draining", i)
	}
	p.wipeLocked(r)
	r.State = Quarantined
	r.PendingScan = false
	r.ProbeAt = -1
	r.ConsecViol = 0
	return nil
}

// wipeLocked forgets what rebooting replica r's controller forgets,
// for a drain and a revive alike: the fault record and the degraded
// contract derived from it, the slow conviction, the board's lease
// belief (it re-hears no grant until it is back in rotation) and the
// arbiter's suspicion memory of it, and the monitors.
func (p *Pool) wipeLocked(r *replica) {
	r.degraded = nil
	r.KnownFaults = nil
	r.WireFaults = make(map[int]health.LocalizedFault)
	r.SlowConvicted = false
	r.LeaseToken, r.LeaseUntil = 0, -1
	p.susp.Forget(r.ID)
	p.coldStartLocked(r)
}

// coldStartLocked restarts replica r's monitors cold: its latency
// record, its slow-detector window and a fresh link monitor.
func (p *Pool) coldStartLocked(r *replica) {
	r.lat.Reset()
	p.slow.Reset(r.ID)
	r.monitor = link.NewLinkMonitor(link.MonitorConfig{})
}

// Rejoin brings a drained replica back from its checkpoint: the
// control record (fault record, breaker counters, ledgers) is
// restored, the serving contract re-derived, and the replica is
// re-admitted through the standard half-open path — a BIST probe scan
// next round, gated behind a timed canary if the checkpoint says the
// replica was slow-convicted. It re-enters rotation only when that
// probe passes, exactly like a replica coming back from quarantine;
// rejoin gets no shortcut around the breaker.
func (p *Pool) Rejoin(i int, cp ReplicaCheckpoint) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	r, err := p.replicaLocked(i)
	if err != nil {
		return err
	}
	if r.Killed {
		return fmt.Errorf("pool: replica %d is killed; revive it instead of rejoining", i)
	}
	if cp.ID != i {
		return fmt.Errorf("pool: checkpoint belongs to replica %d, not %d", cp.ID, i)
	}
	b, err := r.rebuild(cp)
	if err != nil {
		return err
	}
	p.installLocked(r, b)
	r.Killed = false
	r.State = Quarantined
	r.ProbeAt = p.round + 1
	r.PendingScan = true
	return nil
}

// Snapshot captures the pool's complete control-plane state. Pair with
// Restore on a pool rebuilt over the same switches to model a control
// process crash-restart.
func (p *Pool) Snapshot() *Checkpoint {
	p.mu.Lock()
	defer p.mu.Unlock()
	cp := &Checkpoint{
		Round:         p.round,
		Active:        p.active,
		ShedStreak:    p.shedStreak,
		ClientBacklog: p.clientBacklog,
		Ledger:        p.ledger,
		FenceToken:    p.fenceToken,
		LeaseHolder:   p.leaseHolder,
		LeaseExpiry:   p.leaseExpiry,
		Suspicion:     p.susp.Snapshot(),
		InFlight:      append([]PendingAck(nil), p.inflight...),
	}
	if p.pplane != nil {
		cp.HasPartitionPlane = true
		cp.PartitionSeed = p.pplane.Seed()
		cp.PartitionFaults = append([]partition.Fault(nil), p.pplane.Faults()...)
	}
	if p.bplane != nil {
		cp.HasBehaviorPlane = true
		cp.BehaviorSeed = p.bplane.Seed()
		cp.BehaviorFaults = append([]byzantine.Fault(nil), p.bplane.Faults()...)
	}
	if p.verifier != nil {
		cp.VerifierWindow = p.verifier.Window()
		cp.StamperNextSeq = p.stamper.NextSeq()
	}
	if p.wtally != nil {
		cp.WitnessStreaks = p.wtally.Streaks()
	}
	if p.aimd != nil {
		cp.AIMD = p.aimd.Snapshot()
		cp.Brownout = p.brown.Snapshot()
	}
	for _, r := range p.replicas {
		cp.Replicas = append(cp.Replicas, r.checkpointLocked())
	}
	return cp
}

// Restore overwrites the pool's control plane from a checkpoint taken
// on a pool with the same replica count and overload configuration —
// the recovery path of a control process restart. Monitoring state
// (latency histograms, link monitors, slow-detector windows) restarts
// cold; everything a ledger or a state machine depends on is restored
// exactly. A checkpoint it rejects changes nothing.
func (p *Pool) Restore(cp *Checkpoint) error {
	if cp == nil {
		return fmt.Errorf("pool: nil checkpoint")
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if len(cp.Replicas) != len(p.replicas) {
		return fmt.Errorf("pool: checkpoint has %d replicas, pool has %d", len(cp.Replicas), len(p.replicas))
	}
	if cp.Active < 0 || cp.Active >= len(p.replicas) {
		return fmt.Errorf("pool: checkpoint active replica %d out of range [0,%d)", cp.Active, len(p.replicas))
	}
	built := make([]restoredReplica, len(cp.Replicas))
	for idx, rcp := range cp.Replicas {
		if rcp.ID != idx {
			return fmt.Errorf("pool: checkpoint replica %d carries id %d", idx, rcp.ID)
		}
		var err error
		if built[idx], err = p.replicas[idx].rebuild(rcp); err != nil {
			return err
		}
	}
	var pplane *partition.Plane
	if cp.HasPartitionPlane {
		pplane = partition.NewPlane(cp.PartitionSeed)
		for _, f := range cp.PartitionFaults {
			if err := pplane.Add(f); err != nil {
				return fmt.Errorf("pool: checkpoint carries invalid partition fault: %w", err)
			}
		}
	}
	var bplane *byzantine.Plane
	if cp.HasBehaviorPlane {
		bplane = byzantine.NewPlane(cp.BehaviorSeed)
		for _, f := range cp.BehaviorFaults {
			if err := bplane.Add(f); err != nil {
				return fmt.Errorf("pool: checkpoint carries invalid behavior fault: %w", err)
			}
		}
	}
	// Every check has passed; nothing below fails.
	for idx, b := range built {
		p.installLocked(p.replicas[idx], b)
	}
	p.round = cp.Round
	p.active = cp.Active
	p.shedStreak = cp.ShedStreak
	p.clientBacklog = cp.ClientBacklog
	p.ledger = cp.Ledger
	p.fenceToken = cp.FenceToken
	p.leaseHolder = cp.LeaseHolder
	p.leaseExpiry = cp.LeaseExpiry
	p.susp = health.RestoreSuspicionClock(len(p.replicas), cp.Suspicion)
	p.inflight = append([]PendingAck(nil), cp.InFlight...)
	p.pplane, p.bplane = pplane, bplane
	p.stamper, p.verifier = nil, nil
	if cp.VerifierWindow != nil || cp.StamperNextSeq > 0 {
		// The key is not in the checkpoint; it re-derives from config.
		p.ensureEdgesLocked()
		p.stamper.RestoreSeq(cp.StamperNextSeq)
		p.verifier.RestoreWindow(cp.VerifierWindow)
	}
	p.wtally = nil
	if cp.WitnessStreaks != nil {
		p.wtally = health.RestoreWitnessTally(len(p.replicas), cp.WitnessStreaks, cp.Ledger.WitnessConvictions)
	}
	p.lat.Reset()
	if p.aimd != nil {
		p.aimd.Restore(cp.AIMD)
		p.brown.Restore(cp.Brownout)
	}
	return nil
}
