package concentrators

// Public facade: the library's supported surface for importers of this
// module. The implementation lives under internal/ (see doc.go for the
// map); these aliases and wrappers re-export the pieces a downstream
// user of the switches needs — construction, routing, bit-serial
// simulation, and packaging reports — without exposing the substrates.

import (
	"concentrators/internal/bitvec"
	"concentrators/internal/byzantine"
	"concentrators/internal/chaos"
	"concentrators/internal/core"
	"concentrators/internal/health"
	"concentrators/internal/journal"
	"concentrators/internal/layout"
	"concentrators/internal/link"
	"concentrators/internal/overload"
	"concentrators/internal/partition"
	"concentrators/internal/pool"
	"concentrators/internal/seedrand"
	"concentrators/internal/switchsim"
	"concentrators/internal/timing"
)

// Concentrator is the uniform switch interface: Route performs the
// setup cycle, EpsilonBound gives the Lemma 2 ε, and the remaining
// methods report the §4/§5 cost model.
type Concentrator = core.Concentrator

// ValidBits is a fixed-length vector of valid bits presented at setup.
type ValidBits = bitvec.Vector

// NewValidBits returns an all-invalid pattern of n inputs.
func NewValidBits(n int) *ValidBits { return bitvec.New(n) }

// ParseValidBits builds a pattern from a '0'/'1' string.
func ParseValidBits(s string) (*ValidBits, error) { return bitvec.Parse(s) }

// Switch constructors — the paper's designs and baselines.
var (
	// NewPerfectSwitch is the single-chip n-by-m perfect concentrator
	// (§1): Θ(n²) area, n+m pins, 2 lg n + O(1) gate delays.
	NewPerfectSwitch = core.NewPerfectSwitch
	// NewRevsortSwitch is the §4 three-stage multichip partial
	// concentrator: n a perfect square with power-of-two side.
	NewRevsortSwitch = core.NewRevsortSwitch
	// NewColumnsortSwitch is the §5 two-stage multichip partial
	// concentrator over an explicit r×s mesh (n = r·s, s | r).
	NewColumnsortSwitch = core.NewColumnsortSwitch
	// NewColumnsortSwitchBeta picks the r×s shape for a β ∈ [1/2, 1].
	NewColumnsortSwitchBeta = core.NewColumnsortSwitchBeta
	// NewFullRevsortHyper and NewFullColumnsortHyper are the §6
	// multichip HYPERconcentrators (full sorting).
	NewFullRevsortHyper    = core.NewFullRevsortHyper
	NewFullColumnsortHyper = core.NewFullColumnsortHyper
	// NewCrossbar is the naive single-chip baseline.
	NewCrossbar = core.NewCrossbar
)

// LoadRatio returns α = 1 − ε/m (clamped at 0): the guaranteed-routing
// fraction of the switch.
func LoadRatio(c Concentrator) float64 { return core.LoadRatio(c) }

// GuaranteeThreshold returns ⌊αm⌋ = m − ε: with k ≤ this many messages,
// every message is routed.
func GuaranteeThreshold(c Concentrator) int { return core.Threshold(c) }

// Bit-serial message simulation (§2's message format).
type (
	// Message is a bit-serial message: a valid bit at setup, then
	// Payload bits, one per clock.
	Message = switchsim.Message
	// Result reports one setup-and-stream round.
	Result = switchsim.Result
	// Delivery is one delivered message.
	Delivery = switchsim.Delivery
)

// NewMessage builds a message whose payload encodes data MSB-first.
func NewMessage(input int, data []byte) Message { return switchsim.NewMessage(input, data) }

// DecodePayload reassembles bytes from a delivered bit stream.
func DecodePayload(bits []byte) []byte { return switchsim.DecodePayload(bits) }

// Run simulates one round: setup establishes paths, payloads stream.
func Run(sw Concentrator, msgs []Message) (*Result, error) { return switchsim.Run(sw, msgs) }

// CheckGuarantee verifies the §1 delivery guarantee and payload
// integrity of a Result, pairing deliveries with msgs in msgs' order
// (the order Run keeps).
func CheckGuarantee(sw Concentrator, msgs []Message, res *Result) error {
	return switchsim.CheckGuarantee(sw, msgs, res)
}

// RandStream is the seeded generator RandomMessages draws from: its
// values equal rand.New(rand.NewSource(seed))'s, value for value.
type RandStream = seedrand.Stream

// NewRandStream returns the stream of rand.NewSource(seed).
func NewRandStream(seed int64) RandStream { return seedrand.NewStream(seed) }

// RandomMessages generates Bernoulli traffic: one message per input
// with the given probability, in ascending input order.
func RandomMessages(s *RandStream, n int, load float64, payloadBits int) []Message {
	return switchsim.RandomMessages(s, n, load, payloadBits)
}

// Congestion-control sessions (§1: buffer, misroute, or drop-and-resend).
type (
	// Policy selects the congestion-control discipline.
	Policy = switchsim.Policy
	// SessionConfig drives a multi-round session.
	SessionConfig = switchsim.SessionConfig
	// SessionStats summarizes a session.
	SessionStats = switchsim.SessionStats
)

// The congestion-control policies.
const (
	Drop     = switchsim.Drop
	Resend   = switchsim.Resend
	Buffer   = switchsim.Buffer
	Misroute = switchsim.Misroute
)

// RunSession simulates a multi-round message session under a policy.
func RunSession(sw Concentrator, cfg SessionConfig) (*SessionStats, error) {
	return switchsim.RunSession(sw, cfg)
}

// Chip-level fault injection and the health plane: BIST-style fault
// detection, localization, and graceful degradation.
type (
	// ChipFault addresses one failed chip: (stage, chip, failure mode).
	ChipFault = core.ChipFault
	// ChipFaultMode is the chip failure mode.
	ChipFaultMode = core.ChipFaultMode
	// FaultPlane is the set of live chip faults threaded through Route.
	FaultPlane = core.FaultPlane
	// StageInfo describes one chip stage of a multichip switch.
	StageInfo = core.StageInfo
	// FaultInjectable is a multichip switch accepting chip-level fault
	// injection; RevsortSwitch and ColumnsortSwitch implement it.
	FaultInjectable = core.FaultInjectable
	// ScanReport is the outcome of one BIST health scan.
	ScanReport = health.ScanReport
	// LocalizedFault is the scan's diagnosis of one failed chip.
	LocalizedFault = health.LocalizedFault
	// DegradedSwitch serves traffic after faults under a recomputed,
	// provably weaker contract.
	DegradedSwitch = health.DegradedSwitch
	// ScheduledFault is one arrival of a fault process.
	ScheduledFault = health.ScheduledFault
	// FaultSessionConfig drives a fault-aware multi-round session.
	FaultSessionConfig = health.FaultSessionConfig
	// FaultSessionStats extends SessionStats with fault observability.
	FaultSessionStats = health.FaultSessionStats
	// DetectionEvent records one fault localization and its latency.
	DetectionEvent = health.DetectionEvent
)

// The chip failure modes.
const (
	ChipDead        = core.ChipDead
	ChipStuckOutput = core.ChipStuckOutput
	ChipSwappedPair = core.ChipSwappedPair
	ChipPassThrough = core.ChipPassThrough
)

// NewFaultPlane returns an empty fault plane.
func NewFaultPlane() *FaultPlane { return core.NewFaultPlane() }

// Scan runs a BIST health scan against sw's installed fault plane,
// localizing diverging chips down to (stage, chip).
func Scan(sw FaultInjectable) (*ScanReport, error) { return health.Scan(sw) }

// NewDegradedSwitch derives the degraded (n, m−f, 1−ε′/(m−f))
// configuration covering the localized faults.
func NewDegradedSwitch(sw FaultInjectable, faults []LocalizedFault) (*DegradedSwitch, error) {
	return health.NewDegradedSwitch(sw, faults)
}

// GenerateFaultSchedule draws a deterministic seeded fault arrival
// process with mean time between failures of mtbf rounds.
func GenerateFaultSchedule(seed int64, sw FaultInjectable, mtbf float64, rounds, maxFaults int) []ScheduledFault {
	return health.GenerateFaultSchedule(seed, sw, mtbf, rounds, maxFaults)
}

// RunFaultAwareSession simulates a session during which chip faults
// strike mid-stream: online detection, localization, degradation, and
// recovery are all exercised and reported.
func RunFaultAwareSession(sw FaultInjectable, cfg FaultSessionConfig) (*FaultSessionStats, error) {
	return health.RunFaultAwareSession(sw, cfg)
}

// Wire-level data-plane integrity: seeded wire corruption, CRC-framed
// payloads, sliding-window ARQ recovery, and link-health escalation
// into the quarantine machinery.
type (
	// WireFault is one wire-level fault (bit flips, bursts, stuck
	// wires, erasures) on the corruption plane.
	WireFault = link.WireFault
	// WireFaultMode is the wire failure mode.
	WireFaultMode = link.WireFaultMode
	// CorruptionPlane is a seeded, deterministic set of wire faults —
	// the data plane's counterpart of FaultPlane.
	CorruptionPlane = link.CorruptionPlane
	// LinkAddr addresses one stage-to-stage link of a multichip switch.
	LinkAddr = link.LinkAddr
	// LinkHealth is one link's receiver-side corruption history.
	LinkHealth = link.LinkHealth
	// LinkMonitorConfig sets the EWMA corruption monitor's escalation
	// threshold and minimum frames (the EWMA weighs each new frame
	// 0.25).
	LinkMonitorConfig = link.MonitorConfig
	// CRCKind selects the frame checksum.
	CRCKind = link.CRC
	// IntegrityConfig enables the wire-integrity plane of a session:
	// CRC framing, sliding-window ARQ, and corruption injection.
	IntegrityConfig = switchsim.IntegrityConfig
	// IntegrityStats reports a session's data-plane integrity side.
	IntegrityStats = switchsim.IntegrityStats
)

// The wire failure modes and checksum selectors.
const (
	WireBitFlip = link.WireBitFlip
	WireBurst   = link.WireBurst
	WireStuck   = link.WireStuck
	WireErasure = link.WireErasure

	CRCNone = link.CRCNone
	CRC8    = link.CRC8
	CRC16   = link.CRC16

	// AllWires / AllStages in a WireFault target every wire of a stage
	// or every stage — ambient noise rather than a single bad trace.
	AllWires  = link.AllWires
	AllStages = link.AllStages
)

// NewCorruptionPlane returns an empty, seeded wire-corruption plane.
func NewCorruptionPlane(seed int64) *CorruptionPlane { return link.NewCorruptionPlane(seed) }

// FrameOverhead returns the framing cost in bits (sequence number plus
// checksum) of a CRC selector.
func FrameOverhead(c CRCKind) int { return link.FrameOverhead(c) }

// EncodeFrame wraps a payload in sequence number and checksum;
// DecodeFrame validates and unwraps it.
var (
	EncodeFrame = link.EncodeFrame
	DecodeFrame = link.DecodeFrame
)

// RunIntegritySession simulates a session with the wire-integrity
// plane enabled and health-plane escalation installed: links whose
// corruption EWMA stays over threshold are BIST-confirmed and
// quarantined, recomputing the serving contract.
func RunIntegritySession(sw FaultInjectable, cfg SessionConfig) (*SessionStats, error) {
	return health.RunIntegritySession(sw, cfg)
}

// Replicated switch pools: health-gated failover, admission control,
// and the deterministic chaos harness that certifies them.
type (
	// SwitchPool fronts N fault-injectable switch replicas (primary +
	// hot spares) behind a single Route/Run facade with health-gated
	// failover and ⌊α′m′⌋ admission control. Run takes a round's
	// messages in strictly ascending input order and rejects any other
	// batch.
	SwitchPool = pool.Pool
	// PoolConfig tunes the pool's circuit breaker and admission control.
	PoolConfig = pool.Config
	// PoolStats is the pool's cumulative observability.
	PoolStats = pool.Stats
	// PoolRoundResult reports one pool round: who served, what was
	// shed, whether the arbiter failed over.
	PoolRoundResult = pool.RoundResult
	// ReplicaState is a replica's health-state-machine state.
	ReplicaState = pool.State
	// ChaosConfig drives one deterministic chaos replay.
	ChaosConfig = chaos.Config
	// ChaosEvent is one scheduled chaos action.
	ChaosEvent = chaos.Event
	// ChaosReport is the outcome of one chaos replay.
	ChaosReport = chaos.Report
)

// The replica health states.
const (
	ReplicaHealthy     = pool.Healthy
	ReplicaSuspect     = pool.Suspect
	ReplicaQuarantined = pool.Quarantined
	ReplicaRepaired    = pool.Repaired
)

// NewSwitchPool builds a pool over the given replicas (all must share
// the same n×m geometry, and no two one fault plane); replica 0 starts
// as the primary. Each Run round takes its messages in strictly
// ascending input order, as RandomMessages builds them.
func NewSwitchPool(cfg PoolConfig, replicas ...FaultInjectable) (*SwitchPool, error) {
	return pool.New(cfg, replicas...)
}

// GenerateChaosSchedule derives a deterministic chaos schedule (chip
// faults, mid-stream primary kills, wire-corruption bursts, stall
// bursts, load surges, drain/rejoin cycles, partition windows,
// byzantine lie windows, crash-restarts, scan-latency jitter) from a
// seed.
func GenerateChaosSchedule(seed int64, sw FaultInjectable, cfg ChaosConfig) ([]ChaosEvent, error) {
	return chaos.GenerateSchedule(seed, sw, cfg)
}

// RunChaos replays a chaos schedule against a fresh pool of
// cfg.Replicas switches built by build, verifying every round against
// the live replica set's degraded contract.
func RunChaos(build func() (FaultInjectable, error), events []ChaosEvent, cfg ChaosConfig) (*ChaosReport, error) {
	return chaos.Run(build, events, cfg)
}

// Gray-failure tolerance: seeded timing faults, Jacobson/Karn adaptive
// retransmit timers, latency histograms, hedged dispatch, slow-replica
// conviction, and deadline-SLO accounting.
type (
	// TimingFault is one gray-failure timing fault: a component that
	// still routes correctly but late (constant slowdown, heavy-tail
	// jitter, GC-like pauses, degradation ramps).
	TimingFault = timing.Fault
	// TimingMode is the timing fault shape.
	TimingMode = timing.Mode
	// TimingPlane is a seeded, deterministic set of timing faults — the
	// latency counterpart of CorruptionPlane.
	TimingPlane = timing.Plane
	// RTTEstimator adapts ARQ retransmit timeouts to observed latency
	// (EWMA mean + deviation, Karn's rule, exponential backoff). The
	// zero value is ready for use.
	RTTEstimator = timing.Estimator
	// LatencyHistogram is a log-bucketed latency histogram with
	// witnessed p50/p99/p999 quantile accessors.
	LatencyHistogram = timing.Histogram
	// SlowDetector convicts gray (correct but persistently slow)
	// replicas on relative peer evidence.
	SlowDetector = health.SlowDetector
)

// The timing fault shapes.
const (
	TimingConstant = timing.Constant
	TimingJitter   = timing.Jitter
	TimingPause    = timing.Pause
	TimingRamp     = timing.Ramp
)

// NewTimingPlane returns an empty, seeded timing fault plane.
func NewTimingPlane(seed int64) *TimingPlane { return timing.NewPlane(seed) }

// NewRTTEstimator builds a Jacobson/Karn estimator with the classic
// constants (α=1/8, β=1/4, K=4, RTO ∈ [1,64]).
func NewRTTEstimator() *RTTEstimator { return timing.NewEstimator() }

// NewSlowDetector builds a relative-percentile slow-replica detector
// over the given replica count: a replica whose 0.9 latency quantile
// over its last 32 rounds stays above 3× its peers' median for 3
// sweeps is convicted, once 8 rounds are on record.
func NewSlowDetector(replicas int) (*SlowDetector, error) {
	return health.NewSlowDetector(replicas)
}

// Overload robustness: seeded surge faults, closed-loop AIMD
// admission, CoDel backlog drains, client retry budgets, and brownout
// contract degradation.
type (
	// SurgeFault is one load fault: a bounded step, ramp, flash-crowd,
	// or sustained multiplier on the offered load.
	SurgeFault = overload.Fault
	// SurgeMode is the surge fault shape.
	SurgeMode = overload.Mode
	// SurgePlane is a seeded, deterministic set of surge faults — the
	// load counterpart of TimingPlane.
	SurgePlane = overload.Plane
	// CoDelConfig tunes the sojourn-based backlog drain (target,
	// interval).
	CoDelConfig = overload.CoDelConfig
	// RetryConfig tunes the client retry budget (token bucket plus
	// full-jitter exponential backoff).
	RetryConfig = overload.RetryConfig
	// OverloadConfig tunes the pool's closed loop (AIMD admission and
	// brownout under a congestion waterline).
	OverloadConfig = overload.Config
	// OverloadSessionConfig drives a closed-loop client session against
	// a Pool: surge-multiplied arrivals, budgeted retries, CoDel
	// drains, and a freshness SLO.
	OverloadSessionConfig = pool.OverloadSessionConfig
	// OverloadSessionStats is the overload session's conservation
	// ledger: Offered = Delivered + DeadlineMissed + Shed +
	// FinalBacklog.
	OverloadSessionStats = pool.OverloadSessionStats
)

// The surge fault shapes.
const (
	SurgeStep      = overload.Step
	SurgeRamp      = overload.Ramp
	SurgeFlash     = overload.Flash
	SurgeSustained = overload.Sustained
)

// NewSurgePlane returns an empty, seeded surge fault plane.
func NewSurgePlane(seed int64) *SurgePlane { return overload.NewPlane(seed) }

// RunOverloadSession drives closed-loop (or, with a nil RetryConfig,
// open-loop) client traffic through a replicated pool under a surge
// plane. It is the API of the PR's collapse/recovery property: on the
// same seed, the open loop collapses metastably under a sustained 4×
// surge while the closed loop holds goodput at the live ⌊α′m′⌋.
func RunOverloadSession(p *SwitchPool, cfg OverloadSessionConfig) (*OverloadSessionStats, error) {
	return pool.RunOverloadSession(p, cfg)
}

// Crash-restart durability: the snapshot + write-ahead journal, the
// seeded crash fault plane that kills the simulated process at
// (round, phase) points, exactly-once session recovery, and pool
// control-plane checkpoints for rolling drain/rejoin maintenance.
type (
	// JournalConfig enables the durability plane of a session: snapshot
	// cadence, compaction, the crash schedule, and the unjournaled
	// control that demonstrates what crashes cost without a journal.
	JournalConfig = journal.Config
	// JournalStore is the append-only byte store a journal writes to.
	JournalStore = journal.Store
	// JournalMemStore is the in-memory Store used by the simulators.
	JournalMemStore = journal.MemStore
	// JournalWriter appends framed, checksummed records to a Store.
	JournalWriter = journal.Writer
	// JournalRecord is one replayed record (kind, LSN, payload).
	JournalRecord = journal.Record
	// JournalReplayResult reports a replay: the valid record prefix,
	// the last snapshot's index, and any discarded torn tail.
	JournalReplayResult = journal.ReplayResult
	// CrashFault is one scheduled process kill: a (round, phase) point
	// plus an optional torn fraction of the in-flight record.
	CrashFault = journal.CrashFault
	// CrashPhase locates a kill within a round: round-start,
	// mid-dispatch, or pre-ack.
	CrashPhase = journal.Phase
	// CrashPlane is a seeded, deterministic set of crash faults — the
	// process-death counterpart of SurgePlane.
	CrashPlane = journal.Plane
	// RecoveryStats accounts the durability plane's work across
	// incarnations: crashes, snapshots, replays, torn tails, and the
	// cross-incarnation conservation witnesses.
	RecoveryStats = journal.RecoveryStats
	// PoolCheckpoint is a pool's durable control-plane state: round
	// cursor, ledger, breaker and fault records, controller snapshots.
	PoolCheckpoint = pool.Checkpoint
	// ReplicaCheckpoint is one replica's share of a PoolCheckpoint,
	// also used standalone for rolling drain/rejoin maintenance.
	ReplicaCheckpoint = pool.ReplicaCheckpoint
	// CrashRecord is the chaos harness's crash-plane ledger, with the
	// conservation law Delivered + DeliveredLost = TrueDelivered.
	CrashRecord = chaos.CrashRecord
)

// The crash phases and journal record kinds.
const (
	CrashAtRoundStart  = journal.PhaseRoundStart
	CrashAtMidDispatch = journal.PhaseMidDispatch
	CrashAtPreAck      = journal.PhasePreAck

	JournalKindSnapshot = journal.KindSnapshot
	JournalKindDelta    = journal.KindDelta
)

// NewJournalMemStore returns an empty in-memory journal store.
func NewJournalMemStore() *JournalMemStore { return journal.NewMemStore() }

// NewJournalWriter opens a writer over a store, resuming the LSN past
// any existing records and truncating a torn tail.
func NewJournalWriter(store JournalStore) *JournalWriter {
	w, _ := journal.NewWriter(store)
	return w
}

// ReplayJournal scans a journal image, returning the valid record
// prefix and torn-tail accounting. It never fails: a corrupt or torn
// suffix is reported, not an error. Each record's payload is a view
// into data, not a copy.
func ReplayJournal(data []byte) *JournalReplayResult { return journal.Replay(data) }

// NewCrashPlane returns an empty, seeded crash fault plane.
func NewCrashPlane(seed int64) *CrashPlane { return journal.NewCrashPlane(seed) }

// GenerateCrashSchedule derives a deterministic crash schedule: kills
// spread across the run, cycling round-start / mid-dispatch / pre-ack
// phases, with torn tails on alternating mid-dispatch kills.
func GenerateCrashSchedule(seed int64, rounds, kills int) *CrashPlane {
	return journal.GenerateCrashSchedule(seed, rounds, kills)
}

// RunDurableSession runs a congestion-control session under the
// durability plane: state snapshots and per-round deltas are
// journaled, scheduled crashes kill the process mid-round, and each
// new incarnation recovers by replaying the journal. The returned
// stats satisfy the cross-incarnation conservation law
// Offered = Delivered + Dropped + CorruptedDropped + DeadlineMissed +
// Shed + FinalBacklog, and a journaled run's ledger is identical to
// an uncrashed control's.
func RunDurableSession(sw Concentrator, cfg SessionConfig, jcfg JournalConfig) (*SessionStats, *RecoveryStats, error) {
	return switchsim.RunDurableSession(sw, cfg, jcfg)
}

// Partition tolerance: the seeded control-plane partition fault plane
// (cuts of arbiter↔replica visibility that the data plane ignores),
// lease-based primary custody under monotonic fencing tokens, quorum
// membership, and per-replica suspicion clocks.
type (
	// PartitionFault is one bounded control-plane cut: a mode, a target
	// edge (or AllReplicas), and a [From, Until) window.
	PartitionFault = partition.Fault
	// PartitionMode is the cut shape: symmetric, one-way, flapping, or
	// arbiter isolation.
	PartitionMode = partition.Mode
	// PartitionDirection names the severed side of a one-way cut.
	PartitionDirection = partition.Direction
	// PartitionPlane is a seeded, deterministic set of partition faults
	// — the control-visibility counterpart of CrashPlane.
	PartitionPlane = partition.Plane
	// LeaseConfig turns on the pool's lease-fenced primary role:
	// lease duration in rounds, the unfenced control that disables
	// only the ledger's token check, and the partition plane's seed.
	LeaseConfig = pool.LeaseConfig
	// PendingAck is a delivery ack buffered behind a cut edge, waiting
	// for the heal to learn its fencing verdict.
	PendingAck = pool.PendingAck
	// SuspicionClock aggregates per-replica silence into suspicion
	// levels that degrade contracts before convicting a replica.
	SuspicionClock = health.SuspicionClock
	// SuspicionSnapshot is a SuspicionClock's durable state.
	SuspicionSnapshot = health.SuspicionSnapshot
	// PartitionRecord is the chaos harness's split-brain ledger, with
	// the conservation law Delivered + Fenced + InFlightAcks +
	// DeliveredLost = TrueServed.
	PartitionRecord = chaos.PartitionRecord
)

// The partition cut shapes, one-way directions, and the whole-pool
// target for arbiter isolation.
const (
	PartitionSymmetricCut     = partition.SymmetricCut
	PartitionOneWay           = partition.OneWay
	PartitionFlapping         = partition.Flapping
	PartitionArbiterIsolation = partition.ArbiterIsolation

	PartitionToReplica   = partition.ToReplica
	PartitionFromReplica = partition.FromReplica

	PartitionAllReplicas = partition.AllReplicas
)

// NewPartitionPlane returns an empty, seeded partition fault plane.
func NewPartitionPlane(seed int64) *PartitionPlane { return partition.NewPlane(seed) }

// NewSuspicionClock returns a suspicion clock over n replicas.
func NewSuspicionClock(n int) *SuspicionClock { return health.NewSuspicionClock(n) }

// Byzantine misbehavior tolerance: the seeded behavior fault plane
// (lies on the acked claim stream and health reports, never the
// silicon), per-frame [epoch][seq][keyed checksum] provenance verified
// at the receiving edge with a sliding dedup window, pool-level
// witness cross-examination, and the arbiter's equivocation
// cross-check. The checksum key is seeded, not cryptographic — it
// models an authenticated channel inside the simulator's threat model,
// it does not resist an adversary who can read the process memory.
type (
	// BehaviorFault is one bounded lie window: a mode, the lying
	// replica, a per-round intensity, and a [From, Until) round span.
	BehaviorFault = byzantine.Fault
	// BehaviorMode is the lie shape: misroute, replay, fabricated ack,
	// or equivocation.
	BehaviorMode = byzantine.Mode
	// BehaviorPlane is a seeded, deterministic set of behavior faults —
	// the misbehavior counterpart of PartitionPlane.
	BehaviorPlane = byzantine.Plane
	// ProvenanceTag is the [epoch][seq][keyed checksum] frame tag the
	// sending edge stamps and the receiving edge re-derives.
	ProvenanceTag = byzantine.Tag
	// ProvenanceStamper is the sending edge: it holds the key and
	// stamps monotonic sequence numbers.
	ProvenanceStamper = byzantine.Stamper
	// ProvenanceVerifier is the receiving edge: it re-derives every
	// keyed sum and slides the dedup window.
	ProvenanceVerifier = byzantine.Verifier
	// ProvenanceVerdict is the receiving edge's booking decision for
	// one claim: OK, forged, or duplicated.
	ProvenanceVerdict = byzantine.Verdict
	// DeliveryClaim is one acked delivery as the serving replica
	// *claims* it happened, tag included.
	DeliveryClaim = byzantine.Claim
	// PoolByzantineConfig arms a pool's edges: verification, witness
	// audit cadence, and the keying seed.
	PoolByzantineConfig = pool.ByzantineConfig
	// WitnessVerdict is a cross-examination outcome: agree,
	// contradicted, or inconclusive.
	WitnessVerdict = health.WitnessVerdict
	// WitnessTally converts per-replica contradiction streaks into
	// convictions (majority contradictions convict immediately).
	WitnessTally = health.WitnessTally
	// HealthClaim is a replica's possibly-forked health report: what it
	// told the arbiter versus what it told its peers.
	HealthClaim = health.HealthClaim
	// ByzantineRecord is the chaos harness's misbehavior ledger, with
	// the conservation law Booked + Forged + Duplicated =
	// TrueDelivered + Replayed + Fabricated.
	ByzantineRecord = chaos.ByzantineRecord
)

// The behavior fault modes, provenance verdicts, witness verdicts, and
// the per-frame provenance cost in bits.
const (
	BehaviorMisroute      = byzantine.Misroute
	BehaviorReplay        = byzantine.Replay
	BehaviorFabricatedAck = byzantine.FabricatedAck
	BehaviorEquivocation  = byzantine.Equivocation

	ProvenanceOK         = byzantine.VerdictOK
	ProvenanceForged     = byzantine.VerdictForged
	ProvenanceDuplicated = byzantine.VerdictDuplicated

	WitnessAgree        = health.WitnessAgree
	WitnessContradicted = health.WitnessContradicted
	WitnessInconclusive = health.WitnessInconclusive

	ProvenanceTagOverhead = byzantine.TagOverhead
)

// NewBehaviorPlane returns an empty, seeded behavior fault plane.
func NewBehaviorPlane(seed int64) *BehaviorPlane { return byzantine.NewPlane(seed) }

// DeriveProvenanceKey derives the edges' shared checksum key from a
// configuration seed (seeded, not cryptographic).
func DeriveProvenanceKey(seed int64) uint64 { return byzantine.DeriveKey(seed) }

// NewProvenanceStamper returns a sending edge holding the key.
func NewProvenanceStamper(key uint64) *ProvenanceStamper { return byzantine.NewStamper(key) }

// NewProvenanceVerifier returns a receiving edge holding the key and a
// dedup window of the last 1024 accepted tags.
func NewProvenanceVerifier(key uint64) *ProvenanceVerifier {
	return byzantine.NewVerifier(key)
}

// CrossExamine renders the majority-of-3 verdict on a claimed output
// against up to two witness routings (−1 marks an unroutable witness).
func CrossExamine(claimed int, witnesses []int) WitnessVerdict {
	return health.CrossExamine(claimed, witnesses)
}

// NewWitnessTally returns an empty conviction tally over n replicas.
func NewWitnessTally(n int) *WitnessTally { return health.NewWitnessTally(n) }

// Packaging reports (Table 1, Figures 3/4/6/7).
type (
	// Package is a chips/boards/stacks/volume packaging summary.
	Package = layout.Package
	// Table1Row is one row of the paper's Table 1.
	Table1Row = layout.Table1Row
)

// Packaging constructors and the Table 1 generator.
var (
	RevsortPackage    = layout.RevsortPackage
	ColumnsortPackage = layout.ColumnsortPackage
	PerfectPackage    = layout.PerfectPackage
	Table1            = layout.Table1
	FormatTable1      = layout.FormatTable1
)
