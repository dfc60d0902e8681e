// Package chaos is a deterministic chaos harness for the replicated
// concentrator pool: it replays seeded schedules of chip faults,
// mid-stream replica kills and revivals, bounded wire-corruption
// bursts, bounded gray-failure stall bursts, load surges, drain/rejoin
// cycles, control-plane partitions, byzantine lie windows,
// control-process crashes, and scan-latency injections against an
// internal/pool switch pool while Bernoulli traffic runs, and checks —
// round by round — that the delivery guarantee never regresses below
// the degraded contract of the live replica set, that no payload the
// pool counts delivered was corrupted in flight, and (with CheckSLO)
// that no delivery misses its deadline budget.
//
// Determinism is the point: a Schedule is derived entirely from a seed
// and the pool geometry, so a guarantee regression found in CI replays
// bit-for-bit from its seed. Kill events target the replica that is
// *active when the event fires* (Replica = ActiveReplica), which is
// what makes them mid-stream primary kills rather than spare kills.
//
// The harness spaces destructive events far enough apart for the
// pool's detect–quarantine–probe–repair loop to complete between
// failures, so at every round at least one replica serves a contract it
// actually satisfies; any round the pool flags as violated is therefore
// a real regression of the failover or degradation machinery, not an
// artifact of the schedule.
package chaos

import (
	"bytes"
	"fmt"
	"math/rand"
	"sort"

	"concentrators/internal/byzantine"
	"concentrators/internal/core"
	"concentrators/internal/journal"
	"concentrators/internal/link"
	"concentrators/internal/overload"
	"concentrators/internal/partition"
	"concentrators/internal/pool"
	"concentrators/internal/seedrand"
	"concentrators/internal/switchsim"
	"concentrators/internal/timing"
)

// EventKind selects a chaos event type.
type EventKind int

// The chaos event kinds.
const (
	// EventFault injects a chip fault into a replica's fault plane.
	EventFault EventKind = iota
	// EventKill powers a replica off mid-stream.
	EventKill
	// EventRevive swaps the killed replica's board: clean plane,
	// re-admission via a half-open probe scan.
	EventRevive
	// EventScanLatency changes the pool's probe-scan latency.
	EventScanLatency
	// EventCorruption injects a bounded wire-corruption burst into a
	// replica's corruption plane (the fault's From/Until window ends
	// the burst on its own).
	EventCorruption
	// EventTiming injects a bounded gray-failure stall (constant
	// slowdown, heavy-tail jitter, or degradation ramp) into a replica's
	// timing plane. Like corruption bursts, the fault's From/Until
	// window ends the stall on its own; unlike them, the replica stays
	// functionally perfect throughout — only hedged dispatch and the
	// deadline-SLO ledger can see it.
	EventTiming
	// EventSurge injects a bounded offered-load surge (step, ramp, or
	// flash-crowd spike) into the traffic generator: the fabric stays
	// perfect, the clients misbehave. The fault's From/Until window
	// ends the surge on its own; admission control and — when
	// Pool.Overload is set — the closed loop absorb it.
	EventSurge
	// EventDrain checkpoints a replica's control plane and takes it out
	// of rotation for a maintenance restart (the controller-state wipe
	// pool.Drain models). The paired EventRejoin restores it.
	EventDrain
	// EventRejoin restores the drained replica from its checkpoint and
	// re-admits it through the standard half-open probe path.
	EventRejoin
	// EventCrash kills the pool's controller process mid-stream: a new
	// controller is built over the same silicon and restored from the
	// round-granular checkpoint journal (events with TornFrac > 0 also
	// tear the tail of the checkpoint append that was in flight). With
	// Config.Unjournaled the restart instead comes up stateless and
	// every ledger and backlog dies with the process — the experimental
	// control demonstrating that crashes bite.
	EventCrash
	// EventPartition cuts control-plane visibility for a bounded round
	// window: a symmetric cut, a one-way link, a flapping edge, or full
	// arbiter isolation (Event.Cut). The data plane keeps delivering —
	// only what the arbiter and the lease machinery can *see* changes.
	// Every partition is paired with an EventHeal at its window end.
	EventPartition
	// EventHeal restores full control-plane visibility: buffered acks
	// flush and take their fencing verdict against the current token.
	EventHeal
	// EventByzantine turns the replica serving when the event fires into
	// a liar for a bounded round window (Event.Behavior): it misroutes
	// acks, replays spent frames, fabricates acks it holds no key for,
	// or equivocates its health report. The silicon stays perfect — only
	// claims and reports lie — and the pool runs with frame provenance,
	// witness audits and the arbiter cross-check armed (unless the
	// UnverifiedProvenance control blinds the receiving edge).
	EventByzantine
)

// String names the kind.
func (k EventKind) String() string {
	switch k {
	case EventFault:
		return "fault"
	case EventKill:
		return "kill"
	case EventRevive:
		return "revive"
	case EventScanLatency:
		return "scan-latency"
	case EventCorruption:
		return "corruption"
	case EventTiming:
		return "timing"
	case EventSurge:
		return "surge"
	case EventDrain:
		return "drain"
	case EventRejoin:
		return "rejoin"
	case EventCrash:
		return "crash-restart"
	case EventPartition:
		return "partition"
	case EventHeal:
		return "heal"
	case EventByzantine:
		return "byzantine"
	default:
		return fmt.Sprintf("EventKind(%d)", int(k))
	}
}

// ActiveReplica as an Event.Replica targets whichever replica is the
// pool's primary when the event fires.
const ActiveReplica = -1

// Event is one scheduled chaos action.
type Event struct {
	// Round is when the event fires (before the round's traffic).
	Round int
	// Kind is the action.
	Kind EventKind
	// Replica is the target index, or ActiveReplica.
	Replica int
	// Fault is the injected chip fault (EventFault only).
	Fault core.ChipFault
	// Wire is the injected wire fault (EventCorruption only); its
	// From/Until round window bounds the burst.
	Wire link.WireFault
	// Stall is the injected timing fault (EventTiming only); its
	// From/Until round window bounds the stall.
	Stall timing.Fault
	// Surge is the injected load fault (EventSurge only); its
	// From/Until round window bounds the surge.
	Surge overload.Fault
	// Cut is the injected control-plane partition (EventPartition
	// only); its From/Until round window bounds the cut, and the
	// paired EventHeal fires at Until.
	Cut partition.Fault
	// Behavior is the injected byzantine behavior fault (EventByzantine
	// only); its From/Until round window bounds the misbehavior.
	Behavior byzantine.Fault
	// Latency is the new probe-scan latency (EventScanLatency only).
	Latency int
	// TornFrac, for EventCrash, is the fraction of the in-flight
	// checkpoint append that reached the journal before the process
	// died; 0 means the crash fell between appends (clean tail).
	TornFrac float64
}

// String renders the event.
func (e Event) String() string {
	target := fmt.Sprintf("replica %d", e.Replica)
	if e.Replica == ActiveReplica {
		target = "active replica"
	}
	switch e.Kind {
	case EventFault:
		return fmt.Sprintf("round %d: fault %s on %s", e.Round, e.Fault, target)
	case EventCorruption:
		return fmt.Sprintf("round %d: corruption %s on %s", e.Round, e.Wire, target)
	case EventTiming:
		return fmt.Sprintf("round %d: stall %s on %s", e.Round, e.Stall, target)
	case EventSurge:
		return fmt.Sprintf("round %d: surge %s", e.Round, e.Surge)
	case EventScanLatency:
		return fmt.Sprintf("round %d: scan latency → %d", e.Round, e.Latency)
	case EventPartition:
		return fmt.Sprintf("round %d: partition %s", e.Round, e.Cut)
	case EventHeal:
		return fmt.Sprintf("round %d: partition heals", e.Round)
	case EventByzantine:
		return fmt.Sprintf("round %d: byzantine %s on %s", e.Round, e.Behavior.Mode, target)
	case EventCrash:
		if e.TornFrac > 0 {
			return fmt.Sprintf("round %d: crash-restart (torn tail, %.0f%% written)", e.Round, 100*e.TornFrac)
		}
		return fmt.Sprintf("round %d: crash-restart (clean tail)", e.Round)
	default:
		return fmt.Sprintf("round %d: %s %s", e.Round, e.Kind, target)
	}
}

// Config drives one chaos run.
type Config struct {
	// Replicas is the pool size (≥ 2 for failover coverage).
	Replicas int
	// Rounds is the number of traffic rounds to replay.
	Rounds int
	// Load is the per-input Bernoulli message probability.
	Load float64
	// PayloadBits is the payload length of each message.
	PayloadBits int
	// Seed drives both the schedule and the traffic.
	Seed int64
	// Faults and Kills bound the destructive events scheduled.
	Faults, Kills int
	// Corruptions bounds the wire-corruption bursts scheduled. Each
	// burst bit-flips the active replica's board-output wires for a
	// bounded round window, one replica at a time, at a per-bit flip
	// probability of at most maxBurstBER.
	Corruptions int
	// Stalls bounds the gray-failure stall bursts scheduled. Each burst
	// slows the active replica's board for a bounded round window,
	// rotating through the constant / jitter / ramp shapes; the board
	// stays functionally perfect throughout.
	Stalls int
	// Surges bounds the offered-load surge bursts scheduled. Each burst
	// multiplies the traffic load by at most maxSurgeFactor for a
	// bounded round window, rotating through the step / ramp /
	// flash-crowd shapes; the fabric stays perfect throughout —
	// admission control absorbs the excess.
	Surges int
	// Crashes bounds the control-plane crash-restarts scheduled. The
	// harness journals a full pool checkpoint every round through
	// internal/journal; each crash kills the controller and rebuilds it
	// over the same silicon from the last recoverable checkpoint, and
	// every other crash tears the tail of the in-flight append to
	// exercise torn-write recovery.
	Crashes int
	// Unjournaled disables the checkpoint journal while keeping the
	// crash events live: every crash then restarts the controller
	// stateless, losing ledgers and backlog — the experimental control.
	Unjournaled bool
	// Drains bounds the rolling drain/rejoin maintenance cycles
	// scheduled: checkpoint → drain (controller restart) → rejoin from
	// the checkpoint through the standard probe path, rotating through
	// the replicas.
	Drains int
	// Partitions bounds the control-plane partition windows scheduled.
	// Each window cuts what the arbiter can see — health observations,
	// probe results, acks — while the data plane keeps delivering; the
	// windows rotate through lease-outliving symmetric cuts, short
	// belief-covered cuts, flapping (or one-way, with AsymPartitions)
	// edges, and arbiter isolation, and every one heals with a paired
	// EventHeal. Requires ≥ 3 replicas (quorum) and enables the pool's
	// lease-fenced failover. Combines only with Crashes and Surges.
	// Pool.Lease.Unfenced makes the run the split-brain control: the
	// ledger accepts stale fencing tokens, so the eager arbiter fails
	// over into a genuine split brain and the ledger double-counts.
	Partitions int
	// AsymPartitions swaps the flapping window shape for one-way
	// ToReplica cuts: the arbiter keeps hearing a holder whose grants
	// vanish, forcing the self-fence + observed-refusal handoff path.
	AsymPartitions bool
	// LeaseRounds is the lease duration the runner hands to the pool
	// when a schedule arms the lease and Pool.Lease.Rounds is 0; the
	// partition windows are shaped around it. 0 means the default (8
	// rounds). Setting it together with Pool.Lease.Rounds is rejected.
	LeaseRounds int
	// Byzantine bounds the byzantine misbehavior windows scheduled. Each
	// window turns the replica serving at its open into a liar for a
	// bounded round span, rotating through the four modes (misroute /
	// replay / fabricated ack / equivocation); the pool runs with frame
	// provenance, witness cross-examination and the arbiter's
	// equivocation cross-check armed, and a forged or replayed claim
	// reaching Delivered is a regression. Requires ≥ 3 replicas (the
	// witness majority), enables the pool's lease-fenced failover so a
	// caught equivocator loses the lease, and combines only with
	// Crashes.
	Byzantine int
	// UnverifiedProvenance blinds the receiving edge while keeping the
	// byzantine schedule live: every claim books Delivered at face
	// value, so replays and fabrications double-count straight into the
	// ledger — the experimental control demonstrating what provenance
	// verification prevents.
	UnverifiedProvenance bool
	// CheckSLO, when true, books a regression for every round whose
	// deliveries missed the Pool.Deadline budget — the zero-deadline-
	// SLO-regression assertion of the straggler schedules. Requires a
	// positive Pool.Deadline.
	CheckSLO bool
	// ScanLatencyJitter, when true, schedules probe-latency injections.
	ScanLatencyJitter bool
	// Pool tunes the pool under test. TripThreshold defaults to 1 in
	// chaos runs so the detect–repair loop completes between events.
	Pool pool.Config
}

func (c Config) validate() error {
	switch {
	case c.Replicas < 1:
		return fmt.Errorf("chaos: need ≥ 1 replica, got %d", c.Replicas)
	case c.Rounds < 1:
		return fmt.Errorf("chaos: need ≥ 1 round, got %d", c.Rounds)
	case c.Load < 0 || c.Load > 1 || c.Load != c.Load:
		return fmt.Errorf("chaos: load %v outside [0,1]", c.Load)
	case c.PayloadBits < 1:
		return fmt.Errorf("chaos: payload must be ≥ 1 bit, got %d", c.PayloadBits)
	case c.Faults < 0 || c.Kills < 0 || c.Corruptions < 0 || c.Stalls < 0 || c.Surges < 0 || c.Crashes < 0 || c.Drains < 0 || c.Partitions < 0:
		return fmt.Errorf("chaos: negative event counts (%d faults, %d kills, %d corruptions, %d stalls, %d surges, %d crashes, %d drains, %d partitions)",
			c.Faults, c.Kills, c.Corruptions, c.Stalls, c.Surges, c.Crashes, c.Drains, c.Partitions)
	case c.LeaseRounds < 0:
		return fmt.Errorf("chaos: negative lease duration %d", c.LeaseRounds)
	case c.LeaseRounds > 0 && c.Pool.Lease.Rounds > 0:
		return fmt.Errorf("chaos: LeaseRounds %d and Pool.Lease.Rounds %d both set the lease duration — the partition windows would be shaped for the first while the pool runs the second; set one", c.LeaseRounds, c.Pool.Lease.Rounds)
	case c.Unjournaled && c.Crashes == 0:
		return fmt.Errorf("chaos: Unjournaled without Crashes disables a journal that nothing would read")
	case c.Kills > 0 && c.Drains > 0:
		return fmt.Errorf("chaos: Kills and Drains can schedule two membership events for the same replica in the same round (a mid-stream kill and a maintenance drain both target the primary) — run them in separate schedules")
	case c.Drains > 1 && c.Replicas == 1:
		return fmt.Errorf("chaos: %d drain cycles over a single replica can schedule its rejoin and its next drain as two membership events for the same replica in the same round — use more replicas or one cycle", c.Drains)
	case c.Partitions > 0 && (c.Kills > 0 || c.Drains > 0):
		return fmt.Errorf("chaos: Partitions cannot combine with Kills or Drains: a kill or drain landing inside a cut window is a second membership event for the same replica in the same round as its lease handoff — partitions combine only with Crashes and Surges")
	case c.Partitions > 0 && (c.Faults > 0 || c.Corruptions > 0 || c.Stalls > 0):
		return fmt.Errorf("chaos: a chip fault, corruption burst, or stall behind a partition is invisible to the quarantine machinery (the dark primary serves unchecked) — schedule faults and partitions separately")
	case c.Partitions > 0 && c.Replicas < 3:
		return fmt.Errorf("chaos: partitions need ≥ 3 replicas for a quorum majority, got %d", c.Replicas)
	case c.Pool.Lease.Unfenced && c.Partitions == 0:
		return fmt.Errorf("chaos: Pool.Lease.Unfenced is the split-brain control — it needs Partitions > 0")
	case c.AsymPartitions && c.Partitions == 0:
		return fmt.Errorf("chaos: AsymPartitions shapes partition windows — it needs Partitions > 0")
	case c.Byzantine < 0:
		return fmt.Errorf("chaos: negative byzantine window count %d", c.Byzantine)
	case c.Byzantine > 0 && c.Replicas < 3:
		return fmt.Errorf("chaos: byzantine windows need ≥ 3 replicas for a witness majority, got %d", c.Replicas)
	case c.Byzantine > 0 && (c.Faults > 0 || c.Kills > 0 || c.Corruptions > 0 || c.Stalls > 0 || c.Surges > 0 || c.Drains > 0 || c.Partitions > 0):
		return fmt.Errorf("chaos: byzantine windows combine only with Crashes — witness cross-examination compares routings between healthy replicas, and any concurrent fault plane either makes an honest replica's legitimate divergence look like a lie or hides a liar behind a degraded contract")
	case c.UnverifiedProvenance && c.Byzantine == 0:
		return fmt.Errorf("chaos: UnverifiedProvenance is the blind-ledger control — it needs Byzantine > 0")
	case c.CheckSLO && c.Pool.Deadline == 0:
		return fmt.Errorf("chaos: CheckSLO requires a positive Pool.Deadline — a zero deadline would book every delivery missed")
	}
	return nil
}

// maxBurstBER caps the per-bit flip probability of corruption bursts
// (the acceptance criterion's ceiling).
const maxBurstBER = 1e-2

// maxSurgeFactor caps the load multiplier of surge bursts (the
// acceptance criterion's oversubscription).
const maxSurgeFactor = 4

// leaseRounds resolves the lease duration partition schedules build
// their windows around.
func (c Config) leaseRounds() int {
	if c.LeaseRounds > 0 {
		return c.LeaseRounds
	}
	if c.Pool.Lease.Rounds > 0 {
		return c.Pool.Lease.Rounds
	}
	return 8
}

// GenerateSchedule derives the deterministic chaos schedule for a pool
// of cfg.Replicas copies of sw: cfg.Kills mid-stream primary kills
// (each later revived), cfg.Faults chip faults on random live spares or
// primaries, cfg.Corruptions bounded wire-corruption bursts and
// cfg.Stalls bounded gray-failure stall bursts on the active replica,
// cfg.Surges bounded offered-load surges, cfg.Drains drain/rejoin
// cycles, cfg.Partitions control-plane partition windows (each with its
// heal), cfg.Byzantine lie windows, cfg.Crashes control-process
// crash-restarts, and optional scan-latency jitter. Destructive events
// are spaced so the pool's quarantine–probe–repair loop finishes
// between failures, and a killed replica is never faulted while
// powered off.
func GenerateSchedule(seed int64, sw core.FaultInjectable, cfg Config) ([]Event, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	stages := sw.StageChips()
	if len(stages) == 0 {
		return nil, fmt.Errorf("chaos: %s has no chip stages to fault", sw.Name())
	}
	rng := rand.New(rand.NewSource(seed))
	poolCfg, err := normalizePool(cfg.Pool)
	if err != nil {
		return nil, err
	}
	// gap is the spacing that lets one failure be detected, probed and
	// repaired (or revived) before the next lands.
	gap := 2*poolCfg.ProbeAfter + 6
	reviveAfter := poolCfg.ProbeAfter + 2

	var events []Event
	destructive := cfg.Faults + cfg.Kills + cfg.Corruptions
	if destructive == 0 && cfg.Stalls == 0 && cfg.Surges == 0 && cfg.Crashes == 0 && cfg.Drains == 0 && cfg.Partitions == 0 && cfg.Byzantine == 0 {
		return events, nil
	}
	stride := max((cfg.Rounds-2)/max(destructive, 1), gap)
	// Corruption bursts are bounded so the detect–failover–probe loop
	// finishes inside the clean part of the stride: the fault's Until
	// window ends the burst on its own, no cleanup event needed.
	burstLen := max(2, gap/3)
	killEvery := 0
	if cfg.Kills > 0 {
		killEvery = max(destructive/cfg.Kills, 1)
	}
	killedAt := -1 // round of the unrevived kill, if any
	kills, faults, corruptions := 0, 0, 0
	faultsOn := make([]int, cfg.Replicas)
	round := 1 + rng.Intn(max(stride/2, 1))
	for i := 0; i < destructive && round < cfg.Rounds; i++ {
		isKill := killEvery > 0 && kills < cfg.Kills && (i%killEvery == killEvery-1 || destructive-i <= cfg.Kills-kills)
		// Interleave chip faults and corruption bursts proportionally.
		wantCorruption := cfg.Corruptions > 0 &&
			(faults >= cfg.Faults || corruptions*max(cfg.Faults, 1) < faults*cfg.Corruptions)
		if isKill && killedAt < 0 {
			// Kill whoever is primary at that round — the mid-stream
			// kill the acceptance criterion asks for — and swap its
			// board back in a few rounds later (the runner resolves the
			// revive to the killed board).
			events = append(events, Event{Round: round, Kind: EventKill, Replica: ActiveReplica})
			if r := round + reviveAfter; r < cfg.Rounds {
				events = append(events, Event{Round: r, Kind: EventRevive, Replica: ActiveReplica})
			}
			killedAt = round
			kills++
		} else if wantCorruption && corruptions < cfg.Corruptions {
			// Corrupt the board-output wires of whichever replica is
			// primary when the burst starts — the mid-stream data-plane
			// failure the acceptance criterion asks for. The window is
			// bounded; the arbiter must strip the corrupted deliveries
			// and fail over in-round, and the probe must re-admit the
			// replica at full contract once the noise clears.
			ber := maxBurstBER * (0.25 + 0.75*rng.Float64())
			events = append(events, Event{
				Round: round, Kind: EventCorruption, Replica: ActiveReplica,
				Wire: link.WireFault{
					Stage: len(stages), Wire: link.AllWires,
					Mode: link.WireBitFlip, BER: ber,
					From: round, Until: min(round+burstLen, cfg.Rounds),
				},
			})
			corruptions++
		} else if faults < cfg.Faults {
			// Spread faults across the replicas (fewest-faulted first,
			// random among ties) so degradation accumulates evenly and
			// no single replica is degraded out of service while its
			// peers stay untouched.
			target, best := 0, faultsOn[0]*1000+rng.Intn(1000)
			for r := 1; r < cfg.Replicas; r++ {
				if score := faultsOn[r]*1000 + rng.Intn(1000); score < best {
					target, best = r, score
				}
			}
			faultsOn[target]++
			events = append(events, Event{Round: round, Kind: EventFault, Replica: target, Fault: randomFault(rng, stages)})
			faults++
		}
		if killedAt >= 0 && round-killedAt > reviveAfter {
			killedAt = -1
		}
		round += stride + rng.Intn(max(stride/2, 1))
	}
	if cfg.Stalls > 0 {
		// Stall bursts are gray — the board keeps routing perfectly, so
		// no quarantine–repair loop has to finish between them — but
		// hedges are budgeted against rounds served, so the first burst
		// waits until the pool has banked ≥ gap rounds of history and
		// every burst stays bounded (≤ burstLen rounds, self-ending).
		delay := 6
		if poolCfg.Deadline > 0 {
			delay = poolCfg.Deadline + 5 // an unhedged stalled round must overshoot the SLO
		}
		stallStride := max((cfg.Rounds-gap)/cfg.Stalls, gap)
		sround := gap + rng.Intn(max(stallStride/2, 1))
		for i := 0; i < cfg.Stalls && sround < cfg.Rounds-1; i++ {
			f := timing.Fault{
				Stage: 0, Wire: link.AllWires,
				From: sround, Until: min(sround+burstLen, cfg.Rounds),
			}
			switch i % 3 {
			case 0: // marginal board: every round in the window is slow
				f.Mode, f.Delay = timing.Constant, delay
			case 1: // renegotiating link: most rounds mildly late, some awful
				f.Mode, f.Prob, f.MaxDelay = timing.Jitter, 0.8, delay
			case 2: // thermal throttle: degrades toward the full stall
				f.Mode, f.Delay = timing.Ramp, delay
			}
			events = append(events, Event{Round: sround, Kind: EventTiming, Replica: ActiveReplica, Stall: f})
			sround += stallStride + rng.Intn(max(stallStride/2, 1))
		}
	}
	if cfg.Surges > 0 {
		// Surge bursts are load-plane events: the fabric never degrades,
		// so they need no repair-loop spacing — only bounded windows so
		// the backlog they build can drain before the next one. Shapes
		// rotate step / ramp / flash-crowd; the factor is drawn from
		// [maxSurgeFactor/2, maxSurgeFactor].
		surgeLen := max(4, gap/2)
		surgeStride := max((cfg.Rounds-2)/cfg.Surges, surgeLen+2)
		ground := 1 + rng.Intn(max(surgeStride/2, 1))
		for i := 0; i < cfg.Surges && ground < cfg.Rounds-1; i++ {
			f := overload.Fault{
				Factor: max(2, maxSurgeFactor*(0.5+0.5*rng.Float64())),
				From:   ground, Until: min(ground+surgeLen, cfg.Rounds),
			}
			switch i % 3 {
			case 0: // flipped feature flag: instant sustained step
				f.Mode = overload.Step
			case 1: // organic pile-on: builds toward the full factor
				f.Mode = overload.Ramp
			case 2: // flash crowd: random spikes inside the window
				f.Mode, f.Prob = overload.Flash, 0.5
			}
			events = append(events, Event{Round: ground, Kind: EventSurge, Surge: f})
			ground += surgeStride + rng.Intn(max(surgeStride/2, 1))
		}
	}
	if cfg.Drains > 0 {
		// Rolling maintenance: checkpoint/drain replica i, rejoin it from
		// the checkpoint once the probe machinery could have re-admitted a
		// revived board — the same spacing kills use. One cycle per slot of
		// the usable span, jittered within its slot, so exactly cfg.Drains
		// cycles always fit; targets rotate so a long schedule rolls the
		// whole fleet. The runner skips a drain whose target happens to be
		// powered off when the event fires (a kill got there first), and
		// the matching rejoin with it.
		// The −2 leaves room for the rejoin probe to fire inside the run.
		start := gap/2 + 1
		if span := cfg.Rounds - reviveAfter - 2 - start; span >= cfg.Drains {
			for i := 0; i < cfg.Drains; i++ {
				dround := seedrand.SlotRound(rng, start, span, i, cfg.Drains)
				target := i % cfg.Replicas
				events = append(events,
					Event{Round: dround, Kind: EventDrain, Replica: target},
					Event{Round: dround + reviveAfter, Kind: EventRejoin, Replica: target},
				)
			}
		}
	}
	if cfg.Partitions > 0 {
		// Partition windows rotate through the four split-brain shapes,
		// one per slot of the usable span so every window heals strictly
		// inside the run with clean rounds after it for the buffered-ack
		// flush. The window lengths are keyed to the lease: a cut that
		// outlives the lease forces a handoff and fences the dark
		// primary's late acks; a cut inside the lease is covered by the
		// holder's belief and must cost nothing; arbiter isolation stays
		// under the lease so the incumbent coasts while the minority-side
		// arbiter freezes.
		L := cfg.leaseRounds()
		need := L + 5 // longest window (L+3) + heal + one clean round
		start := gap + 2
		span := cfg.Rounds - start - 1
		slots := 0
		if span >= need {
			slots = min(cfg.Partitions, span/need)
		}
		for i := 0; i < slots; i++ {
			f := partition.Fault{Replica: ActiveReplica}
			var winLen int
			switch i % 4 {
			case 0: // cut outlives the lease: handoff + fenced late acks
				f.Mode = partition.SymmetricCut
				winLen = L + 3
			case 1: // cut inside the lease: the holder's belief covers it
				f.Mode = partition.SymmetricCut
				winLen = max(2, L/2)
			case 2:
				if cfg.AsymPartitions {
					// Grants vanish, acks keep flowing: self-fence + handoff.
					f.Mode, f.Dir = partition.OneWay, partition.ToReplica
					winLen = L + 3
				} else {
					// Flapping edge shorter than the lease: renewals squeak
					// through often enough that nothing fences.
					f.Mode, f.Prob = partition.Flapping, 0.4+0.4*rng.Float64()
					winLen = max(3, L/2)
				}
			case 3: // arbiter loses quorum; the incumbent coasts on belief
				f.Mode, f.Replica = partition.ArbiterIsolation, partition.AllReplicas
				winLen = max(1, L-2)
			}
			lo, _ := seedrand.Slot(start, span, i, slots)
			slotw := span / slots
			pround := lo + rng.Intn(max(slotw-winLen-1, 1))
			f.From, f.Until = pround, pround+winLen
			events = append(events,
				Event{Round: pround, Kind: EventPartition, Replica: f.Replica, Cut: f},
				Event{Round: pround + winLen, Kind: EventHeal, Replica: f.Replica},
			)
		}
	}
	if cfg.Byzantine > 0 {
		// Byzantine windows rotate through the four lie modes, one window
		// per slot of the usable span so every window closes strictly
		// inside the run. Lies need no repair-loop spacing — the silicon
		// never degrades — but each window targets whichever replica is
		// serving when it opens (the runner resolves ActiveReplica), so
		// the lies are live, and a conviction mid-window simply moves the
		// lease and leaves the convict lying to nobody.
		winLen := max(3, gap/2)
		start := 2
		if span := cfg.Rounds - start - winLen; span >= cfg.Byzantine {
			for i := 0; i < cfg.Byzantine; i++ {
				bround := seedrand.SlotRound(rng, start, span, i, cfg.Byzantine)
				f := byzantine.Fault{
					Mode:    byzantine.Mode(i % 4),
					Replica: ActiveReplica, // rewritten when the event fires
					Count:   1 + rng.Intn(3),
					From:    bround,
					Until:   min(bround+winLen, cfg.Rounds),
				}
				events = append(events, Event{Round: bround, Kind: EventByzantine, Replica: ActiveReplica, Behavior: f})
			}
		}
	}
	if cfg.Crashes > 0 && cfg.Rounds > 2 {
		// Control-plane crashes need no repair-loop spacing — the restored
		// controller serves the very next round — only enough room for the
		// journal to hold at least one whole checkpoint before the first
		// kill (round ≥ 2). One crash per slot of the remaining span, so
		// exactly cfg.Crashes always fire. Even crashes die between
		// appends; odd ones tear the in-flight checkpoint at a seeded
		// fraction.
		span := cfg.Rounds - 2
		for i := 0; i < cfg.Crashes; i++ {
			ev := Event{Round: seedrand.SlotRound(rng, 2, span, i, cfg.Crashes), Kind: EventCrash}
			if i%2 == 1 {
				ev.TornFrac = 0.05 + 0.9*rng.Float64()
			}
			events = append(events, ev)
		}
	}
	if cfg.ScanLatencyJitter && cfg.Rounds > 3*gap {
		events = append(events,
			Event{Round: gap, Kind: EventScanLatency, Latency: 1},
			Event{Round: cfg.Rounds - gap, Kind: EventScanLatency, Latency: 0},
		)
	}
	sort.SliceStable(events, func(i, j int) bool { return events[i].Round < events[j].Round })
	return events, nil
}

// ledgerTotal is the booked-or-buffered frame total of a checkpoint —
// Delivered plus Fenced plus acks still in flight behind a cut: the
// quantity a crash can lose and the loss accounting must diff.
func ledgerTotal(cp *pool.Checkpoint) int {
	t := cp.Ledger.Delivered + cp.Ledger.Fenced
	for _, a := range cp.InFlight {
		t += a.Frames
	}
	return t
}

// randomFault draws one valid chip fault for the given stages.
func randomFault(rng *rand.Rand, stages []core.StageInfo) core.ChipFault {
	si := rng.Intn(len(stages))
	st := stages[si]
	mode := core.ChipFaultMode(rng.Intn(4))
	if mode == core.ChipSwappedPair && st.Ports < 2 {
		mode = core.ChipDead
	}
	a := rng.Intn(st.Ports)
	b := a
	if st.Ports > 1 {
		for b == a {
			b = rng.Intn(st.Ports)
		}
	}
	return core.ChipFault{Stage: si, Chip: rng.Intn(st.Chips), Mode: mode, A: a, B: b}
}

// normalizePool mirrors the pool's defaulting (chaos needs the
// effective ProbeAfter to space its events and the Deadline to size
// its stalls), with the chaos-specific TripThreshold default of 1.
func normalizePool(c pool.Config) (pool.Config, error) {
	if c.TripThreshold == 0 {
		c.TripThreshold = 1
	}
	if c.ProbeAfter == 0 {
		c.ProbeAfter = 2
	}
	if c.TripThreshold < 0 || c.ProbeAfter < 0 || c.Deadline < 0 {
		return c, fmt.Errorf("chaos: negative pool config field: %+v", c)
	}
	return c, nil
}

// RoundRecord is one replayed round's observability.
type RoundRecord struct {
	Round                              int
	Offered, Admitted, Shed, Delivered int
	// Corrupted counts deliveries corrupted in flight this round (all
	// stripped by the pool before delivery accounting).
	Corrupted int
	// Latency is the winning replica's serving latency in rounds;
	// Hedged marks rounds the arbiter replayed on a spare.
	Latency int
	Hedged  bool
	// DeadlineMissed counts this round's deliveries that landed past
	// the Deadline budget (they still count Delivered — the fabric met
	// its ⌊α′m′⌋ contract; the SLO ledger is separate).
	DeadlineMissed       int
	Threshold            int // serving contract's ⌊α′m′⌋
	ServedBy             int // replica index, −1 when none
	FailedOver, Violated bool
	// Fenced counts frames whose acks arrived this round under a lapsed
	// fencing token (rejected at the ledger); StaleDelivered counts
	// frames the unfenced control let through under a stale token — the
	// split-brain double deliveries fencing exists to prevent.
	Fenced, StaleDelivered int
	// ShadowDelivered counts frames physically served this round by
	// superseded primaries that still believe their lease; Frozen marks
	// rounds the arbiter lacked a quorum of heard replicas.
	ShadowDelivered int
	Frozen          bool
	// Booked is the ledger's Delivered increment this round — equal to
	// Delivered under provenance verification, inflated by whatever the
	// unverified control swallowed. Forged and Duplicated are the
	// receiving edge's rejections; Misrouted, Replayed and Fabricated
	// count the lies the behavior plane actually injected into the
	// round's claim stream; Equivocated marks rounds the arbiter caught
	// a forked health report. All zero unless Config.Byzantine > 0.
	Booked, Forged, Duplicated      int
	Misrouted, Replayed, Fabricated int
	Equivocated                     bool
	Events                          []Event // events fired before this round
}

// CrashRecord is the durability ledger of a chaos run: what the crash
// and drain events did, what the checkpoint journal cost, and how much
// state the restarts lost. Its conservation law is
//
//	Stats.Delivered + DeliveredLost == TrueDelivered
//
// — the harness survives every simulated process kill, so its
// round-by-round TrueDelivered count is ground truth, and whatever the
// restored ledgers cannot account for must show up in DeliveredLost
// (zero for clean-tail journaled crashes, one stale round per torn
// tail, everything since the last crash when unjournaled).
type CrashRecord struct {
	// Crashes counts controller kills fired; DrainCycles counts
	// completed drain→rejoin maintenance pairs.
	Crashes, DrainCycles int
	// SnapshotsWritten counts per-round checkpoint appends across all
	// incarnations; SnapshotsRestored counts recoveries that found one.
	SnapshotsWritten, SnapshotsRestored int
	// TornTails counts recoveries that discarded a torn journal tail;
	// TornBytesDiscarded sums the bytes thrown away.
	TornTails, TornBytesDiscarded int
	// StaleRounds sums the rounds of ledger each torn recovery lost
	// (the checkpoint it fell back to predates the crash).
	StaleRounds int
	// DeliveredLost and BacklogLost are the deliveries and waiting
	// clients the restarts could not account for.
	DeliveredLost, BacklogLost int
	// JournalBytes is the checkpoint journal's final size.
	JournalBytes int
	// TrueDelivered is the harness-side delivery count summed over every
	// round of every incarnation.
	TrueDelivered int
}

// PartitionRecord is the split-brain ledger of a chaos run: what the
// partition windows did to lease custody and how every physically
// served frame was eventually booked. Its conservation law is
//
//	Stats.Delivered + Stats.Fenced + Stats.InFlightAcks
//	    + Crash.DeliveredLost == TrueServed
//
// — the harness counts frames on the far side of every cut (primary
// plus shadow deliveries, round by round, across incarnations), so a
// frame the ledgers cannot account for as Delivered, Fenced, buffered
// in flight, or crash-lost is a split-brain leak.
type PartitionRecord struct {
	// Partitions and Heals count the cut and heal events fired.
	Partitions, Heals int
	// LeaseHandoffs counts fenced primary changes (token bumps after
	// the initial grant); FrozenRounds counts rounds the arbiter
	// lacked a quorum and refused to act.
	LeaseHandoffs, FrozenRounds int
	// DualPrimaryRounds counts rounds where a superseded holder served
	// alongside the rightful primary (always 0 with fencing on — the
	// shadows serve, but their frames never book Delivered).
	DualPrimaryRounds int
	// Fenced and StaleDelivered sum the per-round ledger verdicts on
	// late acks: rejected under a lapsed token, or (unfenced control
	// only) double-delivered.
	Fenced, StaleDelivered int
	// TrueServed is the harness-side count of physically served frames
	// — primary and shadow — summed over every round of every
	// incarnation.
	TrueServed int
	// LeaseRounds is the effective lease duration the run used (after
	// defaulting), for display and replay.
	LeaseRounds int
}

// ByzantineRecord is the misbehavior ledger of a chaos run: the lies
// the behavior plane injected, how the receiving edge booked them, and
// what the detectors convicted. Its conservation law is
//
//	Booked + Forged + Duplicated == TrueDelivered + Replayed + Fabricated
//
// — every claim the liars emitted is accounted for, verified or not
// (the blind control books everything into the first term). The
// stronger zero-forged-deliveries acceptance holds only under
// verification: Booked == TrueDelivered, i.e. no fabricated or
// replayed frame ever reached Delivered.
type ByzantineRecord struct {
	// Windows counts behavior-fault windows fired.
	Windows int
	// Misrouted, Replayed and Fabricated count the lies actually
	// injected into claim streams, summed per round — the harness-side
	// ground truth.
	Misrouted, Replayed, Fabricated int
	// Forged and Duplicated sum the receiving edge's rejections (always
	// 0 in the unverified control — the blind ledger rejects nothing).
	Forged, Duplicated int
	// Booked sums the ledger's per-round Delivered increments across
	// incarnations; TrueDelivered sums the physically delivered frames.
	// Booked > TrueDelivered is the double counting the control
	// demonstrates.
	Booked, TrueDelivered int
	// Audits, AuditDisagreements, WitnessConvictions and Equivocations
	// mirror the pool's final detector counters.
	Audits, AuditDisagreements, WitnessConvictions, Equivocations int
	// Verified records whether the receiving edge verified provenance.
	Verified bool
}

// Report is the outcome of one chaos replay.
type Report struct {
	Schedule []Event
	Rounds   []RoundRecord
	// Regressions lists rounds whose delivery fell below the degraded
	// contract of the live replica set — the guarantee the harness
	// enforces. Empty means the pool survived the schedule.
	Regressions []string
	// MaxSameRoundFailovers is the most in-round retargets any single
	// round needed (failover depth, not latency — latency is always
	// within the round or it is a regression).
	MaxSameRoundFailovers int
	// Crash is the durability ledger (crash/drain schedules only).
	Crash CrashRecord
	// Partition is the split-brain ledger (partition schedules only).
	Partition PartitionRecord
	// Byzantine is the misbehavior ledger (byzantine schedules only).
	Byzantine ByzantineRecord
	Stats     pool.Stats
}

// Run replays the schedule against a fresh pool of cfg.Replicas
// switches built by build, with seeded Bernoulli traffic, and verifies
// every round against the live replica set's degraded contract.
func Run(build func() (core.FaultInjectable, error), events []Event, cfg Config) (*Report, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	poolCfg := cfg.Pool
	if poolCfg.TripThreshold == 0 {
		poolCfg.TripThreshold = 1
	}
	// Stall schedules need hedged dispatch to hold the deadline SLO — a
	// gray replica never trips any functional check, so the spare replay
	// is the only thing standing between a stall burst and a missed
	// deadline. Half the rounds is budget enough: bursts are ≤ gap/3
	// rounds long and ≥ gap rounds apart.
	if cfg.Stalls > 0 && cfg.Replicas >= 2 && poolCfg.HedgeQuantile == 0 {
		poolCfg.HedgeQuantile = 0.9
		poolCfg.HedgeBudget = 0.5
	}
	// Partition schedules run against the lease-fenced pool: custody of
	// the primary role is a lease under a monotonic fencing token, and
	// the Lease.Unfenced control disables only the ledger's token check
	// (plus the arbiter's patience), not the lease itself.
	if cfg.Partitions > 0 && poolCfg.Lease.Rounds == 0 {
		poolCfg.Lease.Rounds = cfg.leaseRounds()
		poolCfg.Lease.Seed = cfg.Seed
	}
	// Byzantine schedules arm the edges: the sending edge stamps frame
	// provenance, the receiving edge verifies it (unless the control
	// blinds it — the stamping still happens, the checking doesn't),
	// witness audits fire on a fixed cadence, and the lease machinery is
	// enabled so a caught equivocator loses custody behind a bumped
	// fencing token rather than merely tripping a breaker.
	byzOn := cfg.Byzantine > 0
	if byzOn {
		if poolCfg.Byzantine.Seed == 0 {
			poolCfg.Byzantine.Seed = cfg.Seed
		}
		poolCfg.Byzantine.Verify = !cfg.UnverifiedProvenance
		if poolCfg.Byzantine.AuditEvery == 0 {
			poolCfg.Byzantine.AuditEvery = 2
		}
		if poolCfg.Lease.Rounds == 0 {
			poolCfg.Lease.Rounds = cfg.leaseRounds()
			poolCfg.Lease.Seed = cfg.Seed
		}
	}
	leaseOn := poolCfg.Lease.Rounds > 0
	switches := make([]core.FaultInjectable, cfg.Replicas)
	for i := range switches {
		sw, err := build()
		if err != nil {
			return nil, fmt.Errorf("chaos: building replica %d: %w", i, err)
		}
		switches[i] = sw
	}
	p, err := pool.New(poolCfg, switches...)
	if err != nil {
		return nil, err
	}

	stream := seedrand.NewStream(cfg.Seed)
	rep := &Report{Schedule: events}
	if leaseOn {
		rep.Partition.LeaseRounds = poolCfg.Lease.Rounds
	}
	surgePlane := overload.NewPlane(cfg.Seed)
	n := p.Inputs()
	next := 0
	// prev is the pool's Stats at the end of the previous round, or
	// after the latest crash-restart: each round's record terms are
	// deltas against it.
	var prev pool.Stats
	var killedQueue []int // killed, not-yet-revived replicas, oldest first

	// Crash durability: the journal is the only structure that survives
	// a controller kill (the harness itself stands in for the disk), and
	// the drained map holds maintenance checkpoints on the operator's
	// side of the process boundary.
	var (
		store     *journal.MemStore
		w         *journal.Writer
		ckpt      journal.Encoder[pool.Checkpoint]
		ckptDec   journal.Decoder[pool.Checkpoint]
		lastFrame int // framed size of the newest checkpoint append
		drained   = map[int]pool.ReplicaCheckpoint{}
	)
	if cfg.Crashes > 0 && !cfg.Unjournaled {
		store = journal.NewMemStore()
		w, _ = journal.NewWriter(store)
	}
	// Client backlog: shed clients wait out their retry-after before
	// giving up and report the queue depth through NoteBacklog —
	// controller state with real loss semantics when the process dies.
	waiting := 0
	// expiring[r] counts the shed clients whose retry-after runs out at
	// round r; a client whose wait outlasts the run stays waiting.
	expiring := make([]int, cfg.Rounds)
	for round := 0; round < cfg.Rounds; round++ {
		var fired []Event
		for next < len(events) && events[next].Round <= round {
			ev := events[next]
			next++
			target := ev.Replica
			if target == ActiveReplica {
				if ev.Kind == EventRevive {
					// A revive resolves to the oldest board still
					// powered off, not to today's primary.
					if len(killedQueue) == 0 {
						continue
					}
					target = killedQueue[0]
				} else {
					target = p.Active()
				}
			}
			switch ev.Kind {
			case EventFault:
				err = p.InjectFault(target, ev.Fault)
			case EventKill:
				if err = p.Kill(target); err == nil {
					killedQueue = append(killedQueue, target)
				}
			case EventRevive:
				// A torn crash-restore can roll the kill itself back (the
				// surviving checkpoint predates it), leaving the board
				// already serving; the revive is then a no-op, but it still
				// consumes the queue entry.
				if err = p.Revive(target); err != nil {
					err = nil
				}
				for i, k := range killedQueue {
					if k == target {
						killedQueue = append(killedQueue[:i], killedQueue[i+1:]...)
						break
					}
				}
			case EventScanLatency:
				err = p.SetScanLatency(ev.Latency)
			case EventCorruption:
				err = p.InjectWireFault(target, ev.Wire)
			case EventTiming:
				err = p.InjectTimingFault(target, ev.Stall)
			case EventSurge:
				err = surgePlane.Add(ev.Surge)
			case EventPartition:
				// Non-isolation cuts resolve to whoever holds the lease
				// when the window opens — the mid-stream primary partition
				// the acceptance criterion asks for.
				cut := ev.Cut
				if cut.Mode != partition.ArbiterIsolation {
					cut.Replica = target
				}
				if err = p.InjectPartition(cut); err == nil {
					ev.Cut = cut
					rep.Partition.Partitions++
				}
			case EventHeal:
				if err = p.ClearPartitions(); err == nil {
					rep.Partition.Heals++
				}
			case EventByzantine:
				// The window targets whoever is serving when it opens —
				// the mid-stream primary liar the acceptance criterion
				// asks for.
				b := ev.Behavior
				b.Replica = target
				if err = p.InjectBehavior(b); err == nil {
					ev.Behavior = b
					rep.Byzantine.Windows++
				}
			case EventDrain:
				// Maintenance does not drain a corpse: when a kill beat the
				// drain to the board (or it is already drained), skip the
				// cycle — the matching rejoin finds no checkpoint and skips
				// itself.
				if _, already := drained[target]; already {
					continue
				}
				var rcp pool.ReplicaCheckpoint
				if rcp, err = p.CheckpointReplica(target); err != nil {
					break
				}
				if derr := p.Drain(target); derr != nil {
					continue
				}
				drained[target] = rcp
			case EventRejoin:
				rcp, ok := drained[target]
				if !ok {
					continue
				}
				delete(drained, target)
				if err = p.Rejoin(target, rcp); err == nil {
					rep.Crash.DrainCycles++
				}
			case EventCrash:
				// The simulated process kill: everything but the journal
				// (and the silicon) dies with the controller. The harness
				// peeks at the dying state first — that is loss accounting
				// on the far side of the crash, not recovery.
				dying := p.Snapshot()
				rep.Crash.Crashes++
				if w != nil && ev.TornFrac > 0 && lastFrame > 0 {
					// The checkpoint append in flight at death reached the
					// store only partially: cut the tail of its frame.
					store.Truncate(store.Size() - (lastFrame - int(ev.TornFrac*float64(lastFrame))))
				}
				var np *pool.Pool
				if np, err = pool.New(poolCfg, switches...); err != nil {
					break
				}
				if store != nil {
					// Reopening drops the torn tail and resumes the LSN.
					var res *journal.ReplayResult
					w, res = journal.NewWriter(store)
					if res.TornBytes > 0 {
						rep.Crash.TornTails++
						rep.Crash.TornBytesDiscarded += res.TornBytes
					}
					if res.SnapshotIndex >= 0 {
						restored := new(pool.Checkpoint)
						if err = ckptDec.Decode(res.Records[res.SnapshotIndex].Payload, restored); err != nil {
							break
						}
						if err = np.Restore(restored); err != nil {
							break
						}
						rep.Crash.SnapshotsRestored++
						// A torn tail falls back to the previous round's
						// checkpoint: that round's ledger is gone for good.
						// The diff covers every booked-or-buffered form a
						// served frame can take — Delivered, Fenced, or an
						// in-flight ack behind a cut — so the partition
						// conservation law telescopes across incarnations.
						rep.Crash.DeliveredLost += ledgerTotal(dying) - ledgerTotal(restored)
						rep.Crash.StaleRounds += int(dying.Round - restored.Round)
						if lost := dying.ClientBacklog - restored.ClientBacklog; lost > 0 {
							rep.Crash.BacklogLost += lost
						}
					} else {
						rep.Crash.DeliveredLost += ledgerTotal(dying)
						rep.Crash.BacklogLost += dying.ClientBacklog
					}
				} else {
					// Unjournaled control: the new controller knows nothing.
					rep.Crash.DeliveredLost += ledgerTotal(dying)
					rep.Crash.BacklogLost += dying.ClientBacklog
				}
				p = np
				// The restored (or amnesiac) ledgers are the new baseline
				// for the per-round stat deltas.
				prev = p.Stats()
			default:
				err = fmt.Errorf("chaos: unknown event kind %v", ev.Kind)
			}
			if err != nil {
				return nil, fmt.Errorf("chaos: applying %s: %w", ev, err)
			}
			ev.Replica = target
			fired = append(fired, ev)
		}

		msgs := switchsim.RandomMessages(&stream, n, surgePlane.Load(round, cfg.Load), cfg.PayloadBits)
		rr, err := p.Run(msgs)
		if err != nil {
			return nil, fmt.Errorf("chaos: round %d: %w", round, err)
		}
		waiting -= expiring[round]
		for _, s := range rr.Shed {
			if at := round + 1 + max(s.RetryAfter, 1); at < cfg.Rounds {
				expiring[at]++
			}
			waiting++
		}
		p.NoteBacklog(waiting)
		rec := RoundRecord{
			Round: round, Offered: len(msgs), Shed: len(rr.Shed),
			Admitted: len(msgs) - len(rr.Shed), Threshold: rr.Threshold,
			ServedBy: rr.ServedBy, FailedOver: rr.FailedOver,
			Violated: rr.Violated, Events: fired,
			Latency: rr.Latency, Hedged: rr.Hedged,
		}
		stats := p.Stats()
		rec.Corrupted = stats.CorruptedDeliveries - prev.CorruptedDeliveries
		rec.DeadlineMissed = stats.DeadlineMissed - prev.DeadlineMissed
		if leaseOn {
			rec.Fenced = stats.Fenced - prev.Fenced
			rec.StaleDelivered = stats.StaleDelivered - prev.StaleDelivered
			rec.ShadowDelivered = rr.ShadowDelivered
			rec.Frozen = rr.Frozen
			rep.Partition.Fenced += rec.Fenced
			rep.Partition.StaleDelivered += rec.StaleDelivered
			rep.Partition.LeaseHandoffs += stats.LeaseHandoffs - prev.LeaseHandoffs
			rep.Partition.DualPrimaryRounds += stats.DualPrimaryRounds - prev.DualPrimaryRounds
			if rec.Frozen {
				rep.Partition.FrozenRounds++
			}
			// A frame Delivered under a stale fencing token is the
			// split-brain leak the lease exists to prevent — a regression
			// anywhere but in the unfenced control.
			if rec.StaleDelivered > 0 && !poolCfg.Lease.Unfenced {
				rep.Regressions = append(rep.Regressions,
					fmt.Sprintf("round %d: %d frames Delivered under a stale fencing token (token %d, split-brain leak)",
						round, rec.StaleDelivered, rr.LeaseToken))
			}
		}
		if byzOn {
			rec.Booked = stats.Delivered - prev.Delivered
			rec.Forged = stats.Forged - prev.Forged
			rec.Duplicated = stats.Duplicated - prev.Duplicated
			rec.Misrouted, rec.Replayed, rec.Fabricated = rr.Misrouted, rr.ReplayedInjected, rr.ForgedInjected
			rec.Equivocated = rr.Equivocated
			rep.Byzantine.Misrouted += rec.Misrouted
			rep.Byzantine.Replayed += rec.Replayed
			rep.Byzantine.Fabricated += rec.Fabricated
			rep.Byzantine.Forged += rec.Forged
			rep.Byzantine.Duplicated += rec.Duplicated
			rep.Byzantine.Booked += rec.Booked
			rep.Byzantine.TrueDelivered += rr.TrueDelivered
			// A ledger increment that disagrees with the physical count
			// under verification means a forged or replayed claim reached
			// Delivered (or a genuine frame was wrongly rejected) — the
			// leak the provenance tags exist to prevent, a regression
			// anywhere but in the unverified control.
			if !cfg.UnverifiedProvenance && rec.Booked != rr.TrueDelivered {
				rep.Regressions = append(rep.Regressions,
					fmt.Sprintf("round %d: ledger booked %d frames against %d physically delivered under provenance verification (replica %d)",
						round, rec.Booked, rr.TrueDelivered, rr.ServedBy))
			}
		}
		if cfg.CheckSLO && rec.DeadlineMissed > 0 {
			rep.Regressions = append(rep.Regressions,
				fmt.Sprintf("round %d: %d deliveries missed the %d-round deadline SLO (latency %d, replica %d, hedged %v)",
					round, rec.DeadlineMissed, poolCfg.Deadline, rec.Latency, rr.ServedBy, rr.Hedged))
		}
		if rr.Result != nil {
			rec.Delivered = len(rr.Result.Delivered)
			// Data-plane intactness: whatever the schedule did, every
			// payload the pool counts delivered must match the offered
			// bits exactly — a corrupted delivery leaking through is a
			// regression even in a round flagged violated. Deliveries
			// and msgs are both in ascending input order.
			next := 0
			for _, d := range rr.Result.Delivered {
				for next < len(msgs) && msgs[next].Input < d.Input {
					next++
				}
				if next == len(msgs) || msgs[next].Input != d.Input || !bytes.Equal(d.Payload, msgs[next].Payload) {
					rep.Regressions = append(rep.Regressions,
						fmt.Sprintf("round %d: corrupted payload delivered from input %d (replica %d)",
							round, d.Input, rr.ServedBy))
				}
			}
		}
		rep.Rounds = append(rep.Rounds, rec)

		// The invariant: the round must deliver at least
		// min(admitted, ⌊α′m′⌋) messages for the serving contract of
		// the live replica set. A round with no servable replica has an
		// empty live set and threshold 0, which is only acceptable if
		// the schedule really did take every replica down at once —
		// the generator never does, so it too is a regression.
		want := min(rec.Admitted, rec.Threshold)
		switch {
		case rr.Violated:
			rep.Regressions = append(rep.Regressions,
				fmt.Sprintf("round %d: contract violated after exhausting replicas (delivered %d of %d admitted, threshold %d)",
					round, rec.Delivered, rec.Admitted, rec.Threshold))
		case rr.ServedBy >= 0 && rec.Delivered < want:
			rep.Regressions = append(rep.Regressions,
				fmt.Sprintf("round %d: delivered %d < ⌊α′m′⌋ bound %d (replica %d)",
					round, rec.Delivered, want, rr.ServedBy))
		}
		if depth := stats.SameRoundFailovers - prev.SameRoundFailovers; depth > rep.MaxSameRoundFailovers {
			rep.MaxSameRoundFailovers = depth
		}

		rep.Crash.TrueDelivered += rec.Delivered
		if leaseOn {
			rep.Partition.TrueServed += rec.Delivered + rr.ShadowDelivered
		}
		if w != nil {
			// End-of-round checkpoint append: this record is what the next
			// incarnation restores, and the one a torn crash next round
			// would shear.
			payload, err := ckpt.Encode(p.Snapshot())
			if err != nil {
				return nil, fmt.Errorf("chaos: round %d: %w", round, err)
			}
			w.Append(journal.KindSnapshot, payload)
			lastFrame = len(payload) + journal.FrameOverhead
			rep.Crash.SnapshotsWritten++
		}
		prev = stats
	}
	rep.Stats = p.Stats()
	if byzOn {
		rep.Byzantine.Verified = !cfg.UnverifiedProvenance
		rep.Byzantine.Audits = rep.Stats.Audits
		rep.Byzantine.AuditDisagreements = rep.Stats.AuditDisagreements
		rep.Byzantine.WitnessConvictions = rep.Stats.WitnessConvictions
		rep.Byzantine.Equivocations = rep.Stats.Equivocations
	}
	if store != nil {
		rep.Crash.JournalBytes = store.Size()
	}
	return rep, nil
}
