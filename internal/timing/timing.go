// Package timing models gray failures — components that meet their
// functional contract but run 10–100× slower than the hardware allows
// — and the estimation machinery that detects and routes around them.
//
// Every failure plane built so far is binary: a chip is dead
// (core.FaultPlane), a replica is down (pool.Kill), a wire corrupts
// bits (link.CorruptionPlane). A marginal chip, a repaired link, or a
// board sharing a supply rail with a hot neighbour fails differently:
// it still routes every message, but late. The paper's Θ(√n) chip
// delay bound is a *fault-free* bound; this package supplies
//
//   - Plane: a seeded, deterministic set of timing faults addressed
//     like wire faults ((stage, wire) with AllStages/AllWires), each
//     adding extra virtual rounds of delay with round windows and
//     self-termination, exactly parallel to link.CorruptionPlane;
//   - Estimator: a Jacobson/Karn RTT estimator (EWMA mean + mean
//     deviation, Karn's rule on retransmitted samples, exponential
//     timer backoff) that adapts ARQ retransmit timers to observed
//     latency instead of a fixed backoff base;
//   - Histogram: a log-bucketed latency histogram with witnessed
//     p50/p99/p999 quantile accessors, cheap enough to keep one per
//     replica and compare across a pool for relative-percentile
//     slow-replica conviction.
package timing

import (
	"fmt"
	"math"

	"concentrators/internal/link"
	"concentrators/internal/seedrand"
	"concentrators/internal/window"
)

// Mode selects the shape of one timing fault.
type Mode int

// The modelled gray-failure shapes.
const (
	// Constant adds Delay extra rounds to every crossing — a marginal
	// chip running at a fraction of its rated clock.
	Constant Mode = iota
	// Jitter adds a heavy-tailed delay: each crossing independently
	// stalls with probability Prob, and a stalling crossing draws its
	// delay from a truncated Pareto tail capped at MaxDelay — the
	// occasional multi-round hiccup of a link renegotiating.
	Jitter
	// Pause stalls crossings by Delay rounds during periodic pause
	// windows: PauseLen rounds of stall every PauseEvery rounds — the
	// GC-pause / firmware-housekeeping shape whose point is that it
	// clears on its own and must NOT convict a replica.
	Pause
	// Ramp degrades gradually: the delay grows linearly from 0 at From
	// to Delay at Until — thermal throttling, a cap drying out. Ramp
	// faults require a bounded [From, Until) window.
	Ramp
)

// String names the mode.
func (m Mode) String() string {
	switch m {
	case Constant:
		return "constant"
	case Jitter:
		return "jitter"
	case Pause:
		return "pause"
	case Ramp:
		return "ramp"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// Fault is one timing fault on the plane. Addressing mirrors
// link.WireFault: Stage s is the wire bundle leaving chip stage s, and
// AllStages/AllWires widen the target — a fault on (stage s, AllWires)
// is chip-or-stage-wide slowness, a fault on every stage is a board
// that is slow end to end.
type Fault struct {
	// Stage is the stage-to-stage bundle the fault sits on, or
	// link.AllStages.
	Stage int
	// Wire is the wire index within the bundle, or link.AllWires.
	Wire int
	// Mode is the gray-failure shape.
	Mode Mode
	// Delay is the stall magnitude in extra virtual rounds
	// (Constant/Pause always, Ramp at the end of its window).
	Delay int
	// Prob and MaxDelay shape Jitter faults: each crossing stalls with
	// probability Prob for a Pareto-tailed delay capped at MaxDelay.
	Prob     float64
	MaxDelay int
	// PauseLen and PauseEvery shape Pause faults: crossings stall in
	// rounds where (round−From) mod PauseEvery < PauseLen.
	PauseLen, PauseEvery int
	// From and Until bound the rounds the fault is live: active for
	// From ≤ round < Until; Until ≤ 0 means forever (except Ramp,
	// which needs the bounded window to define its slope).
	From, Until int
}

// String renders the fault.
func (f Fault) String() string {
	st := fmt.Sprintf("stage %d", f.Stage)
	if f.Stage == link.AllStages {
		st = "all stages"
	}
	target := fmt.Sprintf("%s wire %d", st, f.Wire)
	if f.Wire == link.AllWires {
		target = fmt.Sprintf("%s all wires", st)
	}
	window := ""
	if f.Until > 0 {
		window = fmt.Sprintf(" rounds [%d,%d)", f.From, f.Until)
	} else if f.From > 0 {
		window = fmt.Sprintf(" from round %d", f.From)
	}
	switch f.Mode {
	case Constant:
		return fmt.Sprintf("%s: +%d rounds%s", target, f.Delay, window)
	case Jitter:
		return fmt.Sprintf("%s: jitter p=%g ≤%d rounds%s", target, f.Prob, f.MaxDelay, window)
	case Pause:
		return fmt.Sprintf("%s: pause +%d rounds, %d every %d%s", target, f.Delay, f.PauseLen, f.PauseEvery, window)
	case Ramp:
		return fmt.Sprintf("%s: ramp 0→%d rounds%s", target, f.Delay, window)
	default:
		return fmt.Sprintf("%s: %s%s", target, f.Mode, window)
	}
}

// Validate rejects malformed faults.
func (f Fault) Validate() error {
	switch {
	case f.Stage < link.AllStages:
		return fmt.Errorf("timing: stage %d in %v (want ≥ 0 or AllStages)", f.Stage, f)
	case f.Wire < link.AllWires:
		return fmt.Errorf("timing: wire %d in %v (want ≥ 0 or AllWires)", f.Wire, f)
	}
	if err := window.Check(f.From, f.Until); err != nil {
		return fmt.Errorf("timing: %v in %v", err, f)
	}
	switch f.Mode {
	case Constant:
		if f.Delay < 1 {
			return fmt.Errorf("timing: constant fault needs Delay ≥ 1, got %d in %v", f.Delay, f)
		}
	case Jitter:
		if math.IsNaN(f.Prob) || f.Prob <= 0 || f.Prob > 1 {
			return fmt.Errorf("timing: jitter probability %v outside (0,1] in %v", f.Prob, f)
		}
		if f.MaxDelay < 1 {
			return fmt.Errorf("timing: jitter needs MaxDelay ≥ 1, got %d in %v", f.MaxDelay, f)
		}
	case Pause:
		if f.Delay < 1 {
			return fmt.Errorf("timing: pause fault needs Delay ≥ 1, got %d in %v", f.Delay, f)
		}
		if f.PauseLen < 1 || f.PauseEvery < f.PauseLen {
			return fmt.Errorf("timing: pause shape needs 1 ≤ PauseLen ≤ PauseEvery, got %d every %d in %v",
				f.PauseLen, f.PauseEvery, f)
		}
	case Ramp:
		if f.Delay < 1 {
			return fmt.Errorf("timing: ramp fault needs Delay ≥ 1, got %d in %v", f.Delay, f)
		}
		if err := window.CheckBounded(f.From, f.Until, "ramp fault"); err != nil {
			return fmt.Errorf("timing: %v in %v", err, f)
		}
	default:
		return fmt.Errorf("timing: unknown fault mode in %v", f)
	}
	return nil
}

// active reports whether the fault is live in the given round.
func (f Fault) active(round int) bool {
	return window.Span{From: f.From, Until: f.Until}.Active(round)
}

// sample draws the fault's delay for one crossing in the given round.
// rng is only consulted for Jitter faults, so deterministic modes stay
// deterministic regardless of fault ordering on the plane.
func (f Fault) sample(round int, rng *seedrand.Stream) int {
	switch f.Mode {
	case Constant:
		return f.Delay
	case Jitter:
		if rng.Float64() >= f.Prob {
			return 0
		}
		// Truncated Pareto tail (α = 1): delay = ⌈1/u⌉ capped, so a
		// stalling crossing is usually short and occasionally awful.
		u := rng.Float64()
		floor := 1 / float64(f.MaxDelay)
		if u < floor {
			u = floor
		}
		d := int(math.Ceil(1 / u))
		if d > f.MaxDelay {
			d = f.MaxDelay
		}
		return d
	case Pause:
		if (round-f.From)%f.PauseEvery < f.PauseLen {
			return f.Delay
		}
		return 0
	case Ramp:
		span := f.Until - f.From
		progress := float64(round-f.From+1) / float64(span)
		return int(math.Round(progress * float64(f.Delay)))
	default:
		return 0
	}
}

// Plane is a seeded set of timing faults — the latency counterpart of
// link.CorruptionPlane. Delays are deterministic: the stall drawn for a
// link depends only on the plane's seed and the (round, stage, wire)
// coordinates, never on call order, so a tail-latency regression found
// in CI replays bit-for-bit from its seed. Multiple faults may target
// the same link; their delays add (a jittery link can also be ramping).
// The zero *Plane (nil) means every component runs at full speed.
type Plane struct {
	window.Plane[Fault]
}

// NewPlane returns an empty plane with the given seed.
func NewPlane(seed int64) *Plane {
	return &Plane{window.NewPlane[Fault](seed)}
}

// rng derives the deterministic jitter stream for one (round, link)
// coordinate.
func (p *Plane) rng(round int, at link.LinkAddr) seedrand.Stream {
	h := seedrand.Mix64(uint64(p.Seed()) ^ seedrand.Mix64(uint64(round)<<32|uint64(uint32(at.Stage))) ^ seedrand.Mix64(uint64(at.Wire)+0x7C15F39D))
	return seedrand.NewStream(int64(h))
}

// Delay returns the extra virtual rounds a crossing of the given link
// in the given round stalls for: the sum over every live fault
// matching the link.
func (p *Plane) Delay(round int, at link.LinkAddr) int {
	if p == nil {
		return 0
	}
	total := 0
	rng := p.rng(round, at)
	for _, f := range p.Faults() {
		if (f.Stage != link.AllStages && f.Stage != at.Stage) || (f.Wire != link.AllWires && f.Wire != at.Wire) || !f.active(round) {
			continue
		}
		total += f.sample(round, &rng)
	}
	return total
}

// PathDelay sums Delay over every link of a message's path through a
// switch with stages chip stages (see link.Path).
func (p *Plane) PathDelay(round, stages, input, output int) int {
	if p == nil || p.Len() == 0 {
		return 0
	}
	total := 0
	for _, at := range link.Path(stages, input, output) {
		total += p.Delay(round, at)
	}
	return total
}

// RoundDelay is the batch-level view a pool arbiter sees: the round
// completes when its slowest message lands, so per stage the *worst*
// matching fault delay is taken, and stages add (a message crosses
// every stage in series). The sample for each fault is drawn from the
// plane's deterministic stream at (round, stage, fault index).
func (p *Plane) RoundDelay(round, stages int) int {
	if p == nil || p.Len() == 0 {
		return 0
	}
	total := 0
	for s := 0; s <= stages; s++ {
		worst := 0
		for i, f := range p.Faults() {
			if (f.Stage != link.AllStages && f.Stage != s) || !f.active(round) {
				continue
			}
			rng := p.rng(round, link.LinkAddr{Stage: s, Wire: -2 - i})
			d := f.sample(round, &rng)
			if d > worst {
				worst = d
			}
		}
		total += worst
	}
	return total
}
