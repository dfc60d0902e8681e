package overload

import (
	"fmt"
	"math"

	"concentrators/internal/seedrand"
	"concentrators/internal/window"
)

// Mode selects the shape of one surge fault.
type Mode int

// The modelled overload shapes.
const (
	// Step multiplies the offered load by Factor for the whole
	// bounded [From, Until) window — a scheduled batch job landing on
	// the fabric. Step faults require a bounded window.
	Step Mode = iota
	// Ramp grows the multiplier linearly from 1 at From to Factor at
	// Until — organic growth outrunning capacity. Ramp faults require
	// a bounded window.
	Ramp
	// Flash spikes: each round inside the window independently
	// multiplies the load by Factor with probability Prob — the
	// flash-crowd shape whose point is that it clears between spikes.
	Flash
	// Sustained multiplies by Factor from From onward (Until ≤ 0 means
	// forever) — persistent oversubscription, the metastable-retry-storm
	// driver.
	Sustained
)

// String names the mode.
func (m Mode) String() string {
	switch m {
	case Step:
		return "step"
	case Ramp:
		return "ramp"
	case Flash:
		return "flash"
	case Sustained:
		return "sustained"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// Fault is one load fault on the surge plane.
type Fault struct {
	// Mode is the overload shape.
	Mode Mode
	// Factor is the peak load multiplier (Step/Sustained always, Ramp
	// at the end of its window, Flash during a spike). Must be a
	// positive finite number: a negative or zero multiplier is not a
	// load.
	Factor float64
	// Prob shapes Flash faults: the per-round spike probability.
	Prob float64
	// From and Until bound the rounds the fault is live: active for
	// From ≤ round < Until; Until ≤ 0 means forever (Sustained and
	// Flash only — Step and Ramp need the bounded window).
	From, Until int
}

// String renders the fault.
func (f Fault) String() string {
	window := fmt.Sprintf(" from round %d", f.From)
	if f.Until > 0 {
		window = fmt.Sprintf(" rounds [%d,%d)", f.From, f.Until)
	}
	switch f.Mode {
	case Step:
		return fmt.Sprintf("step ×%.3g%s", f.Factor, window)
	case Ramp:
		return fmt.Sprintf("ramp 1→×%.3g%s", f.Factor, window)
	case Flash:
		return fmt.Sprintf("flash ×%.3g p=%.3g%s", f.Factor, f.Prob, window)
	case Sustained:
		return fmt.Sprintf("sustained ×%.3g%s", f.Factor, window)
	default:
		return fmt.Sprintf("%s%s", f.Mode, window)
	}
}

// Validate rejects malformed surge faults — in particular negative,
// zero, or non-finite load multipliers.
func (f Fault) Validate() error {
	switch {
	case math.IsNaN(f.Factor) || math.IsInf(f.Factor, 0) || f.Factor <= 0:
		return fmt.Errorf("overload: surge multiplier %v must be a positive finite number in %v", f.Factor, f)
	}
	if err := window.Check(f.From, f.Until); err != nil {
		return fmt.Errorf("overload: %v in %v", err, f)
	}
	switch f.Mode {
	case Step, Ramp:
		if err := window.CheckBounded(f.From, f.Until, fmt.Sprintf("%s fault", f.Mode)); err != nil {
			return fmt.Errorf("overload: %v in %v", err, f)
		}
	case Flash:
		if math.IsNaN(f.Prob) || f.Prob <= 0 || f.Prob > 1 {
			return fmt.Errorf("overload: flash probability %v outside (0,1] in %v", f.Prob, f)
		}
	case Sustained:
	default:
		return fmt.Errorf("overload: unknown surge mode in %v", f)
	}
	return nil
}

// active reports whether the fault is live in the given round.
func (f Fault) active(round int) bool {
	return window.Span{From: f.From, Until: f.Until}.Active(round)
}

// sample draws the fault's multiplier for the given round. rng is only
// consulted for Flash faults, so deterministic shapes stay
// deterministic regardless of fault ordering on the plane.
func (f Fault) sample(round int, rng *seedrand.Stream) float64 {
	switch f.Mode {
	case Step, Sustained:
		return f.Factor
	case Ramp:
		span := f.Until - f.From
		progress := float64(round-f.From+1) / float64(span)
		return 1 + progress*(f.Factor-1)
	case Flash:
		if rng.Float64() < f.Prob {
			return f.Factor
		}
		return 1
	default:
		return 1
	}
}

// expected returns the fault's mean multiplier for the given round —
// Flash averages over its spike probability instead of sampling.
func (f Fault) expected(round int) float64 {
	if f.Mode == Flash {
		return 1 + f.Prob*(f.Factor-1)
	}
	return f.sample(round, nil)
}

// Plane is a seeded set of surge faults — the load counterpart of
// timing.Plane. Multipliers are deterministic: the value drawn for a
// round depends only on the plane's seed and the round number, never on
// call order, so an overload collapse found in CI replays bit-for-bit
// from its seed. Multiple faults may overlap in time; their multipliers
// compound (a ramp can carry flash spikes). The zero *Plane (nil) means
// the offered load is exactly the configured base load.
type Plane struct {
	window.Plane[Fault]
}

// NewPlane returns an empty surge plane with the given seed.
func NewPlane(seed int64) *Plane {
	return &Plane{window.NewPlane[Fault](seed)}
}

// rng derives the deterministic spike stream for one (round, fault)
// coordinate.
func (p *Plane) rng(round, idx int) seedrand.Stream {
	h := seedrand.Mix64(uint64(p.Seed()) ^ seedrand.Mix64(uint64(round)<<20|uint64(uint32(idx))))
	return seedrand.NewStream(int64(h))
}

// Multiplier returns the compound load multiplier for the given round:
// the product over every live fault. A nil plane multiplies by 1.
func (p *Plane) Multiplier(round int) float64 {
	if p == nil {
		return 1
	}
	mult := 1.0
	for i, f := range p.Faults() {
		if !f.active(round) {
			continue
		}
		rng := p.rng(round, i)
		mult *= f.sample(round, &rng)
	}
	return mult
}

// ExpectedMultiplier returns the mean compound multiplier for the
// round — deterministic shapes exactly, Flash averaged over its spike
// probability. This is what composes with workload.Bursty.ExpectedLoad
// to give the per-round expected k.
func (p *Plane) ExpectedMultiplier(round int) float64 {
	if p == nil {
		return 1
	}
	mult := 1.0
	for _, f := range p.Faults() {
		if f.active(round) {
			mult *= f.expected(round)
		}
	}
	return mult
}

// Load applies the round's multiplier to a base per-input probability,
// clamped to [0, 1].
func (p *Plane) Load(round int, base float64) float64 {
	l := base * p.Multiplier(round)
	if l > 1 {
		return 1
	}
	if l < 0 || math.IsNaN(l) {
		return 0
	}
	return l
}
