// Package window holds what the seeded fault planes share: Plane, the
// storage of a plane's seed and faults, and the [From, Until) round
// window that bounds a fault. The wire corruption, timing, surge,
// partition, byzantine and crash planes keep their faults in a Plane,
// and all but the crash plane (whose faults fire at one round) bound
// them with the same two integers and the same liveness rule. One copy
// of each lives here so the planes cannot drift: one fault list in
// insertion order, one activation rule, one set of validation messages.
//
// Two window disciplines exist, and both are legitimate:
//
//   - Open-ended planes (link, timing, surge) allow Until ≤ 0 to mean
//     "forever": a stuck wire or a sustained overload does not heal on
//     its own. They validate with Check.
//   - Healing planes (partition, byzantine) mandate a bounded window:
//     a partition that never heals or a liar that never stops would
//     freeze the harness's verdicts forever, so those planes validate
//     with CheckBounded. Fault shapes that need a slope (timing ramps,
//     surge ramps) are bounded for the same reason — the slope is
//     undefined without an end.
package window

import "fmt"

// Span is one [From, Until) round window. Until ≤ 0 means forever,
// for the planes whose validation admits it.
type Span struct {
	From, Until int
}

// Active reports whether the window covers the given round:
// From ≤ round, and round < Until when the window is bounded.
func (s Span) Active(round int) bool {
	return round >= s.From && (s.Until <= 0 || round < s.Until)
}

// Bounded reports whether the window has a real end.
func (s Span) Bounded() bool { return s.Until > 0 }

// Check validates the window shape every plane agrees on: From must
// be non-negative, and a bounded window must be non-empty. The error
// carries no plane or fault context — callers wrap it, e.g.
// fmt.Errorf("link: %v in %v", err, f) — so the planes' existing
// messages stay bit-identical.
func Check(from, until int) error {
	switch {
	case from < 0:
		return fmt.Errorf("negative From round")
	case until > 0 && until <= from:
		return fmt.Errorf("empty round window [%d,%d)", from, until)
	}
	return nil
}

// CheckBounded validates the shared shape and additionally rejects
// open-ended windows, naming the offender: "%s needs a bounded
// [From,Until) window". The healing planes (partition, byzantine) and
// the sloped fault shapes (timing ramps, surge steps and ramps) use
// it.
func CheckBounded(from, until int, what string) error {
	if err := Check(from, until); err != nil {
		return err
	}
	if until <= 0 {
		return fmt.Errorf("%s needs a bounded [From,Until) window", what)
	}
	return nil
}

// Plane is the storage a seeded fault plane embeds: the seed its draws
// key on and its validated faults in insertion order. Insertion order
// is the order every plane applies its faults in — wire faults compose
// in it, and the timing, surge and partition planes key a fault's
// stream by its index — so a plane rebuilt by re-adding Faults in order
// draws exactly what the original draws. Add is the only way in, so
// every fault on a Plane has passed its Validate. The methods need a
// non-nil plane; it is the embedding planes' draws that read a nil
// plane as fault-free.
type Plane[F interface{ Validate() error }] struct {
	seed   int64
	faults []F
}

// NewPlane returns an empty plane with the given seed.
func NewPlane[F interface{ Validate() error }](seed int64) Plane[F] {
	return Plane[F]{seed: seed}
}

// Add validates f and appends it, or returns the validation error and
// leaves the plane unchanged.
func (p *Plane[F]) Add(f F) error {
	if err := f.Validate(); err != nil {
		return err
	}
	p.faults = append(p.faults, f)
	return nil
}

// Seed returns the seed the plane's draws key on.
func (p *Plane[F]) Seed() int64 { return p.seed }

// Len returns the number of faults on the plane.
func (p *Plane[F]) Len() int { return len(p.faults) }

// Faults returns the plane's own fault slice in insertion order. It is
// read-only: callers must not modify it, and one that keeps it past a
// later Add still sees the faults it saw when it took it.
func (p *Plane[F]) Faults() []F { return p.faults[:len(p.faults):len(p.faults)] }
