package overload

import "math"

// The brownout state machine's sustained-overload contract stepdown:
//
//	Nominal ──8 congested rounds──▶ Level 1 ── … ──▶ Level 3
//	   ▲                               │
//	   └──────16 consecutive clean─────┘  (one level at a time)
//
// Each level multiplies the advertised threshold by 0.75 — the pool
// deliberately lowers its effective α: it admits less and delivers
// predictably, instead of advertising a contract it can no longer
// honor under the offered load. Stepping back up mirrors the breaker's
// half-open probation: a full window of clean rounds must elapse per
// level, so a flapping overload cannot oscillate the contract every
// round.
const (
	brownoutEnterAfter = 8    // consecutive congested rounds per step down
	brownoutExitAfter  = 16   // consecutive clean rounds per step up
	brownoutStep       = 0.75 // threshold multiplier per level
	brownoutMaxLevel   = 3    // deepest level
)

// Brownout is the degradation state machine. Not safe for concurrent
// use; the pool drives it under its own lock.
type Brownout struct{ state BrownoutSnapshot }

// BrownoutSnapshot is a Brownout machine's whole mutable state.
type BrownoutSnapshot struct {
	Level, CongStreak, CleanStreak int
	// Enters and Exits book the step-down and step-up transitions.
	Enters, Exits int
}

// NewBrownout builds the state machine at nominal level 0.
func NewBrownout() *Brownout { return &Brownout{} }

// Snapshot returns the machine's state.
func (b *Brownout) Snapshot() BrownoutSnapshot { return b.state }

// Restore replaces the machine's state with a snapshot.
func (b *Brownout) Restore(s BrownoutSnapshot) { b.state = s }

// Observe feeds one round's congestion verdict and reports whether the
// level changed.
func (b *Brownout) Observe(congested bool) (changed bool) {
	s := &b.state
	if congested {
		s.CleanStreak = 0
		s.CongStreak++
		if s.CongStreak >= brownoutEnterAfter && s.Level < brownoutMaxLevel {
			s.Level++
			s.Enters++
			s.CongStreak = 0
			return true
		}
		return false
	}
	s.CongStreak = 0
	s.CleanStreak++
	if s.CleanStreak >= brownoutExitAfter && s.Level > 0 {
		s.Level--
		s.Exits++
		s.CleanStreak = 0
		return true
	}
	return false
}

// Level returns the current degradation level (0 = nominal).
func (b *Brownout) Level() int { return b.state.Level }

// Scale returns the contract multiplier the level implies:
// brownoutStep^level.
func (b *Brownout) Scale() float64 {
	return math.Pow(brownoutStep, float64(b.state.Level))
}

// Enters returns the booked step-down transitions; Exits the booked
// step-ups.
func (b *Brownout) Enters() int { return b.state.Enters }

// Exits returns the booked step-up transitions.
func (b *Brownout) Exits() int { return b.state.Exits }
