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
type Brownout struct {
	level       int
	congStreak  int
	cleanStreak int
	// transition ledger
	enters, exits int
}

// NewBrownout builds the state machine at nominal level 0.
func NewBrownout() *Brownout { return &Brownout{} }

// Observe feeds one round's congestion verdict and reports whether the
// level changed.
func (b *Brownout) Observe(congested bool) (changed bool) {
	if congested {
		b.cleanStreak = 0
		b.congStreak++
		if b.congStreak >= brownoutEnterAfter && b.level < brownoutMaxLevel {
			b.level++
			b.enters++
			b.congStreak = 0
			return true
		}
		return false
	}
	b.congStreak = 0
	b.cleanStreak++
	if b.cleanStreak >= brownoutExitAfter && b.level > 0 {
		b.level--
		b.exits++
		b.cleanStreak = 0
		return true
	}
	return false
}

// Level returns the current degradation level (0 = nominal).
func (b *Brownout) Level() int { return b.level }

// Scale returns the contract multiplier the level implies:
// brownoutStep^level.
func (b *Brownout) Scale() float64 {
	return math.Pow(brownoutStep, float64(b.level))
}

// Enters returns the booked step-down transitions; Exits the booked
// step-ups.
func (b *Brownout) Enters() int { return b.enters }

// Exits returns the booked step-up transitions.
func (b *Brownout) Exits() int { return b.exits }
