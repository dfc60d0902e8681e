package overload

import "math"

// The AIMD control law over the admitted fraction of the live ⌊α′m′⌋
// threshold: additive increase on clean rounds, multiplicative
// decrease on congested ones — the TCP-style law whose fixed point
// keeps the goodput-vs-offered-load curve monotone. The fraction stays
// in [aimdMin, aimdMax].
const (
	aimdMin      = 0.1
	aimdMax      = 1.0
	aimdIncrease = 0.05 // added per clean round
	aimdDecrease = 0.5  // multiplied in per congested round
)

// AIMD is the admission controller. It is not safe for concurrent
// use; the pool drives it under its own lock.
type AIMD struct{ state AIMDSnapshot }

// AIMDSnapshot is an AIMD controller's whole mutable state.
type AIMDSnapshot struct {
	Fraction float64
	// Increases and Decreases count the clean rounds credited and the
	// congestion signals absorbed.
	Increases, Decreases int
}

// NewAIMD builds a controller starting at the full fraction (fail
// open: an idle pool admits the full contract).
func NewAIMD() *AIMD { return &AIMD{AIMDSnapshot{Fraction: aimdMax}} }

// Snapshot returns the controller's state.
func (a *AIMD) Snapshot() AIMDSnapshot { return a.state }

// Restore replaces the controller's state with a snapshot.
func (a *AIMD) Restore(s AIMDSnapshot) { a.state = s }

// Fraction returns the current admitted fraction.
func (a *AIMD) Fraction() float64 { return a.state.Fraction }

// Cap returns the admission cap the fraction implies over a live
// threshold: ⌈fraction·thr⌉, never below 1 while the fabric has any
// capacity (a controller that admits zero can never observe recovery).
func (a *AIMD) Cap(thr int) int {
	if thr <= 0 {
		return 0
	}
	c := int(math.Ceil(a.state.Fraction * float64(thr)))
	if c < 1 {
		c = 1
	}
	if c > thr {
		c = thr
	}
	return c
}

// OnCongestion applies the multiplicative decrease.
func (a *AIMD) OnCongestion() {
	a.state.Fraction *= aimdDecrease
	if a.state.Fraction < aimdMin {
		a.state.Fraction = aimdMin
	}
	a.state.Decreases++
}

// OnClean applies the additive increase.
func (a *AIMD) OnClean() {
	a.state.Fraction += aimdIncrease
	if a.state.Fraction > aimdMax {
		a.state.Fraction = aimdMax
	}
	a.state.Increases++
}

// Decreases returns how many congestion signals the controller has
// absorbed; Increases how many clean rounds it has credited.
func (a *AIMD) Decreases() int { return a.state.Decreases }

// Increases returns the clean-round credit count.
func (a *AIMD) Increases() int { return a.state.Increases }
