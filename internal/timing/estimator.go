package timing

import "math"

// The Jacobson/Karn constants: the EWMA gains of the smoothed RTT and
// of the mean deviation, the deviation multiplier in
// RTO = SRTT + rttK·RTTVAR, and the [minRTO, maxRTO] clamp in rounds.
// The backoff applied by Backoff is clamped to maxRTO too, so a run of
// timeouts cannot push the timer past the ceiling.
const (
	rttAlpha = 1.0 / 8
	rttBeta  = 1.0 / 4
	rttK     = 4
	minRTO   = 1
	maxRTO   = 64
)

// Estimator is a Jacobson/Karn retransmit-timer estimator over
// round-counted RTTs: SRTT and RTTVAR EWMAs per RFC 6298, Karn's rule
// (samples from retransmitted frames are discarded — the ack is
// ambiguous between the original and the retransmit), and exponential
// timer backoff on timeout that only a clean sample resets. The zero
// value is an unprimed estimator ready for use.
type Estimator struct {
	srtt, rttvar float64
	samples      int
	rejected     int  // Karn-discarded samples
	shift        uint // current exponential backoff (timer doubles per timeout)
}

// NewEstimator builds an unprimed estimator.
func NewEstimator() *Estimator { return &Estimator{} }

// Sample feeds one measured round trip. retransmitted marks a sample
// taken from a frame that was ever retransmitted: Karn's rule discards
// it (the ack cannot be matched to a specific transmission), so it
// never contaminates SRTT/RTTVAR. A clean sample also resets the
// exponential timeout backoff.
func (e *Estimator) Sample(rtt int, retransmitted bool) {
	if retransmitted {
		e.rejected++
		return
	}
	if rtt < 0 {
		rtt = 0
	}
	r := float64(rtt)
	if e.samples == 0 {
		// RFC 6298 initialization: SRTT = R, RTTVAR = R/2.
		e.srtt = r
		e.rttvar = r / 2
	} else {
		e.rttvar = (1-rttBeta)*e.rttvar + rttBeta*math.Abs(e.srtt-r)
		e.srtt = (1-rttAlpha)*e.srtt + rttAlpha*r
	}
	e.samples++
	e.shift = 0
}

// Backoff doubles the retransmit timer (Karn's algorithm on timeout).
// The doubling saturates once RTO reaches maxRTO.
func (e *Estimator) Backoff() {
	if e.shift < 16 {
		e.shift++
	}
}

// Primed reports whether at least one clean sample has landed; before
// that RTO has nothing to stand on and callers should keep their
// static timer.
func (e *Estimator) Primed() bool { return e.samples > 0 }

// RTO returns the current retransmission timeout in rounds:
// (SRTT + rttK·RTTVAR) · 2^backoff, clamped to [minRTO, maxRTO].
func (e *Estimator) RTO() int {
	rto := e.srtt + rttK*e.rttvar
	if rto < minRTO {
		rto = minRTO
	}
	scaled := rto * float64(uint64(1)<<e.shift)
	if scaled > maxRTO {
		return maxRTO
	}
	return int(math.Ceil(scaled))
}

// SRTT returns the smoothed round-trip estimate.
func (e *Estimator) SRTT() float64 { return e.srtt }

// Var returns the smoothed mean deviation.
func (e *Estimator) Var() float64 { return e.rttvar }

// Samples returns the number of clean samples absorbed.
func (e *Estimator) Samples() int { return e.samples }

// Rejected returns the number of samples Karn's rule discarded.
func (e *Estimator) Rejected() int { return e.rejected }
