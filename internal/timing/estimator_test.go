package timing

import (
	"math"
	"math/rand"
	"testing"
)

// Karn's rule as a property: for any interleaving of clean and
// retransmitted samples, the estimator's state is identical to the
// state produced by the clean samples alone — retransmitted-frame RTTs
// never contaminate SRTT, RTTVAR, or the RTO.
func TestKarnRuleProperty(t *testing.T) {
	for seed := int64(0); seed < 50; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var mixed, clean Estimator // the zero value is ready for use
		n := 1 + rng.Intn(200)
		retransmitted := 0
		for i := 0; i < n; i++ {
			rtt := rng.Intn(100)
			if rng.Float64() < 0.4 {
				// A wildly wrong RTT on a retransmitted frame — the
				// exact contamination Karn's rule exists to prevent.
				mixed.Sample(rtt*37+1000, true)
				retransmitted++
			} else {
				mixed.Sample(rtt, false)
				clean.Sample(rtt, false)
			}
		}
		if mixed.SRTT() != clean.SRTT() || mixed.Var() != clean.Var() || mixed.RTO() != clean.RTO() {
			t.Fatalf("seed %d: retransmitted samples contaminated the estimator: srtt %v vs %v, var %v vs %v, rto %d vs %d",
				seed, mixed.SRTT(), clean.SRTT(), mixed.Var(), clean.Var(), mixed.RTO(), clean.RTO())
		}
		if mixed.Samples() != clean.Samples() {
			t.Fatalf("seed %d: clean sample counts diverge: %d vs %d", seed, mixed.Samples(), clean.Samples())
		}
		if mixed.Rejected() != retransmitted {
			t.Fatalf("seed %d: rejected %d, want %d", seed, mixed.Rejected(), retransmitted)
		}
	}
}

func TestEstimatorConvergesAndClamps(t *testing.T) {
	e := NewEstimator()
	if e.Primed() {
		t.Fatal("fresh estimator claims to be primed")
	}
	if rto := e.RTO(); rto != 1 {
		t.Fatalf("unprimed RTO %d, want the 1-round floor", rto)
	}
	// A steady RTT of 6: SRTT converges to 6, RTTVAR decays toward 0,
	// so RTO settles in [6, 6+4·3].
	for i := 0; i < 200; i++ {
		e.Sample(6, false)
	}
	if !e.Primed() {
		t.Fatal("estimator not primed after samples")
	}
	if s := e.SRTT(); math.Abs(s-6) > 0.1 {
		t.Fatalf("SRTT %v, want ≈6", s)
	}
	rto := e.RTO()
	if rto < 6 || rto > 18 {
		t.Fatalf("converged RTO %d outside [6,18]", rto)
	}
	// Karn backoff: each timeout doubles the timer up to the clamp; a
	// clean sample resets it.
	e.Backoff()
	if b1 := e.RTO(); b1 < 2*rto-1 && b1 != 64 {
		t.Fatalf("one backoff: RTO %d, want ≈%d", b1, 2*rto)
	}
	for i := 0; i < 20; i++ {
		e.Backoff()
	}
	if e.RTO() != 64 {
		t.Fatalf("saturated RTO %d, want the 64-round ceiling", e.RTO())
	}
	e.Sample(6, false)
	if e.RTO() >= 64 {
		t.Fatalf("clean sample did not reset the backoff: RTO %d", e.RTO())
	}
	// Retransmitted samples must not reset the backoff either.
	for i := 0; i < 20; i++ {
		e.Backoff()
	}
	e.Sample(6, true)
	if e.RTO() != 64 {
		t.Fatalf("retransmitted sample reset the backoff: RTO %d", e.RTO())
	}
}

// The estimator tracks a latency shift: after a step change in RTT the
// RTO follows it up within a few tens of samples.
func TestEstimatorAdaptsToShift(t *testing.T) {
	e := NewEstimator()
	for i := 0; i < 50; i++ {
		e.Sample(3, false)
	}
	low := e.RTO()
	for i := 0; i < 50; i++ {
		e.Sample(30, false)
	}
	high := e.RTO()
	if high <= low || high < 30 {
		t.Fatalf("RTO did not adapt: %d before shift, %d after", low, high)
	}
}
