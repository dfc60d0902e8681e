package switchsim

import (
	"testing"

	"concentrators/internal/core"
)

// MaxBacklog counts messages waiting for a future round, not the peak
// round offer (which MaxOffered now carries).
func TestMaxBacklogCountsWaitingMessages(t *testing.T) {
	sw, err := core.NewPerfectSwitch(4, 2)
	if err != nil {
		t.Fatal(err)
	}
	stats, err := RunSession(sw, SessionConfig{
		Policy:      Buffer,
		Load:        1.0,
		Rounds:      10,
		Seed:        1,
		PayloadBits: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Every round: 2 buffered survivors + 2 new arrivals offered, 2
	// delivered, 2 re-buffered.
	if stats.MaxOffered != 4 {
		t.Fatalf("MaxOffered = %d, want 4", stats.MaxOffered)
	}
	if stats.MaxBacklog != 2 {
		t.Fatalf("MaxBacklog = %d, want 2 (only waiting messages count)", stats.MaxBacklog)
	}
}

// Resend with AckDelay 0 retries on the original input the very next
// round — exactly Buffer's behavior. The two policies must produce
// identical round-by-round deliveries.
func TestResendZeroAckDelayEquivalentToBuffer(t *testing.T) {
	sw, err := core.NewPerfectSwitch(16, 4)
	if err != nil {
		t.Fatal(err)
	}
	for seed := int64(1); seed <= 5; seed++ {
		for _, load := range []float64{0.3, 0.7, 1.0} {
			base := SessionConfig{Load: load, Rounds: 40, Seed: seed, PayloadBits: 1}
			cfgR, cfgB := base, base
			cfgR.Policy, cfgR.AckDelay = Resend, 0
			cfgB.Policy = Buffer
			r, err := RunSession(sw, cfgR)
			if err != nil {
				t.Fatal(err)
			}
			b, err := RunSession(sw, cfgB)
			if err != nil {
				t.Fatal(err)
			}
			if r.Offered != b.Offered || r.Delivered != b.Delivered ||
				r.Retries != b.Retries || r.Refused != b.Refused ||
				r.MaxBacklog != b.MaxBacklog || r.MaxOffered != b.MaxOffered {
				t.Fatalf("seed %d load %v: resend/ack0 %+v != buffer %+v", seed, load, r, b)
			}
			for round := range r.DeliveredPerRound {
				if r.DeliveredPerRound[round] != b.DeliveredPerRound[round] {
					t.Fatalf("seed %d load %v round %d: delivered %d (resend) vs %d (buffer)",
						seed, load, round, r.DeliveredPerRound[round], b.DeliveredPerRound[round])
				}
			}
		}
	}
}

// The Misroute latency histogram must account for exactly the delivered
// messages, with latencies inside the session horizon.
func TestMisrouteLatencyHistogramSanity(t *testing.T) {
	sw, err := core.NewPerfectSwitch(8, 4)
	if err != nil {
		t.Fatal(err)
	}
	const rounds = 30
	stats, err := RunSession(sw, SessionConfig{
		Policy:      Misroute,
		Load:        0.8,
		Rounds:      rounds,
		Seed:        9,
		PayloadBits: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	sum, deflected := 0, false
	for lat, c := range stats.LatencyHistogram {
		if lat < 0 || lat >= rounds {
			t.Fatalf("latency %d outside [0,%d)", lat, rounds)
		}
		if c <= 0 {
			t.Fatalf("latency %d has non-positive count %d", lat, c)
		}
		if lat > 0 {
			deflected = true
		}
		sum += c
	}
	if sum != stats.Delivered {
		t.Fatalf("latency histogram sums to %d, Delivered = %d", sum, stats.Delivered)
	}
	if !deflected {
		t.Fatal("load 0.8 on m=4 must deflect some messages into latency > 0")
	}
	perRound := 0
	for _, c := range stats.DeliveredPerRound {
		perRound += c
	}
	if perRound != stats.Delivered {
		t.Fatalf("DeliveredPerRound sums to %d, Delivered = %d", perRound, stats.Delivered)
	}
	if stats.Offered < stats.Delivered {
		t.Fatalf("delivered %d exceeds offered %d", stats.Delivered, stats.Offered)
	}
	if stats.MeanLatency() <= 0 {
		t.Fatal("deflections must push mean latency above 0")
	}
}
