package switchsim

import (
	"math"
	"math/rand"
	"testing"

	"concentrators/internal/core"
)

func smallSwitch(t *testing.T) core.Concentrator {
	t.Helper()
	sw, err := core.NewPerfectSwitch(16, 4)
	if err != nil {
		t.Fatal(err)
	}
	return sw
}

func TestSessionConfigValidate(t *testing.T) {
	valid := SessionConfig{Policy: Resend, Load: 0.5, Rounds: 10, PayloadBits: 4, AckDelay: 1}
	if err := valid.Validate(); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	for _, tc := range []struct {
		name   string
		mutate func(*SessionConfig)
	}{
		{"zero rounds", func(c *SessionConfig) { c.Rounds = 0 }},
		{"negative rounds", func(c *SessionConfig) { c.Rounds = -3 }},
		{"negative load", func(c *SessionConfig) { c.Load = -0.01 }},
		{"load above one", func(c *SessionConfig) { c.Load = 1.5 }},
		{"NaN load", func(c *SessionConfig) { c.Load = math.NaN() }},
		{"zero payload bits", func(c *SessionConfig) { c.PayloadBits = 0 }},
		{"negative payload bits", func(c *SessionConfig) { c.PayloadBits = -8 }},
		{"negative ack delay", func(c *SessionConfig) { c.AckDelay = -1 }},
		{"unknown policy", func(c *SessionConfig) { c.Policy = Policy(42) }},
		{"negative policy", func(c *SessionConfig) { c.Policy = Policy(-1) }},
		// AckDelay models the resend protocol's round trip; under any
		// other policy it would silently be a no-op, so it is rejected.
		{"ack delay under drop", func(c *SessionConfig) { c.Policy = Drop }},
		{"ack delay under buffer", func(c *SessionConfig) { c.Policy = Buffer }},
		{"ack delay under misroute", func(c *SessionConfig) { c.Policy = Misroute }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := valid
			tc.mutate(&cfg)
			if err := cfg.Validate(); err == nil {
				t.Errorf("Validate accepted %+v", cfg)
			}
			if _, err := RunSession(smallSwitch(t), cfg); err == nil {
				t.Errorf("RunSession accepted %+v", cfg)
			}
		})
	}
}

func TestPolicyString(t *testing.T) {
	if Drop.String() != "drop" || Resend.String() != "resend" ||
		Buffer.String() != "buffer" || Misroute.String() != "misroute" {
		t.Error("policy names wrong")
	}
}

// Misroute (deflection): nothing is lost, the sender's input is not
// blocked, and deflected messages pay latency.
func TestSessionMisroute(t *testing.T) {
	sw := smallSwitch(t)
	stats, err := RunSession(sw, SessionConfig{
		Policy: Misroute, Load: 0.9, Rounds: 200, PayloadBits: 4, Seed: 17,
	})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Dropped != 0 {
		t.Error("misroute should not permanently drop")
	}
	if stats.Retries == 0 {
		t.Error("overloaded misroute should deflect")
	}
	if stats.MeanLatency() <= 0 {
		t.Error("deflection should pay latency")
	}
	// Conservation.
	pending := stats.Offered - stats.Delivered
	if pending < 0 {
		t.Errorf("negative pending: %d", pending)
	}
	// Throughput still capped at m per round.
	if stats.Delivered > 200*4 {
		t.Errorf("delivered %d exceeds capacity", stats.Delivered)
	}
}

// Conservation: offered messages are exactly delivered + dropped +
// still pending at the end.
func TestSessionConservation(t *testing.T) {
	sw := smallSwitch(t)
	for _, pol := range []Policy{Drop, Resend, Buffer} {
		stats, err := RunSession(sw, SessionConfig{
			Policy: pol, Load: 0.8, Rounds: 50, PayloadBits: 4, Seed: 7,
		})
		if err != nil {
			t.Fatal(err)
		}
		pendingAtEnd := stats.Offered - stats.Delivered - stats.Dropped
		if pendingAtEnd < 0 {
			t.Fatalf("%v: negative pending (%d)", pol, pendingAtEnd)
		}
		if pol == Drop && pendingAtEnd != 0 {
			t.Fatalf("drop policy should leave nothing pending, got %d", pendingAtEnd)
		}
		if pol != Drop && stats.Dropped != 0 {
			t.Fatalf("%v: should never permanently drop, got %d", pol, stats.Dropped)
		}
		delivered := 0
		for _, c := range stats.LatencyHistogram {
			delivered += c
		}
		if delivered != stats.Delivered {
			t.Fatalf("%v: latency histogram sums to %d, delivered %d", pol, delivered, stats.Delivered)
		}
	}
}

// Under light load every policy behaves identically: everything
// delivered in the same round.
func TestSessionLightLoadAllSame(t *testing.T) {
	sw := smallSwitch(t)
	for _, pol := range []Policy{Drop, Resend, Buffer} {
		stats, err := RunSession(sw, SessionConfig{
			Policy: pol, Load: 0.05, Rounds: 100, PayloadBits: 4, Seed: 9,
		})
		if err != nil {
			t.Fatal(err)
		}
		if stats.Offered == 0 {
			t.Fatalf("%v: no traffic generated", pol)
		}
		sameRound := stats.LatencyHistogram[0]
		if float64(sameRound) < 0.95*float64(stats.Delivered) {
			t.Errorf("%v: light load should deliver almost everything immediately (%d of %d)",
				pol, sameRound, stats.Delivered)
		}
	}
}

// Under overload the §1 tradeoff appears: Drop loses messages with zero
// latency; Resend/Buffer lose nothing permanently but pay latency.
func TestSessionOverloadTradeoffs(t *testing.T) {
	sw := smallSwitch(t) // 16 inputs, 4 outputs: heavily oversubscribed
	cfg := SessionConfig{Load: 0.9, Rounds: 200, PayloadBits: 4, Seed: 11}

	cfg.Policy = Drop
	drop, err := RunSession(sw, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if drop.Dropped == 0 {
		t.Error("overloaded drop policy should drop")
	}
	if drop.MeanLatency() != 0 {
		t.Errorf("drop policy latency = %v, want 0", drop.MeanLatency())
	}

	cfg.Policy = Resend
	resend, err := RunSession(sw, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if resend.Retries == 0 {
		t.Error("overloaded resend policy should retry")
	}
	if resend.MeanLatency() <= 0 {
		t.Error("resend policy should pay latency under overload")
	}

	cfg.Policy = Buffer
	buffer, err := RunSession(sw, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if buffer.Refused == 0 {
		t.Error("overloaded buffer policy should refuse arrivals at occupied inputs")
	}
	if buffer.MeanLatency() <= 0 {
		t.Error("buffer policy should pay latency under overload")
	}

	// With a positive ack delay, resend pays strictly more latency than
	// buffer (the §1 distinction between in-network buffering and the
	// acknowledgment protocol).
	cfg.Policy = Resend
	cfg.AckDelay = 3
	resendAck, err := RunSession(sw, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if resendAck.MeanLatency() <= buffer.MeanLatency() {
		t.Errorf("resend with ack delay (%.2f) should exceed buffer latency (%.2f)",
			resendAck.MeanLatency(), buffer.MeanLatency())
	}
	cfg.AckDelay = 0

	// Throughput is capped by m per round in all cases; none can exceed
	// rounds·m.
	capacity := 200 * 4
	for _, s := range []*SessionStats{drop, resend, buffer} {
		if s.Delivered > capacity {
			t.Errorf("%v delivered %d > capacity %d", s.Policy, s.Delivered, capacity)
		}
	}
	// All policies saturate: delivered ≈ capacity under heavy load.
	for _, s := range []*SessionStats{drop, resend, buffer} {
		if float64(s.Delivered) < 0.9*float64(capacity) {
			t.Errorf("%v delivered %d, expected near capacity %d", s.Policy, s.Delivered, capacity)
		}
	}
}

// The session machinery also works with a partial concentrator, whose
// guarantee threshold (not m) governs the loss onset.
func TestSessionWithPartialConcentrator(t *testing.T) {
	sw, err := core.NewColumnsortSwitch(8, 4, 18)
	if err != nil {
		t.Fatal(err)
	}
	stats, err := RunSession(sw, SessionConfig{
		Policy: Resend, Load: 0.5, Rounds: 100, PayloadBits: 4, Seed: 13,
	})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Delivered == 0 || stats.Offered == 0 {
		t.Fatal("no traffic flowed")
	}
	if stats.Dropped != 0 {
		t.Error("resend should not permanently drop")
	}
}

func TestMeanLatencyEmpty(t *testing.T) {
	s := SessionStats{LatencyHistogram: map[int]int{}}
	if s.MeanLatency() != 0 {
		t.Error("empty histogram should have zero mean")
	}
}

// TestRetryDelay pins the Resend ack-timeout rule: AckDelay, doubled
// for each offer after the first, clamped to the cap. A cap of
// AckDelay is the fixed round trip; a cap between two doublings
// clamps the overshoot.
func TestRetryDelay(t *testing.T) {
	for _, tc := range []struct {
		ack, cap int
		want     []int // delays after the 1st, 2nd, ... dropped offer
	}{
		{0, 0, []int{0, 0, 0}},
		{0, 8, []int{0, 0, 0}},
		{2, 2, []int{2, 2, 2, 2}},
		{1, 8, []int{1, 2, 4, 8, 8}},
		{3, 10, []int{3, 6, 10, 10}},
	} {
		st := &Session{cfg: SessionConfig{AckDelay: tc.ack}, backoffCap: tc.cap}
		for i, want := range tc.want {
			if got := st.retryDelay(i + 1); got != want {
				t.Errorf("AckDelay %d cap %d: delay after offer %d = %d, want %d", tc.ack, tc.cap, i+1, got, want)
			}
		}
	}
}

// TestSessionStepAllocs pins a steady-state round on Revsort 256/128
// at zero allocations under each policy: Drop at load 1, where every
// input offers, and the backlog policies at load 0.9, where about 110
// messages wait each round. The offer table, the blocked-sender marker,
// the fresh offers' records and payloads, the message list, the Runner,
// the two backlog backings and Misroute's candidate order are all the
// Session's, reused every round.
func TestSessionStepAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items under the race detector; allocation counts vary")
	}
	sw, err := core.NewRevsortSwitch(256, 128)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		policy Policy
		load   float64
	}{
		{Drop, 1},
		{Misroute, 0.9},
		{Resend, 0.9},
		{Buffer, 0.9},
	} {
		t.Run(tc.policy.String(), func(t *testing.T) {
			const warmup = 32
			st, err := NewSession(sw, SessionConfig{Policy: tc.policy, Load: tc.load, Rounds: warmup + 64, PayloadBits: 8}, 0)
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(1))
			step := func() {
				if _, _, err := st.Step(sw, rng); err != nil {
					t.Fatal(err)
				}
			}
			for range warmup {
				step()
			}
			if got := testing.AllocsPerRun(20, step); got != 0 {
				t.Errorf("steady-state %s round at load %v allocated %v times, want 0", tc.policy, tc.load, got)
			}
		})
	}
}
