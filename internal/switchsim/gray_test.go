package switchsim

import (
	"math"
	"math/rand"
	"testing"

	"concentrators/internal/core"
	"concentrators/internal/link"
	"concentrators/internal/timing"
)

func TestGrayConfigValidate(t *testing.T) {
	for _, tc := range []struct {
		name   string
		mutate func(*SessionConfig)
	}{
		{"negative deadline", func(c *SessionConfig) { c.Deadline = -1 }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := integrityBase()
			ic := *cfg.Integrity
			cfg.Integrity = &ic
			tc.mutate(&cfg)
			if err := cfg.Validate(); err == nil {
				t.Errorf("Validate accepted %+v / %+v", cfg, cfg.Integrity)
			}
		})
	}
}

// SessionStats.Quantile property: monotone in q, always a witnessed
// latency, NaN/out-of-range rejected — across random histograms and
// real sessions.
func TestSessionQuantileProperty(t *testing.T) {
	check := func(t *testing.T, s SessionStats, seed int64) {
		t.Helper()
		prev := -1
		for _, q := range []float64{0, 0.1, 0.5, 0.9, 0.99, 0.999, 1} {
			lat, ok := s.Quantile(q)
			if !ok {
				t.Fatalf("seed %d: quantile %v not ok on non-empty histogram", seed, q)
			}
			if s.LatencyHistogram[lat] == 0 {
				t.Fatalf("seed %d: quantile %v returned unwitnessed latency %d", seed, q, lat)
			}
			if lat < prev {
				t.Fatalf("seed %d: quantile %v = %d < previous %d (not monotone)", seed, q, lat, prev)
			}
			prev = lat
		}
		if s.P50() > s.P99() || s.P99() > s.P999() {
			t.Fatalf("seed %d: percentile accessors not ordered: p50 %d p99 %d p999 %d",
				seed, s.P50(), s.P99(), s.P999())
		}
	}
	for seed := int64(0); seed < 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		s := SessionStats{LatencyHistogram: map[int]int{}}
		for i, n := 0, 1+rng.Intn(300); i < n; i++ {
			s.LatencyHistogram[rng.Intn(50)]++
		}
		check(t, s, seed)
	}
	sw, err := core.NewRevsortSwitch(64, 32)
	if err != nil {
		t.Fatal(err)
	}
	stats, err := RunSession(sw, SessionConfig{Policy: Resend, Load: 0.9, Rounds: 60, PayloadBits: 8, Seed: 3, AckDelay: 2})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Delivered == 0 {
		t.Fatal("nothing delivered")
	}
	check(t, *stats, -1)
	var empty SessionStats
	if _, ok := empty.Quantile(0.5); ok {
		t.Fatal("empty stats produced a quantile")
	}
	for _, q := range []float64{math.NaN(), -0.1, 1.1} {
		if _, ok := stats.Quantile(q); ok {
			t.Fatalf("quantile accepted q=%v", q)
		}
	}
}

// The extended conservation law — Offered = Delivered + Dropped +
// CorruptedDropped + DeadlineMissed + FinalBacklog — holds across
// timing fault shapes, deadlines, and corruption (the ISSUE's -race
// property).
func TestGrayConservationProperty(t *testing.T) {
	sw, err := core.NewRevsortSwitch(64, 32)
	if err != nil {
		t.Fatal(err)
	}
	shapes := []struct {
		name  string
		fault timing.Fault
	}{
		{"constant straggler", timing.Fault{Stage: link.AllStages, Wire: link.AllWires, Mode: timing.Constant, Delay: 4}},
		{"heavy-tail jitter", timing.Fault{Stage: 0, Wire: link.AllWires, Mode: timing.Jitter, Prob: 0.3, MaxDelay: 12}},
		{"gc pause", timing.Fault{Stage: link.AllStages, Wire: link.AllWires, Mode: timing.Pause, Delay: 10, PauseLen: 3, PauseEvery: 20}},
		{"degradation ramp", timing.Fault{Stage: 1, Wire: link.AllWires, Mode: timing.Ramp, Delay: 8, From: 0, Until: 100}},
	}
	for _, sh := range shapes {
		for _, adaptive := range []bool{false, true} {
			for seed := int64(1); seed <= 3; seed++ {
				name := sh.name
				if adaptive {
					name += " adaptive"
				}
				t.Run(name, func(t *testing.T) {
					plane := timing.NewPlane(seed)
					if err := plane.Add(sh.fault); err != nil {
						t.Fatal(err)
					}
					corrupt := link.NewCorruptionPlane(seed)
					if err := corrupt.Add(link.WireFault{Stage: link.AllStages, Wire: link.AllWires, Mode: link.WireBitFlip, BER: 1e-3}); err != nil {
						t.Fatal(err)
					}
					cfg := integrityBase()
					cfg.Seed = seed
					cfg.Rounds = 120
					cfg.Deadline = 6
					cfg.Integrity = &IntegrityConfig{
						CRC:         link.CRC16,
						Window:      4,
						Timing:      plane,
						Corruption:  corrupt,
						AdaptiveRTO: adaptive,
					}
					stats, err := RunSession(sw, cfg)
					if err != nil {
						t.Fatal(err)
					}
					conserve(t, stats)
					if stats.Integrity.StallRounds == 0 {
						t.Error("timing plane injected no stall rounds")
					}
				})
			}
		}
	}
}

// A constant straggler pushes latencies past the deadline budget: the
// fabric still delivers, but the SLO books the misses — and every
// missed latency is strictly above the budget.
func TestTimingStragglerMissesDeadlines(t *testing.T) {
	sw, err := core.NewRevsortSwitch(64, 32)
	if err != nil {
		t.Fatal(err)
	}
	plane := timing.NewPlane(9)
	if err := plane.Add(timing.Fault{Stage: link.AllStages, Wire: link.AllWires, Mode: timing.Constant, Delay: 10}); err != nil {
		t.Fatal(err)
	}
	cfg := integrityBase()
	cfg.Rounds = 100
	cfg.Deadline = 4
	cfg.Integrity = &IntegrityConfig{CRC: link.CRC16, Window: 4, Timing: plane}
	stats, err := RunSession(sw, cfg)
	if err != nil {
		t.Fatal(err)
	}
	conserve(t, stats)
	if stats.DeadlineMissed == 0 {
		t.Fatalf("a 10-round straggler against a 4-round budget missed nothing: %+v", stats)
	}
	for lat := range stats.MissedLatencyHistogram {
		if lat <= cfg.Deadline {
			t.Errorf("latency %d booked as missed but within budget %d", lat, cfg.Deadline)
		}
	}
	for lat := range stats.LatencyHistogram {
		if lat > cfg.Deadline {
			t.Errorf("latency %d booked Delivered but past budget %d", lat, cfg.Deadline)
		}
	}
	// The same session without a deadline delivers everything the SLO
	// version splits: deadline accounting must not change what the
	// fabric physically does.
	cfg.Deadline = 0
	free, err := RunSession(sw, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if free.Delivered != stats.Delivered+stats.DeadlineMissed {
		t.Errorf("deadline accounting altered the data plane: %d delivered without SLO, %d+%d with",
			free.Delivered, stats.Delivered, stats.DeadlineMissed)
	}
}

// The adaptive estimator absorbs a straggler that the fixed backoff
// keeps misjudging: under a constant path delay beyond the fixed RTO,
// the Jacobson/Karn timer converges to the true round trip and stops
// retransmitting frames that were never lost.
func TestAdaptiveRTOAbsorbsStraggler(t *testing.T) {
	sw, err := core.NewRevsortSwitch(64, 32)
	if err != nil {
		t.Fatal(err)
	}
	run := func(adaptive bool) *SessionStats {
		plane := timing.NewPlane(5)
		if err := plane.Add(timing.Fault{Stage: link.AllStages, Wire: link.AllWires, Mode: timing.Constant, Delay: 6}); err != nil {
			t.Fatal(err)
		}
		cfg := integrityBase()
		cfg.Rounds = 200
		cfg.Load = 0.3
		cfg.Integrity = &IntegrityConfig{CRC: link.CRC16, Window: 4, Timing: plane, AdaptiveRTO: adaptive}
		stats, err := RunSession(sw, cfg)
		if err != nil {
			t.Fatal(err)
		}
		conserve(t, stats)
		return stats
	}
	fixed, adaptive := run(false), run(true)
	ist := adaptive.Integrity
	if !ist.AdaptiveRTO || ist.RTTSamples == 0 {
		t.Fatalf("estimator never primed: %+v", ist)
	}
	if ist.FinalRTO <= 1+6 {
		t.Errorf("final RTO %d did not stretch past the 6-round stall", ist.FinalRTO)
	}
	if ist.Timeouts >= fixed.Integrity.Timeouts {
		t.Errorf("adaptive RTO fired %d spurious timeouts, fixed backoff %d — no improvement",
			ist.Timeouts, fixed.Integrity.Timeouts)
	}
	if ist.Retransmits >= fixed.Integrity.Retransmits {
		t.Errorf("adaptive RTO retransmitted %d frames, fixed backoff %d — no improvement",
			ist.Retransmits, fixed.Integrity.Retransmits)
	}
	// Karn's rule accounting: any retransmitted frame whose ack still
	// matched must have been rejected, never sampled.
	if ist.KarnRejected < 0 || ist.RTTSamples+ist.KarnRejected == 0 {
		t.Errorf("sample accounting degenerate: %d clean, %d rejected", ist.RTTSamples, ist.KarnRejected)
	}
	// On clean wires with no straggler the adaptive timer must not
	// regress the session.
	cfg := integrityBase()
	cfg.Integrity = &IntegrityConfig{CRC: link.CRC16, Window: 4, AdaptiveRTO: true}
	clean, err := RunSession(sw, cfg)
	if err != nil {
		t.Fatal(err)
	}
	conserve(t, clean)
	if clean.Integrity.Timeouts != 0 {
		t.Errorf("clean adaptive session fired %d timeouts", clean.Integrity.Timeouts)
	}
}
