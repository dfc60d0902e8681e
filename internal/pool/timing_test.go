package pool

import (
	"math"
	"testing"

	"concentrators/internal/link"
	"concentrators/internal/timing"
)

// straggler is a stage-0, board-wide constant slowdown: the replica
// still routes perfectly, just `delay` rounds late.
func straggler(delay int) timing.Fault {
	return timing.Fault{Stage: 0, Wire: link.AllWires, Mode: timing.Constant, Delay: delay}
}

func TestPoolGrayConfigValidate(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  Config
	}{
		{"NaN hedge quantile", Config{HedgeQuantile: math.NaN()}},
		{"negative hedge quantile", Config{HedgeQuantile: -0.5}},
		{"hedge quantile at 1", Config{HedgeQuantile: 1}},
		{"NaN hedge budget", Config{HedgeQuantile: 0.9, HedgeBudget: math.NaN()}},
		{"negative hedge budget", Config{HedgeQuantile: 0.9, HedgeBudget: -0.1}},
		{"hedge budget above 1", Config{HedgeQuantile: 0.9, HedgeBudget: 1.5}},
		{"negative deadline", Config{Deadline: -1}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := New(tc.cfg, newReplicas(t, 2)...); err == nil {
				t.Errorf("accepted %+v", tc.cfg)
			}
		})
	}
	if _, err := New(Config{HedgeQuantile: 0.9}, newReplicas(t, 1)...); err == nil {
		t.Error("accepted hedging on a single-replica pool")
	}
	if _, err := New(Config{HedgeQuantile: 0.9, HedgeBudget: 0.5, Deadline: 8}, newReplicas(t, 2)...); err != nil {
		t.Errorf("valid gray config rejected: %v", err)
	}
}

// The headline gray-failure property: against a constant-slowdown
// straggler primary, hedged dispatch keeps the pool's served p99 at
// least 2× below the unhedged pool's.
func TestHedgedDispatchCutsTailLatency(t *testing.T) {
	run := func(hedge bool) Stats {
		cfg := Config{}
		if hedge {
			cfg.HedgeQuantile = 0.9
			cfg.HedgeBudget = 1
		}
		p := newPool(t, cfg, 3)
		if err := p.InjectTimingFault(0, straggler(10)); err != nil {
			t.Fatal(err)
		}
		thr := p.Threshold()
		for round := 0; round < 300; round++ {
			if _, err := p.Run(fullMsgs(thr)); err != nil {
				t.Fatal(err)
			}
		}
		return p.Stats()
	}
	unhedged, hedged := run(false), run(true)
	up99, hp99 := unhedged.Latency.P99(), hedged.Latency.P99()
	if up99 < 11 {
		t.Fatalf("unhedged straggler pool p99 %d, want ≥ 11 (the stall is invisible)", up99)
	}
	if hp99*2 > up99 {
		t.Fatalf("hedging improved p99 only %d → %d, want ≥ 2×", up99, hp99)
	}
	if hedged.Hedges == 0 || hedged.HedgeWins == 0 {
		t.Fatalf("no hedges won against a 10-round straggler: %+v", hedged)
	}
	if unhedged.Hedges != 0 {
		t.Fatalf("unhedged pool hedged %d rounds", unhedged.Hedges)
	}
	// The unhedged pool never convicts: spares accumulate no latency
	// samples, so there is no peer evidence to judge against — relative
	// detection needs hedging to feed it.
	if unhedged.SlowConvictions != 0 {
		t.Fatalf("unhedged pool convicted %d replicas without peer evidence", unhedged.SlowConvictions)
	}
	if hedged.SlowConvictions == 0 {
		t.Fatal("hedged pool never convicted the straggler")
	}
}

// The hedge budget is a hard cap: hedged rounds never exceed
// HedgeBudget of all rounds.
func TestHedgeBudgetRespected(t *testing.T) {
	p := newPool(t, Config{HedgeQuantile: 0.5, HedgeBudget: 0.25}, 2)
	if err := p.InjectTimingFault(0, straggler(6)); err != nil {
		t.Fatal(err)
	}
	thr := p.Threshold()
	rounds := 200
	for round := 0; round < rounds; round++ {
		if _, err := p.Run(fullMsgs(thr)); err != nil {
			t.Fatal(err)
		}
	}
	s := p.Stats()
	if cap := int(0.25*float64(rounds)) + 1; s.Hedges > cap {
		t.Fatalf("hedged %d of %d rounds, budget caps at %d", s.Hedges, rounds, cap)
	}
	if s.Hedges == 0 {
		t.Fatal("budget prevented every hedge")
	}
}

// A convicted straggler escalates through the existing breaker — and
// its half-open probes are gated by a timed canary the BIST scan alone
// would wave through. Once the stall ends the canary passes and the
// replica re-admits.
func TestSlowConvictionAndCanaryGate(t *testing.T) {
	p := newPool(t, Config{HedgeQuantile: 0.9, HedgeBudget: 1, ProbeAfter: 2}, 2)
	stall := straggler(12)
	stall.Until = 80
	if err := p.InjectTimingFault(0, stall); err != nil {
		t.Fatal(err)
	}
	thr := p.Threshold()
	for round := 0; round < 80; round++ {
		if _, err := p.Run(fullMsgs(thr)); err != nil {
			t.Fatal(err)
		}
	}
	s := p.Stats()
	if s.SlowConvictions == 0 || s.Replicas[0].SlowConvictions == 0 {
		t.Fatalf("straggler never convicted: %+v", s)
	}
	if s.Replicas[0].State != Quarantined {
		t.Fatalf("convicted straggler in state %v, want quarantined", s.Replicas[0].State)
	}
	if p.Active() != 1 {
		t.Fatalf("pool still serving from the straggler (active %d)", p.Active())
	}
	if s.Canaries == 0 {
		t.Fatal("no canary ran: probes re-admitted a gray replica on BIST alone")
	}
	if s.Replicas[0].LatencyP99 < 13 || s.Replicas[1].LatencyP99 > 1 {
		t.Fatalf("replica latency quantiles wrong: straggler p99 %d, spare p99 %d",
			s.Replicas[0].LatencyP99, s.Replicas[1].LatencyP99)
	}
	// The stall ends at round 80 (board reseated): the next canary
	// passes and the breaker closes within the capped backoff.
	for round := 0; round < 150; round++ {
		if _, err := p.Run(fullMsgs(thr)); err != nil {
			t.Fatal(err)
		}
	}
	s = p.Stats()
	if st := s.Replicas[0].State; st != Healthy {
		t.Fatalf("cleared straggler stuck in state %v after probes", st)
	}
	if s.Replicas[0].Canaries < 2 {
		t.Fatalf("re-admission skipped the canary: %d canaries", s.Replicas[0].Canaries)
	}
}

// The ISSUE's regression pin: a single GC-like pause window never
// convicts — its few slow samples stay inside the watched quantile's
// tail allowance — and with hedging on, the pause causes zero deadline
// misses (the spare absorbs the stalled rounds).
func TestGCPauseNeverConvicts(t *testing.T) {
	p := newPool(t, Config{
		HedgeQuantile: 0.9,
		HedgeBudget:   1,
		Deadline:      5,
	}, 2)
	pause := timing.Fault{
		Stage: 0, Wire: link.AllWires, Mode: timing.Pause,
		Delay: 10, PauseLen: 3, PauseEvery: 1000, From: 40, Until: 60,
	}
	if err := p.InjectTimingFault(0, pause); err != nil {
		t.Fatal(err)
	}
	thr := p.Threshold()
	sawPause := false
	for round := 0; round < 120; round++ {
		rr, err := p.Run(fullMsgs(thr))
		if err != nil {
			t.Fatal(err)
		}
		if rr.Hedged {
			sawPause = true
		}
	}
	s := p.Stats()
	if !sawPause {
		t.Fatal("pause never triggered a hedge — the scenario did not exercise the detector")
	}
	if s.SlowConvictions != 0 {
		t.Fatalf("a single 3-round pause convicted a replica: %+v", s)
	}
	if s.Replicas[0].State == Quarantined {
		t.Fatal("paused replica quarantined")
	}
	if s.DeadlineMissed != 0 {
		t.Fatalf("hedging failed to absorb the pause: %d deadline misses", s.DeadlineMissed)
	}
}

// Deadline-SLO accounting without hedging: every round served by a
// straggler past the budget books its deliveries DeadlineMissed while
// still counting them Delivered (the fabric met its ⌊α′m′⌋ guarantee).
func TestPoolDeadlineSLO(t *testing.T) {
	p := newPool(t, Config{Deadline: 5}, 1)
	if err := p.InjectTimingFault(0, straggler(10)); err != nil {
		t.Fatal(err)
	}
	thr := p.Threshold()
	delivered := 0
	for round := 0; round < 40; round++ {
		rr, err := p.Run(fullMsgs(thr))
		if err != nil {
			t.Fatal(err)
		}
		if rr.Latency != 11 {
			t.Fatalf("round %d latency %d, want 11", round, rr.Latency)
		}
		if !rr.DeadlineMissed {
			t.Fatalf("round %d at latency 11 not booked against the 5-round SLO", round)
		}
		delivered += len(rr.Result.Delivered)
	}
	s := p.Stats()
	if s.Delivered != delivered || s.DeadlineMissed != delivered {
		t.Fatalf("SLO ledger wrong: Delivered %d, DeadlineMissed %d, want both %d",
			s.Delivered, s.DeadlineMissed, delivered)
	}
	if s.Latency.P50() != 11 || s.Latency.P99() != 11 {
		t.Fatalf("pool latency quantiles p50 %d p99 %d, want 11", s.Latency.P50(), s.Latency.P99())
	}
}
