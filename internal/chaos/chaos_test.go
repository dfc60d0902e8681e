package chaos

import (
	"fmt"
	"strings"
	"testing"

	"concentrators/internal/core"
	"concentrators/internal/overload"
	"concentrators/internal/pool"
)

// buildColumnsort is the chaos fixture: 256→128 so that every chip
// fault class — including dead-chip bypasses, which cost a chip's port
// count in ε — degrades to a positive guarantee threshold.
func buildColumnsort() (core.FaultInjectable, error) {
	return core.NewColumnsortSwitchBeta(256, 128, 0.75)
}

func baseConfig(seed int64) Config {
	return Config{
		Replicas:    3,
		Rounds:      120,
		Load:        0.7,
		PayloadBits: 4,
		Seed:        seed,
		Faults:      3,
		Kills:       2,
		Corruptions: 2,
		Pool:        pool.Config{TripThreshold: 1, ProbeAfter: 1},
	}
}

// stragglerConfig is the gray-failure fixture: bounded stall bursts
// against the active replica under a 5-round deadline SLO, with no
// chip faults, kills or corruption.
func stragglerConfig(seed int64) Config {
	cfg := baseConfig(seed)
	cfg.Faults = 0
	cfg.Kills = 0
	cfg.Corruptions = 0
	cfg.Stalls = 5
	cfg.Pool.Deadline = 5
	cfg.CheckSLO = true
	return cfg
}

// surgeConfig is the overload fixture: three bounded surge bursts
// against a 2-replica closed-loop pool.
func surgeConfig(seed int64) Config {
	return Config{
		Replicas:    2,
		Rounds:      120,
		Load:        0.5,
		PayloadBits: 4,
		Seed:        seed,
		Surges:      3,
		Pool: pool.Config{
			TripThreshold: 1, ProbeAfter: 1,
			Overload: &overload.Config{},
		},
	}
}

// corruptionConfig is the data-plane fixture: corruption bursts only.
func corruptionConfig(seed int64) Config {
	cfg := baseConfig(seed)
	cfg.Faults = 0
	cfg.Kills = 0
	cfg.Corruptions = 4
	return cfg
}

func mustSchedule(t *testing.T, cfg Config) []Event {
	t.Helper()
	sw, err := buildColumnsort()
	if err != nil {
		t.Fatal(err)
	}
	events, err := GenerateSchedule(cfg.Seed, sw, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return events
}

func TestGenerateScheduleDeterministic(t *testing.T) {
	cfg := baseConfig(42)
	a := mustSchedule(t, cfg)
	b := mustSchedule(t, cfg)
	if len(a) == 0 {
		t.Fatal("empty schedule")
	}
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("event %d differs: %v vs %v", i, a[i], b[i])
		}
	}
	kills, revives, faults, corruptions := 0, 0, 0, 0
	for _, ev := range a {
		switch ev.Kind {
		case EventKill:
			kills++
			if ev.Replica != ActiveReplica {
				t.Fatalf("kill targets %d, want the active replica", ev.Replica)
			}
		case EventRevive:
			revives++
		case EventFault:
			faults++
		case EventCorruption:
			corruptions++
			w := ev.Wire
			if w.Until <= w.From || w.From != ev.Round {
				t.Fatalf("corruption burst window [%d,%d) not bounded at round %d", w.From, w.Until, ev.Round)
			}
			if w.BER <= 0 || w.BER > maxBurstBER {
				t.Fatalf("burst BER %g outside (0,%g]", w.BER, maxBurstBER)
			}
		}
		if ev.Round < 0 || ev.Round >= cfg.Rounds {
			t.Fatalf("event round %d outside [0,%d)", ev.Round, cfg.Rounds)
		}
	}
	if kills == 0 || faults == 0 || corruptions == 0 {
		t.Fatalf("schedule has %d kills, %d faults, %d corruptions — want all three", kills, faults, corruptions)
	}
	if revives > kills {
		t.Fatalf("%d revives for %d kills", revives, kills)
	}
}

func TestConfigValidation(t *testing.T) {
	sw, err := buildColumnsort()
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name    string
		mutate  func(*Config)
		wantMsg string
	}{
		{"zero replicas", func(c *Config) { c.Replicas = 0 }, "need ≥ 1 replica"},
		{"zero rounds", func(c *Config) { c.Rounds = 0 }, "need ≥ 1 round"},
		{"negative load", func(c *Config) { c.Load = -0.1 }, "load -0.1 outside [0,1]"},
		{"load above one", func(c *Config) { c.Load = 1.5 }, "load 1.5 outside [0,1]"},
		{"zero payload", func(c *Config) { c.PayloadBits = 0 }, "payload must be ≥ 1 bit"},
		{"negative kills", func(c *Config) { c.Kills = -1 }, "negative event counts"},
		{"negative corruptions", func(c *Config) { c.Corruptions = -1 }, "negative event counts"},
	} {
		cfg := baseConfig(1)
		tc.mutate(&cfg)
		if _, err := GenerateSchedule(cfg.Seed, sw, cfg); err == nil {
			t.Errorf("%s: GenerateSchedule accepted invalid config", tc.name)
		} else if !strings.Contains(err.Error(), tc.wantMsg) {
			t.Errorf("%s: error %q does not explain %q", tc.name, err, tc.wantMsg)
		}
		if _, err := Run(buildColumnsort, nil, cfg); err == nil {
			t.Errorf("%s: Run accepted invalid config", tc.name)
		}
	}
}

// TestChaosAcceptance is the PR's acceptance criterion: across ≥ 3
// seeded schedules with chip faults, mid-stream primary kills, and
// wire-corruption bursts (BER up to 1e-2), every round delivers at
// least ⌊α′m′⌋ messages for the live replica set's degraded contract,
// failover completes within the round that exposes the failure, and no
// corrupted payload is ever counted delivered.
func TestChaosAcceptance(t *testing.T) {
	totalTrips, totalCorrupted := 0, 0
	for _, seed := range []int64{7, 1987, 0xC0C0} {
		cfg := baseConfig(seed)
		events := mustSchedule(t, cfg)
		rep, err := Run(buildColumnsort, events, cfg)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if len(rep.Regressions) != 0 {
			t.Fatalf("seed %d: guarantee regressed:\n%v\nschedule: %v",
				seed, rep.Regressions, events)
		}
		if rep.Stats.Violations != 0 {
			t.Fatalf("seed %d: %d violated rounds", seed, rep.Stats.Violations)
		}
		// The schedule kills the primary mid-stream, so the arbiter
		// must have failed over — and every failover that exposed a
		// failure completed in-round (otherwise the round would have
		// been a regression above).
		if rep.Stats.Failovers == 0 {
			t.Fatalf("seed %d: no failovers despite kills", seed)
		}
		totalTrips += rep.Stats.Trips
		totalCorrupted += rep.Stats.CorruptedDeliveries
		if rep.Stats.Delivered+rep.Stats.CorruptedDeliveries < rep.Stats.Delivered {
			t.Fatalf("seed %d: inconsistent corruption accounting: %+v", seed, rep.Stats)
		}
		if len(rep.Rounds) != cfg.Rounds {
			t.Fatalf("seed %d: %d rounds recorded, want %d", seed, len(rep.Rounds), cfg.Rounds)
		}
	}
	// Not every seeded fault bites while its replica serves, but across
	// the seeds some must trip the breaker and exercise quarantine, and
	// some corruption burst must actually corrupt deliveries (all of
	// which were stripped, or the regression list would be non-empty).
	if totalTrips == 0 {
		t.Fatal("no breaker trips across any seed")
	}
	if totalCorrupted == 0 {
		t.Fatal("no corrupted deliveries across any seed — bursts never bit")
	}
}

// TestCorruptionBurstChaos isolates the data-plane failure mode: a
// corruption-only schedule against a spared pool must keep goodput at
// the contract bound every round (corrupted deliveries stripped, the
// round failed over in-round) and leave no wire quarantines behind
// once the bounded bursts end.
func TestCorruptionBurstChaos(t *testing.T) {
	cfg := corruptionConfig(21)
	events := mustSchedule(t, cfg)
	if len(events) == 0 {
		t.Fatal("no corruption events scheduled")
	}
	rep, err := Run(buildColumnsort, events, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Regressions) != 0 {
		t.Fatalf("goodput regressed under corruption bursts:\n%v", rep.Regressions)
	}
	if rep.Stats.CorruptedDeliveries == 0 {
		t.Fatal("bursts never corrupted a delivery")
	}
	corruptRounds := 0
	for _, rec := range rep.Rounds {
		if rec.Corrupted > 0 {
			corruptRounds++
			if !rec.FailedOver || rec.ServedBy < 0 {
				t.Fatalf("round %d corrupted %d deliveries without failing over in-round: %+v",
					rec.Round, rec.Corrupted, rec)
			}
		}
	}
	if corruptRounds == 0 {
		t.Fatal("no round recorded corruption")
	}
	// Ambient bursts are transient: no wire should be convicted.
	if rep.Stats.LinksQuarantined != 0 {
		t.Errorf("%d wires quarantined by bounded transient bursts", rep.Stats.LinksQuarantined)
	}
}

// TestStragglerChaosAcceptance is the gray-failure acceptance
// criterion: across ≥ 3 seeded schedules of bounded stall bursts
// (constant slowdown, heavy-tail jitter, degradation ramps) against
// the active replica, hedged dispatch keeps every round inside the
// deadline budget — zero per-round deadline-SLO regressions — while
// the delivery guarantee holds as usual.
func TestStragglerChaosAcceptance(t *testing.T) {
	totalStalled := 0
	for _, seed := range []int64{11, 1987, 0xFADE} {
		cfg := stragglerConfig(seed)
		events := mustSchedule(t, cfg)
		stalls := 0
		for _, ev := range events {
			if ev.Kind != EventTiming {
				t.Fatalf("seed %d: non-timing event %v in a stall-only schedule", seed, ev)
			}
			f := ev.Stall
			if f.From != ev.Round || f.Until <= f.From || f.Until > cfg.Rounds {
				t.Fatalf("seed %d: stall window [%d,%d) not bounded at round %d", seed, f.From, f.Until, ev.Round)
			}
			stalls++
		}
		if stalls < 3 {
			t.Fatalf("seed %d: only %d stall bursts scheduled", seed, stalls)
		}
		rep, err := Run(buildColumnsort, events, cfg)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if len(rep.Regressions) != 0 {
			t.Fatalf("seed %d: deadline SLO regressed:\n%v\nschedule: %v",
				seed, rep.Regressions, events)
		}
		if rep.Stats.DeadlineMissed != 0 {
			t.Fatalf("seed %d: %d deliveries missed the deadline", seed, rep.Stats.DeadlineMissed)
		}
		if rep.Stats.Hedges == 0 || rep.Stats.HedgeWins == 0 {
			t.Fatalf("seed %d: stalls absorbed without hedging (%d hedges, %d wins) — the scenario did not bite",
				seed, rep.Stats.Hedges, rep.Stats.HedgeWins)
		}
		for _, rec := range rep.Rounds {
			if rec.Latency > cfg.Pool.Deadline {
				t.Fatalf("seed %d round %d: served at latency %d past the %d-round budget yet unreported",
					seed, rec.Round, rec.Latency, cfg.Pool.Deadline)
			}
			totalStalled += rec.DeadlineMissed
		}
	}
	if totalStalled != 0 {
		t.Fatalf("%d deliveries missed deadlines across seeds", totalStalled)
	}
}

// TestStragglerChaosUnhedged: the control for the acceptance test —
// the same stall schedules against a pool with hedging disabled must
// report deadline-SLO regressions (proving the bursts actually bite
// and the harness actually checks).
func TestStragglerChaosUnhedged(t *testing.T) {
	cfg := stragglerConfig(11)
	// A single replica has no spare to hedge to (the runner only
	// defaults hedging on for ≥ 2), so every stalled round must miss.
	cfg.Replicas = 1
	events := mustSchedule(t, cfg)
	rep, err := Run(buildColumnsort, events, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Regressions) == 0 || rep.Stats.DeadlineMissed == 0 {
		t.Fatalf("stall bursts against an unhedged pool missed no deadlines: %+v", rep.Stats)
	}
}

// TestChaosConfigSLOValidation: the satellite rejection — a zero
// deadline with SLO checking enabled is a misconfiguration, not a
// trivially passing run.
func TestChaosConfigSLOValidation(t *testing.T) {
	sw, err := buildColumnsort()
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name   string
		mutate func(*Config)
	}{
		{"zero deadline with SLO enabled", func(c *Config) { c.CheckSLO = true }},
		{"negative deadline", func(c *Config) { c.Pool.Deadline = -3 }},
		{"negative stalls", func(c *Config) { c.Stalls = -1 }},
	} {
		cfg := baseConfig(1)
		tc.mutate(&cfg)
		if _, err := GenerateSchedule(cfg.Seed, sw, cfg); err == nil {
			t.Errorf("%s: GenerateSchedule accepted invalid config", tc.name)
		}
		if _, err := Run(buildColumnsort, nil, cfg); err == nil {
			t.Errorf("%s: Run accepted invalid config", tc.name)
		}
	}
}

// TestChaosReplayDeterministic: the same seed replays the exact same
// per-round outcomes.
func TestChaosReplayDeterministic(t *testing.T) {
	cfg := baseConfig(99)
	events := mustSchedule(t, cfg)
	a, err := Run(buildColumnsort, events, cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(buildColumnsort, events, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Rounds {
		ra, rb := a.Rounds[i], b.Rounds[i]
		if ra.Delivered != rb.Delivered || ra.ServedBy != rb.ServedBy ||
			ra.Shed != rb.Shed || ra.FailedOver != rb.FailedOver {
			t.Fatalf("round %d diverged between replays: %+v vs %+v", i, ra, rb)
		}
	}
	if a.Stats.Failovers != b.Stats.Failovers || a.Stats.Delivered != b.Stats.Delivered {
		t.Fatalf("stats diverged: %+v vs %+v", a.Stats, b.Stats)
	}
}

// TestScanLatencyInjection: probe-latency jitter delays re-admission
// but must not break the delivery guarantee (the spares carry it).
func TestScanLatencyInjection(t *testing.T) {
	cfg := baseConfig(5)
	cfg.ScanLatencyJitter = true
	cfg.Rounds = 160
	events := mustSchedule(t, cfg)
	sawLatency := false
	for _, ev := range events {
		if ev.Kind == EventScanLatency {
			sawLatency = true
		}
	}
	if !sawLatency {
		t.Fatal("no scan-latency events scheduled")
	}
	rep, err := Run(buildColumnsort, events, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Regressions) != 0 {
		t.Fatalf("guarantee regressed under scan latency:\n%v", rep.Regressions)
	}
}

// TestKillWithoutSpares: a 1-replica pool killed mid-stream must flag
// violated rounds (no spare to fail over to) — the harness reports the
// regression instead of masking it.
func TestKillWithoutSpares(t *testing.T) {
	cfg := baseConfig(3)
	cfg.Replicas = 1
	cfg.Faults = 0
	cfg.Kills = 1
	cfg.Corruptions = 0
	cfg.Rounds = 30
	events := mustSchedule(t, cfg)
	rep, err := Run(buildColumnsort, events, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Regressions) == 0 {
		t.Fatal("killing the only replica went unreported")
	}
}

// TestSurgeChaosAcceptance replays surge-burst schedules — bounded
// step / ramp / flash-crowd load multipliers against a closed-loop
// pool — across 3 seeds × 120 rounds and requires zero per-round
// goodput regressions: every served round must deliver at least
// min(admitted, ⌊α′m′⌋) under the effective (browned-out, AIMD-capped)
// contract. A retry-storm control on the same fabric shows what the
// closed loop is for: the open loop collapses metastably under a
// sustained 4× surge.
func TestSurgeChaosAcceptance(t *testing.T) {
	for _, seed := range []int64{7, 99, 2026} {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			cfg := surgeConfig(seed)
			events := mustSchedule(t, cfg)
			surges := 0
			for _, ev := range events {
				if ev.Kind == EventSurge {
					surges++
					if ev.Surge.Until <= ev.Surge.From {
						t.Errorf("unbounded surge burst: %v", ev)
					}
				}
			}
			if surges != 3 {
				t.Fatalf("scheduled %d surge bursts, want 3", surges)
			}
			rep, err := Run(buildColumnsort, events, cfg)
			if err != nil {
				t.Fatal(err)
			}
			for _, r := range rep.Regressions {
				t.Errorf("regression: %s", r)
			}
			shed := 0
			for _, rec := range rep.Rounds {
				shed += rec.Shed
			}
			if shed == 0 {
				t.Error("surge bursts never exceeded admission — schedule too weak")
			}
		})
	}

	// Retry-storm control: the same seed, the same sustained 4× surge —
	// the open loop (static gate, synchronized retries) collapses to
	// zero goodput while the closed loop holds the threshold.
	t.Run("retry-storm-control", func(t *testing.T) {
		surge := overload.NewPlane(1)
		if err := surge.Add(overload.Fault{Mode: overload.Sustained, Factor: 4, From: 20}); err != nil {
			t.Fatal(err)
		}
		session := func(closed bool) *pool.OverloadSessionStats {
			sw, err := core.NewColumnsortSwitchBeta(64, 16, 0.75)
			if err != nil {
				t.Fatal(err)
			}
			var pc pool.Config
			sc := pool.OverloadSessionConfig{
				Rounds: 240, Load: 0.25, PayloadBits: 4, Seed: 42, Deadline: 8, Surge: surge,
			}
			if closed {
				pc.Overload = &overload.Config{BacklogFactor: 4}
				sc.Retry = &overload.RetryConfig{Budget: 0.01, BackoffBase: 1, BackoffCap: 2, Burst: 2}
				sc.CoDel = &overload.CoDelConfig{Target: 2, Interval: 4}
			}
			p, err := pool.New(pc, sw)
			if err != nil {
				t.Fatal(err)
			}
			st, err := pool.RunOverloadSession(p, sc)
			if err != nil {
				t.Fatal(err)
			}
			return st
		}
		lastHalf := func(st *pool.OverloadSessionStats) int {
			sum := 0
			for _, g := range st.GoodputPerRound[120:] {
				sum += g
			}
			return sum
		}
		open, closed := lastHalf(session(false)), lastHalf(session(true))
		const thr = 15
		if open > thr*120/2 {
			t.Errorf("open loop did not collapse: %d on-time deliveries in the last 120 rounds", open)
		}
		if closed < thr*120*9/10 {
			t.Errorf("closed loop lost the threshold: %d on-time deliveries in the last 120 rounds", closed)
		}
	})
}

// crashConfig is the crash-restart fixture: control-plane kills (half
// of them tearing the in-flight checkpoint append) plus rolling
// drain/rejoin maintenance, with the closed admission loop live so the
// checkpoints carry AIMD/brownout and client-backlog state worth
// losing.
func crashConfig(seed int64) Config {
	return Config{
		Replicas:    3,
		Rounds:      120,
		Load:        0.7,
		PayloadBits: 4,
		Seed:        seed,
		Crashes:     4,
		Drains:      3,
		Pool: pool.Config{
			TripThreshold: 1, ProbeAfter: 1,
			Overload: &overload.Config{BacklogFactor: 1},
		},
	}
}

// TestCrashChaosAcceptance is the pool-level durability acceptance
// run: 3 seeds × 120 rounds of controller crash-restarts (clean and
// torn tails) interleaved with rolling drain/rejoin maintenance, with
// zero guarantee regressions and the crash conservation law
// Stats.Delivered + DeliveredLost == TrueDelivered holding exactly —
// clean-tail recoveries lose nothing, each torn tail loses exactly the
// one round its surviving checkpoint predates.
func TestCrashChaosAcceptance(t *testing.T) {
	for _, seed := range []int64{7, 1987, 0xC0C0} {
		cfg := crashConfig(seed)
		events := mustSchedule(t, cfg)
		crashes, torn, drains := 0, 0, 0
		for _, ev := range events {
			switch ev.Kind {
			case EventCrash:
				crashes++
				if ev.TornFrac > 0 {
					torn++
				}
			case EventDrain:
				drains++
			}
		}
		if crashes != cfg.Crashes || torn == 0 || drains != cfg.Drains {
			t.Fatalf("seed %d: schedule has %d crashes (%d torn), %d drains, want %d with torn > 0, %d",
				seed, crashes, torn, drains, cfg.Crashes, cfg.Drains)
		}
		rep, err := Run(buildColumnsort, events, cfg)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if len(rep.Regressions) != 0 {
			t.Fatalf("seed %d: guarantee regressed across crash-restarts:\n%v\nschedule: %v",
				seed, rep.Regressions, events)
		}
		if rep.Stats.Violations != 0 {
			t.Fatalf("seed %d: %d violated rounds", seed, rep.Stats.Violations)
		}
		cr := rep.Crash
		if cr.Crashes != crashes || cr.SnapshotsRestored != crashes {
			t.Fatalf("seed %d: %d crashes, %d restores, want %d each", seed, cr.Crashes, cr.SnapshotsRestored, crashes)
		}
		if cr.DrainCycles != drains {
			t.Fatalf("seed %d: %d drain cycles completed, want %d", seed, cr.DrainCycles, drains)
		}
		if cr.SnapshotsWritten != cfg.Rounds {
			t.Fatalf("seed %d: %d checkpoints journaled over %d rounds", seed, cr.SnapshotsWritten, cfg.Rounds)
		}
		if cr.TornTails != torn || cr.TornBytesDiscarded == 0 {
			t.Fatalf("seed %d: %d torn tails (%d bytes), want %d tails", seed, cr.TornTails, cr.TornBytesDiscarded, torn)
		}
		// Exactly-once: each torn tail costs exactly its one stale round;
		// clean-tail crashes cost nothing.
		if cr.StaleRounds != cr.TornTails {
			t.Fatalf("seed %d: %d stale rounds from %d torn tails", seed, cr.StaleRounds, cr.TornTails)
		}
		if rep.Stats.Delivered+cr.DeliveredLost != cr.TrueDelivered {
			t.Fatalf("seed %d: crash conservation violated: delivered %d + lost %d != true %d",
				seed, rep.Stats.Delivered, cr.DeliveredLost, cr.TrueDelivered)
		}
		// Rejoined replicas re-enter through the probe path, never around
		// the breaker. A torn crash can roll the probe counter back one
		// round, so allow that much slack and no more.
		if rep.Stats.Probes < cr.DrainCycles-cr.TornTails {
			t.Fatalf("seed %d: %d probes for %d drain cycles (%d torn tails) — rejoin bypassed the breaker",
				seed, rep.Stats.Probes, cr.DrainCycles, cr.TornTails)
		}
		if cr.JournalBytes == 0 {
			t.Fatalf("seed %d: empty checkpoint journal", seed)
		}
	}
}

// TestCrashChaosUnjournaledControl is the experimental control: the
// identical crash schedules with the journal disabled demonstrably
// lose ledger (and, with the admission loop backed up, client backlog)
// — every incarnation restarts amnesiac, and only the harness-side
// loss accounting can reconcile the final ledger with ground truth.
func TestCrashChaosUnjournaledControl(t *testing.T) {
	lostBacklog := 0
	for _, seed := range []int64{7, 1987, 0xC0C0} {
		cfg := crashConfig(seed)
		cfg.Unjournaled = true
		cfg.Drains = 0
		events := mustSchedule(t, cfg)
		rep, err := Run(buildColumnsort, events, cfg)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		cr := rep.Crash
		if cr.Crashes != cfg.Crashes {
			t.Fatalf("seed %d: fired %d crashes, want %d", seed, cr.Crashes, cfg.Crashes)
		}
		if cr.SnapshotsWritten != 0 || cr.JournalBytes != 0 || cr.SnapshotsRestored != 0 {
			t.Fatalf("seed %d: unjournaled run touched a journal: %+v", seed, cr)
		}
		if cr.DeliveredLost == 0 || rep.Stats.Delivered >= cr.TrueDelivered {
			t.Fatalf("seed %d: unjournaled crashes lost nothing (delivered %d, true %d) — crashes did not bite",
				seed, rep.Stats.Delivered, cr.TrueDelivered)
		}
		if rep.Stats.Delivered+cr.DeliveredLost != cr.TrueDelivered {
			t.Fatalf("seed %d: loss accounting broken: delivered %d + lost %d != true %d",
				seed, rep.Stats.Delivered, cr.DeliveredLost, cr.TrueDelivered)
		}
		lostBacklog += cr.BacklogLost
	}
	if lostBacklog == 0 {
		t.Error("no seed lost client backlog — the overloaded control never had any to lose")
	}
}

// TestCrashChaosReplayDeterministic: a crash schedule replays
// bit-for-bit, recoveries included.
func TestCrashChaosReplayDeterministic(t *testing.T) {
	cfg := crashConfig(99)
	events := mustSchedule(t, cfg)
	a, err := Run(buildColumnsort, events, cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(buildColumnsort, events, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.Crash != b.Crash {
		t.Fatalf("crash records diverged: %+v vs %+v", a.Crash, b.Crash)
	}
	if a.Stats.Delivered != b.Stats.Delivered || a.Stats.Probes != b.Stats.Probes {
		t.Fatalf("stats diverged: %+v vs %+v", a.Stats, b.Stats)
	}
}
