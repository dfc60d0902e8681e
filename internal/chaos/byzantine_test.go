package chaos

import (
	"strings"
	"testing"

	"concentrators/internal/byzantine"
	"concentrators/internal/pool"
)

// byzantineConfig is the misbehavior-tolerance fixture: four bounded
// lie windows rotating through all four modes (misroute, replay,
// fabricated ack, equivocation) against a 3-replica pool with frame
// provenance, witness audits, and the arbiter cross-check armed.
func byzantineConfig(seed int64) Config {
	return Config{
		Replicas:    3,
		Rounds:      120,
		Load:        0.7,
		PayloadBits: 4,
		Seed:        seed,
		Byzantine:   4,
		Pool:        pool.Config{TripThreshold: 1, ProbeAfter: 1},
	}
}

func TestByzantineScheduleDeterministic(t *testing.T) {
	cfg := byzantineConfig(42)
	a := mustSchedule(t, cfg)
	b := mustSchedule(t, cfg)
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("event %d differs: %v vs %v", i, a[i], b[i])
		}
	}
	modes := map[byzantine.Mode]int{}
	for _, ev := range a {
		if ev.Kind != EventByzantine {
			t.Fatalf("unexpected %v in a pure byzantine schedule", ev)
		}
		if ev.Replica != ActiveReplica {
			t.Fatalf("window targets %d, want the active replica", ev.Replica)
		}
		f := ev.Behavior
		if f.Until <= f.From || f.From != ev.Round || f.Until > cfg.Rounds {
			t.Fatalf("window [%d,%d) not bounded inside the run at round %d", f.From, f.Until, ev.Round)
		}
		modes[f.Mode]++
	}
	if len(a) != cfg.Byzantine || len(modes) != 4 {
		t.Fatalf("schedule has %d windows over %d modes, want %d over 4", len(a), len(modes), cfg.Byzantine)
	}
}

// TestByzantineChaosAcceptance is the misbehavior-tolerance acceptance
// run: 3 seeds × 120 rounds of bounded lie windows on the serving
// replica, with zero guarantee regressions, zero forged deliveries
// (the ledger's Delivered increments match the physical count round by
// round), every injected replay booked Duplicated, every fabrication
// booked Forged, and the claim conservation law
//
//	Booked + Forged + Duplicated == TrueDelivered + Replayed + Fabricated
//
// holding exactly.
func TestByzantineChaosAcceptance(t *testing.T) {
	for _, seed := range []int64{7, 1987, 0xC0C0} {
		cfg := byzantineConfig(seed)
		events := mustSchedule(t, cfg)
		rep, err := Run(buildColumnsort, events, cfg)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if len(rep.Regressions) != 0 {
			t.Fatalf("seed %d: guarantee regressed under byzantine misbehavior:\n%v\nschedule: %v",
				seed, rep.Regressions, events)
		}
		if rep.Stats.Violations != 0 {
			t.Fatalf("seed %d: %d violated rounds", seed, rep.Stats.Violations)
		}
		bz := rep.Byzantine
		if !bz.Verified || bz.Windows != cfg.Byzantine {
			t.Fatalf("seed %d: %d windows fired (verified %v), want %d verified", seed, bz.Windows, bz.Verified, cfg.Byzantine)
		}
		if bz.Misrouted == 0 || bz.Replayed == 0 || bz.Fabricated == 0 {
			t.Fatalf("seed %d: lie windows injected nothing (%d misrouted, %d replayed, %d fabricated)",
				seed, bz.Misrouted, bz.Replayed, bz.Fabricated)
		}
		if bz.Booked != bz.TrueDelivered {
			t.Fatalf("seed %d: ledger booked %d frames, %d physically delivered — forged deliveries leaked",
				seed, bz.Booked, bz.TrueDelivered)
		}
		if bz.Duplicated != bz.Replayed || bz.Forged != bz.Fabricated {
			t.Fatalf("seed %d: edge rejections (%d duplicated, %d forged) disagree with injections (%d replayed, %d fabricated)",
				seed, bz.Duplicated, bz.Forged, bz.Replayed, bz.Fabricated)
		}
		if bz.Booked+bz.Forged+bz.Duplicated != bz.TrueDelivered+bz.Replayed+bz.Fabricated {
			t.Fatalf("seed %d: claim conservation broken: %d+%d+%d != %d+%d+%d",
				seed, bz.Booked, bz.Forged, bz.Duplicated, bz.TrueDelivered, bz.Replayed, bz.Fabricated)
		}
		if bz.Audits == 0 {
			t.Fatalf("seed %d: no witness audits fired over %d rounds", seed, cfg.Rounds)
		}
		if bz.Equivocations == 0 {
			t.Fatalf("seed %d: the equivocation window was never caught by the arbiter cross-check", seed)
		}
	}
}

// TestByzantineWithCrashes exercises the one allowed combination: lie
// windows interleaved with journaled controller crash-restarts. The
// provenance verifier's dedup window, the stamper's sequence counter,
// and the witness tally all ride the checkpoint journal, so zero
// forged deliveries must hold across incarnations too.
func TestByzantineWithCrashes(t *testing.T) {
	cfg := byzantineConfig(11)
	cfg.Crashes = 2
	events := mustSchedule(t, cfg)
	rep, err := Run(buildColumnsort, events, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Regressions) != 0 {
		t.Fatalf("guarantee regressed:\n%v", rep.Regressions)
	}
	if rep.Crash.Crashes != cfg.Crashes {
		t.Fatalf("%d crashes fired, want %d", rep.Crash.Crashes, cfg.Crashes)
	}
	if bz := rep.Byzantine; bz.Booked != bz.TrueDelivered {
		t.Fatalf("ledger booked %d frames across incarnations, %d physically delivered", bz.Booked, bz.TrueDelivered)
	}
}

// TestUnverifiedProvenanceControl is the blind-ledger control: the
// same lie schedule with the receiving edge's verification disabled
// must double-count — the reported Delivered exceeds the physically
// delivered ground truth by exactly the replayed and fabricated
// claims, and nothing books Forged or Duplicated.
func TestUnverifiedProvenanceControl(t *testing.T) {
	cfg := byzantineConfig(1987)
	cfg.UnverifiedProvenance = true
	events := mustSchedule(t, cfg)
	rep, err := Run(buildColumnsort, events, cfg)
	if err != nil {
		t.Fatal(err)
	}
	bz := rep.Byzantine
	if bz.Verified {
		t.Fatal("control ran verified")
	}
	if bz.Replayed+bz.Fabricated == 0 {
		t.Fatal("control injected no double-countable lies — it demonstrates nothing")
	}
	if bz.Forged != 0 || bz.Duplicated != 0 {
		t.Fatalf("blind ledger rejected claims (%d forged, %d duplicated)", bz.Forged, bz.Duplicated)
	}
	if bz.Booked <= bz.TrueDelivered {
		t.Fatalf("control booked %d frames against %d physically delivered — no double counting demonstrated",
			bz.Booked, bz.TrueDelivered)
	}
	if bz.Booked != bz.TrueDelivered+bz.Replayed+bz.Fabricated {
		t.Fatalf("blind conservation broken: %d != %d+%d+%d",
			bz.Booked, bz.TrueDelivered, bz.Replayed, bz.Fabricated)
	}
}

// TestByzantineDisabledNoOp pins the opt-in: a schedule with no
// byzantine windows books nothing into the misbehavior ledger and
// never touches the Forged/Duplicated terms — prior-plane trajectories
// are untouched (the rest of this package's suite asserts their exact
// behavior).
func TestByzantineDisabledNoOp(t *testing.T) {
	cfg := baseConfig(7)
	events := mustSchedule(t, cfg)
	for _, ev := range events {
		if ev.Kind == EventByzantine {
			t.Fatalf("byzantine window scheduled with Byzantine == 0: %v", ev)
		}
	}
	rep, err := Run(buildColumnsort, events, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Byzantine != (ByzantineRecord{}) {
		t.Fatalf("misbehavior ledger written without byzantine windows: %+v", rep.Byzantine)
	}
	if rep.Stats.Forged != 0 || rep.Stats.Duplicated != 0 {
		t.Fatalf("Forged/Duplicated booked without byzantine windows: %d/%d", rep.Stats.Forged, rep.Stats.Duplicated)
	}
}

func TestByzantineConfigRejected(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*Config)
		want string
	}{
		{"negative", func(c *Config) { c.Byzantine = -1 }, "negative byzantine"},
		{"two replicas", func(c *Config) { c.Replicas = 2 }, "witness majority"},
		{"with chip faults", func(c *Config) { c.Faults = 1 }, "combine only with Crashes"},
		{"with kills", func(c *Config) { c.Kills = 1 }, "combine only with Crashes"},
		{"with corruptions", func(c *Config) { c.Corruptions = 1 }, "combine only with Crashes"},
		{"with stalls", func(c *Config) { c.Stalls = 1 }, "combine only with Crashes"},
		{"with surges", func(c *Config) { c.Surges = 1 }, "combine only with Crashes"},
		{"with drains", func(c *Config) { c.Drains = 1 }, "combine only with Crashes"},
		{"with partitions", func(c *Config) { c.Partitions = 1 }, "combine only with Crashes"},
		{"control without windows", func(c *Config) { c.Byzantine = 0 }, "needs Byzantine > 0"},
	}
	sw, err := buildColumnsort()
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range cases {
		cfg := byzantineConfig(1)
		cfg.UnverifiedProvenance = tc.name == "control without windows"
		tc.mut(&cfg)
		_, err := GenerateSchedule(cfg.Seed, sw, cfg)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: got %v, want %q", tc.name, err, tc.want)
		}
	}
}
