package chaos

import (
	"strings"
	"testing"

	"concentrators/internal/partition"
	"concentrators/internal/pool"
)

// splitBrainConfig is the partition-tolerance fixture: control-plane
// cuts rotating through all four window shapes, interleaved with
// journaled controller crash-restarts, against a lease-fenced
// 3-replica pool.
func splitBrainConfig(seed int64) Config {
	return Config{
		Replicas:    3,
		Rounds:      120,
		Load:        0.7,
		PayloadBits: 4,
		Seed:        seed,
		Partitions:  4,
		Crashes:     2,
		Pool:        pool.Config{TripThreshold: 1, ProbeAfter: 1},
	}
}

// TestSplitBrainChaosAcceptance is the partition-tolerance acceptance
// run: 3 seeds × 120 rounds of control-plane partitions (symmetric
// cuts outliving and inside the lease, flapping edges, arbiter
// isolation) interleaved with crash-restarts, with zero guarantee
// regressions, zero frames Delivered under a stale fencing token, and
// the Fenced conservation law
//
//	Stats.Delivered + Stats.Fenced + Stats.InFlightAcks
//	    + Crash.DeliveredLost == Partition.TrueServed
//
// holding exactly across incarnations.
func TestSplitBrainChaosAcceptance(t *testing.T) {
	for _, seed := range []int64{7, 1987, 0xC0C0} {
		cfg := splitBrainConfig(seed)
		events := mustSchedule(t, cfg)
		cuts, heals := 0, 0
		for _, ev := range events {
			switch ev.Kind {
			case EventPartition:
				cuts++
				c := ev.Cut
				if c.Until <= c.From || c.From != ev.Round || c.Until >= cfg.Rounds {
					t.Fatalf("seed %d: cut window [%d,%d) not bounded inside the run at round %d",
						seed, c.From, c.Until, ev.Round)
				}
			case EventHeal:
				heals++
			}
		}
		if cuts != cfg.Partitions || heals != cuts {
			t.Fatalf("seed %d: schedule has %d cuts, %d heals, want %d each", seed, cuts, heals, cfg.Partitions)
		}
		rep, err := Run(buildColumnsort, events, cfg)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if len(rep.Regressions) != 0 {
			t.Fatalf("seed %d: guarantee regressed across partitions:\n%v\nschedule: %v",
				seed, rep.Regressions, events)
		}
		if rep.Stats.Violations != 0 {
			t.Fatalf("seed %d: %d violated rounds", seed, rep.Stats.Violations)
		}
		pr := rep.Partition
		if pr.Partitions != cuts || pr.Heals != heals {
			t.Fatalf("seed %d: fired %d cuts / %d heals, want %d / %d", seed, pr.Partitions, pr.Heals, cuts, heals)
		}
		// Zero dual-primary delivered frames: the lease may hand off, the
		// dark primary may keep serving, but nothing stale ever books.
		if rep.Stats.StaleDelivered != 0 || pr.StaleDelivered != 0 || pr.DualPrimaryRounds != 0 {
			t.Fatalf("seed %d: split brain leaked: %d stale delivered, %d dual-primary rounds",
				seed, rep.Stats.StaleDelivered, pr.DualPrimaryRounds)
		}
		// The lease-outliving cut must actually bite every seed: a
		// handoff happened and the dark primary's late acks were fenced.
		if pr.LeaseHandoffs == 0 {
			t.Fatalf("seed %d: no lease handoffs — the long cut never forced a failover", seed)
		}
		if pr.Fenced == 0 {
			t.Fatalf("seed %d: nothing fenced — the lapsed holder's late acks were never rejected", seed)
		}
		// Arbiter isolation must freeze the quorum, not flap breakers.
		if pr.FrozenRounds == 0 {
			t.Fatalf("seed %d: isolation window froze nothing", seed)
		}
		if rep.Stats.Trips != 0 {
			t.Fatalf("seed %d: %d breaker trips from pure visibility cuts", seed, rep.Stats.Trips)
		}
		if rep.Crash.Crashes != cfg.Crashes || rep.Crash.SnapshotsRestored != cfg.Crashes {
			t.Fatalf("seed %d: %d crashes, %d restores, want %d each",
				seed, rep.Crash.Crashes, rep.Crash.SnapshotsRestored, cfg.Crashes)
		}
		got := rep.Stats.Delivered + rep.Stats.Fenced + rep.Stats.InFlightAcks + rep.Crash.DeliveredLost
		if got != pr.TrueServed {
			t.Fatalf("seed %d: Fenced conservation violated: Delivered %d + Fenced %d + InFlight %d + lost %d = %d != TrueServed %d",
				seed, rep.Stats.Delivered, rep.Stats.Fenced, rep.Stats.InFlightAcks,
				rep.Crash.DeliveredLost, got, pr.TrueServed)
		}
	}
}

// TestSplitBrainAsymAcceptance swaps the flapping window for one-way
// ToReplica cuts: renewals vanish while acks keep flowing, so the
// holder must self-fence on its lapsed belief and the arbiter must
// hand off on the observed refusal — same zero-stale guarantee.
func TestSplitBrainAsymAcceptance(t *testing.T) {
	cfg := splitBrainConfig(11)
	cfg.AsymPartitions = true
	cfg.Crashes = 0
	events := mustSchedule(t, cfg)
	oneWay := 0
	for _, ev := range events {
		if ev.Kind == EventPartition && ev.Cut.Mode == partition.OneWay {
			oneWay++
			if ev.Cut.Dir != partition.ToReplica {
				t.Fatalf("asymmetric cut points %v, want ToReplica", ev.Cut.Dir)
			}
		}
	}
	if oneWay == 0 {
		t.Fatal("AsymPartitions scheduled no one-way cuts")
	}
	rep, err := Run(buildColumnsort, events, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Regressions) != 0 {
		t.Fatalf("guarantee regressed under asymmetric cuts:\n%v", rep.Regressions)
	}
	if rep.Stats.StaleDelivered != 0 || rep.Partition.DualPrimaryRounds != 0 {
		t.Fatalf("asymmetric split brain leaked: %+v", rep.Partition)
	}
	// Both the symmetric long cut and the one-way cut force handoffs.
	if rep.Partition.LeaseHandoffs < 2 {
		t.Fatalf("only %d lease handoffs — the one-way cut never forced the self-fence path", rep.Partition.LeaseHandoffs)
	}
	got := rep.Stats.Delivered + rep.Stats.Fenced + rep.Stats.InFlightAcks
	if got != rep.Partition.TrueServed {
		t.Fatalf("Fenced conservation violated: %d != %d", got, rep.Partition.TrueServed)
	}
}

// TestSplitBrainUnfencedControl is the experimental control: the same
// partition schedules with the ledger's token check disabled (and the
// arbiter failing over eagerly on suspicion) must demonstrably
// double-deliver — dual-primary rounds happen and stale frames book
// Delivered — proving both that the cuts create genuine split brain
// and that the harness actually checks for it.
func TestSplitBrainUnfencedControl(t *testing.T) {
	doubled := false
	for _, seed := range []int64{7, 1987, 0xC0C0} {
		cfg := splitBrainConfig(seed)
		cfg.Crashes = 0
		cfg.Pool.Lease.Unfenced = true
		events := mustSchedule(t, cfg)
		rep, err := Run(buildColumnsort, events, cfg)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		pr := rep.Partition
		if pr.StaleDelivered == 0 || pr.DualPrimaryRounds == 0 {
			t.Fatalf("seed %d: unfenced control stayed clean (%d stale, %d dual-primary rounds) — cuts did not bite",
				seed, pr.StaleDelivered, pr.DualPrimaryRounds)
		}
		if rep.Stats.Fenced != 0 {
			t.Fatalf("seed %d: unfenced control fenced %d frames", seed, rep.Stats.Fenced)
		}
		// Unfenced, everything physically served books Delivered —
		// duplicates included, which is exactly the defect.
		if got := rep.Stats.Delivered + rep.Stats.InFlightAcks; got != pr.TrueServed {
			t.Fatalf("seed %d: unfenced ledger %d != TrueServed %d", seed, got, pr.TrueServed)
		}
		if pr.TrueServed > rep.Stats.Admitted {
			doubled = true
		}
	}
	if !doubled {
		t.Fatal("no seed served more frames than it admitted — no double delivery demonstrated")
	}
}

// TestPartitionScheduleDeterminism: partition schedules replay
// bit-for-bit — cut windows, shapes, directions and all.
func TestPartitionScheduleDeterminism(t *testing.T) {
	cfg := splitBrainConfig(42)
	cfg.AsymPartitions = true
	a := mustSchedule(t, cfg)
	b := mustSchedule(t, cfg)
	if len(a) == 0 || len(a) != len(b) {
		t.Fatalf("schedule lengths: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("event %d differs: %v vs %v", i, a[i], b[i])
		}
	}
	ra, err := Run(buildColumnsort, a, cfg)
	if err != nil {
		t.Fatal(err)
	}
	rb, err := Run(buildColumnsort, b, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if ra.Partition != rb.Partition {
		t.Fatalf("partition records diverged: %+v vs %+v", ra.Partition, rb.Partition)
	}
	if ra.Stats.Delivered != rb.Stats.Delivered || ra.Stats.Fenced != rb.Stats.Fenced {
		t.Fatalf("ledgers diverged: %+v vs %+v", ra.Stats, rb.Stats)
	}
}

// TestChaosMembershipValidation is the validation-gap satellite: event
// combinations that can schedule two membership events for the same
// replica in the same round are misconfigurations, rejected with an
// error that says so.
func TestChaosMembershipValidation(t *testing.T) {
	sw, err := buildColumnsort()
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name    string
		mutate  func(*Config)
		wantMsg string
	}{
		{
			"kills with drains",
			func(c *Config) { c.Kills, c.Drains = 1, 1 },
			"two membership events for the same replica in the same round",
		},
		{
			"multiple drains on a single replica",
			func(c *Config) { c.Replicas, c.Faults, c.Kills, c.Corruptions, c.Drains = 1, 0, 0, 0, 3 },
			"two membership events for the same replica in the same round",
		},
		{
			"partitions with kills",
			func(c *Config) { c.Partitions, c.Kills = 2, 1 },
			"partitions combine only with Crashes and Surges",
		},
		{
			"partitions with drains",
			func(c *Config) { c.Partitions, c.Kills, c.Drains = 2, 0, 1 },
			"partitions combine only with Crashes and Surges",
		},
		{
			"partitions with chip faults",
			func(c *Config) { c.Partitions, c.Kills, c.Corruptions = 2, 0, 0 },
			"invisible to the quarantine machinery",
		},
		{
			"partitions with corruptions",
			func(c *Config) { c.Partitions, c.Kills, c.Faults = 2, 0, 0 },
			"invisible to the quarantine machinery",
		},
		{
			"partitions with stalls",
			func(c *Config) { c.Partitions, c.Kills, c.Faults, c.Corruptions, c.Stalls = 2, 0, 0, 0, 2 },
			"invisible to the quarantine machinery",
		},
		{
			"unjournaled without crashes",
			func(c *Config) { c.Unjournaled = true },
			"Unjournaled without Crashes",
		},
		{
			"partitions without quorum",
			func(c *Config) { c.Replicas, c.Faults, c.Kills, c.Corruptions, c.Partitions = 2, 0, 0, 0, 2 },
			"≥ 3 replicas for a quorum majority",
		},
		{
			"unfenced without partitions",
			func(c *Config) { c.Faults, c.Kills, c.Corruptions, c.Pool.Lease.Unfenced = 0, 0, 0, true },
			"needs Partitions > 0",
		},
		{
			"asymmetric shapes without partitions",
			func(c *Config) { c.Faults, c.Kills, c.Corruptions, c.AsymPartitions = 0, 0, 0, true },
			"needs Partitions > 0",
		},
		{
			"negative partitions",
			func(c *Config) { c.Partitions = -1 },
			"negative event counts",
		},
		{
			"negative lease",
			func(c *Config) { c.LeaseRounds = -4 },
			"negative lease duration",
		},
		{
			"lease duration set twice",
			func(c *Config) {
				c.Faults, c.Kills, c.Corruptions, c.Partitions = 0, 0, 0, 4
				c.LeaseRounds, c.Pool.Lease.Rounds = 4, 12
			},
			"both set the lease duration",
		},
	} {
		cfg := baseConfig(1)
		tc.mutate(&cfg)
		_, err := GenerateSchedule(cfg.Seed, sw, cfg)
		if err == nil {
			t.Errorf("%s: GenerateSchedule accepted invalid config", tc.name)
		} else if !strings.Contains(err.Error(), tc.wantMsg) {
			t.Errorf("%s: error %q does not explain %q", tc.name, err, tc.wantMsg)
		}
		if _, err := Run(buildColumnsort, nil, cfg); err == nil {
			t.Errorf("%s: Run accepted invalid config", tc.name)
		}
	}
}
