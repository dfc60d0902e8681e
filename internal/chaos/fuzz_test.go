package chaos

import (
	"testing"

	"concentrators/internal/partition"
	"concentrators/internal/pool"
)

// FuzzPartitionSchedule feeds arbitrary geometry — seeds, round
// counts, partition counts, lease durations, shape toggles — to
// GenerateSchedule. The invariants for every accepted config: never
// panic, every generated cut validates and heals strictly inside the
// run with its paired EventHeal exactly at the window end, windows
// never overlap, asymmetric cuts are directionally consistent, and
// the whole schedule replays bit-for-bit from its seed.
func FuzzPartitionSchedule(f *testing.F) {
	f.Add(int64(1), 120, 4, 0, false, false)
	f.Add(int64(1987), 120, 4, 8, true, false)
	f.Add(int64(0xC0C0), 240, 8, 3, false, true)
	f.Add(int64(-5), 40, 1, 1, true, true)
	f.Add(int64(0), 7, 2, 20, false, false)
	f.Fuzz(func(t *testing.T, seed int64, rounds, partitions, leaseRounds int, asym, unfenced bool) {
		cfg := Config{
			Replicas:       3,
			Rounds:         rounds,
			Load:           0.5,
			PayloadBits:    4,
			Seed:           seed,
			Partitions:     partitions,
			LeaseRounds:    leaseRounds,
			AsymPartitions: asym,
			Pool: pool.Config{
				TripThreshold: 1, ProbeAfter: 1,
				Lease: pool.LeaseConfig{Unfenced: unfenced},
			},
		}
		sw, err := buildColumnsort()
		if err != nil {
			t.Fatal(err)
		}
		events, err := GenerateSchedule(cfg.Seed, sw, cfg)
		if err != nil {
			return // rejected configs are fine; panics and bad schedules are not
		}
		replay, err := GenerateSchedule(cfg.Seed, sw, cfg)
		if err != nil || len(replay) != len(events) {
			t.Fatalf("schedule did not replay: %d events then %d (err %v)", len(events), len(replay), err)
		}
		healAt := map[int]int{} // heal round → heals scheduled there
		for _, ev := range events {
			if ev.Kind == EventHeal {
				healAt[ev.Round]++
			}
		}
		lastUntil := -1
		for i, ev := range events {
			if events[i] != replay[i] {
				t.Fatalf("event %d diverged on replay: %v vs %v", i, events[i], replay[i])
			}
			if ev.Kind != EventPartition {
				continue
			}
			c := ev.Cut
			if c.Mode != partition.ArbiterIsolation {
				// ActiveReplica resolves at fire time; validate the rest.
				c.Replica = 0
			}
			if err := c.Validate(); err != nil {
				t.Fatalf("generated cut invalid: %v (%v)", err, ev)
			}
			if c.From != ev.Round || c.Until <= c.From || c.Until >= cfg.Rounds {
				t.Fatalf("cut window [%d,%d) not bounded inside %d rounds at round %d",
					c.From, c.Until, cfg.Rounds, ev.Round)
			}
			if healAt[c.Until] == 0 {
				t.Fatalf("cut [%d,%d) has no EventHeal at its window end", c.From, c.Until)
			}
			healAt[c.Until]--
			if c.From <= lastUntil {
				t.Fatalf("cut [%d,%d) overlaps the previous window ending %d", c.From, c.Until, lastUntil)
			}
			lastUntil = c.Until
			if c.Mode == partition.OneWay && c.Dir != partition.ToReplica {
				t.Fatalf("asymmetric cut points %v, want ToReplica on every replay", c.Dir)
			}
			if asym && c.Mode == partition.Flapping {
				t.Fatalf("AsymPartitions schedule still contains a flapping window: %v", ev)
			}
		}
		for round, n := range healAt {
			if n != 0 {
				t.Fatalf("%d orphan heal events at round %d", n, round)
			}
		}
	})
}
