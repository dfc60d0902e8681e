package chaos

import (
	"reflect"
	"testing"
)

// TestParallelPoolDispatchBitIdentical runs seeded chaos schedules
// twice — sequential data plane vs speculative parallel replica
// dispatch — and requires bit-identical reports: same round records,
// same ledger, same regressions. Parallelism must only change
// wall-clock time, never a trajectory. The base fixture covers faults,
// kills and corruption; the straggler fixture covers hedged rounds.
func TestParallelPoolDispatchBitIdentical(t *testing.T) {
	for _, tc := range []struct {
		name  string
		cfg   Config
		hedge bool
	}{
		{"base/2026", baseConfig(2026), false},
		{"straggler/11", stragglerConfig(11), true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := tc.cfg
			events := mustSchedule(t, cfg)

			seq, err := Run(buildColumnsort, events, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if tc.hedge && seq.Stats.Hedges == 0 {
				t.Fatal("the straggler fixture never hedged — the hedge path went unchecked")
			}

			pcfg := cfg
			pcfg.Pool.Parallel = 4
			par, err := Run(buildColumnsort, events, pcfg)
			if err != nil {
				t.Fatal(err)
			}

			if len(par.Rounds) != len(seq.Rounds) {
				t.Fatalf("%d rounds vs %d", len(par.Rounds), len(seq.Rounds))
			}
			for i := range seq.Rounds {
				if !reflect.DeepEqual(par.Rounds[i], seq.Rounds[i]) {
					t.Fatalf("round %d diverges:\npar %+v\nseq %+v", i, par.Rounds[i], seq.Rounds[i])
				}
			}
			if !reflect.DeepEqual(par.Regressions, seq.Regressions) {
				t.Fatalf("regressions diverge:\npar %+v\nseq %+v", par.Regressions, seq.Regressions)
			}
			if !reflect.DeepEqual(par.Schedule, seq.Schedule) {
				t.Fatal("schedules diverge")
			}
			if !reflect.DeepEqual(par.Stats, seq.Stats) {
				t.Fatalf("final stats diverge:\npar %+v\nseq %+v", par.Stats, seq.Stats)
			}
		})
	}
}
