package pool

import (
	"math/rand"
	"reflect"
	"testing"

	"concentrators/internal/core"
	"concentrators/internal/link"
	"concentrators/internal/switchsim"
	"concentrators/internal/timing"
)

// runScenario drives one pool through a fixed chaos-like schedule —
// chip faults, wire noise, stragglers, a kill/revive cycle, hedging,
// deadlines — and records every RoundResult plus the final Stats. The
// schedule and traffic derive from the seed only, so two runs differing
// only in Config.Parallel must produce identical transcripts. The
// round-25 stall lands on replica 0, quarantined by then, unless
// stallActive puts it on the replica serving then, which makes the
// pool hedge.
func runScenario(t *testing.T, cfg Config, seed int64, rounds int, stallActive bool) ([]RoundResult, Stats) {
	t.Helper()
	p := newPool(t, cfg, 4)
	rng := rand.New(rand.NewSource(seed))
	var rrs []RoundResult
	for round := 0; round < rounds; round++ {
		switch round {
		case 5:
			if err := p.InjectFault(0, core.ChipFault{Stage: 0, Chip: 1, Mode: core.ChipDead}); err != nil {
				t.Fatal(err)
			}
		case 15:
			if err := p.InjectWireFault(1, link.WireFault{
				Stage: link.AllStages, Wire: 3,
				Mode: link.WireStuck, StuckValue: 0, From: 15, Until: 30,
			}); err != nil {
				t.Fatal(err)
			}
		case 25:
			victim := 0
			if stallActive {
				victim = p.Active()
			}
			if err := p.InjectTimingFault(victim, timing.Fault{
				Stage: link.AllStages, Wire: link.AllWires,
				Mode: timing.Constant, Delay: 4, From: 25, Until: 60,
			}); err != nil {
				t.Fatal(err)
			}
		case 40:
			if err := p.Kill(2); err != nil {
				t.Fatal(err)
			}
		case 60:
			if err := p.Revive(2); err != nil {
				t.Fatal(err)
			}
		}
		msgs := switchsim.RandomMessages(rng, p.Inputs(), 0.6, 8)
		rr, err := p.Run(msgs)
		if err != nil {
			t.Fatal(err)
		}
		rrs = append(rrs, *rr)
	}
	return rrs, p.Stats()
}

// legacyScenario and leasedScenario are the pool configurations the
// dispatch-equivalence suites and the golden transcripts run runScenario
// under: the legacy arbiter with hedging and a deadline SLO, and the
// lease-fenced arbiter.
var (
	legacyScenario = Config{TripThreshold: 2, ProbeAfter: 1, HedgeQuantile: 0.9, Deadline: 3}
	leasedScenario = Config{TripThreshold: 2, ProbeAfter: 1, Lease: LeaseConfig{Rounds: 4}}
)

// TestParallelDispatchEquivalence is the determinism satellite for the
// concurrent data plane: a pool with speculative parallel dispatch must
// produce transcripts bit-identical to the sequential pool across
// faults, corruption, stragglers, hedging, and a kill/revive cycle.
func TestParallelDispatchEquivalence(t *testing.T) {
	base := legacyScenario
	for _, stallActive := range []bool{false, true} {
		for _, seed := range []int64{1, 7, 1234} {
			seq, seqStats := runScenario(t, base, seed, 80, stallActive)
			par := base
			par.Parallel = 4
			got, gotStats := runScenario(t, par, seed, 80, stallActive)
			if len(got) != len(seq) {
				t.Fatalf("seed %d stallActive %v: %d rounds vs %d", seed, stallActive, len(got), len(seq))
			}
			hedged := 0
			for i := range seq {
				if !reflect.DeepEqual(got[i], seq[i]) {
					t.Fatalf("seed %d stallActive %v round %d diverges:\npar %+v\nseq %+v", seed, stallActive, i, got[i], seq[i])
				}
				if seq[i].Hedged {
					hedged++
				}
			}
			if !reflect.DeepEqual(gotStats, seqStats) {
				t.Fatalf("seed %d stallActive %v: final stats diverge:\npar %+v\nseq %+v", seed, stallActive, gotStats, seqStats)
			}
			if stallActive && hedged == 0 {
				t.Errorf("seed %d: a stall on the serving replica hedged no round", seed)
			}
		}
	}
}

// TestParallelDispatchEquivalenceLeased repeats the transcript check
// under the lease-fenced arbiter, whose serving paths (heard, dark,
// shadow believers) also consume speculative attempts.
func TestParallelDispatchEquivalenceLeased(t *testing.T) {
	base := leasedScenario
	seq, seqStats := runScenario(t, base, 99, 80, false)
	par := base
	par.Parallel = 3
	got, gotStats := runScenario(t, par, 99, 80, false)
	for i := range seq {
		if !reflect.DeepEqual(got[i], seq[i]) {
			t.Fatalf("round %d diverges:\npar %+v\nseq %+v", i, got[i], seq[i])
		}
	}
	if !reflect.DeepEqual(gotStats, seqStats) {
		t.Fatalf("final stats diverge:\npar %+v\nseq %+v", gotStats, seqStats)
	}
}

func TestParallelConfigValidation(t *testing.T) {
	if _, err := New(Config{Parallel: -1}, newReplicas(t, 1)...); err == nil {
		t.Error("accepted negative Parallel")
	}
	p, err := New(Config{Parallel: 8}, newReplicas(t, 1)...)
	if err != nil {
		t.Fatal(err)
	}
	// A single replica degenerates to sequential dispatch but must
	// still serve.
	if _, err := p.Run(fullMsgs(4)); err != nil {
		t.Fatal(err)
	}
}
