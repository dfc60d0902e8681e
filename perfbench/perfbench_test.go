package main

import (
	"encoding/json"
	"strconv"
	"testing"
)

// TestTranscripts runs the leading digestOps operations of every
// workload, untraced and wrapped in the timing decorator, for every seed
// recorded in digests.json: both passes must succeed and hash to the
// recorded transcript digest.
func TestTranscripts(t *testing.T) {
	var recorded map[string]map[string]string
	if err := json.Unmarshal(digestsJSON, &recorded); err != nil {
		t.Fatal(err)
	}
	for _, w := range workloads {
		if len(recorded[w.name]) < 2 {
			t.Errorf("%s: %d recorded digests, want the default and a held-out seed", w.name, len(recorded[w.name]))
		}
		for seedText, want := range recorded[w.name] {
			seed, err := strconv.ParseInt(seedText, 10, 64)
			if err != nil {
				t.Fatal(err)
			}
			for _, traced := range []bool{false, true} {
				var sp *spans
				if traced {
					sp = &spans{}
				}
				inst, err := w.setup(seed, sp)
				if err != nil {
					t.Fatalf("%s seed %d: %v", w.name, seed, err)
				}
				l := &lane{inst: inst, sp: sp}
				measure(w, 0, l)
				ps := l.ps
				if ps.failed > 0 {
					t.Errorf("%s seed %d traced=%v: %d of %d operations failed: %v", w.name, seed, traced, ps.failed, ps.attempted, ps.firstErr)
				}
				if ps.digest != want {
					t.Errorf("%s seed %d traced=%v: digest %s, recorded %s", w.name, seed, traced, ps.digest, want)
				}
				if traced && ps.sp.routeCalls == 0 {
					t.Errorf("%s seed %d: the decorator recorded no route calls", w.name, seed)
				}
			}
		}
	}
}

func TestPackageOf(t *testing.T) {
	for fn, want := range map[string]string{
		"concentrators/internal/link.(*CorruptionPlane).Corrupt": "link",
		"concentrators/internal/core.(*kernelState).colSort":     "core",
		"concentrators/internal/concgraph.Build":                 "other",
		"runtime.mallocgc":                                       "runtime",
		"internal/runtime/maps.(*Map).getWithKey":                "runtime",
		"encoding/gob.(*Encoder).Encode":                         "gob",
		"math/rand.(*rngSource).Seed":                            "rand",
		"main.(*poolInstance).op":                                "other",
	} {
		if got := packageOf(fn); got != want {
			t.Errorf("packageOf(%q) = %q, want %q", fn, got, want)
		}
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	for q, want := range map[float64]float64{0: 1, 0.5: 3, 0.9: 4.6, 1: 5} {
		if got := quantile(xs, q); got != want {
			t.Errorf("quantile(%v) = %v, want %v", q, got, want)
		}
	}
}
