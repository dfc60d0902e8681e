package core

import (
	"fmt"
	"math/rand"
	"testing"
	"time"
)

// benchFamilies builds the four multistage switch families at width n,
// mirroring the concbench perf suite's route cases.
func benchFamilies(tb testing.TB, n int) map[string]RouterInto {
	tb.Helper()
	rev, err := NewRevsortSwitch(n, n*3/4)
	if err != nil {
		tb.Fatal(err)
	}
	col, err := NewColumnsortSwitchBeta(n, n*3/4, 0.75)
	if err != nil {
		tb.Fatal(err)
	}
	frev, err := NewFullRevsortHyper(n, n)
	if err != nil {
		tb.Fatal(err)
	}
	fs := 1
	for _, s := range []int{16, 8, 4, 2} {
		if r := n / s; n%s == 0 && r%s == 0 && r >= 2*(s-1)*(s-1) {
			fs = s
			break
		}
	}
	fcol, err := NewFullColumnsortHyper(n/fs, fs, n)
	if err != nil {
		tb.Fatal(err)
	}
	return map[string]RouterInto{
		"revsort":         rev,
		"columnsort":      col,
		"full_revsort":    frev,
		"full_columnsort": fcol,
	}
}

var benchFamilyOrder = []string{"revsort", "columnsort", "full_revsort", "full_columnsort"}

// BenchmarkRouteKernel measures the word-parallel RouteInto per family;
// steady state must report 0 allocs/op.
func BenchmarkRouteKernel(b *testing.B) {
	for _, n := range []int{256, 1024, 4096} {
		families := benchFamilies(b, n)
		v := randomValidVec(rand.New(rand.NewSource(71)), n, 0.6)
		dst := make([]int, n)
		for _, key := range benchFamilyOrder {
			sw := families[key]
			b.Run(fmt.Sprintf("%s/%d", key, n), func(b *testing.B) {
				if err := sw.RouteInto(dst, v); err != nil {
					b.Fatal(err)
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if err := sw.RouteInto(dst, v); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkRouteLegacy measures the per-bit tracker pipeline the kernel
// replaced — the before side of the kernel speedup claim.
func BenchmarkRouteLegacy(b *testing.B) {
	for _, n := range []int{256, 1024, 4096} {
		families := benchFamilies(b, n)
		v := randomValidVec(rand.New(rand.NewSource(71)), n, 0.6)
		for _, key := range benchFamilyOrder {
			sw := families[key]
			b.Run(fmt.Sprintf("%s/%d", key, n), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, err := trackerRoute(sw, v); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkRoutePlane measures RouteInto with a one-chip fault plane
// installed (a pass-through stage-1 chip, the bypass of a degraded
// replica); steady state must report 0 allocs/op.
func BenchmarkRoutePlane(b *testing.B) {
	for _, n := range []int{256, 1024, 4096} {
		families := benchFamilies(b, n)
		v := randomValidVec(rand.New(rand.NewSource(71)), n, 0.6)
		dst := make([]int, n)
		for _, key := range []string{"revsort", "columnsort"} {
			sw := families[key]
			plane := NewFaultPlane()
			plane.Add(ChipFault{Stage: 0, Chip: 1, Mode: ChipPassThrough})
			if err := sw.(FaultInjectable).SetFaultPlane(plane); err != nil {
				b.Fatal(err)
			}
			b.Run(fmt.Sprintf("%s/%d", key, n), func(b *testing.B) {
				if err := sw.RouteInto(dst, v); err != nil {
					b.Fatal(err)
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if err := sw.RouteInto(dst, v); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// timeRoute times f with a geometrically calibrated loop (warm start).
func timeRoute(minTime time.Duration, f func()) float64 {
	f()
	f()
	iters := 1
	for {
		start := time.Now()
		for i := 0; i < iters; i++ {
			f()
		}
		el := time.Since(start)
		if el >= minTime || iters >= 1<<24 {
			return float64(el.Nanoseconds()) / float64(iters)
		}
		iters *= 2
	}
}

// TestRouteKernelSpeedup asserts the tentpole perf claim: at n = 4096
// the word kernel routes ≥ 4× faster than the legacy tracker for every
// switch family. The perf suite measured ≥ 5× while it still timed the
// tracker; the test takes the best of three attempts to damp scheduler
// noise.
func TestRouteKernelSpeedup(t *testing.T) {
	if testing.Short() {
		t.Skip("timing assertion skipped in -short mode")
	}
	if raceEnabled {
		t.Skip("race instrumentation skews the kernel/tracker ratio")
	}
	const n = 4096
	families := benchFamilies(t, n)
	v := randomValidVec(rand.New(rand.NewSource(71)), n, 0.6)
	dst := make([]int, n)
	for _, key := range benchFamilyOrder {
		sw := families[key]
		best := 0.0
		for attempt := 0; attempt < 3; attempt++ {
			kernel := timeRoute(10*time.Millisecond, func() {
				if err := sw.RouteInto(dst, v); err != nil {
					t.Fatal(err)
				}
			})
			legacy := timeRoute(10*time.Millisecond, func() {
				if _, err := trackerRoute(sw, v); err != nil {
					t.Fatal(err)
				}
			})
			if r := legacy / kernel; r > best {
				best = r
			}
			if best >= 4 {
				break
			}
		}
		if best < 4 {
			t.Errorf("%s/%d: kernel speedup %.2fx, want ≥ 4x", key, n, best)
		}
	}
}
