package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"concentrators/internal/bitvec"
)

func randomValidVec(rng *rand.Rand, n int, load float64) *bitvec.Vector {
	v := bitvec.New(n)
	for i := 0; i < n; i++ {
		if rng.Float64() < load {
			v.Set(i, true)
		}
	}
	return v
}

func requireSameRoute(t *testing.T, tag string, got, want []int) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: length %d != %d", tag, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s: route[%d] = %d, want %d\ngot  %v\nwant %v", tag, i, got[i], want[i], got, want)
		}
	}
}

// trackedSwitch is a fault-injectable switch with its tracker reference
// pipeline (tracker_test.go).
type trackedSwitch interface {
	FaultInjectable
	RouteInto(dst []int, valid *bitvec.Vector) error
	Trace(valid *bitvec.Vector) ([]Snapshot, []int, error)
	routeTracker(valid *bitvec.Vector) ([]int, error)
	trackerTrace(valid *bitvec.Vector) ([]Snapshot, []int, error)
	trackerRouteWithPlane(valid *bitvec.Vector, p *FaultPlane) ([]int, error)
	trackerTraceWithPlane(valid *bitvec.Vector, p *FaultPlane) ([]Snapshot, []int, error)
	trackerGoldenStage(stage int, prev Snapshot) (Snapshot, error)
}

// randomFault draws a fault of the given mode on a random chip of
// stage, with distinct in-range ports.
func randomFault(rng *rand.Rand, stage int, st StageInfo, mode ChipFaultMode) ChipFault {
	a := rng.Intn(st.Ports)
	b := (a + 1 + rng.Intn(st.Ports-1)) % st.Ports
	return ChipFault{Stage: stage, Chip: rng.Intn(st.Chips), Mode: mode, A: a, B: b}
}

// randomPlane draws one to three chip faults. The first sits on stage
// trial mod stages with mode trial/stages mod 4, so consecutive trials
// cover every mode on every stage; the rest are uniformly random.
func randomPlane(rng *rand.Rand, sw FaultInjectable, trial int) *FaultPlane {
	stages := sw.StageChips()
	p := NewFaultPlane()
	for i, count := 0, 1+rng.Intn(3); i < count; i++ {
		si, mode := rng.Intn(len(stages)), ChipFaultMode(rng.Intn(4))
		if i == 0 {
			si, mode = trial%len(stages), ChipFaultMode(trial/len(stages)%4)
		}
		p.Add(randomFault(rng, si, stages[si], mode))
	}
	return p
}

// requireKernelMatchesTracker checks the kernel against the tracker on
// one valid vector: the healthy RouteInto and Trace, and under p
// RouteWithPlane, RouteInto with p installed, TraceWithPlane, and
// GoldenStage of every traced snapshot.
func requireKernelMatchesTracker(t *testing.T, sw trackedSwitch, v *bitvec.Vector, p *FaultPlane) {
	t.Helper()
	n := sw.Inputs()
	tag := fmt.Sprintf("%s n=%d m=%d", sw.Name(), n, sw.Outputs())
	want, err := sw.routeTracker(v)
	if err != nil {
		t.Fatal(err)
	}
	got := make([]int, n)
	if err := sw.RouteInto(got, v); err != nil {
		t.Fatal(err)
	}
	requireSameRoute(t, tag, got, want)
	wantSnaps, want, err := sw.trackerTrace(v)
	if err != nil {
		t.Fatal(err)
	}
	gotSnaps, got, err := sw.Trace(v)
	if err != nil {
		t.Fatal(err)
	}
	requireSameRoute(t, tag+" Trace", got, want)
	requireSameSnapshots(t, tag+" Trace", gotSnaps, wantSnaps)

	tag += fmt.Sprintf(" faults %v", p.Faults())
	want, err = sw.trackerRouteWithPlane(v, p)
	if err != nil {
		t.Fatal(err)
	}
	if got, err = sw.RouteWithPlane(v, p); err != nil {
		t.Fatal(err)
	}
	requireSameRoute(t, tag+" RouteWithPlane", got, want)
	if err := sw.SetFaultPlane(p); err != nil {
		t.Fatal(err)
	}
	got = make([]int, n)
	if err := sw.RouteInto(got, v); err != nil {
		t.Fatal(err)
	}
	if err := sw.SetFaultPlane(nil); err != nil {
		t.Fatal(err)
	}
	requireSameRoute(t, tag+" RouteInto", got, want)
	wantSnaps, want, err = sw.trackerTraceWithPlane(v, p)
	if err != nil {
		t.Fatal(err)
	}
	if gotSnaps, got, err = sw.TraceWithPlane(v, p); err != nil {
		t.Fatal(err)
	}
	requireSameRoute(t, tag+" TraceWithPlane", got, want)
	requireSameSnapshots(t, tag+" TraceWithPlane", gotSnaps, wantSnaps)
	for si := range sw.StageChips() {
		w, err := sw.trackerGoldenStage(si, wantSnaps[si])
		if err != nil {
			t.Fatal(err)
		}
		g, err := sw.GoldenStage(si, wantSnaps[si])
		if err != nil {
			t.Fatal(err)
		}
		requireSameSnapshots(t, fmt.Sprintf("%s GoldenStage(%d)", tag, si), []Snapshot{g}, []Snapshot{w})
	}
}

func requireSameSnapshots(t *testing.T, tag string, got, want []Snapshot) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d snapshots, want %d", tag, len(got), len(want))
	}
	for i := range got {
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Fatalf("%s: snapshot %d differs\ngot  %s\nwant %s", tag, i, got[i].Render(), want[i].Render())
		}
	}
}

// TestKernelEquivalenceRevsort drives the word-parallel kernel against
// the tracker pipeline over random valid vectors and random fault
// planes (every mode on every stage).
func TestKernelEquivalenceRevsort(t *testing.T) {
	rng := rand.New(rand.NewSource(101))
	for _, n := range []int{4, 16, 64, 256, 1024} {
		for trial := 0; trial < 30; trial++ {
			m := 1 + rng.Intn(n)
			sw, err := NewRevsortSwitch(n, m)
			if err != nil {
				t.Fatal(err)
			}
			v := randomValidVec(rng, n, rng.Float64())
			requireKernelMatchesTracker(t, sw, v, randomPlane(rng, sw, trial))
		}
	}
}

// TestKernelEquivalenceColumnsort is TestKernelEquivalenceRevsort for
// Columnsort shapes, power-of-two and not (9×3, 100×10).
func TestKernelEquivalenceColumnsort(t *testing.T) {
	rng := rand.New(rand.NewSource(102))
	shapes := []struct{ r, s int }{{2, 1}, {4, 2}, {8, 2}, {16, 4}, {9, 3}, {64, 8}, {100, 10}}
	for _, sh := range shapes {
		n := sh.r * sh.s
		for trial := 0; trial < 30; trial++ {
			m := 1 + rng.Intn(n)
			sw, err := NewColumnsortSwitch(sh.r, sh.s, m)
			if err != nil {
				t.Fatal(err)
			}
			v := randomValidVec(rng, n, rng.Float64())
			requireKernelMatchesTracker(t, sw, v, randomPlane(rng, sw, trial))
		}
	}
}

func TestKernelEquivalenceFullRevsort(t *testing.T) {
	rng := rand.New(rand.NewSource(103))
	for _, n := range []int{4, 16, 64, 256} {
		for trial := 0; trial < 20; trial++ {
			m := 1 + rng.Intn(n)
			sw, err := NewFullRevsortHyper(n, m)
			if err != nil {
				t.Fatal(err)
			}
			v := randomValidVec(rng, n, rng.Float64())
			want, err := sw.routeTracker(v)
			if err != nil {
				t.Fatal(err)
			}
			wantStages := sw.StagesLastRoute()
			got := make([]int, n)
			if err := sw.RouteInto(got, v); err != nil {
				t.Fatal(err)
			}
			requireSameRoute(t, "full-revsort", got, want)
			if sw.StagesLastRoute() != wantStages {
				t.Fatalf("kernel used %d stages, tracker %d", sw.StagesLastRoute(), wantStages)
			}
		}
	}
}

func TestKernelEquivalenceFullColumnsort(t *testing.T) {
	rng := rand.New(rand.NewSource(104))
	shapes := []struct{ r, s int }{{2, 1}, {4, 2}, {8, 2}, {32, 4}, {64, 4}, {50, 5}}
	for _, sh := range shapes {
		n := sh.r * sh.s
		for trial := 0; trial < 20; trial++ {
			m := 1 + rng.Intn(n)
			sw, err := NewFullColumnsortHyper(sh.r, sh.s, m)
			if err != nil {
				t.Fatal(err)
			}
			v := randomValidVec(rng, n, rng.Float64())
			want, err := sw.routeTracker(v)
			if err != nil {
				t.Fatal(err)
			}
			got := make([]int, n)
			if err := sw.RouteInto(got, v); err != nil {
				t.Fatal(err)
			}
			requireSameRoute(t, "full-columnsort", got, want)
		}
	}
}

func TestKernelEquivalencePerfectAndCrossbar(t *testing.T) {
	rng := rand.New(rand.NewSource(105))
	for trial := 0; trial < 40; trial++ {
		n := 1 + rng.Intn(200)
		m := 1 + rng.Intn(n)
		v := randomValidVec(rng, n, rng.Float64())

		// Per-bit reference: rank order with the first m outputs kept.
		want := make([]int, n)
		rank := 0
		for i := 0; i < n; i++ {
			want[i] = -1
			if v.Get(i) {
				if rank < m {
					want[i] = rank
				}
				rank++
			}
		}

		ps, err := NewPerfectSwitch(n, m)
		if err != nil {
			t.Fatal(err)
		}
		got := make([]int, n)
		if err := ps.RouteInto(got, v); err != nil {
			t.Fatal(err)
		}
		requireSameRoute(t, "perfect", got, want)

		cb, err := NewCrossbar(n, m)
		if err != nil {
			t.Fatal(err)
		}
		if err := cb.RouteInto(got, v); err != nil {
			t.Fatal(err)
		}
		requireSameRoute(t, "crossbar", got, want)
	}
}

// TestRouteMatchesRouteInto pins that the allocating Route facade and
// RouteInto agree for every switch type behind the RouterInto interface.
func TestRouteMatchesRouteInto(t *testing.T) {
	rng := rand.New(rand.NewSource(106))
	switches := []RouterInto{
		mustSwitch(NewPerfectSwitch(64, 48)),
		mustSwitch(NewCrossbar(64, 48)),
		mustSwitch(NewRevsortSwitch(64, 48)),
		mustSwitch(NewColumnsortSwitch(16, 4, 48)),
		mustSwitch(NewFullRevsortHyper(64, 64)),
		mustSwitch(NewFullColumnsortHyper(32, 2, 64)),
	}
	for _, sw := range switches {
		for trial := 0; trial < 10; trial++ {
			v := randomValidVec(rng, sw.Inputs(), rng.Float64())
			want, err := sw.Route(v)
			if err != nil {
				t.Fatal(err)
			}
			got := make([]int, sw.Inputs())
			if err := sw.RouteInto(got, v); err != nil {
				t.Fatal(err)
			}
			requireSameRoute(t, sw.Name(), got, want)
		}
	}
}

func mustSwitch[T RouterInto](sw T, err error) T {
	if err != nil {
		panic(err)
	}
	return sw
}

// TestRouteIntoPlaneFallback pins that RouteInto with an installed
// fault plane routes exactly like RouteWithPlane, and that clearing the
// plane restores the healthy route.
func TestRouteIntoPlaneFallback(t *testing.T) {
	rng := rand.New(rand.NewSource(107))
	sw, err := NewRevsortSwitch(64, 48)
	if err != nil {
		t.Fatal(err)
	}
	plane := NewFaultPlane()
	plane.Add(ChipFault{Stage: 1, Chip: 3, Mode: ChipDead})
	for trial := 0; trial < 10; trial++ {
		v := randomValidVec(rng, 64, 0.6)
		want, err := sw.RouteWithPlane(v, plane)
		if err != nil {
			t.Fatal(err)
		}
		if err := sw.SetFaultPlane(plane); err != nil {
			t.Fatal(err)
		}
		got := make([]int, 64)
		if err := sw.RouteInto(got, v); err != nil {
			t.Fatal(err)
		}
		requireSameRoute(t, "revsort+plane", got, want)
		if err := sw.SetFaultPlane(nil); err != nil {
			t.Fatal(err)
		}
		if want, err = sw.RouteWithPlane(v, nil); err != nil {
			t.Fatal(err)
		}
		if err := sw.RouteInto(got, v); err != nil {
			t.Fatal(err)
		}
		requireSameRoute(t, "revsort cleared", got, want)
	}
}

// TestRouteWithPlaneRejectsInvalidPlane: the kernel's fixups index
// ports directly, so a plane ValidateFaultPlane rejects is refused with
// its error, by the explicit-plane entry points and by RouteInto when
// the installed plane was mutated past validation.
func TestRouteWithPlaneRejectsInvalidPlane(t *testing.T) {
	sw, err := NewRevsortSwitch(64, 48)
	if err != nil {
		t.Fatal(err)
	}
	v := randomValidVec(rand.New(rand.NewSource(110)), 64, 0.5)
	bad := NewFaultPlane()
	bad.Add(ChipFault{Stage: 0, Chip: 2, Mode: ChipPassThrough})
	bad.Add(ChipFault{Stage: 0, Chip: 0, Mode: ChipStuckOutput, A: 99})
	bad.Add(ChipFault{Stage: 1, Chip: 0, Mode: ChipSwappedPair, A: 0, B: 40})
	const want = "core: fault stage 0 chip 0: stuck-output port 99: stage \"stage1 column chips\" chips have 8 ports"
	if _, err := sw.RouteWithPlane(v, bad); err == nil || err.Error() != want {
		t.Errorf("RouteWithPlane: got %v, want %q", err, want)
	}
	if _, _, err := sw.TraceWithPlane(v, bad); err == nil || err.Error() != want {
		t.Errorf("TraceWithPlane: got %v, want %q", err, want)
	}
	plane := NewFaultPlane()
	if err := sw.SetFaultPlane(plane); err != nil {
		t.Fatal(err)
	}
	plane.Add(ChipFault{Stage: 1, Chip: 0, Mode: ChipFaultMode(9)})
	const wantMode = "core: fault stage 1 chip 0: ChipFaultMode(9): unknown mode"
	if err := sw.RouteInto(make([]int, 64), v); err == nil || err.Error() != wantMode {
		t.Errorf("RouteInto: got %v, want %q", err, wantMode)
	}
}

// TestRouteIntoZeroAlloc is the allocation-regression test for the
// kernel: RouteInto performs zero heap allocations at n = 4096 for
// every switch type, and for Revsort and Columnsort with a fault plane
// installed that exercises every fixup (every mode, phantoms included).
func TestRouteIntoZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items under the race detector; steady-state allocs are not zero")
	}
	rng := rand.New(rand.NewSource(108))
	faultedRev := mustSwitch(NewRevsortSwitch(4096, 3072))
	faultedCol := mustSwitch(NewColumnsortSwitchBeta(4096, 3072, 0.75)) // 512×8
	for _, tc := range []struct {
		sw     FaultInjectable
		faults []ChipFault
	}{
		{faultedRev, []ChipFault{
			{Stage: RevsortStage1Columns, Chip: 3, Mode: ChipDead},
			{Stage: RevsortStage2Rows, Chip: 5, Mode: ChipPassThrough},
			{Stage: RevsortStage2Shifter, Chip: 7, Mode: ChipSwappedPair, A: 1, B: 40},
			{Stage: RevsortStage3Columns, Chip: 2, Mode: ChipStuckOutput, A: 0},
		}},
		{faultedCol, []ChipFault{
			{Stage: ColumnsortStage1, Chip: 1, Mode: ChipPassThrough},
			{Stage: ColumnsortStage1, Chip: 4, Mode: ChipStuckOutput, A: 3},
			{Stage: ColumnsortStage2, Chip: 6, Mode: ChipDead},
			{Stage: ColumnsortStage2, Chip: 2, Mode: ChipSwappedPair, A: 0, B: 100},
		}},
	} {
		p := NewFaultPlane()
		for _, f := range tc.faults {
			p.Add(f)
		}
		if err := tc.sw.SetFaultPlane(p); err != nil {
			t.Fatal(err)
		}
	}
	for _, tc := range []struct {
		name string
		sw   RouterInto
	}{
		{"perfect", mustSwitch(NewPerfectSwitch(4096, 3072))},
		{"crossbar", mustSwitch(NewCrossbar(4096, 3072))},
		{"revsort", mustSwitch(NewRevsortSwitch(4096, 3072))},
		{"columnsort", mustSwitch(NewColumnsortSwitchBeta(4096, 3072, 0.75))},
		{"full-revsort", mustSwitch(NewFullRevsortHyper(4096, 4096))},
		{"full-columnsort", mustSwitch(NewFullColumnsortHyper(512, 8, 4096))},
		{"revsort+plane", faultedRev},
		{"columnsort+plane", faultedCol},
	} {
		v := randomValidVec(rng, tc.sw.Inputs(), 0.6)
		dst := make([]int, tc.sw.Inputs())
		// Warm the scratch pool before measuring.
		if err := tc.sw.RouteInto(dst, v); err != nil {
			t.Fatal(err)
		}
		if a := testing.AllocsPerRun(20, func() {
			if err := tc.sw.RouteInto(dst, v); err != nil {
				t.Fatal(err)
			}
		}); a != 0 {
			t.Errorf("%s: RouteInto allocated %v times per run", tc.name, a)
		}
	}
}

// TestKernelConcurrentRoute checks the sync.Pool scratch keeps
// concurrent Route calls on one switch safe (run with -race).
func TestKernelConcurrentRoute(t *testing.T) {
	sw, err := NewRevsortSwitch(256, 192)
	if err != nil {
		t.Fatal(err)
	}
	want, err := sw.Route(randomValidVec(rand.New(rand.NewSource(9)), 256, 0.5))
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 8)
	for g := 0; g < 8; g++ {
		go func() {
			rng := rand.New(rand.NewSource(9))
			v := randomValidVec(rng, 256, 0.5)
			dst := make([]int, 256)
			for it := 0; it < 50; it++ {
				if err := sw.RouteInto(dst, v); err != nil {
					done <- err
					return
				}
			}
			for i := range dst {
				if dst[i] != want[i] {
					t.Errorf("concurrent route diverged at %d", i)
					break
				}
			}
			done <- nil
		}()
	}
	for g := 0; g < 8; g++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}
