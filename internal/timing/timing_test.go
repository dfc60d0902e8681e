package timing

import (
	"math"
	"math/rand"
	"testing"

	"concentrators/internal/link"
	"concentrators/internal/seedrand"
)

func TestFaultValidate(t *testing.T) {
	valid := []Fault{
		{Stage: 0, Wire: 0, Mode: Constant, Delay: 1},
		{Stage: link.AllStages, Wire: link.AllWires, Mode: Constant, Delay: 10, From: 5, Until: 9},
		{Stage: 1, Wire: link.AllWires, Mode: Jitter, Prob: 0.2, MaxDelay: 8},
		{Stage: 0, Wire: 3, Mode: Pause, Delay: 12, PauseLen: 2, PauseEvery: 10},
		{Stage: 2, Wire: 0, Mode: Ramp, Delay: 6, From: 0, Until: 30},
	}
	for _, f := range valid {
		if err := f.Validate(); err != nil {
			t.Errorf("valid fault %v rejected: %v", f, err)
		}
	}
	invalid := []struct {
		name string
		f    Fault
	}{
		{"stage below AllStages", Fault{Stage: -2, Mode: Constant, Delay: 1}},
		{"wire below AllWires", Fault{Wire: -2, Mode: Constant, Delay: 1}},
		{"negative From", Fault{Mode: Constant, Delay: 1, From: -1}},
		{"empty window", Fault{Mode: Constant, Delay: 1, From: 5, Until: 5}},
		{"constant zero delay", Fault{Mode: Constant, Delay: 0}},
		{"jitter zero prob", Fault{Mode: Jitter, Prob: 0, MaxDelay: 4}},
		{"jitter NaN prob", Fault{Mode: Jitter, Prob: math.NaN(), MaxDelay: 4}},
		{"jitter prob above 1", Fault{Mode: Jitter, Prob: 1.5, MaxDelay: 4}},
		{"jitter zero max delay", Fault{Mode: Jitter, Prob: 0.5, MaxDelay: 0}},
		{"pause zero len", Fault{Mode: Pause, Delay: 3, PauseLen: 0, PauseEvery: 5}},
		{"pause len above every", Fault{Mode: Pause, Delay: 3, PauseLen: 6, PauseEvery: 5}},
		{"ramp unbounded", Fault{Mode: Ramp, Delay: 3}},
		{"unknown mode", Fault{Mode: Mode(99), Delay: 1}},
	}
	for _, tc := range invalid {
		if err := tc.f.Validate(); err == nil {
			t.Errorf("%s: fault %v accepted", tc.name, tc.f)
		}
	}
	if err := NewPlane(1).Add(Fault{Mode: Constant, Delay: 0}); err == nil {
		t.Error("plane accepted an invalid fault")
	}
}

// The plane is deterministic: delays depend only on seed and
// coordinates, never on call order.
func TestPlaneDeterministic(t *testing.T) {
	build := func() *Plane {
		p := NewPlane(42)
		for _, f := range []Fault{
			{Stage: 0, Wire: link.AllWires, Mode: Jitter, Prob: 0.5, MaxDelay: 16},
			{Stage: 1, Wire: 2, Mode: Constant, Delay: 3},
			{Stage: link.AllStages, Wire: link.AllWires, Mode: Pause, Delay: 9, PauseLen: 3, PauseEvery: 7},
		} {
			if err := p.Add(f); err != nil {
				t.Fatal(err)
			}
		}
		return p
	}
	a, b := build(), build()
	// Query b in a scrambled order; every a-order query must agree.
	type q struct {
		round int
		at    link.LinkAddr
	}
	var qs []q
	for round := 0; round < 40; round++ {
		for stage := 0; stage < 3; stage++ {
			for wire := 0; wire < 4; wire++ {
				qs = append(qs, q{round, link.LinkAddr{Stage: stage, Wire: wire}})
			}
		}
	}
	perm := rand.New(rand.NewSource(7)).Perm(len(qs))
	got := make(map[q]int)
	for _, i := range perm {
		got[qs[i]] = b.Delay(qs[i].round, qs[i].at)
	}
	for _, query := range qs {
		if want := a.Delay(query.round, query.at); got[query] != want {
			t.Fatalf("delay at %v round %d: %d (scrambled) != %d (ordered)", query.at, query.round, got[query], want)
		}
	}
	if a.RoundDelay(11, 3) != b.RoundDelay(11, 3) {
		t.Fatal("RoundDelay not deterministic")
	}
}

func TestFaultShapes(t *testing.T) {
	rng := seedrand.NewStream(1)
	// Constant: always Delay inside the window, 0 outside.
	c := Fault{Mode: Constant, Delay: 5, From: 10, Until: 20}
	if c.active(9) || !c.active(10) || !c.active(19) || c.active(20) {
		t.Fatal("window activation wrong")
	}
	if d := c.sample(12, &rng); d != 5 {
		t.Fatalf("constant sample %d, want 5", d)
	}
	// Pause: Delay only during the pause window.
	p := Fault{Mode: Pause, Delay: 8, PauseLen: 2, PauseEvery: 10}
	for round := 0; round < 30; round++ {
		want := 0
		if round%10 < 2 {
			want = 8
		}
		if d := p.sample(round, &rng); d != want {
			t.Fatalf("pause sample at round %d = %d, want %d", round, d, want)
		}
	}
	// Ramp: monotonically non-decreasing across the window, reaching
	// Delay at the end.
	r := Fault{Mode: Ramp, Delay: 10, From: 0, Until: 50}
	prev := 0
	for round := 0; round < 50; round++ {
		d := r.sample(round, &rng)
		if d < prev {
			t.Fatalf("ramp decreased: %d after %d at round %d", d, prev, round)
		}
		prev = d
	}
	if prev != 10 {
		t.Fatalf("ramp peak %d, want 10", prev)
	}
	// Jitter: delays within [0, MaxDelay], some zero, some positive.
	j := Fault{Mode: Jitter, Prob: 0.5, MaxDelay: 12}
	zeros, positives := 0, 0
	for i := 0; i < 2000; i++ {
		d := j.sample(i, &rng)
		if d < 0 || d > 12 {
			t.Fatalf("jitter sample %d outside [0,12]", d)
		}
		if d == 0 {
			zeros++
		} else {
			positives++
		}
	}
	if zeros == 0 || positives == 0 {
		t.Fatalf("jitter degenerate: %d zeros, %d positives", zeros, positives)
	}
}

// TestDelayAllocs requires a jitter draw to allocate nothing: the
// per-(round, link) stream lives on the stack.
func TestDelayAllocs(t *testing.T) {
	p := NewPlane(5)
	if err := p.Add(Fault{Stage: link.AllStages, Wire: link.AllWires, Mode: Jitter, Prob: 0.5, MaxDelay: 12}); err != nil {
		t.Fatal(err)
	}
	round := 0
	if a := testing.AllocsPerRun(100, func() {
		round++
		p.Delay(round, link.LinkAddr{Stage: 1, Wire: 3})
	}); a != 0 {
		t.Fatalf("Delay with a jitter fault allocated %v times per call", a)
	}
}

// A nil plane and an expired fault both mean full speed; delays from
// overlapping faults add.
func TestPlaneDelayComposition(t *testing.T) {
	var nilPlane *Plane
	if d := nilPlane.Delay(0, link.LinkAddr{}); d != 0 {
		t.Fatalf("nil plane delay %d", d)
	}
	if d := nilPlane.PathDelay(0, 3, 1, 2); d != 0 {
		t.Fatalf("nil plane path delay %d", d)
	}
	p := NewPlane(3)
	must := func(f Fault) {
		t.Helper()
		if err := p.Add(f); err != nil {
			t.Fatal(err)
		}
	}
	must(Fault{Stage: 1, Wire: 4, Mode: Constant, Delay: 2, Until: 10})
	must(Fault{Stage: 1, Wire: link.AllWires, Mode: Constant, Delay: 3})
	at := link.LinkAddr{Stage: 1, Wire: 4}
	if d := p.Delay(5, at); d != 5 {
		t.Fatalf("overlapping faults: delay %d, want 2+3", d)
	}
	if d := p.Delay(15, at); d != 3 {
		t.Fatalf("after self-termination: delay %d, want 3", d)
	}
	if d := p.Delay(5, link.LinkAddr{Stage: 2, Wire: 4}); d != 0 {
		t.Fatalf("unrelated stage: delay %d, want 0", d)
	}
	// PathDelay sums across the path's links: stage-1 crossing appears
	// once in a 3-stage path.
	if d := p.PathDelay(15, 3, 0, 4); d != 3 {
		t.Fatalf("path delay %d, want 3", d)
	}
	// RoundDelay takes the worst per stage: two faults on stage 1 give
	// max(2,3)=3 before round 10, not 5.
	if d := p.RoundDelay(5, 3); d != 3 {
		t.Fatalf("round delay %d, want 3", d)
	}
}

// Histogram property: quantiles are monotone in q and always witnessed
// — every returned latency was actually observed.
func TestHistogramQuantileProperty(t *testing.T) {
	for seed := int64(0); seed < 30; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var h Histogram
		witnessed := map[int]bool{}
		n := 1 + rng.Intn(500)
		for i := 0; i < n; i++ {
			v := rng.Intn(1 << (1 + rng.Intn(12)))
			h.Observe(v)
			witnessed[v] = true
		}
		prev := -1
		for _, q := range []float64{0, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 0.999, 1} {
			lat, ok := h.Quantile(q)
			if !ok {
				t.Fatalf("seed %d: quantile %v not ok on non-empty histogram", seed, q)
			}
			if !witnessed[lat] {
				t.Fatalf("seed %d: quantile %v returned unwitnessed latency %d", seed, q, lat)
			}
			if lat < prev {
				t.Fatalf("seed %d: quantile %v = %d < previous %d (not monotone)", seed, q, lat, prev)
			}
			prev = lat
		}
		if h.Total() != n {
			t.Fatalf("total %d, want %d", h.Total(), n)
		}
	}
	var empty Histogram
	if _, ok := empty.Quantile(0.5); ok {
		t.Fatal("empty histogram produced a quantile")
	}
	var h Histogram
	h.Observe(3)
	for _, q := range []float64{math.NaN(), -0.1, 1.1} {
		if _, ok := h.Quantile(q); ok {
			t.Fatalf("quantile accepted q=%v", q)
		}
	}
	if h.P50() != 3 || h.P99() != 3 || h.P999() != 3 {
		t.Fatal("single-sample quantiles must all witness the sample")
	}
	h.Reset()
	if h.Total() != 0 || h.Mean() != 0 {
		t.Fatal("reset did not clear the histogram")
	}
}
