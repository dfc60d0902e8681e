package nearsort

import (
	"math/rand"
	"testing"
	"testing/quick"

	"concentrators/internal/bitvec"
	"concentrators/internal/mesh"
)

func TestAlphaAndThreshold(t *testing.T) {
	if a := Alpha(0, 10); a != 1.0 {
		t.Errorf("Alpha(0,10) = %v", a)
	}
	if a := Alpha(5, 10); a != 0.5 {
		t.Errorf("Alpha(5,10) = %v", a)
	}
	if th := Threshold(3, 10); th != 7 {
		t.Errorf("Threshold(3,10) = %d", th)
	}
	if th := Threshold(15, 10); th != 0 {
		t.Errorf("Threshold(15,10) = %d", th)
	}
}

func TestAlphaPanicsOnBadM(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Alpha(1,0) did not panic")
		}
	}()
	Alpha(1, 0)
}

func TestMinRouted(t *testing.T) {
	// m=10, ε=2 → αm = 8.
	cases := []struct{ k, want int }{{0, 0}, {5, 5}, {8, 8}, {9, 8}, {100, 8}}
	for _, c := range cases {
		if got := MinRouted(c.k, 2, 10); got != c.want {
			t.Errorf("MinRouted(%d,2,10) = %d, want %d", c.k, got, c.want)
		}
	}
}

// Lemma 1, both directions, property-checked: a vector is ε-nearsorted
// iff CheckLemma1 passes for ε = Nearsortedness (forward) and fails for
// smaller ε when the structure is violated (backward via minimality).
func TestLemma1ForwardProperty(t *testing.T) {
	f := func(raw []bool) bool {
		v := bitvec.FromBools(raw)
		return CheckLemma1(v, v.Nearsortedness()) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// Backward direction of Lemma 1: if the structure holds for ε then the
// vector is 2ε-nearsorted... in fact exactly ε-nearsorted. We verify:
// structure holding for ε ⇒ Nearsortedness ≤ ε.
func TestLemma1BackwardProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	for trial := 0; trial < 500; trial++ {
		n := 4 + rng.Intn(60)
		v := bitvec.New(n)
		for i := 0; i < n; i++ {
			v.Set(i, rng.Intn(2) == 1)
		}
		for eps := 0; eps <= n; eps++ {
			if CheckLemma1(v, eps) == nil {
				if got := v.Nearsortedness(); got > eps {
					t.Fatalf("structure holds for ε=%d but nearsortedness=%d (%s)", eps, got, v)
				}
				break
			}
		}
	}
}

func TestCheckLemma1Errors(t *testing.T) {
	v := bitvec.MustParse("0101") // ε = 2
	if err := CheckLemma1(v, 0); err == nil {
		t.Error("accepted ε=0 for a dirty vector")
	}
	if err := CheckLemma1(v, 2); err != nil {
		t.Errorf("rejected true ε: %v", err)
	}
}

func TestIsNearsorted(t *testing.T) {
	v := bitvec.MustParse("1011010")
	e := v.Nearsortedness()
	if !IsNearsorted(v, e) || IsNearsorted(v, e-1) {
		t.Error("IsNearsorted threshold wrong")
	}
}

func TestCheckPartialConcentrationHappyPath(t *testing.T) {
	valid := bitvec.MustParse("10110")
	out := []int{0, -1, 1, 2, -1}
	if err := CheckPartialConcentration(valid, out, 3, 0); err != nil {
		t.Errorf("valid routing rejected: %v", err)
	}
	// Neighbouring outputs across a word of the taken-output set, and
	// past the 4096 outputs it holds on the stack.
	for _, c := range []struct {
		out []int
		m   int
	}{{[]int{63, 64}, 128}, {[]int{4095, 4096}, 4097}} {
		if err := CheckPartialConcentration(bitvec.MustParse("11"), c.out, c.m, 0); err != nil {
			t.Errorf("outputs %v of %d rejected: %v", c.out, c.m, err)
		}
	}
}

// Judging a routing at the pool-healthy shape (n=4096, m=2048, load
// 0.4) allocates nothing.
func TestCheckPartialConcentrationAllocatesNothing(t *testing.T) {
	const n, m = 4096, 2048
	valid := bitvec.New(n)
	out := make([]int, n)
	k := 0
	for i := range out {
		out[i] = -1
		if i%5 < 2 {
			valid.Set(i, true)
			out[i] = k
			k++
		}
	}
	if err := CheckPartialConcentration(valid, out, m, 0); err != nil {
		t.Fatal(err)
	}
	if allocs := testing.AllocsPerRun(100, func() {
		_ = CheckPartialConcentration(valid, out, m, 0)
	}); allocs != 0 {
		t.Errorf("%v allocs per check, want 0", allocs)
	}
}

func TestCheckPartialConcentrationViolations(t *testing.T) {
	valid := bitvec.MustParse("10110")
	cases := []struct {
		name  string
		valid string // "" is 10110
		out   []int
		m     int
		eps   int
	}{
		{"wrong length", "", []int{0, 1}, 3, 0},
		{"invalid input routed", "", []int{0, 1, 2, -1, -1}, 3, 0},
		{"out of range", "", []int{3, -1, 0, 1, -1}, 3, 0},
		{"duplicate output", "", []int{0, -1, 0, 1, -1}, 3, 0},
		{"duplicate output 63", "11", []int{63, 63}, 128, 0},
		{"duplicate output 64", "11", []int{64, 64}, 128, 0},
		{"duplicate output past 4096 outputs", "11", []int{4096, 4096}, 4097, 0},
		{"too few routed (k≤αm)", "", []int{0, -1, 1, -1, -1}, 4, 0},
		{"too few routed (k>αm)", "", []int{0, -1, -1, -1, -1}, 2, 0},
	}
	for _, c := range cases {
		v := valid
		if c.valid != "" {
			v = bitvec.MustParse(c.valid)
		}
		if err := CheckPartialConcentration(v, c.out, c.m, c.eps); err == nil {
			t.Errorf("%s: violation not detected", c.name)
		}
	}
	// With ε=1 and m=4, threshold is 3 = k, so all three must route;
	// routing two should fail.
	if err := CheckPartialConcentration(valid, []int{0, -1, 1, -1, -1}, 4, 1); err == nil {
		t.Error("ε-threshold shortfall not detected")
	}
}

func TestLemma2Route(t *testing.T) {
	valid := bitvec.MustParse("1010")
	perm := []int{0, 2, 1, 3} // stable-ish nearsorter
	out, err := Lemma2Route(valid, perm, 2)
	if err != nil {
		t.Fatal(err)
	}
	want := []int{0, -1, 1, -1}
	for i := range want {
		if out[i] != want[i] {
			t.Errorf("out[%d] = %d, want %d", i, out[i], want[i])
		}
	}
	if _, err := Lemma2Route(valid, []int{0, 0, 1, 2}, 2); err == nil {
		t.Error("accepted non-permutation")
	}
	if _, err := Lemma2Route(valid, []int{0, 1}, 2); err == nil {
		t.Error("accepted wrong-length perm")
	}
}

// The key lemma end-to-end on a real ε-nearsorter: Columnsort steps
// 1–3 on an r×s mesh is (s−1)²-nearsorted; via Lemma2Route its first m
// outputs must satisfy the (n, m, 1−(s−1)²/m) definition for every
// pattern.
func TestLemma2WithColumnsortNearsorter(t *testing.T) {
	r, s := 8, 2
	n := r * s
	eps := mesh.Algorithm2Bound(s)
	m := 10
	for pat := 0; pat < 1<<uint(n); pat++ {
		valid := bitvec.New(n)
		for b := 0; b < n; b++ {
			valid.Set(b, pat&(1<<uint(b)) != 0)
		}
		perm, err := columnsortPermutation(valid, r, s)
		if err != nil {
			t.Fatal(err)
		}
		out, err := Lemma2Route(valid, perm, m)
		if err != nil {
			t.Fatal(err)
		}
		if err := CheckPartialConcentration(valid, out, m, eps); err != nil {
			t.Fatalf("pattern %04x: %v", pat, err)
		}
	}
}

// columnsortPermutation computes where each input position lands after
// Algorithm 2, tracking positions through the (stable) column sorts and
// the reshape.
func columnsortPermutation(valid *bitvec.Vector, r, s int) ([]int, error) {
	n := r * s
	// pos[i] = current row-major position of input i's bit.
	pos := make([]int, n)
	for i := range pos {
		pos[i] = i
	}
	cur := valid.Clone()
	applySortCols := func() {
		// Stable column sort: within a column, valid bits keep input
		// order at the top, invalid below.
		newPos := make([]int, n)
		next := bitvec.New(n)
		for j := 0; j < s; j++ {
			var ones, zeros []int
			for i := 0; i < r; i++ {
				p := i*s + j
				holder := -1
				for inp, pp := range pos {
					if pp == p {
						holder = inp
						break
					}
				}
				if cur.Get(p) {
					ones = append(ones, holder)
				} else {
					zeros = append(zeros, holder)
				}
			}
			at := 0
			for _, inp := range ones {
				p := at*s + j
				if inp >= 0 {
					newPos[inp] = p
				}
				next.Set(p, true)
				at++
			}
			for _, inp := range zeros {
				p := at*s + j
				if inp >= 0 {
					newPos[inp] = p
				}
				at++
			}
		}
		pos = newPos
		cur = next
	}
	applyReshape := func() {
		// Row-major position p = i*s+j; column-major index x = r*j+i;
		// new row-major position is x.
		newPos := make([]int, n)
		next := bitvec.New(n)
		for inp, p := range pos {
			i, j := p/s, p%s
			x := r*j + i
			newPos[inp] = x
		}
		for p := 0; p < n; p++ {
			i, j := p/s, p%s
			x := r*j + i
			if cur.Get(p) {
				next.Set(x, true)
			}
		}
		pos = newPos
		cur = next
	}
	applySortCols()
	applyReshape()
	applySortCols()
	return pos, nil
}

func TestFig2Counterexample(t *testing.T) {
	p := Fig2Params{N: 32, M: 16, Eps: 2, K: 16}
	v, err := Fig2Counterexample(p)
	if err != nil {
		t.Fatal(err)
	}
	if v.Count() != p.K {
		t.Fatalf("count = %d, want %d", v.Count(), p.K)
	}
	// The first m outputs carry m−ε messages: a legal partial
	// concentration...
	routedInPrefix := 0
	for i := 0; i < p.M; i++ {
		if v.Get(i) {
			routedInPrefix++
		}
	}
	if routedInPrefix != p.M-p.Eps {
		t.Errorf("prefix carries %d, want m−ε = %d", routedInPrefix, p.M-p.Eps)
	}
	// ... but the sequence is NOT ε-nearsorted (the converse fails).
	if IsNearsorted(v, p.Eps) {
		t.Error("Figure 2 construction is ε-nearsorted; counterexample broken")
	}
}

func TestFig2Validation(t *testing.T) {
	bad := []Fig2Params{
		{N: 16, M: 20, Eps: 1, K: 10},  // m > n
		{N: 32, M: 16, Eps: 2, K: 10},  // k ≤ m−ε
		{N: 32, M: 16, Eps: 2, K: 33},  // k > n
		{N: 32, M: 16, Eps: 2, K: 23},  // k+ε ≥ (n+m)/2
		{N: 32, M: 16, Eps: -1, K: 16}, // negative ε
	}
	for _, p := range bad {
		if _, err := Fig2Counterexample(p); err == nil {
			t.Errorf("params %+v accepted", p)
		}
	}
}

func TestWorstEpsilon(t *testing.T) {
	ident := func(v *bitvec.Vector) (*bitvec.Vector, error) { return v.Clone(), nil }
	patterns := []*bitvec.Vector{
		bitvec.MustParse("0101"), // ε = 2
		bitvec.MustParse("1100"), // ε = 0
	}
	worst, err := WorstEpsilon(ident, patterns)
	if err != nil || worst != 2 {
		t.Errorf("WorstEpsilon = %d, %v; want 2, nil", worst, err)
	}
	dropper := func(v *bitvec.Vector) (*bitvec.Vector, error) { return bitvec.New(v.Len()), nil }
	if _, err := WorstEpsilon(dropper, patterns); err == nil {
		t.Error("sorter that drops bits not detected")
	}
}

func TestWorstLoadRatio(t *testing.T) {
	m := 4
	// A router that always drops the last valid message.
	lossy := func(v *bitvec.Vector) ([]int, error) {
		out := make([]int, v.Len())
		at := 0
		lastValid := -1
		for i := 0; i < v.Len(); i++ {
			out[i] = -1
			if v.Get(i) {
				lastValid = i
			}
		}
		for i := 0; i < v.Len(); i++ {
			if v.Get(i) && i != lastValid && at < m {
				out[i] = at
				at++
			}
		}
		return out, nil
	}
	patterns := []*bitvec.Vector{
		bitvec.MustParse("110000"), // k=2, routes 1 → ratio 0.5
		bitvec.MustParse("111100"), // k=4, routes 3 → 0.75
		bitvec.MustParse("000000"), // ignored
	}
	worst, err := WorstLoadRatio(lossy, m, patterns)
	if err != nil {
		t.Fatal(err)
	}
	if worst != 0.5 {
		t.Errorf("WorstLoadRatio = %v, want 0.5", worst)
	}
}
