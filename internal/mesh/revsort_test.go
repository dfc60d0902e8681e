package mesh

import (
	"math/rand"
	"testing"
)

func TestRev(t *testing.T) {
	// Paper's example: √n = 16 (q = 4), rev(3) = 12.
	if got := Rev(3, 4); got != 12 {
		t.Errorf("Rev(3,4) = %d, want 12", got)
	}
	cases := []struct{ i, q, want int }{
		{0, 3, 0}, {1, 3, 4}, {2, 3, 2}, {3, 3, 6}, {4, 3, 1}, {5, 3, 5}, {6, 3, 3}, {7, 3, 7},
		{0, 0, 0},
		{1, 1, 1},
	}
	for _, c := range cases {
		if got := Rev(c.i, c.q); got != c.want {
			t.Errorf("Rev(%d,%d) = %d, want %d", c.i, c.q, got, c.want)
		}
	}
}

func TestRevIsInvolution(t *testing.T) {
	q := 6
	for i := 0; i < 1<<uint(q); i++ {
		if Rev(Rev(i, q), q) != i {
			t.Fatalf("Rev not an involution at %d", i)
		}
	}
}

func TestRevPanicsOutOfRange(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Rev(8,3) did not panic")
		}
	}()
	Rev(8, 3)
}

func TestRevRotateRequiresSquarePow2(t *testing.T) {
	if err := RevRotate(NewMatrix(4, 8)); err == nil {
		t.Error("RevRotate accepted non-square matrix")
	}
	if err := RevRotate(NewMatrix(6, 6)); err == nil {
		t.Error("RevRotate accepted non-power-of-two side")
	}
	if err := RevRotate(NewMatrix(8, 8)); err != nil {
		t.Errorf("RevRotate rejected 8×8: %v", err)
	}
}

func TestRevRotateMovesElements(t *testing.T) {
	// Row i, column j moves to column (rev(i)+j) mod side (§4).
	side := 8
	m := NewMatrix(side, side)
	for i := 0; i < side; i++ {
		m.Set(i, 0, 1) // marker in column 0 of each row
	}
	if err := RevRotate(m); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < side; i++ {
		want := Rev(i, 3)
		for j := 0; j < side; j++ {
			expect := byte(0)
			if j == want {
				expect = 1
			}
			if m.Get(i, j) != expect {
				t.Fatalf("row %d: marker at col %d, want col %d\n%s", i, j, want, m)
			}
		}
	}
}

func TestAlgorithm1Validation(t *testing.T) {
	if err := Algorithm1(NewMatrix(4, 8)); err == nil {
		t.Error("Algorithm1 accepted non-square matrix")
	}
	if err := Algorithm1(NewMatrix(3, 3)); err == nil {
		t.Error("Algorithm1 accepted non-power-of-two side")
	}
}

// Theorem 3's substrate claim: after Algorithm 1 the matrix has clean
// 1-rows on top, clean 0-rows at the bottom, and at most 2⌈n^{1/4}⌉−1
// dirty rows — checked over random matrices at several sizes.
func TestAlgorithm1DirtyRowBoundRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	for _, side := range []int{2, 4, 8, 16, 32} {
		n := side * side
		bound := Algorithm1DirtyBound(n)
		worst := 0
		for trial := 0; trial < 300; trial++ {
			m := randomMatrix(rng, side, side)
			k := m.Count()
			if err := Algorithm1(m); err != nil {
				t.Fatal(err)
			}
			if m.Count() != k {
				t.Fatal("Algorithm1 changed the number of 1s")
			}
			if d := m.DirtyRows(); d > worst {
				worst = d
			}
		}
		if worst > bound {
			t.Errorf("side %d: worst dirty rows %d exceeds paper bound %d", side, worst, bound)
		}
	}
}

// Exhaustive check of the dirty-row bound for the 4×4 mesh (all 65536
// valid-bit patterns).
func TestAlgorithm1DirtyRowBoundExhaustive4x4(t *testing.T) {
	bound := Algorithm1DirtyBound(16) // 2·⌈16^{1/4}⌉−1 = 3
	if bound != 3 {
		t.Fatalf("bound(16) = %d, want 3", bound)
	}
	for pat := 0; pat < 1<<16; pat++ {
		m := NewMatrix(4, 4)
		for b := 0; b < 16; b++ {
			if pat&(1<<uint(b)) != 0 {
				m.Set(b/4, b%4, 1)
			}
		}
		if err := Algorithm1(m); err != nil {
			t.Fatal(err)
		}
		if d := m.DirtyRows(); d > bound {
			t.Fatalf("pattern %04x: %d dirty rows > bound %d\n%s", pat, d, bound, m)
		}
	}
}

// The ε-nearsort consequence: the row-major reading after Algorithm 1
// is (dirty·√n)-nearsorted, i.e. O(n^{3/4}).
func TestAlgorithm1NearsortedRowMajor(t *testing.T) {
	rng := rand.New(rand.NewSource(52))
	for _, side := range []int{4, 8, 16, 32} {
		n := side * side
		epsBound := Algorithm1DirtyBound(n) * side
		for trial := 0; trial < 100; trial++ {
			m := randomMatrix(rng, side, side)
			if err := Algorithm1(m); err != nil {
				t.Fatal(err)
			}
			if eps := m.RowMajor().Nearsortedness(); eps > epsBound {
				t.Fatalf("side %d: nearsortedness %d > bound %d", side, eps, epsBound)
			}
		}
	}
}

func TestRevsortPhaseCount(t *testing.T) {
	cases := map[int]int{2: 1, 4: 1, 8: 2, 16: 2, 256: 3, 65536: 4}
	for side, want := range cases {
		if got := RevsortPhaseCount(side); got != want {
			t.Errorf("RevsortPhaseCount(%d) = %d, want %d", side, got, want)
		}
	}
}

func TestShearsortSortsRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(54))
	for _, dims := range [][2]int{{4, 4}, {8, 8}, {16, 16}, {8, 4}, {6, 6}} {
		for trial := 0; trial < 50; trial++ {
			m := randomMatrix(rng, dims[0], dims[1])
			k := m.Count()
			iters := Shearsort(m)
			if !m.IsRowMajorSorted() {
				t.Fatalf("%v: not sorted after Shearsort (%d iters)\n%s", dims, iters, m)
			}
			if m.Count() != k {
				t.Fatalf("%v: count changed", dims)
			}
		}
	}
}

// The §6 claim feeding the full-Revsort construction: with at most 8
// dirty rows, a constant number of Shearsort iterations finishes the
// sort. We verify the halving behaviour: dirty rows never increase and
// reach ≤ ⌈d/2⌉ after one iteration on column-sorted matrices.
func TestShearsortHalvesDirtyRows(t *testing.T) {
	rng := rand.New(rand.NewSource(55))
	for trial := 0; trial < 200; trial++ {
		side := 16
		m := randomMatrix(rng, side, side)
		m.SortColumns() // establish the clean-top/clean-bottom band structure
		d0 := m.DirtyRows()
		ShearsortIteration(m)
		d1 := m.DirtyRows()
		if d1 > (d0+1)/2 {
			t.Fatalf("dirty rows %d -> %d; expected at least halving", d0, d1)
		}
	}
}

// The §6 premise behind the full-Revsort hyperconcentrator: after
// ⌈lg lg √n⌉ phases (plus a column sort), at most eight dirty rows
// remain.
func TestDirtyRowsAfterPhasesEightRowClaim(t *testing.T) {
	rng := rand.New(rand.NewSource(56))
	for _, side := range []int{8, 16, 32, 64} {
		phases := RevsortPhaseCount(side)
		worst := 0
		for trial := 0; trial < 150; trial++ {
			m := randomMatrix(rng, side, side)
			d, err := DirtyRowsAfterPhases(m, phases)
			if err != nil {
				t.Fatal(err)
			}
			if d > worst {
				worst = d
			}
		}
		if worst > 8 {
			t.Errorf("side %d: %d phases left %d dirty rows (> 8)", side, phases, worst)
		}
	}
}

// Convergence is monotone in expectation: more phases never leave more
// dirty rows on the same input (checked per-instance).
func TestDirtyRowsAfterPhasesMonotone(t *testing.T) {
	rng := rand.New(rand.NewSource(57))
	for trial := 0; trial < 50; trial++ {
		side := 32
		m := randomMatrix(rng, side, side)
		prev := side + 1
		for p := 1; p <= RevsortPhaseCount(side)+2; p++ {
			d, err := DirtyRowsAfterPhases(m, p)
			if err != nil {
				t.Fatal(err)
			}
			if d > prev {
				t.Fatalf("phases %d: dirty rows rose %d -> %d", p, prev, d)
			}
			prev = d
		}
	}
}
