package mesh

import (
	"math/rand"
	"testing"

	"concentrators/internal/bitvec"
)

func TestReshapeCMtoRM(t *testing.T) {
	// 6×3 example of Figure 5: column-major position x of each element
	// becomes its row-major position.
	r, s := 6, 3
	m := NewMatrix(r, s)
	// Put a single 1 at (i,j) and check where it lands, for all cells.
	for i := 0; i < r; i++ {
		for j := 0; j < s; j++ {
			m2 := NewMatrix(r, s)
			m2.Set(i, j, 1)
			ReshapeCMtoRM(m2)
			x := r*j + i
			wi, wj := x/s, x%s
			if m2.Get(wi, wj) != 1 || m2.Count() != 1 {
				t.Fatalf("element (%d,%d): expected at (%d,%d)\n%s", i, j, wi, wj, m2)
			}
			_ = m
		}
	}
}

func TestAlgorithm2Validation(t *testing.T) {
	if err := Algorithm2(NewMatrix(4, 8)); err == nil {
		t.Error("accepted s > r")
	}
	if err := Algorithm2(NewMatrix(9, 4)); err == nil {
		t.Error("accepted s not dividing r")
	}
	if err := Algorithm2(NewMatrix(8, 4)); err != nil {
		t.Errorf("rejected valid 8×4: %v", err)
	}
}

// Theorem 4's substrate claim: after Algorithm 2 the row-major reading
// is (s−1)²-nearsorted. Exhaustive for an 4×2 mesh (256 patterns),
// randomized for larger shapes.
func TestAlgorithm2NearsortBoundExhaustive(t *testing.T) {
	r, s := 4, 2
	bound := Algorithm2Bound(s) // 1
	for pat := 0; pat < 1<<uint(r*s); pat++ {
		v := bitvec.New(r * s)
		for b := 0; b < r*s; b++ {
			v.Set(b, pat&(1<<uint(b)) != 0)
		}
		m, err := FromRowMajor(v, r, s)
		if err != nil {
			t.Fatal(err)
		}
		k := m.Count()
		if err := Algorithm2(m); err != nil {
			t.Fatal(err)
		}
		if m.Count() != k {
			t.Fatal("Algorithm2 changed count")
		}
		if eps := m.RowMajor().Nearsortedness(); eps > bound {
			t.Fatalf("pattern %02x: nearsortedness %d > (s−1)² = %d\n%s", pat, eps, bound, m)
		}
	}
}

func TestAlgorithm2NearsortBoundRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(62))
	shapes := [][2]int{{4, 2}, {8, 2}, {8, 4}, {16, 4}, {16, 8}, {32, 8}, {64, 8}, {64, 16}}
	for _, sh := range shapes {
		r, s := sh[0], sh[1]
		bound := Algorithm2Bound(s)
		worst := 0
		for trial := 0; trial < 300; trial++ {
			m := randomMatrix(rng, r, s)
			if err := Algorithm2(m); err != nil {
				t.Fatal(err)
			}
			if eps := m.RowMajor().Nearsortedness(); eps > worst {
				worst = eps
			}
		}
		if worst > bound {
			t.Errorf("%d×%d: worst nearsortedness %d > bound %d", r, s, worst, bound)
		}
	}
}

// Adversarial patterns: block and stripe layouts that stress the
// reshape step.
func TestAlgorithm2AdversarialPatterns(t *testing.T) {
	r, s := 16, 4
	bound := Algorithm2Bound(s)
	builders := map[string]func(i, j int) byte{
		"checker": func(i, j int) byte { return byte((i + j) % 2) },
		"left-half": func(i, j int) byte {
			b := byte(0)
			if j < s/2 {
				b = 1
			}
			return b
		},
		"bottom-half": func(i, j int) byte {
			b := byte(0)
			if i >= r/2 {
				b = 1
			}
			return b
		},
		"diagonal": func(i, j int) byte {
			b := byte(0)
			if i%s == j {
				b = 1
			}
			return b
		},
		"all-ones":  func(i, j int) byte { return 1 },
		"all-zeros": func(i, j int) byte { return 0 },
	}
	for name, f := range builders {
		m := NewMatrix(r, s)
		for i := 0; i < r; i++ {
			for j := 0; j < s; j++ {
				m.Set(i, j, f(i, j))
			}
		}
		if err := Algorithm2(m); err != nil {
			t.Fatal(err)
		}
		if eps := m.RowMajor().Nearsortedness(); eps > bound {
			t.Errorf("%s: nearsortedness %d > bound %d", name, eps, bound)
		}
	}
}
