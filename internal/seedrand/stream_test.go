package seedrand

import (
	"math"
	"math/rand"
	"testing"
)

// streamSeeds are the seed reduction's edge cases: zero (mapped to
// 89482311), ±1, ±(2³¹−1) and its multiple (all reduce to zero), the
// replacement seed itself, and the int64 extremes.
var streamSeeds = []int64{
	0, 1, -1, int32max, -int32max, 2 * int32max, 89482311,
	math.MinInt64, math.MaxInt64,
}

// intnBounds mixes powers of two (the mask path) with bounds just above
// a power of two and near 2³¹ and 2⁶³, where Int31n's and Int63n's
// rejection loops redraw about half the time.
var intnBounds = []int{1, 2, 3, 7, 64, 100, 1 << 20, 1<<30 + 1, 1<<31 - 1, 1 << 31, 1<<62 + 1, math.MaxInt64}

// compareStream draws count values from a Stream and from math/rand
// with the same seed, interleaving Float64 and Intn over intnBounds as
// the selector bytes choose, and reports the first disagreement.
func compareStream(t *testing.T, seed int64, count int, selectors []byte) {
	t.Helper()
	s := NewStream(seed)
	r := rand.New(rand.NewSource(seed))
	for i := 0; i < count; i++ {
		sel := i
		if len(selectors) > 0 {
			sel = int(selectors[i%len(selectors)])
		}
		if sel%3 == 0 {
			if got, want := s.Float64(), r.Float64(); got != want {
				t.Fatalf("seed %d draw %d: Float64 %v, math/rand %v", seed, i, got, want)
			}
			continue
		}
		n := intnBounds[sel/3%len(intnBounds)]
		if got, want := s.Intn(n), r.Intn(n); got != want {
			t.Fatalf("seed %d draw %d: Intn(%d) %d, math/rand %d", seed, i, n, got, want)
		}
	}
}

// TestStreamMatchesMathRand checks interleaved Float64 and Intn draws
// against rand.New(rand.NewSource(seed)) past the 273-draw window and
// past the 607-word register, for the edge seeds and random ones.
func TestStreamMatchesMathRand(t *testing.T) {
	seeds := append([]int64(nil), streamSeeds...)
	gen := rand.New(rand.NewSource(2026))
	for range 32 {
		seeds = append(seeds, gen.Int63()-gen.Int63())
	}
	for _, seed := range seeds {
		compareStream(t, seed, 1500, nil)
	}
}

// TestStreamIntnPanics pins rand.Rand.Intn's contract for n ≤ 0.
func TestStreamIntnPanics(t *testing.T) {
	for _, n := range []int{0, -1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Intn(%d) did not panic", n)
				}
			}()
			s := NewStream(1)
			s.Intn(n)
		}()
	}
}

// FuzzStreamMatchesMathRand compares a Stream with math/rand for any
// seed, draw count (up to past the 607-word register) and interleaving
// of Float64 and Intn.
func FuzzStreamMatchesMathRand(f *testing.F) {
	for _, seed := range streamSeeds {
		f.Add(seed, uint16(700), []byte{0, 1, 2, 3, 4, 5})
	}
	f.Add(int64(12345), uint16(273), []byte{7})
	f.Fuzz(func(t *testing.T, seed int64, count uint16, selectors []byte) {
		compareStream(t, seed, int(count%1300), selectors)
	})
}

// benchDraws draws count Float64 values per fresh stream: the per-call
// pattern of a fault plane.
func benchDraws(b *testing.B, count int, mathRand bool) {
	b.ReportAllocs()
	sink := 0.0
	for i := 0; i < b.N; i++ {
		if mathRand {
			r := rand.New(rand.NewSource(int64(i)))
			for range count {
				sink += r.Float64()
			}
			continue
		}
		s := NewStream(int64(i))
		for range count {
			sink += s.Float64()
		}
	}
	if sink < 0 {
		b.Fatal(sink)
	}
}

func BenchmarkStream56(b *testing.B)    { benchDraws(b, 56, false) }
func BenchmarkStream700(b *testing.B)   { benchDraws(b, 700, false) }
func BenchmarkMathRand56(b *testing.B)  { benchDraws(b, 56, true) }
func BenchmarkMathRand700(b *testing.B) { benchDraws(b, 700, true) }
