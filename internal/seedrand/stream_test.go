package seedrand

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"slices"
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

// seekPositions are Seek's edge cases: the start, both sides of the
// 273-draw window's end, and both sides of the 607-word register's
// first wrap.
var seekPositions = []int{0, 272, 273, 274, 606, 607, 608}

// compareStream seeks a Stream to pos and draws count values from it
// and from math/rand with the same seed after pos draws (compareDraws).
func compareStream(t *testing.T, seed int64, pos, count int, selectors []byte) {
	t.Helper()
	s := NewStream(seed)
	s.Seek(uint64(pos))
	r := rand.New(rand.NewSource(seed))
	for range pos {
		r.Int63()
	}
	compareDraws(t, &s, r, fmt.Sprintf("seed %d pos %d", seed, pos), count, selectors)
}

// compareDraws draws count values from s and from r, as the selector
// bytes choose: Float64 and Intn over intnBounds from the Stream
// itself, and Uint64, Int63, Perm and Intn through rand.New over it. It
// reports the first disagreement.
func compareDraws(t *testing.T, s *Stream, r *rand.Rand, label string, count int, selectors []byte) {
	t.Helper()
	sr := rand.New(s)
	for i := 0; i < count; i++ {
		sel := i
		if len(selectors) > 0 {
			sel = int(selectors[i%len(selectors)])
		}
		n := intnBounds[sel/6%len(intnBounds)]
		switch sel % 6 {
		case 0:
			if got, want := s.Float64(), r.Float64(); got != want {
				t.Fatalf("%s draw %d: Float64 %v, math/rand %v", label, i, got, want)
			}
		case 1:
			if got, want := s.Intn(n), r.Intn(n); got != want {
				t.Fatalf("%s draw %d: Intn(%d) %d, math/rand %d", label, i, n, got, want)
			}
		case 2:
			if got, want := sr.Uint64(), r.Uint64(); got != want {
				t.Fatalf("%s draw %d: Uint64 %#x, math/rand %#x", label, i, got, want)
			}
		case 3:
			if got, want := sr.Int63(), r.Int63(); got != want {
				t.Fatalf("%s draw %d: Int63 %#x, math/rand %#x", label, i, got, want)
			}
		case 4:
			k := sel / 6 % 24
			if got, want := sr.Perm(k), r.Perm(k); !slices.Equal(got, want) {
				t.Fatalf("%s draw %d: Perm(%d) %v, math/rand %v", label, i, k, got, want)
			}
		case 5:
			if got, want := sr.Intn(n), r.Intn(n); got != want {
				t.Fatalf("%s draw %d: rand.New(stream).Intn(%d) %d, math/rand %d", label, i, n, got, want)
			}
		}
	}
}

// TestStreamMatchesMathRand checks interleaved draws of every kind
// against rand.New(rand.NewSource(seed)) past the 273-draw window and
// past the 607-word register, for the edge seeds and random ones, and
// from every seek position, and one many register wraps out, for the
// edge seeds.
func TestStreamMatchesMathRand(t *testing.T) {
	seeds := append([]int64(nil), streamSeeds...)
	gen := rand.New(rand.NewSource(2026))
	for range 32 {
		seeds = append(seeds, gen.Int63()-gen.Int63())
	}
	for _, seed := range seeds {
		compareStream(t, seed, 0, 1500, nil)
	}
	for _, seed := range streamSeeds {
		for _, pos := range append(seekPositions, 40000) {
			compareStream(t, seed, pos, 700, nil)
		}
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
// seed, seek position and draw count (each up to past the 607-word
// register) and interleaving of draw kinds.
func FuzzStreamMatchesMathRand(f *testing.F) {
	for i, seed := range streamSeeds {
		f.Add(seed, uint16(seekPositions[i%len(seekPositions)]), uint16(700), []byte{0, 1, 2, 3, 4, 5})
	}
	f.Add(int64(12345), uint16(0), uint16(273), []byte{7})
	f.Fuzz(func(t *testing.T, seed int64, pos, count uint16, selectors []byte) {
		compareStream(t, seed, int(pos%1300), int(count%1300), selectors)
	})
}

// trafficReference is the loop Traffic must reproduce, on math/rand.
func trafficReference(r *rand.Rand, sent []uint64, dst []byte, n int, p float64, width int) ([]byte, int) {
	senders := 0
	for i := range n {
		if r.Float64() < p {
			sent[i/64] |= 1 << (i % 64)
			senders++
			for range width {
				dst = append(dst, byte(r.Int63()>>32)&1)
			}
		}
	}
	return dst, senders
}

// checkTraffic runs s.Traffic and trafficReference on r and fails on
// any difference in the marked inputs, the bits or the count.
func checkTraffic(t *testing.T, s *Stream, r *rand.Rand, n int, p float64, width int, label string) {
	t.Helper()
	got, want := make([]uint64, (n+63)/64), make([]uint64, (n+63)/64)
	gotBits, gotSenders := s.Traffic(got, nil, n, p, width)
	wantBits, wantSenders := trafficReference(r, want, nil, n, p, width)
	if gotSenders != wantSenders || !slices.Equal(got, want) || !bytes.Equal(gotBits, wantBits) {
		t.Fatalf("%s: Traffic(n %d, p %v, width %d) sent %d inputs and %d bits, math/rand %d and %d", label, n, p, width, gotSenders, len(gotBits), wantSenders, len(wantBits))
	}
}

// TestTrafficMatchesMathRand checks two Traffic calls against their
// math/rand loop from every seek position and from inside the 273-draw
// window, where a call builds the register partway through its batch,
// and then checks that the Stream's other draws and Flip continue
// math/rand's stream from where Traffic left it. A negative n draws
// nothing.
func TestTrafficMatchesMathRand(t *testing.T) {
	calls := []struct {
		n     int
		p     float64
		width int
	}{{0, 0.5, 8}, {1, 1, 3}, {3, 0.5, 0}, {40, 0.7, 8}, {300, 0.4, 16}, {65, math.NaN(), 4}, {70, 2, 1}, {90, -1, 5}, {-3, 0.5, 4}}
	for _, seed := range streamSeeds {
		for _, pos := range append([]int{5, 100}, seekPositions...) {
			for k, a := range calls {
				b := calls[(k*3+1)%len(calls)]
				s := NewStream(seed)
				s.Seek(uint64(pos))
				r := rand.New(rand.NewSource(seed))
				for range pos {
					r.Int63()
				}
				label := fmt.Sprintf("seed %d pos %d calls %d, %d", seed, pos, k, (k*3+1)%len(calls))
				checkTraffic(t, &s, r, a.n, a.p, a.width, label)
				checkTraffic(t, &s, r, b.n, b.p, b.width, label)
				compareDraws(t, &s, r, label, 40, nil)
				bits := make([]byte, 300)
				checkFlip(t, &s, r.Float64, bits, 0.01, func() string { return label })
			}
		}
	}
}

// TestTrafficRedrawsOne forces an arrival draw that rounds to 1.0,
// which random seeds practically never produce, and checks Traffic
// against the per-call loop on a copy of the register, whose Float64
// math/rand's own tests pin.
func TestTrafficRedrawsOne(t *testing.T) {
	for _, p := range []float64{0.5, 1, 2} {
		s := NewStream(1)
		s.Seek(1000)
		// Draw 1000 adds tap word 213 into feed word 547: make the sum
		// 2⁶³−1, whose float64 is 2⁶³.
		s.vec[547] = rngMask - s.vec[213]
		ref := s
		ref.vec = new([rngLen]uint64)
		*ref.vec = *s.vec
		got, want := make([]uint64, 1), make([]uint64, 1)
		gotBits, gotSenders := s.Traffic(got, nil, 4, p, 8)
		wantBits, wantSenders := trafficReference(rand.New(&ref), want, nil, 4, p, 8)
		if gotSenders != wantSenders || got[0] != want[0] || !bytes.Equal(gotBits, wantBits) || s.Pos() != ref.Pos() {
			t.Fatalf("p %v: Traffic sent %d inputs (%b), %d bits, at %d; per-call loop %d (%b), %d bits, at %d", p, gotSenders, got[0], len(gotBits), s.Pos(), wantSenders, want[0], len(wantBits), ref.Pos())
		}
		if want := uint64(1000 + 4 + 1 + 8*gotSenders); s.Pos() != want {
			t.Fatalf("p %v: Traffic ended at %d, want %d with one redraw", p, s.Pos(), want)
		}
	}
}

// flipProbabilities are Flip's edge cases: never, the least positive
// float64, far below and at the wire BER of the workloads, both sides
// of prefix 5 (5/4096 skips prefix 5, 5.5/4096 must not), a common
// rate, the last prefix below 1, the largest float64 below 1, and 1.
var flipProbabilities = []float64{
	0, 5e-324, 1e-9, 1e-3, 5.0 / 4096, 5.5 / 4096, 1e-2, 0.5, 4095.0 / 4096, 1 - 0x1p-53, 1,
}

// flipReference is the per-bit loop Flip must reproduce.
func flipReference(next func() float64, bits []byte, p float64) (flipped int) {
	for i := range bits {
		if next() < p {
			bits[i] ^= 1
			flipped++
		}
	}
	return flipped
}

// checkFlip runs got.Flip on bits and the per-bit loop over next on a
// copy, and reports any difference in the bits, the count or the next
// draw, which pins where Flip left its stream. what names the call in
// a failure.
func checkFlip(t *testing.T, got *Stream, next func() float64, bits []byte, p float64, what func() string) {
	t.Helper()
	want := append([]byte(nil), bits...)
	wantFlipped := flipReference(next, want, p)
	if gotFlipped := got.Flip(bits, p); gotFlipped != wantFlipped || !bytes.Equal(bits, want) {
		i := 0
		for i < len(bits) && bits[i] == want[i] {
			i++
		}
		t.Fatalf("%s: Flip flipped %d bits, per-bit loop %d; first difference at bit %d of %d", what(), gotFlipped, wantFlipped, i, len(bits))
	}
	if g, w := got.Float64(), next(); g != w {
		t.Fatalf("%s: next draw after Flip %v, after the per-bit loop %v", what(), g, w)
	}
}

// TestStreamFlipMatchesFloat64 checks Flip against the per-bit Float64
// loop. Every p in flipProbabilities runs, for the edge seeds, every
// frame length from 0 to 700 bits, which starts and ends on both sides
// of the 273-draw window, each followed by a second call that continues
// the stream wherever the first one left it. Calls from one seed repeat
// its first window draws, so 4,096 random seeds then flip 200 bits and
// 100 more, across the window's end, at the workloads' BER of 1e-3:
// 1.1M distinct window draws through the prefix rule.
func TestStreamFlipMatchesFloat64(t *testing.T) {
	const maxBits, maxThen = 700, 311
	bits := make([]byte, maxBits)
	gen := rand.New(rand.NewSource(4096))
	var draws [maxBits + maxThen + 2]float64
	// check flips n bits from a fresh stream of seed, then m more, each
	// against the per-bit loop replaying draws.
	check := func(seed int64, p float64, n, m int) {
		replay := func(from int) func() float64 {
			return func() float64 { from++; return draws[from-1] }
		}
		got := NewStream(seed)
		gen.Read(bits[:n])
		checkFlip(t, &got, replay(0), bits[:n], p, func() string {
			return fmt.Sprintf("seed %d p %v, %d bits", seed, p, n)
		})
		gen.Read(bits[:m])
		checkFlip(t, &got, replay(n+1), bits[:m], p, func() string {
			return fmt.Sprintf("seed %d p %v, %d bits then %d", seed, p, n, m)
		})
	}
	// record fills draws[:count] with the per-bit loop's Float64s from
	// seed.
	record := func(seed int64, count int) {
		ref := NewStream(seed)
		for i := range draws[:count] {
			draws[i] = ref.Float64()
		}
	}
	for _, p := range flipProbabilities {
		for _, seed := range streamSeeds {
			record(seed, len(draws))
			for n := 0; n <= maxBits; n++ {
				check(seed, p, n, n*37%maxThen)
			}
		}
	}
	for range 4096 {
		seed := gen.Int63() - gen.Int63()
		record(seed, 302)
		check(seed, 1e-3, 200, 100)
	}
}

// TestPrefixSkipsExact checks the prefix rule exhaustively: for every
// sum of two words' top bits and both carries out of their low bits,
// prefixSkips must hold exactly when Float64 returns a value ≥ p,
// without drawing again, at both the least and the greatest 63-bit
// value of that prefix. Float64 is monotone, so every value between
// them follows. Random draws almost never reach the 0xFFE/0xFFF edge
// where a draw can round up to 1.0; this check covers it.
func TestPrefixSkipsExact(t *testing.T) {
	ps := append([]float64{-1, math.NaN(), 2, 4.096 / 4096, 0x1p-12, 4094.5 / 4096}, flipProbabilities...)
	for _, p := range ps {
		key := flipKey(p)
		for sum := uint64(0); sum <= 2*0x1FFF; sum++ {
			cannotFlip := true
			for c := uint64(0); c <= 1; c++ {
				lo := ((sum + c) & 0xFFF) << 51
				for _, v := range []uint64{lo, lo | (1<<51 - 1)} {
					f := float64(int64(v)) / (1 << 63)
					if f == 1 || f < p {
						cannotFlip = false
					}
				}
			}
			if got := prefixSkips(sum, key); got != cannotFlip {
				t.Fatalf("p %v (key %d) sum %#x: prefixSkips %v, exact verdict %v", p, key, sum, got, cannotFlip)
			}
		}
	}
}

// FuzzStreamFlipMatchesMathRand compares consecutive Flip calls with
// the per-bit loop over rand.New(rand.NewSource(seed)) for any seed, p
// and call lengths (three bits per length byte, up to past the
// 607-word register).
func FuzzStreamFlipMatchesMathRand(f *testing.F) {
	for i, seed := range streamSeeds {
		f.Add(seed, flipProbabilities[i%len(flipProbabilities)], []byte{18, 91, 1, 200})
	}
	f.Add(int64(12345), 1e-3, []byte{91, 0, 1})
	f.Fuzz(func(t *testing.T, seed int64, p float64, lengths []byte) {
		got, r := NewStream(seed), rand.New(rand.NewSource(seed))
		total := 0
		for k, b := range lengths {
			n := 3 * int(b)
			if total += n; total > 1300 {
				break
			}
			bits := make([]byte, n)
			for i := range bits {
				bits[i] = byte(i * k)
			}
			checkFlip(t, &got, r.Float64, bits, p, func() string {
				return fmt.Sprintf("seed %d p %v call %d (%d bits)", seed, p, k, n)
			})
		}
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

// benchFlip flips count bits at the workloads' wire BER per fresh
// stream, as one frame's crossing of one link does.
func benchFlip(b *testing.B, count int) {
	b.ReportAllocs()
	bits := make([]byte, count)
	sink := 0
	for i := 0; i < b.N; i++ {
		s := NewStream(int64(i))
		sink += s.Flip(bits, 1e-3)
	}
	if sink < 0 {
		b.Fatal(sink)
	}
}

func BenchmarkFlip56(b *testing.B)  { benchFlip(b, 56) }
func BenchmarkFlip700(b *testing.B) { benchFlip(b, 700) }

// BenchmarkStreamSeek seeks a fresh stream to draw 40,000: what a
// recovering durable session pays to reposition its stream that far.
func BenchmarkStreamSeek(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s := NewStream(int64(i))
		s.Seek(40000)
	}
}
