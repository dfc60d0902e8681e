package seedrand

import (
	"math"
	"slices"
)

// math/rand's additive lagged-Fibonacci generator: a 607-word register
// with its tap 273 words behind the feed, seeded by the Park–Miller
// LCG x ← 48271·x mod (2³¹−1).
const (
	rngLen   = 607
	rngTap   = 273
	rngMask  = 1<<63 - 1
	lcgMul   = 48271
	int32max = 1<<31 - 1
)

// jump holds the LCG's jump-ahead multipliers: jump[i][k] is
// 48271^(21+3i+k) mod (2³¹−1). Seeding discards the LCG's first 20
// outputs and then spends three on each state word, so state word i
// takes outputs 21+3i, 22+3i and 23+3i.
var jump = func() (t [rngLen][3]uint64) {
	a := uint64(1)
	for range 20 {
		a = a * lcgMul % int32max
	}
	for i := range t {
		for k := range t[i] {
			a = a * lcgMul % int32max
			t[i][k] = a
		}
	}
	return t
}()

// Stream is a seeded generator whose draws equal, value for value,
// those of rand.New(rand.NewSource(seed)), without building math/rand's
// 607-word state. It is a small value meant to live on its caller's
// stack: one per (round, coordinate) of a fault plane, drawn a few
// dozen times and dropped. It is also a rand.Source64, so rand.New(&s)
// gives math/rand's whole API over the same values: the durable session
// runner draws its traffic that way and journals the stream's Pos.
//
// The first 273 draws read the initial register only: draw j is
// word(333−j) + word(606−j), and each word is computed on demand from
// the seed and the jump table. On its 274th
// draw a stream builds the whole register once, replays the window's
// writes into it and runs math/rand's recurrence from there — about
// the cost of math/rand's own seeding, paid only by streams that long.
// A copy of a stream made after that point shares the register.
type Stream struct {
	x   uint64          // the reduced seed: the LCG's state before its first output
	n   int             // values drawn so far
	vec *[rngLen]uint64 // the live register, built on the 274th draw
}

// NewStream returns the stream of rand.NewSource(seed).
func NewStream(seed int64) Stream {
	// math/rand's seed reduction, copied exactly.
	seed %= int32max
	if seed < 0 {
		seed += int32max
	}
	if seed == 0 {
		seed = 89482311
	}
	return Stream{x: uint64(seed)}
}

// word returns state word i of math/rand's freshly seeded register.
func (s *Stream) word(i int) uint64 {
	m := &jump[i]
	return uint64(rngCooked[i]) ^ mulMod(s.x, m[0])<<40 ^ mulMod(s.x, m[1])<<20 ^ mulMod(s.x, m[2])
}

// mulMod returns a·b mod (2³¹−1) for a and b below 2³¹−1, as the
// seed and the jump table are. Since 2³¹ ≡ 1, a·b is congruent to its
// low 31 bits plus the rest shifted down, a sum below 2·(2³¹−1) because
// a·b < (2³¹−1)², so one subtraction reduces it. That is cheaper than
// the compiler's division by a constant, a 128-bit product.
func mulMod(a, b uint64) uint64 {
	t := a * b
	t = t&int32max + t>>31
	if t >= int32max {
		t -= int32max
	}
	return t
}

// Uint64 returns the next value of math/rand's source, all 64 bits of
// the register sum, as rand.Source64's Uint64 does.
func (s *Stream) Uint64() uint64 {
	j := s.n
	s.n++
	if j < rngTap {
		return s.word(rngLen-rngTap-1-j) + s.word(rngLen-1-j)
	}
	if s.vec == nil {
		s.build()
	}
	tap, feed := indices(j)
	x, _, _ := step(s.vec, tap, feed)
	return x
}

// build makes the register as it stands after the 273-draw window: the
// seeded words, with each window draw's tap word 606…334 added into its
// feed word 333…61.
func (s *Stream) build() {
	s.vec = new([rngLen]uint64)
	for i := range s.vec {
		s.vec[i] = s.word(i)
	}
	for k := range rngTap {
		s.vec[rngLen-rngTap-1-k] += s.vec[rngLen-1-k]
	}
}

// indices returns the register words draw j reads: it adds tap word
// 606 − j into feed word 333 − j, both mod 607.
func indices(j int) (tap, feed int) {
	tap = rngLen - 1 - int(uint(j)%rngLen)
	feed = tap - rngTap
	if feed < 0 {
		feed += rngLen
	}
	return tap, feed
}

// step is math/rand's Uint64 on the register: it adds the tap word
// into the feed word and returns the sum, with both indices moved down
// one, wrapping from 0 to 606.
func step(vec *[rngLen]uint64, tap, feed int) (uint64, int, int) {
	x := vec[feed] + vec[tap]
	vec[feed] = x
	if tap--; tap < 0 {
		tap = rngLen - 1
	}
	if feed--; feed < 0 {
		feed = rngLen - 1
	}
	return x, tap, feed
}

// Int63 returns the next non-negative 63-bit value, as rand.Source's
// Int63 does.
func (s *Stream) Int63() int64 { return int64(s.Uint64() & rngMask) }

// Seed implements rand.Source: it restarts the stream as
// NewStream(seed).
func (s *Stream) Seed(seed int64) { *s = NewStream(seed) }

// Pos returns how many values the stream has drawn. With the seed it is
// the stream's whole state: Seek(Pos()) on a fresh stream of the same
// seed continues it draw for draw.
func (s *Stream) Pos() uint64 { return uint64(s.n) }

// Seek positions the stream after its first pos draws, wherever it
// stood before, as though they had been drawn and discarded. Draws in
// the 273-draw window are skipped for free; past it, Seek builds the
// register and runs math/rand's recurrence to pos, one addition per
// skipped draw.
func (s *Stream) Seek(pos uint64) {
	*s = Stream{x: s.x, n: int(pos)}
	if s.n <= rngTap {
		return
	}
	s.build()
	// Draw j adds tap word 606 − j into feed word 333 − j, both mod 607:
	// at draw 273, words 333 and 60. Between wraps both indices fall by
	// one a draw, so each stretch runs as one loop over two slices, in
	// draw order: a tap word written 273 draws before is read updated.
	tap, feed := rngLen-1-rngTap, rngLen-1-2*rngTap
	for left := s.n - rngTap; left > 0; {
		k := min(left, tap+1, feed+1)
		t, f := s.vec[tap+1-k:tap+1], s.vec[feed+1-k:feed+1]
		for i := k - 1; i >= 0; i-- {
			f[i] += t[i]
		}
		left -= k
		if tap -= k; tap < 0 {
			tap += rngLen
		}
		if feed -= k; feed < 0 {
			feed += rngLen
		}
	}
}

// Float64 returns rand.Rand's Float64: a value in [0, 1), drawn again
// in the rare case the division rounds up to 1.
func (s *Stream) Float64() float64 {
	for {
		if f := float64(s.Int63()) / (1 << 63); f < 1 {
			return f
		}
	}
}

// Flip draws one Float64 per bit, in order, XORs 1 into each bits[i]
// whose draw is below p, and returns how many bits it flipped. Bits,
// count and the stream's position after it all equal those of
//
//	for i := range bits {
//		if s.Float64() < p {
//			bits[i] ^= 1
//		}
//	}
//
// Inside the 273-draw window it first reads only the top 12 bits of a
// draw, which take one LCG product per word instead of three (see
// prefixSkips), and takes the exact path only for the few draws that
// prefix cannot decide.
func (s *Stream) Flip(bits []byte, p float64) (flipped int) {
	key := flipKey(p)
	n, i := s.n, 0
	for ; i < len(bits) && n < rngTap; i++ {
		if prefixSkips(s.hi(rngLen-rngTap-1-n)+s.hi(rngLen-1-n), key) {
			n++
			continue
		}
		s.n = n
		if s.Float64() < p {
			bits[i] ^= 1
			flipped++
		}
		n = s.n
	}
	s.n = n
	for ; i < len(bits); i++ {
		if s.Float64() < p {
			bits[i] ^= 1
			flipped++
		}
	}
	return flipped
}

// Traffic draws §2's bit-serial traffic for n input wires: for each
// input in order, an arrival draw and, when the input sends, width
// payload bits. Its draws, and the stream's position after it, equal
// those of
//
//	for i := range n {
//		if s.Float64() < p {
//			sent[i/64] |= 1 << (i % 64)
//			for range width {
//				dst = append(dst, byte(s.Int63()>>32)&1)
//			}
//		}
//	}
//
// where bit 32 of an Int63 is rand.Rand's Intn(2), and a NaN or
// non-positive p draws n arrivals that never send; n ≤ 0 draws
// nothing. It marks each sending input in sent, which must be zero and
// hold n bits, appends the payload bits to dst, and returns dst and
// the number of sending inputs.
//
// Once the register is built, Traffic runs math/rand's recurrence over
// it in one loop: the tap and feed indices step down with the draws,
// so no draw makes a call, an interface dispatch or a modulo. Inputs
// that start inside the 273-draw window, before the register exists,
// take that loop's per-call form.
func (s *Stream) Traffic(sent []uint64, dst []byte, n int, p float64, width int) ([]byte, int) {
	senders, i := 0, 0
	for ; i < n && s.vec == nil; i++ {
		if !(s.Float64() < p) {
			continue
		}
		sent[uint(i)/64] |= 1 << (uint(i) % 64)
		senders++
		for range width {
			dst = append(dst, byte(s.Int63()>>32)&1)
		}
	}
	if i >= n {
		return dst, senders
	}
	vec := s.vec
	tap, feed := indices(s.n)
	var x uint64
	draws := 0
	for ; i < n; i++ {
		x, tap, feed = step(vec, tap, feed)
		draws++
		f := float64(int64(x&rngMask)) / (1 << 63)
		for f == 1 {
			x, tap, feed = step(vec, tap, feed)
			draws++
			f = float64(int64(x&rngMask)) / (1 << 63)
		}
		if !(f < p) {
			continue
		}
		sent[uint(i)/64] |= 1 << (uint(i) % 64)
		senders++
		dst = slices.Grow(dst, width)
		bits := dst[len(dst) : len(dst)+width]
		for b := range bits {
			x, tap, feed = step(vec, tap, feed)
			bits[b] = byte(x>>32) & 1
		}
		dst = dst[:len(dst)+width]
		draws += width
	}
	s.n += draws
	return dst, senders
}

// hi returns bits 51–63 of state word i. Of the word's three LCG
// products, shifted left by 40, 20 and 0, only the first reaches past
// bit 50, so they cost that one product.
func (s *Stream) hi(i int) uint64 {
	return (uint64(rngCooked[i]) ^ mulMod(s.x, jump[i][0])<<40) >> 51
}

// flipKey returns ⌈4096·p⌉ for p in (0, 1], 0 for p ≤ 0 or NaN and
// 4096 for p > 1: the least 12-bit prefix h with h/4096 ≥ p, where a
// prefix of 4096 matches no draw. 4096·p is exact in float64.
func flipKey(p float64) uint64 {
	switch {
	case p > 1:
		return 1 << 12
	case p > 0:
		return uint64(math.Ceil(p * (1 << 12)))
	}
	return 0
}

// prefixSkips reports whether a window draw whose two words' top bits
// (hi) sum to sum must be ≥ p, with key = flipKey(p), whatever the
// carry c ∈ {0, 1} out of the words' low 51 bits.
//
// The draw's bits 51–62 are h = (sum + c) mod 2¹². With
// key ≤ sum mod 2¹² ≤ 0xFFD, h = (sum mod 2¹²) + c does not wrap, and
// the draw is at least h·2⁵¹, whose float64 is exact, so Float64
// returns at least h/4096 ≥ key/4096 ≥ p. And h ≤ 0xFFE: only a draw
// of prefix 0xFFF can round up to 2⁶³, the 1.0 on which Float64 draws
// again.
func prefixSkips(sum, key uint64) bool {
	h := sum & 0xFFF
	return key <= h && h <= 0xFFD
}

// Intn returns rand.Rand's Intn, a value in [0, n): a mask for a
// power of two, otherwise rejection sampling on the top 31 bits of
// each draw (Int31n) for n < 2³¹ and on all 63 bits (Int63n) above. It
// panics if n ≤ 0.
func (s *Stream) Intn(n int) int {
	if n <= 0 {
		panic("seedrand: invalid argument to Intn")
	}
	bits, shift := uint(63), uint(0)
	if n <= math.MaxInt32 {
		bits, shift = 31, 32
	}
	if n&(n-1) == 0 {
		return int(s.Int63()>>shift) & (n - 1)
	}
	top := uint64(1) << bits
	limit := int64(top - 1 - top%uint64(n))
	v := s.Int63() >> shift
	for v > limit {
		v = s.Int63() >> shift
	}
	return int(v % int64(n))
}
