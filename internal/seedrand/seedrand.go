// Package seedrand is the repo's one seeded-randomness substrate.
//
// Every fault plane needs the same two primitives: a splitmix64
// finalizer (Mix64) to decorrelate per-coordinate stream seeds derived
// from a plane seed, and a cheap deterministic generator per
// coordinate. Stream is that generator: the wire-corruption, timing,
// surge and partition planes draw the noise of every (round,
// coordinate) from one. A Stream is a stack value that returns exactly
// the values of rand.New(rand.NewSource(seed)) without building
// math/rand's 607-word state, so a plane's noise stays the pure
// function of (seed, round, coordinate) it always was and costs no
// allocation. Its Flip draws a whole frame's bit-flip noise in one
// call: the bits, count and stream position of the per-bit
// Float64() < p loop, with most bits decided from the top 12 bits of
// their draw, which cost one of the three LCG products per state word.
//
// The package also provides what the crash-restart durability plane
// specifically requires and math/rand cannot give: a generator whose
// complete state is one exported 64-bit cursor. A journaled session
// stores the cursor in its write-ahead log; recovery restores it and
// the re-executed rounds draw bit-for-bit the same variates as the
// incarnation that died — the keystone of exactly-once replay.
package seedrand

import "math/rand"

// Mix64 is the splitmix64 finalizer: a bijective avalanche mixing all
// 64 input bits into all 64 output bits. It decorrelates per-(round,
// coordinate) stream seeds derived by XOR-ing structured integers.
func Mix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ x>>30) * 0xBF58476D1CE4E5B9
	x = (x ^ x>>27) * 0x94D049BB133111EB
	return x ^ x>>31
}

// Source is a splitmix64 sequence generator implementing
// rand.Source64. Unlike math/rand's hidden additive-lagged-Fibonacci
// state, its complete state is a single 64-bit cursor that can be
// journaled and restored, which is what makes sessions built on it
// recoverable after a crash.
type Source struct {
	state uint64
}

// NewSource returns a source positioned at the given seed.
func NewSource(seed int64) *Source {
	// One mix decorrelates adjacent seeds (0, 1, 2, …) into unrelated
	// stream starting points.
	return &Source{state: Mix64(uint64(seed))}
}

// Uint64 advances the splitmix64 sequence.
func (s *Source) Uint64() uint64 {
	s.state += 0x9E3779B97F4A7C15
	z := s.state
	z = (z ^ z>>30) * 0xBF58476D1CE4E5B9
	z = (z ^ z>>27) * 0x94D049BB133111EB
	return z ^ z>>31
}

// Int63 implements rand.Source.
func (s *Source) Int63() int64 { return int64(s.Uint64() >> 1) }

// Seed implements rand.Source by repositioning the cursor.
func (s *Source) Seed(seed int64) { s.state = Mix64(uint64(seed)) }

// Cursor returns the source's complete serializable state.
func (s *Source) Cursor() uint64 { return s.state }

// Restore repositions the source at a previously captured cursor.
func (s *Source) Restore(cursor uint64) { s.state = cursor }

// RNG couples a *rand.Rand to its Source so callers get the full
// math/rand API (Float64, Intn, Perm, …) plus cursor capture. The
// derived variates are pure functions of the cursor as long as Read is
// never called (Read buffers internally; none of this repo's sessions
// use it).
type RNG struct {
	*rand.Rand
	src *Source
}

// New returns a cursor-capturable RNG seeded deterministically.
func New(seed int64) *RNG {
	src := NewSource(seed)
	return &RNG{Rand: rand.New(src), src: src}
}

// Cursor returns the generator's complete serializable state.
func (r *RNG) Cursor() uint64 { return r.src.Cursor() }

// Restore repositions the generator at a captured cursor.
func (r *RNG) Restore(cursor uint64) { r.src.Restore(cursor) }
