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
// Stream is also the durable session's source. Through rand.New it
// draws RunSession's own math/rand stream, and its position (Pos) is
// its whole state past the seed: a journaled session stores the
// position, and recovery seeks a fresh stream back to it (Seek), so
// the re-executed rounds draw bit for bit the variates of the
// incarnation that died — the keystone of exactly-once replay.
package seedrand

// Mix64 is the splitmix64 finalizer: a bijective avalanche mixing all
// 64 input bits into all 64 output bits. It decorrelates per-(round,
// coordinate) stream seeds derived by XOR-ing structured integers.
func Mix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ x>>30) * 0xBF58476D1CE4E5B9
	x = (x ^ x>>27) * 0x94D049BB133111EB
	return x ^ x>>31
}
