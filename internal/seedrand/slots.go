package seedrand

import "math/rand"

// The slot scheduler: every fault-schedule generator in the repo
// spreads `count` events across a round span by carving the span into
// equal slots and jittering each event inside its slot — that way
// exactly `count` events always fit, no two land on a coordinate the
// generator did not intend, and the schedule is a pure function of the
// seed. journal.GenerateCrashSchedule and the chaos drain/partition/
// crash/byzantine schedules all grew private copies of the same
// arithmetic; it is deduplicated here.

// Slot returns the inclusive [lo, hi] round bounds of slot i of
// `count` equal slots covering [start, start+span). A degenerate span
// (more slots than rounds) collapses the slot to a single round
// rather than inverting.
func Slot(start, span, i, count int) (lo, hi int) {
	lo = start + i*span/count
	hi = start + (i+1)*span/count - 1
	if hi < lo {
		hi = lo
	}
	return lo, hi
}

// SlotRound draws the jittered round for slot i: uniform over the
// slot's [lo, hi], consuming exactly one Intn variate — existing
// generators refactored onto it keep their schedules bit-identical.
func SlotRound(rng *rand.Rand, start, span, i, count int) int {
	lo, hi := Slot(start, span, i, count)
	return lo + rng.Intn(hi-lo+1)
}
