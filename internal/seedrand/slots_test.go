package seedrand

import (
	"math/rand"
	"testing"
)

func TestSlotPartitionsSpan(t *testing.T) {
	// The slots must tile [start, start+span) exactly: contiguous,
	// non-overlapping, in order.
	for _, tc := range []struct{ start, span, count int }{
		{2, 98, 4}, {2, 10, 3}, {0, 7, 7}, {5, 100, 1}, {2, 33, 5},
	} {
		prevHi := tc.start - 1
		for i := 0; i < tc.count; i++ {
			lo, hi := Slot(tc.start, tc.span, i, tc.count)
			if lo != prevHi+1 {
				t.Errorf("Slot(%d,%d,%d,%d): lo = %d, want contiguous %d", tc.start, tc.span, i, tc.count, lo, prevHi+1)
			}
			if hi < lo {
				t.Errorf("Slot(%d,%d,%d,%d): inverted [%d,%d]", tc.start, tc.span, i, tc.count, lo, hi)
			}
			prevHi = hi
		}
		if prevHi != tc.start+tc.span-1 {
			t.Errorf("Slot(start=%d,span=%d,count=%d): last hi = %d, want %d", tc.start, tc.span, tc.count, prevHi, tc.start+tc.span-1)
		}
	}
}

func TestSlotDegenerateSpan(t *testing.T) {
	// More slots than rounds: each collapses to one round, never
	// inverts, and SlotRound still terminates with a legal draw.
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 10; i++ {
		lo, hi := Slot(2, 3, i, 10)
		if hi < lo {
			t.Fatalf("slot %d inverted: [%d,%d]", i, lo, hi)
		}
		r := SlotRound(rng, 2, 3, i, 10)
		if r < lo || r > hi {
			t.Fatalf("slot %d: SlotRound %d outside [%d,%d]", i, r, lo, hi)
		}
	}
}

func TestSlotRoundMatchesLegacyArithmetic(t *testing.T) {
	// SlotRound must reproduce the inlined generator loop it replaced
	// — same bounds, exactly one Intn draw — so refactored schedules
	// stay bit-identical.
	const start, span, count = 2, 198, 6
	sa, sb := NewStream(1987), NewStream(1987)
	a, b := rand.New(&sa), rand.New(&sb)
	for i := 0; i < count; i++ {
		lo := start + i*span/count
		hi := start + (i+1)*span/count - 1
		if hi < lo {
			hi = lo
		}
		legacy := lo + a.Intn(hi-lo+1)
		if got := SlotRound(b, start, span, i, count); got != legacy {
			t.Fatalf("slot %d: SlotRound = %d, legacy = %d", i, got, legacy)
		}
	}
	if sa.Pos() != sb.Pos() {
		t.Fatalf("position divergence: legacy %d, SlotRound %d (draw counts differ)", sa.Pos(), sb.Pos())
	}
}

func TestSlotRoundDeterministic(t *testing.T) {
	x := SlotRound(rand.New(rand.NewSource(3)), 2, 100, 2, 5)
	y := SlotRound(rand.New(rand.NewSource(3)), 2, 100, 2, 5)
	if x != y {
		t.Fatalf("SlotRound not deterministic: %d vs %d", x, y)
	}
}
