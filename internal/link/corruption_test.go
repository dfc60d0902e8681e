package link

import (
	"bytes"
	"testing"
)

func mustAdd(t *testing.T, p *CorruptionPlane, f WireFault) {
	t.Helper()
	if err := p.Add(f); err != nil {
		t.Fatal(err)
	}
}

func TestWireFaultValidate(t *testing.T) {
	for _, tc := range []struct {
		name string
		f    WireFault
	}{
		{"stage below AllStages", WireFault{Stage: -2, Wire: 0, Mode: WireBitFlip, BER: 0.1}},
		{"bad wire", WireFault{Stage: 0, Wire: -2, Mode: WireBitFlip, BER: 0.1}},
		{"negative BER", WireFault{Stage: 0, Wire: 0, Mode: WireBitFlip, BER: -0.1}},
		{"BER above one", WireFault{Stage: 0, Wire: 0, Mode: WireBitFlip, BER: 1.5}},
		{"zero burst", WireFault{Stage: 0, Wire: 0, Mode: WireBurst}},
		{"stuck at two", WireFault{Stage: 0, Wire: 0, Mode: WireStuck, StuckValue: 2}},
		{"negative from", WireFault{Stage: 0, Wire: 0, Mode: WireErasure, From: -1}},
		{"empty window", WireFault{Stage: 0, Wire: 0, Mode: WireErasure, From: 5, Until: 5}},
		{"unknown mode", WireFault{Stage: 0, Wire: 0, Mode: WireFaultMode(9)}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if err := NewCorruptionPlane(1).Add(tc.f); err == nil {
				t.Errorf("accepted %v", tc.f)
			}
		})
	}
}

// Corruption is a pure function of (seed, round, stage, wire): two
// planes with the same seed corrupt identically regardless of call
// order; a different seed diverges.
func TestCorruptDeterministic(t *testing.T) {
	build := func(seed int64) *CorruptionPlane {
		p := NewCorruptionPlane(seed)
		mustAdd(t, p, WireFault{Stage: 1, Wire: AllWires, Mode: WireBitFlip, BER: 0.3})
		return p
	}
	bits := func() []byte { return bytes.Repeat([]byte{1, 0, 1, 1}, 16) }

	a, b := build(42), build(42)
	// Warm b with unrelated calls first: order must not matter.
	b.Corrupt(9, LinkAddr{Stage: 1, Wire: 7}, bits())
	for round := 0; round < 8; round++ {
		ba, bb := bits(), bits()
		fa, _ := a.Corrupt(round, LinkAddr{Stage: 1, Wire: 3}, ba)
		fb, _ := b.Corrupt(round, LinkAddr{Stage: 1, Wire: 3}, bb)
		if fa != fb || !bytes.Equal(ba, bb) {
			t.Fatalf("round %d: same seed diverged (%d vs %d flips)", round, fa, fb)
		}
	}
	diverged := false
	c := build(43)
	for round := 0; round < 8 && !diverged; round++ {
		ba, bc := bits(), bits()
		a.Corrupt(round, LinkAddr{Stage: 1, Wire: 3}, ba)
		c.Corrupt(round, LinkAddr{Stage: 1, Wire: 3}, bc)
		diverged = !bytes.Equal(ba, bc)
	}
	if !diverged {
		t.Error("different seeds never diverged")
	}
}

func TestCorruptModes(t *testing.T) {
	at := LinkAddr{Stage: 2, Wire: 5}
	fresh := func() []byte { return []byte{1, 1, 1, 1, 0, 0, 0, 0} }

	t.Run("stuck", func(t *testing.T) {
		p := NewCorruptionPlane(1)
		mustAdd(t, p, WireFault{Stage: 2, Wire: 5, Mode: WireStuck, StuckValue: 0})
		bits := fresh()
		flipped, erased := p.Corrupt(0, at, bits)
		if erased || flipped != 4 || !bytes.Equal(bits, make([]byte, 8)) {
			t.Fatalf("stuck-at-0: flipped %d erased %v bits %v", flipped, erased, bits)
		}
	})
	t.Run("erasure", func(t *testing.T) {
		p := NewCorruptionPlane(1)
		mustAdd(t, p, WireFault{Stage: 2, Wire: 5, Mode: WireErasure})
		bits := fresh()
		flipped, erased := p.Corrupt(0, at, bits)
		if !erased || flipped != len(bits) {
			t.Fatalf("erasure: flipped %d erased %v", flipped, erased)
		}
	})
	t.Run("burst", func(t *testing.T) {
		p := NewCorruptionPlane(1)
		mustAdd(t, p, WireFault{Stage: 2, Wire: 5, Mode: WireBurst, BurstLen: 3, BurstEvery: 4})
		bits := fresh()
		if flipped, _ := p.Corrupt(0, at, bits); flipped != 3 {
			t.Fatalf("burst round 0: flipped %d, want 3", flipped)
		}
		// Flips are consecutive.
		runs, inRun := 0, false
		for i := range bits {
			changed := bits[i] != fresh()[i]
			if changed && !inRun {
				runs++
			}
			inRun = changed
		}
		if runs != 1 {
			t.Fatalf("burst not consecutive: %v", bits)
		}
		if flipped, _ := p.Corrupt(1, at, fresh()); flipped != 0 {
			t.Fatal("burst fired off its cadence")
		}
		if flipped, _ := p.Corrupt(4, at, fresh()); flipped != 3 {
			t.Fatal("burst missed its cadence")
		}
	})
	t.Run("window", func(t *testing.T) {
		p := NewCorruptionPlane(1)
		mustAdd(t, p, WireFault{Stage: 2, Wire: 5, Mode: WireStuck, StuckValue: 0, From: 3, Until: 5})
		for round, want := range map[int]bool{2: false, 3: true, 4: true, 5: false} {
			flipped, _ := p.Corrupt(round, at, fresh())
			if (flipped > 0) != want {
				t.Errorf("round %d: active=%v, want %v", round, flipped > 0, want)
			}
		}
	})
	t.Run("wrong link untouched", func(t *testing.T) {
		p := NewCorruptionPlane(1)
		mustAdd(t, p, WireFault{Stage: 2, Wire: 5, Mode: WireStuck, StuckValue: 0})
		if flipped, _ := p.Corrupt(0, LinkAddr{Stage: 2, Wire: 6}, fresh()); flipped != 0 {
			t.Error("fault leaked to another wire")
		}
		if flipped, _ := p.Corrupt(0, LinkAddr{Stage: 1, Wire: 5}, fresh()); flipped != 0 {
			t.Error("fault leaked to another stage")
		}
	})
	t.Run("all wires", func(t *testing.T) {
		p := NewCorruptionPlane(1)
		mustAdd(t, p, WireFault{Stage: 2, Wire: AllWires, Mode: WireStuck, StuckValue: 0})
		for _, wire := range []int{0, 5, 17} {
			if flipped, _ := p.Corrupt(0, LinkAddr{Stage: 2, Wire: wire}, fresh()); flipped != 4 {
				t.Errorf("AllWires missed wire %d", wire)
			}
		}
	})
	t.Run("nil plane", func(t *testing.T) {
		var p *CorruptionPlane
		if flipped, erased := p.Corrupt(0, at, fresh()); flipped != 0 || erased {
			t.Error("nil plane corrupted")
		}
	})
}

func TestBitFlipBERRate(t *testing.T) {
	p := NewCorruptionPlane(11)
	mustAdd(t, p, WireFault{Stage: 0, Wire: AllWires, Mode: WireBitFlip, BER: 0.1})
	total, flipped := 0, 0
	for round := 0; round < 200; round++ {
		bits := make([]byte, 64)
		f, _ := p.Corrupt(round, LinkAddr{Stage: 0, Wire: round % 8}, bits)
		total += 64
		flipped += f
	}
	rate := float64(flipped) / float64(total)
	if rate < 0.07 || rate > 0.13 {
		t.Errorf("BER 0.1 realized as %.3f", rate)
	}
}

// TestBitFlipContinuesStream: a WireBitFlip fault draws on from
// wherever the faults before it on the link left the (round, link)
// stream. Two bit-flip faults on one link, and a bit flip after a
// burst, must flip what the per-bit Float64 loop over that stream
// flips. Frames of 56 to 300 bits start and end the second fault's
// draws on both sides of the stream's 273-draw window.
func TestBitFlipContinuesStream(t *testing.T) {
	at := LinkAddr{Stage: 1, Wire: 3}
	for _, tc := range []struct {
		name   string
		faults []WireFault
	}{
		{"two bit flips", []WireFault{
			{Stage: 1, Wire: 3, Mode: WireBitFlip, BER: 0.05},
			{Stage: AllStages, Wire: AllWires, Mode: WireBitFlip, BER: 1e-3},
		}},
		{"bit flip after burst", []WireFault{
			{Stage: 1, Wire: AllWires, Mode: WireBurst, BurstLen: 4, BurstEvery: 2},
			{Stage: AllStages, Wire: AllWires, Mode: WireBitFlip, BER: 0.02},
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p := NewCorruptionPlane(77)
			for _, f := range tc.faults {
				mustAdd(t, p, f)
			}
			for round := 0; round < 64; round++ {
				for _, n := range []int{56, 136, 200, 272, 273, 274, 300} {
					got := make([]byte, n)
					for i := range got {
						got[i] = byte(i*7/3) & 1
					}
					want := append([]byte(nil), got...)
					gotFlipped, _ := p.Corrupt(round, at, got)
					rng, wantFlipped := p.rng(round, at), 0
					for _, f := range tc.faults {
						switch f.Mode {
						case WireBitFlip:
							for i := range want {
								if rng.Float64() < f.BER {
									want[i] ^= 1
									wantFlipped++
								}
							}
						case WireBurst:
							if round%f.BurstEvery == 0 {
								start := rng.Intn(n - f.BurstLen + 1)
								for i := start; i < start+f.BurstLen; i++ {
									want[i] ^= 1
									wantFlipped++
								}
							}
						}
					}
					if gotFlipped != wantFlipped || !bytes.Equal(got, want) {
						t.Fatalf("round %d, %d bits: Corrupt flipped %d bits %v, per-bit loop %d bits %v", round, n, gotFlipped, got, wantFlipped, want)
					}
				}
			}
		})
	}
}

// TestCorruptAllocs requires Corrupt on a live link to allocate
// nothing: the per-(round, link) noise stream lives on the stack.
func TestCorruptAllocs(t *testing.T) {
	p := NewCorruptionPlane(11)
	mustAdd(t, p, WireFault{Stage: AllStages, Wire: AllWires, Mode: WireBitFlip, BER: 1e-3})
	bits := make([]byte, 56)
	round := 0
	if a := testing.AllocsPerRun(100, func() {
		round++
		p.Corrupt(round, LinkAddr{Stage: 1, Wire: 3}, bits)
	}); a != 0 {
		t.Fatalf("Corrupt on a 56-bit frame allocated %v times per call", a)
	}
}

func TestPath(t *testing.T) {
	got := Path(3, 7, 2)
	want := []LinkAddr{{0, 7}, {1, 2}, {2, 2}, {3, 2}}
	if len(got) != len(want) {
		t.Fatalf("path %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("path %v, want %v", got, want)
		}
	}
	if single := Path(0, 4, 1); len(single) != 2 || single[0] != (LinkAddr{0, 4}) || single[1] != (LinkAddr{1, 1}) {
		t.Fatalf("single-chip path %v", single)
	}
}

// TestCrossFollowsPath: Cross corrupts a frame exactly as Corrupt does
// link by link along Path, stopping at an erasure, and allocates
// nothing; Live tells the rounds with a fault in its window.
func TestCrossFollowsPath(t *testing.T) {
	p := NewCorruptionPlane(5)
	mustAdd(t, p, WireFault{Stage: AllStages, Wire: AllWires, Mode: WireBitFlip, BER: 0.05, From: 2, Until: 40})
	mustAdd(t, p, WireFault{Stage: 2, Wire: 3, Mode: WireErasure, From: 10, Until: 20})
	mustAdd(t, p, WireFault{Stage: 0, Wire: AllWires, Mode: WireBurst, BurstLen: 3, From: 30, Until: 50})
	for round := 0; round < 60; round++ {
		if live := round >= 2 && round < 50; p.Live(round) != live {
			t.Errorf("round %d: Live = %v, want %v", round, !live, live)
		}
		for _, stages := range []int{0, 1, 3} {
			for input := 0; input < 6; input++ {
				output := (input + round) % 5
				want := bytes.Repeat([]byte{1, 0, 0, 1}, 8)
				wantErased := false
				for _, at := range Path(stages, input, output) {
					if _, wantErased = p.Corrupt(round, at, want); wantErased {
						break
					}
				}
				got := bytes.Repeat([]byte{1, 0, 0, 1}, 8)
				if erased := p.Cross(round, stages, input, output, got); erased != wantErased || !bytes.Equal(got, want) {
					t.Fatalf("round %d stages %d %d→%d: Cross erased %v bits %v, Path walk erased %v bits %v",
						round, stages, input, output, erased, got, wantErased, want)
				}
			}
		}
	}
	var none *CorruptionPlane
	if none.Live(0) || none.Cross(0, 2, 1, 1, []byte{1}) {
		t.Error("a nil plane is live or erases")
	}
	bits := make([]byte, 56)
	if a := testing.AllocsPerRun(100, func() { p.Cross(5, 3, 2, 4, bits) }); a != 0 {
		t.Errorf("Cross allocated %v times per call", a)
	}
}
