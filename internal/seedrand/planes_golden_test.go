package seedrand_test

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"hash"
	"math"
	"math/rand"
	"os"
	"testing"

	"concentrators/internal/byzantine"
	"concentrators/internal/link"
	"concentrators/internal/overload"
	"concentrators/internal/partition"
	"concentrators/internal/timing"
)

// planeDigests is the plane-stream golden corpus: for each fixture of
// the five seeded fault planes (wire corruption, timing, surge,
// partition and byzantine behavior), the SHA-256 of every draw the
// plane makes over a grid of
// seeds, rounds and coordinates. A change to how a plane derives its
// per-coordinate noise must replay every entry unchanged; re-record
// (-update) only for an intended change of behaviour.
const planeDigests = "testdata/plane_digests.json"

var update = flag.Bool("update", false, "rewrite the golden digests from the current code")

// The corpus grid: three plane seeds (one negative), rounds 0–31, and
// two wires on each of the link stages 0–2.
var (
	goldenSeeds  = []int64{1, 1987, -0x5EED}
	goldenRounds = 32
	goldenStages = 3
	goldenWires  = []int{0, 5}
)

// corruptionPlane builds the corruption fixture of one wire mode: an
// ambient bit-flip fault at ber on every link, composed with the mode's
// own fault. The burst draws its offset after the bit flips have drawn
// one value per bit, so frames of 272, 273 and 274 bits put that draw
// on both sides of the 273-draw boundary.
func corruptionPlane(t *testing.T, seed int64, mode link.WireFaultMode, ber float64) *link.CorruptionPlane {
	t.Helper()
	flip := link.WireFault{Stage: link.AllStages, Wire: link.AllWires, Mode: link.WireBitFlip, BER: ber}
	var faults []link.WireFault
	switch mode {
	case link.WireBitFlip:
		faults = []link.WireFault{flip}
	case link.WireBurst:
		faults = []link.WireFault{flip, {Stage: link.AllStages, Wire: link.AllWires, Mode: link.WireBurst, BurstLen: 5, BurstEvery: 2}}
	case link.WireStuck:
		faults = []link.WireFault{{Stage: 1, Wire: link.AllWires, Mode: link.WireStuck, StuckValue: 1}, flip}
	case link.WireErasure:
		faults = []link.WireFault{flip, {Stage: 2, Wire: 5, Mode: link.WireErasure, From: 4, Until: 20}}
	}
	p := link.NewCorruptionPlane(seed)
	for _, f := range faults {
		if err := p.Add(f); err != nil {
			t.Fatal(err)
		}
	}
	return p
}

// corruptionDigest hashes every Corrupt outcome of the mode's fixture
// on frames of the given length over the corpus grid.
func corruptionDigest(t *testing.T, mode link.WireFaultMode, ber float64, bits int) string {
	frame := make([]byte, bits)
	in := rand.New(rand.NewSource(int64(bits)))
	for i := range frame {
		frame[i] = byte(in.Intn(2))
	}
	h := sha256.New()
	buf := make([]byte, bits)
	for _, seed := range goldenSeeds {
		p := corruptionPlane(t, seed, mode, ber)
		forGrid(func(round int, at link.LinkAddr) {
			copy(buf, frame)
			flipped, erased := p.Corrupt(round, at, buf)
			fmt.Fprintf(h, "%d %d %v %d %t ", seed, round, at, flipped, erased)
			h.Write(buf)
		})
	}
	return sum(h)
}

// timingPlane builds the timing fixture of one shape. The jitter
// fixture stacks two jitter faults on stage 1, so the second draws
// from the same link stream after the first.
func timingPlane(t *testing.T, seed int64, mode timing.Mode) *timing.Plane {
	t.Helper()
	var faults []timing.Fault
	switch mode {
	case timing.Constant:
		faults = []timing.Fault{{Stage: 1, Wire: link.AllWires, Mode: timing.Constant, Delay: 3}}
	case timing.Jitter:
		faults = []timing.Fault{
			{Stage: link.AllStages, Wire: link.AllWires, Mode: timing.Jitter, Prob: 0.3, MaxDelay: 50},
			{Stage: 1, Wire: link.AllWires, Mode: timing.Jitter, Prob: 1, MaxDelay: 7},
		}
	case timing.Pause:
		faults = []timing.Fault{{Stage: link.AllStages, Wire: 5, Mode: timing.Pause, Delay: 4, PauseLen: 2, PauseEvery: 5, From: 1}}
	case timing.Ramp:
		faults = []timing.Fault{{Stage: link.AllStages, Wire: link.AllWires, Mode: timing.Ramp, Delay: 10, From: 2, Until: 30}}
	}
	p := timing.NewPlane(seed)
	for _, f := range faults {
		if err := p.Add(f); err != nil {
			t.Fatal(err)
		}
	}
	return p
}

// timingDigest hashes Delay over the corpus grid and RoundDelay of a
// two-stage switch in every corpus round.
func timingDigest(t *testing.T, mode timing.Mode) string {
	h := sha256.New()
	for _, seed := range goldenSeeds {
		p := timingPlane(t, seed, mode)
		forGrid(func(round int, at link.LinkAddr) {
			fmt.Fprintf(h, "%d %d %v %d\n", seed, round, at, p.Delay(round, at))
		})
		for round := range goldenRounds {
			fmt.Fprintf(h, "%d %d round %d\n", seed, round, p.RoundDelay(round, 2))
		}
	}
	return sum(h)
}

// surgeDigest hashes the Multiplier of a plane of two overlapping
// flash faults over 256 rounds.
func surgeDigest(t *testing.T) string {
	h := sha256.New()
	for _, seed := range goldenSeeds {
		p := overload.NewPlane(seed)
		for _, f := range []overload.Fault{
			{Mode: overload.Flash, Factor: 4, Prob: 0.3},
			{Mode: overload.Flash, Factor: 1.5, Prob: 0.7, From: 10, Until: 200},
		} {
			if err := p.Add(f); err != nil {
				t.Fatal(err)
			}
		}
		for round := range 256 {
			fmt.Fprintf(h, "%d %d %x\n", seed, round, math.Float64bits(p.Multiplier(round)))
		}
	}
	return sum(h)
}

// partitionDigest hashes Visible for two flapping faults over 256
// rounds, four replicas and both directions.
func partitionDigest(t *testing.T) string {
	h := sha256.New()
	for _, seed := range goldenSeeds {
		p := partition.NewPlane(seed)
		for _, f := range []partition.Fault{
			{Mode: partition.Flapping, Replica: 1, Prob: 0.4, From: 0, Until: 256},
			{Mode: partition.Flapping, Replica: 2, Prob: 0.9, From: 5, Until: 100},
		} {
			if err := p.Add(f); err != nil {
				t.Fatal(err)
			}
		}
		for round := range 256 {
			for replica := range 4 {
				for _, dir := range []partition.Direction{partition.ToReplica, partition.FromReplica} {
					fmt.Fprintf(h, "%d %d %d %v %t\n", seed, round, replica, dir, p.Visible(round, replica, dir))
				}
			}
		}
	}
	return sum(h)
}

// byzantineDigest hashes every behavior draw over the corpus seeds and
// rounds, replicas 0–2 and draw indices 0–3: the per-mode intensities
// of a plane whose faults overlap (so intensities sum), Pick over two
// candidate counts, ForgeSum and Inflation.
func byzantineDigest(t *testing.T) string {
	h := sha256.New()
	for _, seed := range goldenSeeds {
		p := byzantine.NewPlane(seed)
		for _, f := range []byzantine.Fault{
			{Mode: byzantine.Misroute, Replica: 0, Count: 2, From: 0, Until: 20},
			{Mode: byzantine.Misroute, Replica: 0, From: 10, Until: 32},
			{Mode: byzantine.Replay, Replica: 1, Count: 3, From: 5, Until: 25},
			{Mode: byzantine.FabricatedAck, Replica: 2, From: 0, Until: 16},
			{Mode: byzantine.FabricatedAck, Replica: 2, Count: 4, From: 12, Until: 30},
			{Mode: byzantine.Equivocation, Replica: 1, From: 8, Until: 24},
		} {
			if err := p.Add(f); err != nil {
				t.Fatal(err)
			}
		}
		for round := range goldenRounds {
			for replica := range 3 {
				fmt.Fprintf(h, "%d %d %d %d %d %d %t %d\n", seed, round, replica,
					p.Misroutes(round, replica), p.Replays(round, replica), p.Fabrications(round, replica),
					p.Equivocating(round, replica), p.Inflation(round, replica))
				for draw := range 4 {
					fmt.Fprintf(h, "%d %d %d\n", p.Pick(round, replica, draw, 7), p.Pick(round, replica, draw, 1000), p.ForgeSum(round, replica, draw))
				}
			}
		}
	}
	return sum(h)
}

// forGrid visits every corpus round and link.
func forGrid(visit func(round int, at link.LinkAddr)) {
	for round := range goldenRounds {
		for stage := range goldenStages {
			for _, wire := range goldenWires {
				visit(round, link.LinkAddr{Stage: stage, Wire: wire})
			}
		}
	}
}

func sum(h hash.Hash) string { return hex.EncodeToString(h.Sum(nil)) }

// TestGoldenPlaneStreams replays the plane-stream corpus: Corrupt for
// every wire mode at BER 1e-3 and 0.3 on frames on both sides of the
// 273-draw boundary, Delay and RoundDelay for every timing shape,
// Multiplier with flash faults, Visible with flapping faults and every
// byzantine behavior draw. Run with -update to re-record.
func TestGoldenPlaneStreams(t *testing.T) {
	got := map[string]string{}
	for _, mode := range []link.WireFaultMode{link.WireBitFlip, link.WireBurst, link.WireStuck, link.WireErasure} {
		for _, ber := range []float64{1e-3, 0.3} {
			for _, bits := range []int{1, 56, 272, 273, 274, 700} {
				got[fmt.Sprintf("corrupt/%s/ber=%g/%d", mode, ber, bits)] = corruptionDigest(t, mode, ber, bits)
			}
		}
	}
	for _, mode := range []timing.Mode{timing.Constant, timing.Jitter, timing.Pause, timing.Ramp} {
		got[fmt.Sprintf("delay/%s", mode)] = timingDigest(t, mode)
	}
	got["multiplier/flash"] = surgeDigest(t)
	got["visible/flapping"] = partitionDigest(t)
	got["behavior/byzantine"] = byzantineDigest(t)
	checkDigests(t, planeDigests, got)
}

// checkDigests compares digests against the JSON map recorded at path,
// or rewrites the file under -update.
func checkDigests(t *testing.T, path string, got map[string]string) {
	t.Helper()
	if *update {
		js, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(js, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var want map[string]string
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	if len(want) != len(got) {
		t.Errorf("%s records %d digests, the suite computes %d", path, len(want), len(got))
	}
	for name, d := range got {
		if w, ok := want[name]; !ok {
			t.Errorf("%s: no recorded digest", name)
		} else if w != d {
			t.Errorf("%s: digest %s, recorded %s", name, d, w)
		}
	}
}
