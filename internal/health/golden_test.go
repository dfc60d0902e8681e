package health

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"testing"

	"concentrators/internal/bitvec"
	"concentrators/internal/core"
)

// scanDigests is the health golden corpus: for every switch and chip
// fault set, the SHA-256 of the JSON record of the BIST Scan report and
// of DegradedSwitch.Route, built from that report, over the corpus
// inputs. A refactor of the route pipeline or the repair layer must
// replay every entry unchanged; re-record (-update) only for an
// intended change of behaviour.
const scanDigests = "testdata/scan_digests.json"

var update = flag.Bool("update", false, "rewrite the golden digests from the current code")

// goldenSwitches builds the corpus switches: Revsort at n = 16 and 256,
// Columnsort at 16×4, 9×3 (not a power of two) and 64×8.
func goldenSwitches(t *testing.T) map[string]core.FaultInjectable {
	t.Helper()
	out := map[string]core.FaultInjectable{}
	for _, n := range []int{16, 256} {
		sw, err := core.NewRevsortSwitch(n, n*3/4)
		if err != nil {
			t.Fatal(err)
		}
		out[fmt.Sprintf("revsort/%d", n)] = sw
	}
	for _, sh := range []struct{ r, s int }{{16, 4}, {9, 3}, {64, 8}} {
		n := sh.r * sh.s
		sw, err := core.NewColumnsortSwitch(sh.r, sh.s, n*3/4)
		if err != nil {
			t.Fatal(err)
		}
		out[fmt.Sprintf("columnsort/%dx%d", sh.r, sh.s)] = sw
	}
	return out
}

// goldenFaultSets names the corpus fault sets of sw: none; every mode on
// every stage, on the first and the last chip, with ports at 0 and at
// the last port; and four combinations — a stuck output upstream of a
// dead chip on the phantom's line, swapped pairs on ports below the
// column's height, a pass-through barrel shifter (Revsort) or a
// pass-through first stage (Columnsort) ahead of a stuck output, and a
// quarantined final-stage wire beside a bypassed final-stage chip, so
// one route runs both the repair taps and the quarantine re-drive.
func goldenFaultSets(sw core.FaultInjectable) map[string][]core.ChipFault {
	stages := sw.StageChips()
	sets := map[string][]core.ChipFault{"healthy": nil}
	for si, st := range stages {
		last := st.Ports - 1
		for _, chip := range []int{0, st.Chips - 1} {
			for _, f := range []core.ChipFault{
				{Mode: core.ChipDead},
				{Mode: core.ChipPassThrough},
				{Mode: core.ChipStuckOutput, A: 0},
				{Mode: core.ChipStuckOutput, A: last},
				{Mode: core.ChipSwappedPair, A: 0, B: last},
			} {
				f.Stage, f.Chip = si, chip
				sets[f.String()] = []core.ChipFault{f}
			}
		}
	}
	first, final := stages[0], stages[len(stages)-1]
	stuck := core.ChipFault{Stage: 0, Chip: first.Chips - 1, Mode: core.ChipStuckOutput, A: 1}
	line := 1
	if stages[1].ChipsAreColumns {
		line = (first.Ports*stuck.Chip + stuck.A) % stages[1].Chips
	}
	sets["combo/stuck-then-dead"] = []core.ChipFault{stuck, {Stage: 1, Chip: line, Mode: core.ChipDead}}
	sets["combo/swap-below-height"] = []core.ChipFault{
		{Stage: 0, Chip: 0, Mode: core.ChipSwappedPair, A: first.Ports - 2, B: first.Ports - 1},
		{Stage: len(stages) - 1, Chip: final.Chips - 1, Mode: core.ChipSwappedPair, A: 1, B: final.Ports - 1},
	}
	if len(stages) == 4 {
		sets["combo/passthrough-shifter"] = []core.ChipFault{
			{Stage: core.RevsortStage2Shifter, Chip: 1, Mode: core.ChipPassThrough},
			{Stage: core.RevsortStage3Columns, Chip: 1, Mode: core.ChipStuckOutput, A: 0},
		}
	} else {
		var pass []core.ChipFault
		for c := 0; c < first.Chips; c++ {
			pass = append(pass, core.ChipFault{Stage: 0, Chip: c, Mode: core.ChipPassThrough})
		}
		sets["combo/passthrough-stage"] = append(pass, core.ChipFault{Stage: 1, Chip: 0, Mode: core.ChipStuckOutput, A: 0})
	}
	sets["combo/quarantine-and-bypass"] = []core.ChipFault{
		{Stage: len(stages) - 1, Chip: 0, Mode: core.ChipStuckOutput, A: 1},
		{Stage: len(stages) - 1, Chip: final.Chips - 1, Mode: core.ChipDead},
	}
	return sets
}

// goldenVectors builds the corpus inputs of sw: the diagnostic patterns,
// the staircases and four seeded random loads.
func goldenVectors(sw core.FaultInjectable) []*bitvec.Vector {
	n := sw.Inputs()
	st := sw.StageChips()[0]
	vs := append(DiagnosticPatterns(n, core.Threshold(sw)), staircasePatterns(st.Ports, st.Chips, n)...)
	rng := rand.New(rand.NewSource(1987))
	for _, load := range []float64{0.15, 0.45, 0.75, 0.95} {
		v := bitvec.New(n)
		for i := 0; i < n; i++ {
			v.Set(i, rng.Float64() < load)
		}
		vs = append(vs, v)
	}
	return vs
}

// TestGoldenScans replays the health corpus: every switch × fault set
// Scan report and degraded route must hash to its recorded digest, and
// so must one route through a degradation that a later stuck output
// outlives. Run with -update to re-record.
func TestGoldenScans(t *testing.T) {
	got := map[string]string{}
	switches := goldenSwitches(t)
	for name, sw := range switches {
		for set, faults := range goldenFaultSets(sw) {
			tag := name + "/" + set
			d, digest := scanDigest(t, tag, sw, faults, nil)
			got[tag] = digest
			if set == "combo/quarantine-and-bypass" && (len(d.quarantined) != 1 || len(d.repairChips) != 1) {
				t.Errorf("%s: quarantined %v, repair taps on %v; want one of each", tag, d.quarantined, d.repairChips)
			}
		}
	}
	// A stuck output that strikes after the degradation was derived
	// stays live through it: its phantom is attributed to an idle input,
	// which the repair pass renumbers with the routed messages.
	sw := switches["revsort/256"]
	later := core.ChipFault{Stage: len(sw.StageChips()) - 1, Chip: 1, Mode: core.ChipStuckOutput, A: 0}
	tag := "revsort/256/combo/quarantine-and-bypass/later-stuck-output"
	_, got[tag] = scanDigest(t, tag, sw, goldenFaultSets(sw)["combo/quarantine-and-bypass"], &later)
	replayDigests(t, scanDigests, got)
}

// scanDigest installs faults on sw, scans it, derives the degraded
// switch from the report, adds the later fault (when non-nil) to the
// plane, and hashes the report with the degraded routes of the corpus
// inputs.
func scanDigest(t *testing.T, tag string, sw core.FaultInjectable, faults []core.ChipFault, later *core.ChipFault) (*DegradedSwitch, string) {
	t.Helper()
	p := core.NewFaultPlane()
	for _, f := range faults {
		p.Add(f)
	}
	if err := sw.SetFaultPlane(p); err != nil {
		t.Fatalf("%s: %v", tag, err)
	}
	rep, err := Scan(sw)
	if err != nil {
		t.Fatalf("%s: Scan: %v", tag, err)
	}
	d, err := NewDegradedSwitch(sw, rep.Faults)
	if err != nil {
		t.Fatalf("%s: %v", tag, err)
	}
	if later != nil {
		p.Add(*later)
	}
	var routes [][]int
	for _, v := range goldenVectors(sw) {
		out, err := d.Route(v)
		if err != nil {
			t.Fatalf("%s: degraded Route: %v", tag, err)
		}
		routes = append(routes, out)
	}
	js, err := json.Marshal(struct {
		Scan     *ScanReport
		Degraded [][]int
	}{rep, routes})
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(js)
	return d, hex.EncodeToString(sum[:])
}
