package core_test

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"testing"

	"concentrators/internal/bitvec"
	"concentrators/internal/core"
	"concentrators/internal/health"
)

// routeDigests is the routing golden corpus: for every switch and chip
// fault set, the SHA-256 of the JSON record of RouteWithPlane, RouteInto
// with the plane installed, TraceWithPlane and GoldenStage over the
// corpus inputs, plus each switch's healthy Trace. A refactor of the
// route pipeline must replay every entry unchanged; re-record (-update)
// only for an intended change of behaviour.
const routeDigests = "testdata/route_digests.json"

var update = flag.Bool("update", false, "rewrite the golden digests from the current code")

// goldenSwitch is what the corpus drives: fault injection, the in-place
// route and the figure trace.
type goldenSwitch interface {
	core.FaultInjectable
	RouteInto(dst []int, valid *bitvec.Vector) error
	Trace(valid *bitvec.Vector) ([]core.Snapshot, []int, error)
}

// goldenSwitches builds the corpus switches: Revsort at n = 16 and 256,
// Columnsort at 16×4, 9×3 (not a power of two) and 64×8.
func goldenSwitches(t *testing.T) map[string]goldenSwitch {
	t.Helper()
	out := map[string]goldenSwitch{}
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
// the last port; and three combinations — a stuck output upstream of a
// dead chip on the phantom's line, swapped pairs on ports below the
// column's height, and a pass-through barrel shifter (Revsort) or a
// pass-through first stage (Columnsort) ahead of a stuck output.
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
	// The phantom pinned at port 1 of stage 0's last chip sits on the
	// next stage's chip `line` (after the Columnsort CM→RM wiring).
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
	return sets
}

// goldenVectors builds the corpus inputs of sw: the BIST diagnostic
// patterns, the two staircases of the stage-1 matrix, and four seeded
// random loads.
func goldenVectors(sw core.FaultInjectable) []*bitvec.Vector {
	n := sw.Inputs()
	vs := health.DiagnosticPatterns(n, core.Threshold(sw))
	st := sw.StageChips()[0]
	rows, cols := st.Ports, st.Chips
	tri, strict := bitvec.New(n), bitvec.New(n)
	for i := 0; i < rows; i++ {
		for j := 0; j < cols; j++ {
			tri.Set(i*cols+j, i <= j)
			strict.Set(i*cols+j, i < j)
		}
	}
	vs = append(vs, tri, strict)
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

func planeOf(faults []core.ChipFault) *core.FaultPlane {
	p := core.NewFaultPlane()
	for _, f := range faults {
		p.Add(f)
	}
	return p
}

// tracedRoute is one TraceWithPlane or Trace result.
type tracedRoute struct {
	Snaps []core.Snapshot
	Out   []int
}

// routeRecord is everything the corpus pins for one fault set.
type routeRecord struct {
	RouteWithPlane [][]int
	RouteInto      [][]int
	TraceWithPlane []tracedRoute
	GoldenStage    [][]core.Snapshot
}

func digest(t *testing.T, v any) string {
	t.Helper()
	js, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(js)
	return hex.EncodeToString(sum[:])
}

// TestGoldenRoutes replays the routing corpus: every switch × fault set
// record, and every switch's healthy Trace, must hash to its recorded
// digest. Run with -update to re-record.
func TestGoldenRoutes(t *testing.T) {
	got := map[string]string{}
	for name, sw := range goldenSwitches(t) {
		vs := goldenVectors(sw)
		var healthy []tracedRoute
		for _, v := range vs {
			snaps, out, err := sw.Trace(v)
			if err != nil {
				t.Fatalf("%s: Trace: %v", name, err)
			}
			healthy = append(healthy, tracedRoute{snaps, out})
		}
		got[name+"/Trace"] = digest(t, healthy)
		for set, faults := range goldenFaultSets(sw) {
			tag := name + "/" + set
			p := planeOf(faults)
			var rec routeRecord
			if err := sw.SetFaultPlane(p); err != nil {
				t.Fatalf("%s: %v", tag, err)
			}
			for _, v := range vs {
				dst := make([]int, sw.Inputs())
				if err := sw.RouteInto(dst, v); err != nil {
					t.Fatalf("%s: RouteInto: %v", tag, err)
				}
				rec.RouteInto = append(rec.RouteInto, dst)
			}
			if err := sw.SetFaultPlane(nil); err != nil {
				t.Fatal(err)
			}
			for _, v := range vs {
				out, err := sw.RouteWithPlane(v, p)
				if err != nil {
					t.Fatalf("%s: RouteWithPlane: %v", tag, err)
				}
				rec.RouteWithPlane = append(rec.RouteWithPlane, out)
				snaps, out, err := sw.TraceWithPlane(v, p)
				if err != nil {
					t.Fatalf("%s: TraceWithPlane: %v", tag, err)
				}
				rec.TraceWithPlane = append(rec.TraceWithPlane, tracedRoute{snaps, out})
				var golden []core.Snapshot
				for si := range sw.StageChips() {
					g, err := sw.GoldenStage(si, snaps[si])
					if err != nil {
						t.Fatalf("%s: GoldenStage(%d): %v", tag, si, err)
					}
					golden = append(golden, g)
				}
				rec.GoldenStage = append(rec.GoldenStage, golden)
			}
			got[tag] = digest(t, rec)
		}
	}
	checkDigests(t, routeDigests, got)
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
