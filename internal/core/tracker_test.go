package core

// The per-cell path tracker: the route pipeline the word kernel
// replaced, kept only here as the reference implementation for the
// kernel's equivalence tests and fuzzing.

import (
	"fmt"

	"concentrators/internal/bitvec"
	"concentrators/internal/mesh"
)

// Cell contents of the path tracker. Non-negative values are message
// ids (the switch input index that injected the message).
const (
	cellEmpty   = CellEmpty   // an invalid input / a 0 valid bit: no electrical path
	cellPadOne  = CellPadOne  // a hardwired always-valid dummy input (Columnsort step 6 pads)
	cellPhantom = CellPhantom // a stuck-at-1 chip output: asserts valid but carries no message
)

// tracker follows every message's electrical path through the stages of
// a multichip switch. Each hyperconcentrator chip performs a STABLE
// concentration of the valid inputs on its ports (internal/hyper), so a
// stage maps the messages of one row or column, in port order, onto the
// first output ports; the wiring between stages permutes whole
// rows/columns. The tracker is the executable form of "the valid bit
// value of the wire in row i and column j equals the value of the
// matrix element in the same position at the corresponding step of the
// algorithm" (§4).
type tracker struct {
	rows, cols int
	cell       []int // row-major; values: message id, cellEmpty, or cellPadOne
}

func newTracker(rows, cols int) *tracker {
	t := &tracker{rows: rows, cols: cols, cell: make([]int, rows*cols)}
	for i := range t.cell {
		t.cell[i] = cellEmpty
	}
	return t
}

func (t *tracker) at(i, j int) int       { return t.cell[i*t.cols+j] }
func (t *tracker) set(i, j, v int)       { t.cell[i*t.cols+j] = v }
func (t *tracker) validAt(i, j int) bool { return t.at(i, j) != cellEmpty }

// loadRowMajor places message id x at the matrix cell with row-major
// index x for every valid input.
func (t *tracker) loadRowMajor(validBits func(i int) bool, n int) {
	if n != t.rows*t.cols {
		panic(fmt.Sprintf("core: tracker size %d×%d cannot hold %d inputs", t.rows, t.cols, n))
	}
	for x := 0; x < n; x++ {
		if validBits(x) {
			t.cell[x] = x
		}
	}
}

// sortColumnsStable concentrates each column: valid entries move to the
// top in port (row) order. This is what a stage of column-assigned
// hyperconcentrator chips does during setup.
func (t *tracker) sortColumnsStable() {
	for j := 0; j < t.cols; j++ {
		t.sortColumnStable(j)
	}
}

// sortColumnStable concentrates one column — the work of a single
// column-assigned hyperconcentrator chip.
func (t *tracker) sortColumnStable(j int) {
	var occ []int
	for i := 0; i < t.rows; i++ {
		if v := t.at(i, j); v != cellEmpty {
			occ = append(occ, v)
		}
	}
	for i := 0; i < t.rows; i++ {
		if i < len(occ) {
			t.set(i, j, occ[i])
		} else {
			t.set(i, j, cellEmpty)
		}
	}
}

// sortRowStable concentrates row i: valid entries move leftward (1s to
// the left) in port order when leftward is true, rightward otherwise.
// A rightward sort is the same chip with its port wiring mirrored,
// which costs no extra hardware (§6's Shearsort stacks).
func (t *tracker) sortRowStable(i int, leftward bool) {
	var occ []int
	for j := 0; j < t.cols; j++ {
		if v := t.at(i, j); v != cellEmpty {
			occ = append(occ, v)
		}
	}
	for j := 0; j < t.cols; j++ {
		t.set(i, j, cellEmpty)
	}
	if leftward {
		for x, v := range occ {
			t.set(i, x, v)
		}
	} else {
		for x, v := range occ {
			t.set(i, t.cols-len(occ)+x, v)
		}
	}
}

// sortRowsStable concentrates every row leftward.
func (t *tracker) sortRowsStable() {
	for i := 0; i < t.rows; i++ {
		t.sortRowStable(i, true)
	}
}

// sortRowsSnake concentrates rows in alternating directions (even rows
// leftward, odd rows rightward) — one Shearsort row phase.
func (t *tracker) sortRowsSnake() {
	for i := 0; i < t.rows; i++ {
		t.sortRowStable(i, i%2 == 0)
	}
}

// rotateRowRight cyclically rotates row i by k places to the right —
// the barrel-shifter wiring of the Revsort switch's stage-2 boards.
func (t *tracker) rotateRowRight(i, k int) {
	c := t.cols
	k = ((k % c) + c) % c
	if k == 0 {
		return
	}
	tmp := make([]int, c)
	for j := 0; j < c; j++ {
		tmp[(j+k)%c] = t.at(i, j)
	}
	for j := 0; j < c; j++ {
		t.set(i, j, tmp[j])
	}
}

// reshapeCMtoRM applies the Columnsort step-2 wiring: the element with
// column-major index x moves to row-major index x.
func (t *tracker) reshapeCMtoRM() {
	out := make([]int, len(t.cell))
	for j := 0; j < t.cols; j++ {
		for i := 0; i < t.rows; i++ {
			x := t.rows*j + i
			out[x] = t.at(i, j)
		}
	}
	t.cell = out
}

// reshapeRMtoCM is the inverse wiring (Columnsort step 4).
func (t *tracker) reshapeRMtoCM() {
	out := make([]int, len(t.cell))
	for x := 0; x < len(t.cell); x++ {
		i, j := x%t.rows, x/t.rows
		out[i*t.cols+j] = t.cell[x]
	}
	t.cell = out
}

// outRowMajor produces the switch routing: out[id] = row-major position
// of message id if < m, else −1. Pads are ignored. n is the number of
// switch inputs.
func (t *tracker) outRowMajor(n, m int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = -1
	}
	for x, v := range t.cell {
		if v >= 0 && x < m {
			out[v] = x
		}
	}
	return out
}

// outColMajor is outRowMajor for column-major output numbering (the
// full-Columnsort hyperconcentrator sorts into column-major order).
func (t *tracker) outColMajor(n, m int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = -1
	}
	for i := 0; i < t.rows; i++ {
		for j := 0; j < t.cols; j++ {
			v := t.at(i, j)
			x := t.rows*j + i
			if v >= 0 && x < m {
				out[v] = x
			}
		}
	}
	return out
}

func (t *tracker) snapshot(label string) Snapshot {
	return Snapshot{
		Label: label,
		Rows:  t.rows,
		Cols:  t.cols,
		Cell:  append([]int(nil), t.cell...),
	}
}

// trackerFromSnapshot rebuilds a tracker from a traced snapshot.
func trackerFromSnapshot(s Snapshot, rows, cols int) (*tracker, error) {
	if s.Rows != rows || s.Cols != cols || len(s.Cell) != rows*cols {
		return nil, fmt.Errorf("core: snapshot is %d×%d (%d cells), switch matrix is %d×%d",
			s.Rows, s.Cols, len(s.Cell), rows, cols)
	}
	return &tracker{rows: rows, cols: cols, cell: append([]int(nil), s.Cell...)}, nil
}

// ---------------------------------------------------------------------------
// Fault-aware tracker stage operations. Chips are independent: a fault
// on chip c touches only its own column (or row) of the wire matrix.

// sortColumnsWithFaults runs a stage of column-assigned chips with the
// stage's faults applied.
func (t *tracker) sortColumnsWithFaults(p *FaultPlane, stage int) {
	for j := 0; j < t.cols; j++ {
		f, ok := p.Get(stage, j)
		if !ok {
			t.sortColumnStable(j)
			continue
		}
		switch f.Mode {
		case ChipPassThrough:
			// Control logic dead, pass transistors straight through.
		case ChipDead:
			for i := 0; i < t.rows; i++ {
				t.set(i, j, cellEmpty)
			}
		case ChipStuckOutput:
			t.sortColumnStable(j)
			t.set(f.A, j, cellPhantom)
		case ChipSwappedPair:
			t.sortColumnStable(j)
			a, b := t.at(f.A, j), t.at(f.B, j)
			t.set(f.A, j, b)
			t.set(f.B, j, a)
		}
	}
}

// sortRowsWithFaults runs a stage of row-assigned chips with the
// stage's faults applied.
func (t *tracker) sortRowsWithFaults(p *FaultPlane, stage int) {
	for i := 0; i < t.rows; i++ {
		f, ok := p.Get(stage, i)
		if !ok {
			t.sortRowStable(i, true)
			continue
		}
		switch f.Mode {
		case ChipPassThrough:
		case ChipDead:
			for j := 0; j < t.cols; j++ {
				t.set(i, j, cellEmpty)
			}
		case ChipStuckOutput:
			t.sortRowStable(i, true)
			t.set(i, f.A, cellPhantom)
		case ChipSwappedPair:
			t.sortRowStable(i, true)
			a, b := t.at(i, f.A), t.at(i, f.B)
			t.set(i, f.A, b)
			t.set(i, f.B, a)
		}
	}
}

// rotateRowsWithFaults runs the Revsort stage-2 barrel shifters (row i
// rotates right by rev(i)) with the stage's faults applied.
func (t *tracker) rotateRowsWithFaults(p *FaultPlane, stage, q int) {
	for i := 0; i < t.rows; i++ {
		f, ok := p.Get(stage, i)
		if !ok {
			t.rotateRowRight(i, mesh.Rev(i, q))
			continue
		}
		switch f.Mode {
		case ChipPassThrough:
			// A shifter with dead control rotates by nothing.
		case ChipDead:
			for j := 0; j < t.cols; j++ {
				t.set(i, j, cellEmpty)
			}
		case ChipStuckOutput:
			t.rotateRowRight(i, mesh.Rev(i, q))
			t.set(i, f.A, cellPhantom)
		case ChipSwappedPair:
			t.rotateRowRight(i, mesh.Rev(i, q))
			a, b := t.at(i, f.A), t.at(i, f.B)
			t.set(i, f.A, b)
			t.set(i, f.B, a)
		}
	}
}

// phantomOutputs lists the row-major positions < m occupied by phantom
// (stuck-at-1) cells after the final stage.
func (t *tracker) phantomOutputs(m int) []int {
	var out []int
	for x, v := range t.cell {
		if v == cellPhantom && x < m {
			out = append(out, x)
		}
	}
	return out
}

// ---------------------------------------------------------------------------
// RevsortSwitch on the tracker.

// routeTracker is the legacy per-bit tracker pipeline.
func (s *RevsortSwitch) routeTracker(valid *bitvec.Vector) ([]int, error) {
	if err := checkValid(valid, s.n); err != nil {
		return nil, err
	}
	t := newTracker(s.side, s.side)
	t.loadRowMajor(valid.Get, s.n)
	q := ceilLg(s.side)
	t.sortColumnsStable() // stage 1 chips
	t.sortRowsStable()    // stage 2 chips
	for i := 0; i < s.side; i++ {
		t.rotateRowRight(i, mesh.Rev(i, q)) // stage 2 barrel shifters (hardwired)
	}
	t.sortColumnsStable() // stage 3 chips
	return t.outRowMajor(s.n, s.m), nil
}

// trackerTrace is Trace on the tracker.
func (s *RevsortSwitch) trackerTrace(valid *bitvec.Vector) ([]Snapshot, []int, error) {
	if err := checkValid(valid, s.n); err != nil {
		return nil, nil, err
	}
	t := newTracker(s.side, s.side)
	t.loadRowMajor(valid.Get, s.n)
	q := ceilLg(s.side)
	snaps := []Snapshot{t.snapshot("inputs (row-major matrix)")}
	t.sortColumnsStable()
	snaps = append(snaps, t.snapshot("after stage 1 (column chips)"))
	t.sortRowsStable()
	snaps = append(snaps, t.snapshot("after stage 2 chips (row sort)"))
	for i := 0; i < s.side; i++ {
		t.rotateRowRight(i, mesh.Rev(i, q))
	}
	snaps = append(snaps, t.snapshot("after rev(i) barrel shifters"))
	t.sortColumnsStable()
	snaps = append(snaps, t.snapshot("after stage 3 (column chips)"))
	return snaps, t.outRowMajor(s.n, s.m), nil
}

// trackerRouteWithPlane is RouteWithPlane on the tracker.
func (s *RevsortSwitch) trackerRouteWithPlane(valid *bitvec.Vector, p *FaultPlane) ([]int, error) {
	if err := checkValid(valid, s.n); err != nil {
		return nil, err
	}
	t, err := s.runStages(valid, p, nil)
	if err != nil {
		return nil, err
	}
	out := t.outRowMajor(s.n, s.m)
	attributePhantoms(valid, out, t.phantomOutputs(s.m))
	return out, nil
}

// trackerTraceWithPlane is TraceWithPlane on the tracker.
func (s *RevsortSwitch) trackerTraceWithPlane(valid *bitvec.Vector, p *FaultPlane) ([]Snapshot, []int, error) {
	if err := checkValid(valid, s.n); err != nil {
		return nil, nil, err
	}
	var snaps []Snapshot
	t, err := s.runStages(valid, p, &snaps)
	if err != nil {
		return nil, nil, err
	}
	out := t.outRowMajor(s.n, s.m)
	attributePhantoms(valid, out, t.phantomOutputs(s.m))
	return snaps, out, nil
}

// runStages walks the three chip stages and the shifters, applying p
// and capturing snapshots when snaps is non-nil.
func (s *RevsortSwitch) runStages(valid *bitvec.Vector, p *FaultPlane, snaps *[]Snapshot) (*tracker, error) {
	t := newTracker(s.side, s.side)
	t.loadRowMajor(valid.Get, s.n)
	capture := func(label string) {
		if snaps != nil {
			*snaps = append(*snaps, t.snapshot(label))
		}
	}
	capture("inputs (row-major matrix)")
	q := ceilLg(s.side)
	t.sortColumnsWithFaults(p, RevsortStage1Columns)
	capture("after stage 1 (column chips)")
	t.sortRowsWithFaults(p, RevsortStage2Rows)
	capture("after stage 2 chips (row sort)")
	t.rotateRowsWithFaults(p, RevsortStage2Shifter, q)
	capture("after rev(i) barrel shifters")
	t.sortColumnsWithFaults(p, RevsortStage3Columns)
	capture("after stage 3 (column chips)")
	return t, nil
}

// trackerGoldenStage is GoldenStage on the tracker.
func (s *RevsortSwitch) trackerGoldenStage(stage int, prev Snapshot) (Snapshot, error) {
	t, err := trackerFromSnapshot(prev, s.side, s.side)
	if err != nil {
		return Snapshot{}, err
	}
	switch stage {
	case RevsortStage1Columns, RevsortStage3Columns:
		t.sortColumnsStable()
	case RevsortStage2Rows:
		t.sortRowsStable()
	case RevsortStage2Shifter:
		q := ceilLg(s.side)
		for i := 0; i < s.side; i++ {
			t.rotateRowRight(i, mesh.Rev(i, q))
		}
	default:
		return Snapshot{}, fmt.Errorf("core: revsort has no stage %d", stage)
	}
	return t.snapshot(fmt.Sprintf("golden after stage %d", stage)), nil
}

// ---------------------------------------------------------------------------
// ColumnsortSwitch on the tracker.

// routeTracker is the legacy per-bit tracker pipeline.
func (c *ColumnsortSwitch) routeTracker(valid *bitvec.Vector) ([]int, error) {
	if err := checkValid(valid, c.n); err != nil {
		return nil, err
	}
	t := newTracker(c.r, c.s)
	t.loadRowMajor(valid.Get, c.n)
	t.sortColumnsStable() // stage 1 chips
	t.reshapeCMtoRM()     // interstage wiring (RM⁻¹ ∘ CM)
	t.sortColumnsStable() // stage 2 chips
	return t.outRowMajor(c.n, c.m), nil
}

// trackerTrace is Trace on the tracker.
func (c *ColumnsortSwitch) trackerTrace(valid *bitvec.Vector) ([]Snapshot, []int, error) {
	if err := checkValid(valid, c.n); err != nil {
		return nil, nil, err
	}
	t := newTracker(c.r, c.s)
	t.loadRowMajor(valid.Get, c.n)
	snaps := []Snapshot{t.snapshot("inputs (row-major matrix)")}
	t.sortColumnsStable()
	snaps = append(snaps, t.snapshot("after stage 1 (column chips)"))
	t.reshapeCMtoRM()
	snaps = append(snaps, t.snapshot("after interstage wiring (CM→RM)"))
	t.sortColumnsStable()
	snaps = append(snaps, t.snapshot("after stage 2 (column chips)"))
	return snaps, t.outRowMajor(c.n, c.m), nil
}

// trackerRouteWithPlane is RouteWithPlane on the tracker.
func (c *ColumnsortSwitch) trackerRouteWithPlane(valid *bitvec.Vector, p *FaultPlane) ([]int, error) {
	if err := checkValid(valid, c.n); err != nil {
		return nil, err
	}
	t := c.runStages(valid, p, nil)
	out := t.outRowMajor(c.n, c.m)
	attributePhantoms(valid, out, t.phantomOutputs(c.m))
	return out, nil
}

// trackerTraceWithPlane is TraceWithPlane on the tracker.
func (c *ColumnsortSwitch) trackerTraceWithPlane(valid *bitvec.Vector, p *FaultPlane) ([]Snapshot, []int, error) {
	if err := checkValid(valid, c.n); err != nil {
		return nil, nil, err
	}
	var snaps []Snapshot
	t := c.runStages(valid, p, &snaps)
	out := t.outRowMajor(c.n, c.m)
	attributePhantoms(valid, out, t.phantomOutputs(c.m))
	return snaps, out, nil
}

func (c *ColumnsortSwitch) runStages(valid *bitvec.Vector, p *FaultPlane, snaps *[]Snapshot) *tracker {
	t := newTracker(c.r, c.s)
	t.loadRowMajor(valid.Get, c.n)
	capture := func(label string) {
		if snaps != nil {
			*snaps = append(*snaps, t.snapshot(label))
		}
	}
	capture("inputs (row-major matrix)")
	t.sortColumnsWithFaults(p, ColumnsortStage1)
	capture("after stage 1 (column chips)")
	t.reshapeCMtoRM() // passive interstage wiring: assumed fault-free
	t.sortColumnsWithFaults(p, ColumnsortStage2)
	capture("after stage 2 (column chips)")
	return t
}

// trackerGoldenStage is GoldenStage on the tracker. Stage 2's golden
// transform includes the passive CM→RM interstage wiring on its input
// side.
func (c *ColumnsortSwitch) trackerGoldenStage(stage int, prev Snapshot) (Snapshot, error) {
	t, err := trackerFromSnapshot(prev, c.r, c.s)
	if err != nil {
		return Snapshot{}, err
	}
	switch stage {
	case ColumnsortStage1:
		t.sortColumnsStable()
	case ColumnsortStage2:
		t.reshapeCMtoRM()
		t.sortColumnsStable()
	default:
		return Snapshot{}, fmt.Errorf("core: columnsort has no stage %d", stage)
	}
	return t.snapshot(fmt.Sprintf("golden after stage %d", stage)), nil
}

// ---------------------------------------------------------------------------
// The §6 hyperconcentrators on the tracker.

// routeTracker is the legacy per-bit tracker pipeline.
func (s *FullRevsortHyper) routeTracker(valid *bitvec.Vector) ([]int, error) {
	if err := checkValid(valid, s.n); err != nil {
		return nil, err
	}
	t := newTracker(s.side, s.side)
	t.loadRowMajor(valid.Get, s.n)
	q := ceilLg(s.side)
	stages := 0
	phases := mesh.RevsortPhaseCount(s.side)
	for p := 0; p < phases; p++ {
		t.sortColumnsStable()
		t.sortRowsStable()
		for i := 0; i < s.side; i++ {
			t.rotateRowRight(i, mesh.Rev(i, q))
		}
		stages += 2
	}
	t.sortColumnsStable()
	stages++
	for iter := 0; iter < s.side+3 && !s.snakeSorted(t); iter++ {
		t.sortRowsSnake()
		t.sortColumnsStable()
		stages += 2
	}
	t.sortRowsStable()
	stages++
	s.lastStages = stages
	out := t.outRowMajor(s.n, s.m)
	// Hyperconcentrator postcondition: the valid bits are fully sorted.
	if !s.sortedPrefix(t, valid.Count()) {
		return nil, fmt.Errorf("core: full Revsort did not fully sort (internal error)")
	}
	return out, nil
}

func (s *FullRevsortHyper) snakeSorted(t *tracker) bool {
	prev := true
	for i := 0; i < t.rows; i++ {
		for jj := 0; jj < t.cols; jj++ {
			j := jj
			if i%2 == 1 {
				j = t.cols - 1 - jj
			}
			b := t.validAt(i, j)
			if b && !prev {
				return false
			}
			prev = b
		}
	}
	return true
}

func (s *FullRevsortHyper) sortedPrefix(t *tracker, k int) bool {
	for x := 0; x < s.n; x++ {
		i, j := x/s.side, x%s.side
		if t.validAt(i, j) != (x < k) {
			return false
		}
	}
	return true
}

// routeTracker is the legacy per-bit tracker pipeline.
func (c *FullColumnsortHyper) routeTracker(valid *bitvec.Vector) ([]int, error) {
	if err := checkValid(valid, c.n); err != nil {
		return nil, err
	}
	r, s := c.r, c.s
	t := newTracker(r, s)
	t.loadRowMajor(valid.Get, c.n)
	// Steps 1–5.
	t.sortColumnsStable()
	t.reshapeCMtoRM()
	t.sortColumnsStable()
	t.reshapeRMtoCM()
	t.sortColumnsStable()
	// Steps 6–8: the shift stage. The padded mesh is r×(s+1); the
	// front pad is r/2 hardwired always-valid dummy inputs occupying
	// the lowest-numbered ports of the first padded column, the back
	// pad is r/2 grounded (invalid) inputs. Because the
	// hyperconcentrator chips are stable and the dummies sit on the
	// lowest ports, the dummies exit on the first r/2 outputs of the
	// first column and the unshift wiring drops exactly them.
	h := r / 2
	pt := newTracker(r, s+1)
	for u := 0; u < r*(s+1); u++ {
		var v int
		switch {
		case u < h:
			v = cellPadOne
		case u < h+c.n:
			dt := u - h // data column-major index
			i, j := dt%r, dt/r
			v = t.at(i, j)
		default:
			v = cellEmpty
		}
		i, j := u%r, u/r
		pt.set(i, j, v)
	}
	pt.sortColumnsStable() // step 7
	// Step 8: unshift, dropping the pads.
	for dt := 0; dt < c.n; dt++ {
		u := h + dt
		pi, pj := u%r, u/r
		i, j := dt%r, dt/r
		t.set(i, j, pt.at(pi, pj))
	}
	// Internal check: no dummy survived the unshift and the valid bits
	// are fully sorted column-major.
	k := valid.Count()
	for x := 0; x < c.n; x++ {
		i, j := x%r, x/r
		v := t.at(i, j)
		if v == cellPadOne {
			return nil, fmt.Errorf("core: full Columnsort leaked a pad dummy (internal error)")
		}
		if (v >= 0) != (x < k) {
			return nil, fmt.Errorf("core: full Columnsort did not fully sort (internal error)")
		}
	}
	return t.outColMajor(c.n, c.m), nil
}

// trackerRoute routes via the tracker pipeline; switch types without
// one fall back to Route.
func trackerRoute(sw Concentrator, valid *bitvec.Vector) ([]int, error) {
	switch s := sw.(type) {
	case *RevsortSwitch:
		return s.routeTracker(valid)
	case *ColumnsortSwitch:
		return s.routeTracker(valid)
	case *FullRevsortHyper:
		return s.routeTracker(valid)
	case *FullColumnsortHyper:
		return s.routeTracker(valid)
	}
	return sw.Route(valid)
}
