package core

// kernel.go is the word-parallel routing kernel, the one route pipeline
// of the multichip switches. Instead of scanning every matrix cell, it
// tracks only the k live entries' coordinates and reconstructs each
// stage's 0/1 matrix as a packed word plane. A
// hyperconcentrator stage then costs one word-parallel plane rebuild
// plus a TrailingZeros64 sweep that hands out ranks in port order —
// O(n/64 + k) per stage instead of O(n) cell scans — and the whole
// Route path performs zero heap allocations in steady state (scratch
// is pooled per switch).
//
// Chip faults ride the same pipeline. A chip serves one line (column or
// row) of the wire matrix, so after each stage the kernel fixes up the
// positions on the faulty chips' lines (fix): a pass-through chip
// restores the line's pre-stage positions, a dead chip drops the line's
// entries, a stuck output turns the entry on its port into a phantom
// (id CellPhantom) or adds one there, and a swapped pair exchanges the
// entries on its two ports. Phantoms are routed like messages and, at
// the outputs, attributed to invalid inputs (attributePhantoms). Every
// entry point — RouteInto, RouteWithPlane, TraceWithPlane (snapshots
// from the entries), GoldenStage (entries loaded from a snapshot) and
// Trace — runs on this kernel; a nil or empty plane adds no work.
//
// Scratch-buffer ownership rules (see DESIGN.md §14): a kscratch is
// owned by exactly one route call between get and put; switches hand
// them out through a sync.Pool so concurrent Route calls on one switch
// remain safe; dst is caller-owned and only written.

import (
	"fmt"
	"math/bits"
	"slices"
	"sync"

	"concentrators/internal/bitvec"
	"concentrators/internal/mesh"
)

// RouterInto is implemented by every switch in this package: RouteInto
// is Route writing into a caller-owned dst of length Inputs(),
// performing no heap allocations in steady state, with or without a
// fault plane installed.
type RouterInto interface {
	Concentrator
	RouteInto(dst []int, valid *bitvec.Vector) error
}

func checkDst(dst []int, n int) error {
	if len(dst) != n {
		return fmt.Errorf("core: RouteInto dst length %d on an %d-input switch", len(dst), n)
	}
	return nil
}

// kscratch is the reusable state of one in-flight kernel route: the
// tracked entries (messages and phantoms), the cell→entry index map,
// the packed bit planes for column- and row-oriented stages, and the
// route's chip faults.
type kscratch struct {
	rows, cols int
	colSh      int     // log2(cols) when cols is a power of two, else −1
	rowSh      int     // log2(rows) when rows is a power of two, else −1
	ids        []int32 // ids[t] = switch input that injected entry t, or CellPhantom
	pos        []int32 // pos[t] = current row-major cell of entry t
	cell       []int32 // cell index → t; valid only where a plane bit is set
	rev        []int32 // cached Rev(i, q) per row (Revsort rotations)
	cnt        []int32 // per-column scratch: heights after colSort, cursors in colSortSorted
	neg        []int   // len n, all −1: memcpy'd into dst to reset the scatter
	planeT     plane   // transposed plane (cols×rows): column ops
	planeR     plane   // row-major plane (rows×cols): row ops, snake checks
	planeP     plane   // padded transposed plane ((s+1)×r), Columnsort steps 6–8
	k          int

	// Chip faults, allocated on the first faulted route.
	fx         []kfix  // the route's chip faults, resolved onto the matrix
	stuck      bool    // fx has a stuck output, so phantoms may exist
	lf         []int32 // line → index in fx of the armed stage's fault on it, or −1
	prev       []int32 // pre-stage positions, saved for pass-through chips
	ph         []int   // phantom output wires < m, ascending
	armed      bool    // the stage being run has faults to fix
	armedCols  bool    // the armed stage's chips serve columns
	armedStage int     // the stage arm last prepared
}

// kfix is one chip fault resolved onto the kernel's wire matrix.
type kfix struct {
	stage, line int
	mode        ChipFaultMode
	cols        bool  // the chip serves a column (else a row)
	a, b        int32 // row-major cells of output ports A and B
	hit         bool  // stuck output: an entry sat on port A
}

// plane is a packed 0/1 stage matrix: row-major runs of wpr 64-bit
// words. The stage loops set bits only inside a row's length, so the
// bits past it in the row's last word stay zero.
type plane struct {
	words []uint64
	wpr   int // words per row: ⌈row length/64⌉
}

func newPlane(rows, cols int) plane {
	wpr := (cols + 63) / 64
	return plane{words: make([]uint64, rows*wpr), wpr: wpr}
}

// rowOnes returns the number of 1s in row i.
func (p *plane) rowOnes(i int) int {
	c := 0
	for _, w := range p.words[i*p.wpr : (i+1)*p.wpr] {
		c += bits.OnesCount64(w)
	}
	return c
}

// pow2Shift returns log2(v) when v > 0 is a power of two, else −1. The
// stage loops run a divide per live message per stage; every Revsort
// side and beta Columnsort shape is a power of two, so the shift/mask
// fast paths carry essentially all real traffic.
func pow2Shift(v int) int {
	if v&(v-1) == 0 {
		return bits.TrailingZeros(uint(v))
	}
	return -1
}

func newKscratch(rows, cols, padCols int) *kscratch {
	n := rows * cols
	cellLen := n
	if padCols > 0 {
		cellLen = rows * padCols
	}
	ks := &kscratch{
		rows: rows, cols: cols,
		colSh:  pow2Shift(cols),
		rowSh:  pow2Shift(rows),
		ids:    make([]int32, n),
		pos:    make([]int32, n),
		cell:   make([]int32, cellLen),
		rev:    make([]int32, rows),
		cnt:    make([]int32, cols),
		neg:    make([]int, n),
		planeT: newPlane(cols, rows),
		planeR: newPlane(rows, cols),
	}
	for i := range ks.neg {
		ks.neg[i] = -1
	}
	if padCols > 0 {
		ks.planeP = newPlane(padCols, rows)
	}
	return ks
}

// splitCols splits a row-major index into (row, col).
func (ks *kscratch) splitCols(x int) (int, int) {
	if sh := ks.colSh; sh >= 0 {
		return x >> sh, x & (ks.cols - 1)
	}
	return x / ks.cols, x % ks.cols
}

// splitRows returns (x%rows, x/rows) — the column-major coordinates of
// linear index x.
func (ks *kscratch) splitRows(x int) (int, int) {
	if sh := ks.rowSh; sh >= 0 {
		return x & (ks.rows - 1), x >> sh
	}
	return x % ks.rows, x / ks.rows
}

// routeScratch pools kscratch instances for one switch shape. The zero
// value is ready for use as a struct field.
type routeScratch struct {
	pool sync.Pool
}

func (rs *routeScratch) get(rows, cols, padCols int) *kscratch {
	if v := rs.pool.Get(); v != nil {
		return v.(*kscratch)
	}
	return newKscratch(rows, cols, padCols)
}

func (rs *routeScratch) put(ks *kscratch) { rs.pool.Put(ks) }

// load captures the valid messages: message t's id is the t-th set
// input, its starting cell the row-major cell with that index.
func (ks *kscratch) load(valid *bitvec.Vector) {
	t := 0
	for wi, w := range valid.Words() {
		base := wi << 6
		for w != 0 {
			x := int32(base + bits.TrailingZeros64(w))
			w &= w - 1
			ks.ids[t] = x
			ks.pos[t] = x
			t++
		}
	}
	ks.k = t
}

// colSort runs one stage of column-assigned hyperconcentrator chips:
// every message's new row is its port-order rank within its column.
// The transposed plane makes each column a contiguous word run.
func (ks *kscratch) colSort() {
	rows, cols, k := ks.rows, ks.cols, ks.k
	words, wpr := ks.planeT.words, ks.planeT.wpr
	clear(words)
	cell, pos := ks.cell, ks.pos
	if sh := ks.colSh; sh >= 0 {
		mask := cols - 1
		for t := 0; t < k; t++ {
			x := int(pos[t])
			i, j := x>>sh, x&mask
			words[j*wpr+i>>6] |= 1 << uint(i&63)
			cell[j*rows+i] = int32(t)
		}
	} else {
		for t := 0; t < k; t++ {
			x := int(pos[t])
			i, j := x/cols, x%cols
			words[j*wpr+i>>6] |= 1 << uint(i&63)
			cell[j*rows+i] = int32(t)
		}
	}
	c32 := int32(cols)
	cnt := ks.cnt
	for j := 0; j < cols; j++ {
		cbase := j * rows
		p := int32(j)
		c := int32(0)
		for w, word := range words[j*wpr : j*wpr+wpr] {
			base := w << 6
			c += int32(bits.OnesCount64(word))
			for word != 0 {
				i := base + bits.TrailingZeros64(word)
				word &= word - 1
				pos[cell[cbase+i]] = p
				p += c32
			}
		}
		cnt[j] = c // column height, read by snakeSortedColumns
	}
}

// colSortSorted is colSort for the first stage after load, where pos is
// strictly increasing in t: within each column the messages already
// appear in port order, so ranks are running per-column cursors and no
// plane build or rank sweep is needed. Unlike colSort it leaves ks.cnt
// holding position cursors, not heights — snakeSortedColumns must not
// follow it directly.
func (ks *kscratch) colSortSorted() {
	cols, k := ks.cols, ks.k
	pos, cnt := ks.pos, ks.cnt
	c32 := int32(cols)
	for j := 0; j < cols; j++ {
		cnt[j] = int32(j)
	}
	if sh := ks.colSh; sh >= 0 {
		mask := cols - 1
		for t := 0; t < k; t++ {
			j := int(pos[t]) & mask
			pos[t] = cnt[j]
			cnt[j] += c32
		}
	} else {
		for t := 0; t < k; t++ {
			j := int(pos[t]) % cols
			pos[t] = cnt[j]
			cnt[j] += c32
		}
	}
}

// rowSort runs one stage of row-assigned chips. With snake set, odd
// rows concentrate rightward (their port wiring mirrored), as in the
// Shearsort stacks of §6.
func (ks *kscratch) rowSort(snake bool) {
	rows, cols, k := ks.rows, ks.cols, ks.k
	pr := &ks.planeR
	words, wpr := pr.words, pr.wpr
	clear(words)
	cell, pos := ks.cell, ks.pos
	if sh := ks.colSh; sh >= 0 {
		mask := cols - 1
		for t := 0; t < k; t++ {
			x := int(pos[t])
			j := x & mask
			words[(x>>sh)*wpr+j>>6] |= 1 << uint(j&63)
			cell[x] = int32(t)
		}
	} else {
		for t := 0; t < k; t++ {
			x := int(pos[t])
			j := x % cols
			words[(x/cols)*wpr+j>>6] |= 1 << uint(j&63)
			cell[x] = int32(t)
		}
	}
	for i := 0; i < rows; i++ {
		shift := 0
		if snake && i%2 == 1 {
			shift = cols - pr.rowOnes(i)
		}
		rbase := i * cols
		p := int32(rbase + shift)
		for w, word := range words[i*wpr : i*wpr+wpr] {
			base := w << 6
			for word != 0 {
				j := base + bits.TrailingZeros64(word)
				word &= word - 1
				pos[cell[rbase+j]] = p
				p++
			}
		}
	}
}

// rotateRev applies the hardwired stage-2 barrel shifters: row i
// rotates right by Rev(i, q) places — pure position arithmetic.
func (ks *kscratch) rotateRev(q int) {
	cols, k := ks.cols, ks.k
	rev, pos := ks.rev, ks.pos
	for i := 0; i < ks.rows; i++ {
		rev[i] = int32(mesh.Rev(i, q))
	}
	if sh := ks.colSh; sh >= 0 {
		// cols is a power of two, so the row base i·cols survives the
		// mask untouched: new pos = (x &^ mask) | (x + rev[i]) & mask.
		mask := cols - 1
		for t := 0; t < k; t++ {
			x := int(pos[t])
			pos[t] = int32(x&^mask | (x+int(rev[x>>sh]))&mask)
		}
	} else {
		for t := 0; t < k; t++ {
			x := int(pos[t])
			i, j := x/cols, x%cols
			j += int(rev[i])
			if j >= cols {
				j -= cols
			}
			pos[t] = int32(i*cols + j)
		}
	}
}

// colSortSortedCM fuses colSortSorted with the Columnsort CM→RM
// rewiring that always follows it (step 1 + step 2): the message with
// in-column rank c in column j has column-major index c·cols + j, which
// the rewiring sends to row-major index rows·j + c — so the per-column
// cursor simply starts at rows·j and counts up by one.
func (ks *kscratch) colSortSortedCM() {
	rows, cols, k := ks.rows, ks.cols, ks.k
	pos, cnt := ks.pos, ks.cnt
	for j := 0; j < cols; j++ {
		cnt[j] = int32(rows * j)
	}
	if sh := ks.colSh; sh >= 0 {
		mask := cols - 1
		for t := 0; t < k; t++ {
			j := int(pos[t]) & mask
			pos[t] = cnt[j]
			cnt[j]++
		}
	} else {
		for t := 0; t < k; t++ {
			j := int(pos[t]) % cols
			pos[t] = cnt[j]
			cnt[j]++
		}
	}
}

// reshapeCMtoRM applies the Columnsort step-2 wiring: the element with
// column-major index x moves to row-major index x.
func (ks *kscratch) reshapeCMtoRM() {
	rows, cols, k := ks.rows, ks.cols, ks.k
	pos := ks.pos
	if sh := ks.colSh; sh >= 0 {
		mask := cols - 1
		for t := 0; t < k; t++ {
			x := int(pos[t])
			pos[t] = int32(rows*(x&mask) + x>>sh)
		}
	} else {
		for t := 0; t < k; t++ {
			x := int(pos[t])
			pos[t] = int32(rows*(x%cols) + x/cols)
		}
	}
}

// reshapeRMtoCM is the inverse wiring (Columnsort step 4).
func (ks *kscratch) reshapeRMtoCM() {
	rows, cols, k := ks.rows, ks.cols, ks.k
	pos := ks.pos
	if sh := ks.rowSh; sh >= 0 {
		mask := rows - 1
		for t := 0; t < k; t++ {
			x := int(pos[t])
			pos[t] = int32((x&mask)*cols + x>>sh)
		}
	} else {
		for t := 0; t < k; t++ {
			x := int(pos[t])
			pos[t] = int32((x%rows)*cols + x/rows)
		}
	}
}

// snakeSortedColumns is the Shearsort termination test (are the valid
// bits sorted in snake order?) evaluated in O(cols) from the column
// heights the immediately preceding colSort recorded in ks.cnt. A
// column-sorted plane is top-justified, so it is snake-sorted iff the
// heights differ by at most one and the tall columns run contiguously
// from the single mixed row's traversal origin (left end for an even
// row, right end for an odd row). Valid only directly after colSort.
func (ks *kscratch) snakeSortedColumns() bool {
	cols, cnt := ks.cols, ks.cnt
	hmin, hmax := cnt[0], cnt[0]
	for j := 1; j < cols; j++ {
		c := cnt[j]
		if c < hmin {
			hmin = c
		}
		if c > hmax {
			hmax = c
		}
	}
	switch {
	case hmax == hmin:
		return true
	case hmax-hmin > 1:
		return false
	}
	// One mixed row at i = hmin holds 1s exactly in the tall columns.
	if hmin%2 == 0 {
		j := 0
		for ; j < cols && cnt[j] == hmax; j++ {
		}
		for ; j < cols; j++ {
			if cnt[j] == hmax {
				return false
			}
		}
	} else {
		j := cols - 1
		for ; j >= 0 && cnt[j] == hmax; j-- {
		}
		for ; j >= 0; j-- {
			if cnt[j] == hmax {
				return false
			}
		}
	}
	return true
}

// sortedPrefix reports whether the k messages occupy exactly the first
// k row-major cells (the hyperconcentrator postcondition). Positions
// are distinct, so max(pos) < k is equivalent.
func (ks *kscratch) sortedPrefix() bool {
	for t := 0; t < ks.k; t++ {
		if int(ks.pos[t]) >= ks.k {
			return false
		}
	}
	return true
}

// scatter writes the routing: dst[id] = final position if < m, else −1
// (the message fell off the first-m output prefix).
func (ks *kscratch) scatter(dst []int, m int) {
	copy(dst, ks.neg) // one memmove beats a −1 fill loop
	for t := 0; t < ks.k; t++ {
		if x := int(ks.pos[t]); x < m {
			dst[ks.ids[t]] = x
		}
	}
}

// loadFaults resolves p's chip faults onto the matrix for one route. A
// plane that ValidateFaultPlane rejects is refused with its error: the
// fixups index ports directly.
func (ks *kscratch) loadFaults(sw FaultInjectable, stages []StageInfo, p *FaultPlane) error {
	ks.fx, ks.stuck = ks.fx[:0], false
	if p.Len() == 0 {
		return nil
	}
	if ks.lf == nil {
		ks.lf = make([]int32, max(ks.rows, ks.cols))
		for i := range ks.lf {
			ks.lf[i] = -1
		}
		ks.prev = make([]int32, len(ks.pos))
	}
	for _, f := range p.faults {
		if checkFault(f, stages) != nil {
			return ValidateFaultPlane(sw, p)
		}
		kf := kfix{stage: f.Stage, line: f.Chip, mode: f.Mode, cols: stages[f.Stage].ChipsAreColumns}
		if kf.cols {
			kf.a, kf.b = int32(f.A*ks.cols+f.Chip), int32(f.B*ks.cols+f.Chip)
		} else {
			kf.a, kf.b = int32(f.Chip*ks.cols+f.A), int32(f.Chip*ks.cols+f.B)
		}
		ks.fx = append(ks.fx, kf)
		ks.stuck = ks.stuck || f.Mode == ChipStuckOutput
	}
	return nil
}

// arm prepares the fixups of stage before it runs: it maps each faulty
// chip's line to its fault and saves the pre-stage positions when a
// chip passes through. It reports whether the stage has a fault.
func (ks *kscratch) arm(stage int) bool {
	ks.armed = false
	pass := false
	for i, f := range ks.fx {
		if f.stage != stage {
			continue
		}
		ks.lf[f.line] = int32(i)
		ks.armed, ks.armedCols, ks.armedStage = true, f.cols, stage
		pass = pass || f.mode == ChipPassThrough
	}
	if pass {
		copy(ks.prev[:ks.k], ks.pos[:ks.k])
	}
	return ks.armed
}

// fix applies the armed stage's chip faults to the positions the stage
// produced. Each touches only its chip's line: pass-through restores
// the line's pre-stage positions, dead drops the line's entries,
// stuck-output turns the entry on port A into a phantom (or adds one
// there), and swapped-pair exchanges the entries on ports A and B.
func (ks *kscratch) fix() {
	if !ks.armed {
		return
	}
	ks.armed = false
	ids, pos := ks.ids[:ks.k], ks.pos[:ks.k]
	lf, fx, prev, cols := ks.lf, ks.fx, ks.prev, ks.armedCols
	drop := false
	for t, x := range pos {
		i, j := ks.splitCols(int(x))
		if cols {
			i = j
		}
		fi := lf[i]
		if fi < 0 {
			continue
		}
		switch f := &fx[fi]; f.mode {
		case ChipDead:
			pos[t], drop = -1, true
		case ChipPassThrough:
			pos[t] = prev[t]
		case ChipStuckOutput:
			if x == f.a {
				ids[t], f.hit = CellPhantom, true
			}
		case ChipSwappedPair:
			if x == f.a {
				pos[t] = f.b
			} else if x == f.b {
				pos[t] = f.a
			}
		}
	}
	if drop {
		ks.keep(func(t int) bool { return pos[t] >= 0 })
	}
	for i := range ks.fx {
		f := &ks.fx[i]
		if f.stage != ks.armedStage {
			continue
		}
		ks.lf[f.line] = -1
		if f.mode == ChipStuckOutput && !f.hit {
			ks.ids[ks.k], ks.pos[ks.k] = CellPhantom, f.a
			ks.k++
		}
	}
}

// keep drops every entry t for which ok(t) is false, preserving the
// order of the rest.
func (ks *kscratch) keep(ok func(t int) bool) {
	w := 0
	for t := 0; t < ks.k; t++ {
		if ok(t) {
			ks.ids[w], ks.pos[w] = ks.ids[t], ks.pos[t]
			w++
		}
	}
	ks.k = w
}

// finish writes the routing into dst. Phantoms carry no message: they
// leave the entries, and the output wires < m they occupy are
// attributed to invalid inputs in ascending order.
func (ks *kscratch) finish(dst []int, valid *bitvec.Vector, m int) {
	ks.ph = ks.ph[:0]
	if ks.stuck {
		for t := 0; t < ks.k; t++ {
			if x := int(ks.pos[t]); ks.ids[t] == CellPhantom && x < m {
				ks.ph = append(ks.ph, x)
			}
		}
		ks.keep(func(t int) bool { return ks.ids[t] != CellPhantom })
		slices.Sort(ks.ph)
	}
	ks.scatter(dst, m)
	attributePhantoms(valid, dst, ks.ph)
}

// attributePhantoms surfaces phantom-occupied output wires through the
// out mapping so the concentration oracles can flag the fault: each
// phantom output is attributed to an invalid input, which
// CheckPartialConcentration rejects as "invalid input was routed".
// When every input is valid no attribution is possible; the message the
// phantom destroyed still surfaces as an unexplained drop.
func attributePhantoms(valid *bitvec.Vector, out []int, phantoms []int) {
	next := 0
	for _, p := range phantoms {
		for next < valid.Len() && (valid.Get(next) || out[next] != -1) {
			next++
		}
		if next == valid.Len() {
			return
		}
		out[next] = p
		next++
	}
}

// capture appends the wire matrix to snaps, when non-nil.
func (ks *kscratch) capture(snaps *[]Snapshot, label string) {
	if snaps != nil {
		*snaps = append(*snaps, ks.snapshot(label, nil))
	}
}

// snapshot renders the entries as a wire matrix: the cell of entry t
// holds ids[t], or src[ids[t]] when src is non-nil (loadSnapshot's ids
// index the source snapshot's cells).
func (ks *kscratch) snapshot(label string, src []int) Snapshot {
	cell := make([]int, ks.rows*ks.cols)
	for x := range cell {
		cell[x] = CellEmpty
	}
	for t := 0; t < ks.k; t++ {
		id := int(ks.ids[t])
		if src != nil {
			id = src[id]
		}
		cell[ks.pos[t]] = id
	}
	return Snapshot{Label: label, Rows: ks.rows, Cols: ks.cols, Cell: cell}
}

// loadSnapshot makes every occupied cell x of s an entry at x whose id
// is x itself, so snapshot(label, s.Cell) carries the cells through.
func (ks *kscratch) loadSnapshot(s Snapshot) {
	t := 0
	for x, v := range s.Cell {
		if v != CellEmpty {
			ks.ids[t], ks.pos[t] = int32(x), int32(x)
			t++
		}
	}
	ks.k = t
}

// ---------------------------------------------------------------------------
// Per-switch kernels.

// RouteInto implements RouterInto: the single chip's word-parallel
// setup kernel.
func (s *PerfectSwitch) RouteInto(dst []int, valid *bitvec.Vector) error {
	if err := checkValid(valid, s.n); err != nil {
		return err
	}
	if err := checkDst(dst, s.n); err != nil {
		return err
	}
	return s.p.SetupInto(dst, valid)
}

// RouteInto implements RouterInto: greedy crosspoint assignment, which
// for concentration equals the stable rank scatter capped at m.
func (s *Crossbar) RouteInto(dst []int, valid *bitvec.Vector) error {
	if err := checkValid(valid, s.n); err != nil {
		return err
	}
	if err := checkDst(dst, s.n); err != nil {
		return err
	}
	for i := range dst {
		dst[i] = -1
	}
	next := 0
	for wi, w := range valid.Words() {
		base := wi << 6
		for w != 0 && next < s.m {
			dst[base+bits.TrailingZeros64(w)] = next
			next++
			w &= w - 1
		}
		if next >= s.m {
			break
		}
	}
	return nil
}

// RouteInto implements RouterInto with the word-parallel kernel
// (Algorithm 1's three chip stages plus the barrel shifters), fixing up
// the installed fault plane's chips after each stage.
func (s *RevsortSwitch) RouteInto(dst []int, valid *bitvec.Vector) error {
	if err := checkValid(valid, s.n); err != nil {
		return err
	}
	if err := checkDst(dst, s.n); err != nil {
		return err
	}
	return s.route(dst, valid, s.plane, nil)
}

// route runs Algorithm 1 on the kernel with p's chip faults fixed up
// after each stage and writes the routing into dst; snaps, when
// non-nil, collects the wire matrix at the inputs and after each stage.
func (s *RevsortSwitch) route(dst []int, valid *bitvec.Vector, p *FaultPlane, snaps *[]Snapshot) error {
	ks := s.scratch.get(s.side, s.side, 0)
	defer s.scratch.put(ks)
	if err := ks.loadFaults(s, s.stages, p); err != nil {
		return err
	}
	ks.load(valid)
	ks.capture(snaps, "inputs (row-major matrix)")
	ks.arm(RevsortStage1Columns)
	ks.colSortSorted() // stage 1 chips (input is in port order)
	ks.fix()
	ks.capture(snaps, "after stage 1 (column chips)")
	ks.arm(RevsortStage2Rows)
	ks.rowSort(false) // stage 2 chips
	ks.fix()
	ks.capture(snaps, "after stage 2 chips (row sort)")
	ks.arm(RevsortStage2Shifter)
	ks.rotateRev(ceilLg(s.side)) // stage 2 barrel shifters (hardwired)
	ks.fix()
	ks.capture(snaps, "after rev(i) barrel shifters")
	ks.arm(RevsortStage3Columns)
	ks.colSort() // stage 3 chips
	ks.fix()
	ks.capture(snaps, "after stage 3 (column chips)")
	ks.finish(dst, valid, s.m)
	return nil
}

// RouteInto implements RouterInto with the word-parallel kernel
// (Algorithm 2's two chip stages and the interstage wiring), fixing up
// the installed fault plane's chips after each stage.
func (c *ColumnsortSwitch) RouteInto(dst []int, valid *bitvec.Vector) error {
	if err := checkValid(valid, c.n); err != nil {
		return err
	}
	if err := checkDst(dst, c.n); err != nil {
		return err
	}
	return c.route(dst, valid, c.plane, nil, false)
}

// route runs Algorithm 2 on the kernel with p's chip faults fixed up
// after each stage and writes the routing into dst; snaps, when
// non-nil, collects the wire matrix at the inputs and after each stage,
// and after the interstage wiring too when wiring is set (Figure 6).
// Stage 1 fuses with the wiring unless it has a fault to fix or a
// snapshot to take in between.
func (c *ColumnsortSwitch) route(dst []int, valid *bitvec.Vector, p *FaultPlane, snaps *[]Snapshot, wiring bool) error {
	ks := c.scratch.get(c.r, c.s, 0)
	defer c.scratch.put(ks)
	if err := ks.loadFaults(c, c.stages, p); err != nil {
		return err
	}
	ks.load(valid)
	ks.capture(snaps, "inputs (row-major matrix)")
	if ks.arm(ColumnsortStage1) || snaps != nil {
		ks.colSortSorted() // stage 1 chips (input is in port order)
		ks.fix()
		ks.capture(snaps, "after stage 1 (column chips)")
		ks.reshapeCMtoRM() // interstage wiring (RM⁻¹ ∘ CM)
		if wiring {
			ks.capture(snaps, "after interstage wiring (CM→RM)")
		}
	} else {
		ks.colSortSortedCM() // stage 1 chips + interstage wiring (RM⁻¹ ∘ CM)
	}
	ks.arm(ColumnsortStage2)
	ks.colSort() // stage 2 chips
	ks.fix()
	ks.capture(snaps, "after stage 2 (column chips)")
	ks.finish(dst, valid, c.m)
	return nil
}

// RouteInto implements RouterInto: the full Revsort phases, Shearsort
// cleanup, and final row sort, all on the word kernel.
func (s *FullRevsortHyper) RouteInto(dst []int, valid *bitvec.Vector) error {
	if err := checkValid(valid, s.n); err != nil {
		return err
	}
	if err := checkDst(dst, s.n); err != nil {
		return err
	}
	ks := s.scratch.get(s.side, s.side, 0)
	defer s.scratch.put(ks)
	ks.load(valid)
	q := ceilLg(s.side)
	stages := 0
	phases := mesh.RevsortPhaseCount(s.side)
	for p := 0; p < phases; p++ {
		if p == 0 {
			ks.colSortSorted() // input is in port order
		} else {
			ks.colSort()
		}
		ks.rowSort(false)
		ks.rotateRev(q)
		stages += 2
	}
	ks.colSort()
	stages++
	// Every snake check directly follows a colSort, so the O(cols)
	// column-heights test applies.
	for iter := 0; iter < s.side+3 && !ks.snakeSortedColumns(); iter++ {
		ks.rowSort(true)
		ks.colSort()
		stages += 2
	}
	ks.rowSort(false)
	stages++
	s.lastStages = stages
	// Hyperconcentrator postcondition: the valid bits are fully sorted.
	if !ks.sortedPrefix() {
		return fmt.Errorf("core: full Revsort did not fully sort (internal error)")
	}
	ks.scatter(dst, s.m)
	return nil
}

// RouteInto implements RouterInto: all eight Columnsort steps on the
// word kernel. The steps 6–8 pads never enter the plane — because the
// r/2 always-valid dummies occupy the lowest ports of padded column 0,
// a stable chip gives them ranks [0, r/2) and every real message in
// that column simply starts ranking at r/2.
func (c *FullColumnsortHyper) RouteInto(dst []int, valid *bitvec.Vector) error {
	if err := checkValid(valid, c.n); err != nil {
		return err
	}
	if err := checkDst(dst, c.n); err != nil {
		return err
	}
	r, s := c.r, c.s
	ks := c.scratch.get(r, s, s+1)
	defer c.scratch.put(ks)
	ks.load(valid)
	// Steps 1–5 (1+2 fused: the input is in port order).
	ks.colSortSortedCM()
	ks.colSort()
	ks.reshapeRMtoCM()
	ks.colSort()
	// Steps 6–8: shift by h = r/2 in column-major order, sort the
	// padded r×(s+1) mesh's columns, unshift.
	h := r / 2
	words, wpr := ks.planeP.words, ks.planeP.wpr
	clear(words)
	for t := 0; t < ks.k; t++ {
		x := int(ks.pos[t])
		i, j := ks.splitCols(x) // r×s row-major coordinates
		u := h + (r*j + i)      // padded column-major index
		pi, pj := ks.splitRows(u)
		words[pj*wpr+pi>>6] |= 1 << uint(pi&63)
		ks.cell[pj*r+pi] = int32(t)
	}
	for pj := 0; pj <= s; pj++ {
		cbase := pj * r
		// Positions run pj·r + rank − h with rank starting at h for the
		// padded column 0 (the dummies hold its first h output ports).
		p := int32(cbase - h)
		if pj == 0 {
			p = 0
		}
		for w, word := range words[pj*wpr : pj*wpr+wpr] {
			base := w << 6
			for word != 0 {
				pi := base + bits.TrailingZeros64(word)
				word &= word - 1
				// Unshift: padded CM index back to data CM index.
				ks.pos[ks.cell[cbase+pi]] = p
				p++
			}
		}
	}
	// Internal check: the valid bits are fully sorted column-major.
	if !ks.sortedPrefix() {
		return fmt.Errorf("core: full Columnsort did not fully sort (internal error)")
	}
	// pos now holds column-major output indices; scatter directly.
	ks.scatter(dst, c.m)
	return nil
}
