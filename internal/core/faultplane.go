package core

// Chip-level fault injection for the multichip switches. The paper's
// whole point is that the §4/§5 concentrators are built from dozens to
// thousands of small hyperconcentrator chips (Table 1); this file makes
// per-chip failure a first-class, addressable event: a ChipFault names
// (stage, chip, failure mode) and a FaultPlane carries the set of live
// faults through the switch's Route path. A chip serves one column or
// row of the wire matrix (Figures 3 and 6), so a failed chip changes
// only its own line: the word kernel (kernel.go) runs every route, and
// after each stage it fixes up the positions on the faulty chips' lines
// (pass-through, dead, stuck-output phantom, swapped pair).
//
// The fault-aware path is also the substrate of the health plane
// (internal/health): TraceWithPlane exposes the wire matrix after every
// chip stage, and GoldenStage provides the fault-free reference
// transform of each stage, so a BIST-style scan can localize the first
// diverging stage and chip.

import (
	"fmt"
	"sort"

	"concentrators/internal/bitvec"
)

// ChipFaultMode selects the failure mode of one chip in a multichip
// switch.
type ChipFaultMode int

// The modelled chip failure modes.
const (
	// ChipDead floats every output of the chip: messages entering it
	// are destroyed (power/clock failure, hoisted bond wire).
	ChipDead ChipFaultMode = iota
	// ChipStuckOutput makes output port A of the chip assert valid
	// constantly (stuck-at-1 driver): a phantom occupies the port and
	// destroys any message concentrated onto it.
	ChipStuckOutput
	// ChipSwappedPair crosses output ports A and B of the chip (a
	// board-level wiring error).
	ChipSwappedPair
	// ChipPassThrough kills the chip's control logic while its pass
	// transistors stay closed straight through: inputs appear unsorted
	// on the outputs. For a barrel-shifter chip this means no rotation.
	ChipPassThrough
)

// String names the mode.
func (m ChipFaultMode) String() string {
	switch m {
	case ChipDead:
		return "dead"
	case ChipStuckOutput:
		return "stuck-output"
	case ChipSwappedPair:
		return "swapped-pair"
	case ChipPassThrough:
		return "pass-through"
	default:
		return fmt.Sprintf("ChipFaultMode(%d)", int(m))
	}
}

// ChipFault addresses one failed chip inside a multichip switch.
type ChipFault struct {
	// Stage indexes into StageChips().
	Stage int
	// Chip is the chip index within the stage (the column or row of
	// the wire matrix the chip serves; see StageInfo.ChipsAreColumns).
	Chip int
	// Mode is the failure mode.
	Mode ChipFaultMode
	// A and B are the affected chip output ports (A for ChipStuckOutput,
	// A and B for ChipSwappedPair; ignored otherwise).
	A, B int
}

// String renders the fault address.
func (f ChipFault) String() string {
	switch f.Mode {
	case ChipStuckOutput:
		return fmt.Sprintf("stage %d chip %d: %s port %d", f.Stage, f.Chip, f.Mode, f.A)
	case ChipSwappedPair:
		return fmt.Sprintf("stage %d chip %d: %s ports %d,%d", f.Stage, f.Chip, f.Mode, f.A, f.B)
	default:
		return fmt.Sprintf("stage %d chip %d: %s", f.Stage, f.Chip, f.Mode)
	}
}

// StageInfo describes one chip stage of a multichip switch for fault
// addressing and health scanning.
type StageInfo struct {
	// Name identifies the stage in reports.
	Name string
	// Chips is the number of chips in the stage.
	Chips int
	// Ports is the number of data output ports per chip.
	Ports int
	// ChipsAreColumns reports the chip↔matrix assignment: chip c serves
	// column c of the wire matrix when true, row c otherwise.
	ChipsAreColumns bool
}

// FaultPlane is the set of live chip faults threaded through a
// switch's Route path. The zero value of *FaultPlane (nil) means
// fault-free. At most one fault per (stage, chip) is held: a second
// Add to the same chip replaces the first (the newer failure dominates).
type FaultPlane struct {
	faults map[[2]int]ChipFault
}

// NewFaultPlane returns an empty fault plane.
func NewFaultPlane() *FaultPlane {
	return &FaultPlane{faults: make(map[[2]int]ChipFault)}
}

// Add inserts (or replaces) the fault for its (stage, chip) address.
func (p *FaultPlane) Add(f ChipFault) {
	if p.faults == nil {
		p.faults = make(map[[2]int]ChipFault)
	}
	p.faults[[2]int{f.Stage, f.Chip}] = f
}

// Get returns the fault at (stage, chip), if any.
func (p *FaultPlane) Get(stage, chip int) (ChipFault, bool) {
	if p == nil || p.faults == nil {
		return ChipFault{}, false
	}
	f, ok := p.faults[[2]int{stage, chip}]
	return f, ok
}

// Remove clears the fault at (stage, chip).
func (p *FaultPlane) Remove(stage, chip int) {
	if p != nil && p.faults != nil {
		delete(p.faults, [2]int{stage, chip})
	}
}

// Len returns the number of live faults.
func (p *FaultPlane) Len() int {
	if p == nil {
		return 0
	}
	return len(p.faults)
}

// Faults lists the live faults in deterministic (stage, chip) order.
func (p *FaultPlane) Faults() []ChipFault {
	if p == nil {
		return nil
	}
	out := make([]ChipFault, 0, len(p.faults))
	for _, f := range p.faults {
		out = append(out, f)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Stage != out[j].Stage {
			return out[i].Stage < out[j].Stage
		}
		return out[i].Chip < out[j].Chip
	})
	return out
}

// Clone returns an independent copy of the plane.
func (p *FaultPlane) Clone() *FaultPlane {
	q := NewFaultPlane()
	if p != nil {
		for k, f := range p.faults {
			q.faults[k] = f
		}
	}
	return q
}

// FaultInjectable is a multichip switch that accepts chip-level fault
// injection and exposes per-stage observability for health scanning.
// RevsortSwitch and ColumnsortSwitch implement it.
type FaultInjectable interface {
	Concentrator
	// StageChips describes the chip stages, in signal order.
	StageChips() []StageInfo
	// SetFaultPlane installs the live fault plane used by Route
	// (nil restores fault-free operation). The plane's addresses are
	// validated against StageChips.
	SetFaultPlane(p *FaultPlane) error
	// ActiveFaultPlane returns the installed plane (possibly nil).
	ActiveFaultPlane() *FaultPlane
	// RouteWithPlane routes with an explicit plane, ignoring (and not
	// disturbing) the installed one.
	RouteWithPlane(valid *bitvec.Vector, p *FaultPlane) ([]int, error)
	// TraceWithPlane is RouteWithPlane plus the wire matrix observed at
	// the inputs (snapshot 0) and after every chip stage (snapshot s+1
	// for stage s) — the scan-chain view a BIST controller reads.
	TraceWithPlane(valid *bitvec.Vector, p *FaultPlane) ([]Snapshot, []int, error)
	// GoldenStage applies stage's fault-free transform to a snapshot of
	// the stage's input wires, returning the expected output snapshot.
	// Passive interstage wiring on the stage's input side is included.
	GoldenStage(stage int, prev Snapshot) (Snapshot, error)
}

// ValidateFaultPlane checks every fault address in p against the
// stages of sw.
func ValidateFaultPlane(sw FaultInjectable, p *FaultPlane) error {
	if p == nil {
		return nil
	}
	stages := sw.StageChips()
	for _, f := range p.Faults() {
		if err := checkFault(f, stages); err != nil {
			return err
		}
	}
	return nil
}

// checkFault checks one fault's address, mode and ports against stages.
func checkFault(f ChipFault, stages []StageInfo) error {
	if f.Stage < 0 || f.Stage >= len(stages) {
		return fmt.Errorf("core: fault %v: switch has %d stages", f, len(stages))
	}
	st := stages[f.Stage]
	if f.Chip < 0 || f.Chip >= st.Chips {
		return fmt.Errorf("core: fault %v: stage %q has %d chips", f, st.Name, st.Chips)
	}
	switch f.Mode {
	case ChipStuckOutput:
		if f.A < 0 || f.A >= st.Ports {
			return fmt.Errorf("core: fault %v: stage %q chips have %d ports", f, st.Name, st.Ports)
		}
	case ChipSwappedPair:
		if f.A < 0 || f.A >= st.Ports || f.B < 0 || f.B >= st.Ports || f.A == f.B {
			return fmt.Errorf("core: fault %v: ports must be distinct and within %d", f, st.Ports)
		}
	case ChipDead, ChipPassThrough:
	default:
		return fmt.Errorf("core: fault %v: unknown mode", f)
	}
	return nil
}

// ---------------------------------------------------------------------------
// RevsortSwitch: fault plane and per-stage observability.

// Revsort stage indices for ChipFault.Stage.
const (
	RevsortStage1Columns = 0
	RevsortStage2Rows    = 1
	RevsortStage2Shifter = 2
	RevsortStage3Columns = 3
)

// StageChips implements FaultInjectable: 3√n hyperconcentrator chips in
// stages 1–3 plus the √n hardwired barrel shifters of stage 2.
func (s *RevsortSwitch) StageChips() []StageInfo {
	return append([]StageInfo(nil), s.stages...)
}

// SetFaultPlane implements FaultInjectable.
func (s *RevsortSwitch) SetFaultPlane(p *FaultPlane) error {
	if err := ValidateFaultPlane(s, p); err != nil {
		return err
	}
	s.plane = p
	return nil
}

// ActiveFaultPlane implements FaultInjectable.
func (s *RevsortSwitch) ActiveFaultPlane() *FaultPlane { return s.plane }

// RouteWithPlane implements FaultInjectable.
func (s *RevsortSwitch) RouteWithPlane(valid *bitvec.Vector, p *FaultPlane) ([]int, error) {
	if err := checkValid(valid, s.n); err != nil {
		return nil, err
	}
	out := make([]int, s.n)
	if err := s.route(out, valid, p, nil); err != nil {
		return nil, err
	}
	return out, nil
}

// TraceWithPlane implements FaultInjectable.
func (s *RevsortSwitch) TraceWithPlane(valid *bitvec.Vector, p *FaultPlane) ([]Snapshot, []int, error) {
	if err := checkValid(valid, s.n); err != nil {
		return nil, nil, err
	}
	var snaps []Snapshot
	out := make([]int, s.n)
	if err := s.route(out, valid, p, &snaps); err != nil {
		return nil, nil, err
	}
	return snaps, out, nil
}

// GoldenStage implements FaultInjectable: the fault-free transform of
// each Revsort stage.
func (s *RevsortSwitch) GoldenStage(stage int, prev Snapshot) (Snapshot, error) {
	if err := checkSnapshot(prev, s.side, s.side); err != nil {
		return Snapshot{}, err
	}
	ks := s.scratch.get(s.side, s.side, 0)
	defer s.scratch.put(ks)
	ks.loadSnapshot(prev)
	switch stage {
	case RevsortStage1Columns, RevsortStage3Columns:
		ks.colSort()
	case RevsortStage2Rows:
		ks.rowSort(false)
	case RevsortStage2Shifter:
		ks.rotateRev(ceilLg(s.side))
	default:
		return Snapshot{}, fmt.Errorf("core: revsort has no stage %d", stage)
	}
	return ks.snapshot(fmt.Sprintf("golden after stage %d", stage), prev.Cell), nil
}

// ---------------------------------------------------------------------------
// ColumnsortSwitch: fault plane and per-stage observability.

// Columnsort stage indices for ChipFault.Stage.
const (
	ColumnsortStage1 = 0
	ColumnsortStage2 = 1
)

// StageChips implements FaultInjectable: two stages of s chips of
// r-by-r each; the interstage CM→RM wiring is passive (not a stage).
func (c *ColumnsortSwitch) StageChips() []StageInfo {
	return append([]StageInfo(nil), c.stages...)
}

// SetFaultPlane implements FaultInjectable.
func (c *ColumnsortSwitch) SetFaultPlane(p *FaultPlane) error {
	if err := ValidateFaultPlane(c, p); err != nil {
		return err
	}
	c.plane = p
	return nil
}

// ActiveFaultPlane implements FaultInjectable.
func (c *ColumnsortSwitch) ActiveFaultPlane() *FaultPlane { return c.plane }

// RouteWithPlane implements FaultInjectable.
func (c *ColumnsortSwitch) RouteWithPlane(valid *bitvec.Vector, p *FaultPlane) ([]int, error) {
	if err := checkValid(valid, c.n); err != nil {
		return nil, err
	}
	out := make([]int, c.n)
	if err := c.route(out, valid, p, nil, false); err != nil {
		return nil, err
	}
	return out, nil
}

// TraceWithPlane implements FaultInjectable.
func (c *ColumnsortSwitch) TraceWithPlane(valid *bitvec.Vector, p *FaultPlane) ([]Snapshot, []int, error) {
	if err := checkValid(valid, c.n); err != nil {
		return nil, nil, err
	}
	var snaps []Snapshot
	out := make([]int, c.n)
	if err := c.route(out, valid, p, &snaps, false); err != nil {
		return nil, nil, err
	}
	return snaps, out, nil
}

// GoldenStage implements FaultInjectable. Stage 2's golden transform
// includes the passive CM→RM interstage wiring on its input side.
func (c *ColumnsortSwitch) GoldenStage(stage int, prev Snapshot) (Snapshot, error) {
	if err := checkSnapshot(prev, c.r, c.s); err != nil {
		return Snapshot{}, err
	}
	ks := c.scratch.get(c.r, c.s, 0)
	defer c.scratch.put(ks)
	ks.loadSnapshot(prev)
	switch stage {
	case ColumnsortStage1:
		ks.colSort()
	case ColumnsortStage2:
		ks.reshapeCMtoRM()
		ks.colSort()
	default:
		return Snapshot{}, fmt.Errorf("core: columnsort has no stage %d", stage)
	}
	return ks.snapshot(fmt.Sprintf("golden after stage %d", stage), prev.Cell), nil
}

// checkSnapshot rejects a snapshot whose shape is not the switch's
// rows×cols wire matrix.
func checkSnapshot(s Snapshot, rows, cols int) error {
	if s.Rows != rows || s.Cols != cols || len(s.Cell) != rows*cols {
		return fmt.Errorf("core: snapshot is %d×%d (%d cells), switch matrix is %d×%d",
			s.Rows, s.Cols, len(s.Cell), rows, cols)
	}
	return nil
}
