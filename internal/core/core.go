// Package core implements the paper's contribution: multichip partial
// concentrator switches. It provides, behind the uniform Concentrator
// interface:
//
//   - PerfectSwitch — the single-chip n-by-m perfect concentrator of §1
//     (an n-by-n hyperconcentrator restricted to m outputs), usable only
//     while one chip can hold Θ(n²) area and 2n pins;
//   - RevsortSwitch — §4: an (n, m, 1−O(n^{3/4}/m)) partial concentrator
//     from three stages of √n-by-√n hyperconcentrator chips plus
//     hardwired barrel shifters (Algorithm 1, 1½ Revsort iterations);
//   - ColumnsortSwitch — §5: an (n, m, 1−(s−1)²/m) partial concentrator
//     from two stages of r-by-r hyperconcentrator chips (Algorithm 2,
//     Columnsort steps 1–3), parameterized by β through the r×s shape;
//   - FullRevsortHyper and FullColumnsortHyper — §6: multichip
//     HYPERconcentrators from the complete sorting algorithms;
//   - Crossbar — a naive n×m baseline for cost comparisons.
//
// Every switch is combinational: Route models the setup cycle in which
// the valid bits establish disjoint electrical paths; subsequent
// message bits follow those paths (internal/switchsim simulates this
// bit-serially).
package core

import (
	"fmt"

	"concentrators/internal/bitvec"
	"concentrators/internal/hyper"
	"concentrators/internal/mesh"
)

// Concentrator is the uniform view of every switch in this package.
type Concentrator interface {
	// Name identifies the design (for reports).
	Name() string
	// Inputs returns n, the number of input wires.
	Inputs() int
	// Outputs returns m, the number of output wires.
	Outputs() int
	// Route performs the setup cycle: out[i] is the output wire on
	// which input i's electrical path is established, or −1 if input i
	// is invalid or its message is not routed.
	Route(valid *bitvec.Vector) ([]int, error)
	// EpsilonBound returns the analytic nearsortedness bound ε of the
	// switch's valid-bit rearrangement (0 for perfect concentrators).
	// By Lemma 2 the switch is an (n, m, 1−ε/m) partial concentrator.
	EpsilonBound() int
	// GateDelays returns the paper's delay accounting for a message
	// passing through the switch (hyperconcentrator chip delays per
	// CL86 plus pad and shifter constants).
	GateDelays() int
	// ChipsTraversed returns the number of chips on a message's path.
	ChipsTraversed() int
	// ChipCount returns the total number of chips in the switch.
	ChipCount() int
	// DataPinsPerChip returns the maximum data pin count of any chip.
	DataPinsPerChip() int
}

// LoadRatio returns the Lemma 2 load ratio 1 − ε/m of a switch
// (clamped at 0).
func LoadRatio(c Concentrator) float64 {
	a := 1 - float64(c.EpsilonBound())/float64(c.Outputs())
	if a < 0 {
		return 0
	}
	return a
}

// Threshold returns ⌊αm⌋ = m − ε, the guaranteed routed-message count
// of a switch under full load (clamped at 0).
func Threshold(c Concentrator) int {
	t := c.Outputs() - c.EpsilonBound()
	if t < 0 {
		return 0
	}
	return t
}

func checkDims(n, m int) error {
	if n < 1 {
		return fmt.Errorf("core: n = %d must be ≥ 1", n)
	}
	if m < 1 || m > n {
		return fmt.Errorf("core: m = %d must satisfy 1 ≤ m ≤ n = %d", m, n)
	}
	return nil
}

func checkValid(valid *bitvec.Vector, n int) error {
	if valid.Len() != n {
		return fmt.Errorf("core: %d valid bits on an %d-input switch", valid.Len(), n)
	}
	return nil
}

func ceilLg(n int) int {
	l := 0
	for (1 << uint(l)) < n {
		l++
	}
	return l
}

func isPow2(n int) bool { return n > 0 && n&(n-1) == 0 }

// intSqrt returns (√n, true) when n is a perfect square.
func intSqrt(n int) (int, bool) {
	r := 0
	for r*r < n {
		r++
	}
	return r, r*r == n
}

// ---------------------------------------------------------------------------
// PerfectSwitch: the single-chip baseline of §1.

// PerfectSwitch is an n-by-m perfect concentrator switch implemented on
// a single hyperconcentrator chip (first m outputs). Its area is Θ(n²)
// and it needs n+m data pins, which is exactly the scaling problem the
// multichip designs solve.
type PerfectSwitch struct {
	n, m int
	p    *hyper.Perfect
}

// NewPerfectSwitch builds the single-chip n-by-m perfect concentrator.
func NewPerfectSwitch(n, m int) (*PerfectSwitch, error) {
	if err := checkDims(n, m); err != nil {
		return nil, err
	}
	p, err := hyper.NewPerfect(n, m)
	if err != nil {
		return nil, err
	}
	return &PerfectSwitch{n: n, m: m, p: p}, nil
}

// Name implements Concentrator.
func (s *PerfectSwitch) Name() string { return "perfect (single chip)" }

// Inputs implements Concentrator.
func (s *PerfectSwitch) Inputs() int { return s.n }

// Outputs implements Concentrator.
func (s *PerfectSwitch) Outputs() int { return s.m }

// Route implements Concentrator.
func (s *PerfectSwitch) Route(valid *bitvec.Vector) ([]int, error) {
	out := make([]int, s.n)
	if err := s.RouteInto(out, valid); err != nil {
		return nil, err
	}
	return out, nil
}

// EpsilonBound implements Concentrator: a hyperconcentrator fully sorts
// (ε = 0).
func (s *PerfectSwitch) EpsilonBound() int { return 0 }

// GateDelays implements Concentrator: 2 lg n + O(1) per CL86.
func (s *PerfectSwitch) GateDelays() int { return hyper.GateDelays(s.n) + hyper.PadDelays }

// ChipsTraversed implements Concentrator.
func (s *PerfectSwitch) ChipsTraversed() int { return 1 }

// ChipCount implements Concentrator.
func (s *PerfectSwitch) ChipCount() int { return 1 }

// DataPinsPerChip implements Concentrator: n inputs and m outputs on
// the one chip.
func (s *PerfectSwitch) DataPinsPerChip() int { return s.n + s.m }

// ---------------------------------------------------------------------------
// Crossbar: naive baseline.

// Crossbar is a single-chip n×m crosspoint-array perfect concentrator
// baseline: Θ(nm) area and n+m pins, with Θ(n) worst-case gate delays
// along its daisy-chained grant logic. It exists for cost comparisons.
type Crossbar struct {
	n, m int
}

// NewCrossbar builds the baseline crossbar concentrator.
func NewCrossbar(n, m int) (*Crossbar, error) {
	if err := checkDims(n, m); err != nil {
		return nil, err
	}
	return &Crossbar{n: n, m: m}, nil
}

// Name implements Concentrator.
func (s *Crossbar) Name() string { return "crossbar (baseline)" }

// Inputs implements Concentrator.
func (s *Crossbar) Inputs() int { return s.n }

// Outputs implements Concentrator.
func (s *Crossbar) Outputs() int { return s.m }

// Route implements Concentrator: greedy crosspoint assignment, which
// for concentration equals the stable hyperconcentrator route.
func (s *Crossbar) Route(valid *bitvec.Vector) ([]int, error) {
	out := make([]int, s.n)
	if err := s.RouteInto(out, valid); err != nil {
		return nil, err
	}
	return out, nil
}

// EpsilonBound implements Concentrator.
func (s *Crossbar) EpsilonBound() int { return 0 }

// GateDelays implements Concentrator: the ripple down a crossbar column
// is linear in n.
func (s *Crossbar) GateDelays() int { return s.n + hyper.PadDelays }

// ChipsTraversed implements Concentrator.
func (s *Crossbar) ChipsTraversed() int { return 1 }

// ChipCount implements Concentrator.
func (s *Crossbar) ChipCount() int { return 1 }

// DataPinsPerChip implements Concentrator.
func (s *Crossbar) DataPinsPerChip() int { return s.n + s.m }

// ---------------------------------------------------------------------------
// RevsortSwitch: §4.

// RevsortSwitch is the three-stage partial concentrator of §4. The n
// inputs are arranged as a √n×√n matrix (√n a power of two); stage 1
// chips sort the columns, stage 2 chips sort the rows and feed
// hardwired rev(i) barrel shifters, stage 3 chips sort the columns
// again (Algorithm 1). The m outputs are the first m matrix positions
// in row-major order.
type RevsortSwitch struct {
	n, m, side int
	// stages describes the chip stages (StageChips); plane holds the
	// live chip faults injected into the switch (nil when healthy).
	// See faultplane.go.
	stages []StageInfo
	plane  *FaultPlane
	// scratch pools the word-parallel kernel state (kernel.go).
	scratch routeScratch
}

// NewRevsortSwitch builds the switch. n must be a perfect square with
// power-of-two side, and 1 ≤ m ≤ n.
func NewRevsortSwitch(n, m int) (*RevsortSwitch, error) {
	if err := checkDims(n, m); err != nil {
		return nil, err
	}
	side, ok := intSqrt(n)
	if !ok || !isPow2(side) {
		return nil, fmt.Errorf("core: Revsort switch requires n a perfect square with power-of-two side, got n=%d", n)
	}
	return &RevsortSwitch{n: n, m: m, side: side, stages: []StageInfo{
		{Name: "stage1 column chips", Chips: side, Ports: side, ChipsAreColumns: true},
		{Name: "stage2 row chips", Chips: side, Ports: side, ChipsAreColumns: false},
		{Name: "stage2 barrel shifters", Chips: side, Ports: side, ChipsAreColumns: false},
		{Name: "stage3 column chips", Chips: side, Ports: side, ChipsAreColumns: true},
	}}, nil
}

// Name implements Concentrator.
func (s *RevsortSwitch) Name() string { return "revsort" }

// Inputs implements Concentrator.
func (s *RevsortSwitch) Inputs() int { return s.n }

// Outputs implements Concentrator.
func (s *RevsortSwitch) Outputs() int { return s.m }

// Side returns √n, the matrix side and hyperconcentrator chip size.
func (s *RevsortSwitch) Side() int { return s.side }

// Route implements Concentrator. With a fault plane installed the
// route reflects the injected chip failures.
func (s *RevsortSwitch) Route(valid *bitvec.Vector) ([]int, error) {
	out := make([]int, s.n)
	if err := s.RouteInto(out, valid); err != nil {
		return nil, err
	}
	return out, nil
}

// EpsilonBound implements Concentrator: Theorem 3's
// ε = (2⌈n^{1/4}⌉−1)·√n = O(n^{3/4}), from the dirty-row bound of
// Algorithm 1.
func (s *RevsortSwitch) EpsilonBound() int {
	return mesh.Algorithm1DirtyBound(s.n) * s.side
}

// GateDelays implements Concentrator: three chips of size √n plus the
// hardwired barrel shifter, 3 lg n + O(1) in total (§4).
func (s *RevsortSwitch) GateDelays() int {
	return 3*(hyper.GateDelays(s.side)+hyper.PadDelays) + BarrelShifterDelay
}

// BarrelShifterDelay is the constant number of gate delays through a
// hardwired barrel shifter (its control bits never change, §4).
const BarrelShifterDelay = 1

// ChipsTraversed implements Concentrator: one chip per stage plus the
// stage-2 barrel shifter chip.
func (s *RevsortSwitch) ChipsTraversed() int { return 4 }

// ChipCount implements Concentrator: 3√n hyperconcentrator chips and √n
// barrel shifters.
func (s *RevsortSwitch) ChipCount() int { return 4 * s.side }

// HyperChipCount returns the number of hyperconcentrator chips (3√n).
func (s *RevsortSwitch) HyperChipCount() int { return 3 * s.side }

// BarrelShifterCount returns the number of barrel shifter chips (√n).
func (s *RevsortSwitch) BarrelShifterCount() int { return s.side }

// DataPinsPerChip implements Concentrator: the barrel shifter needs
// 2√n + ⌈(lg n)/2⌉ pins (data plus hardwired control), the
// hyperconcentrator chips 2√n.
func (s *RevsortSwitch) DataPinsPerChip() int {
	return hyper.DataPins(s.side) + ceilLg(s.side)
}

// ---------------------------------------------------------------------------
// ColumnsortSwitch: §5.

// ColumnsortSwitch is the two-stage partial concentrator of §5. The n
// inputs form an r×s matrix (n = rs, s | r); stage 1 chips sort the
// columns, the interstage wiring converts column-major to row-major
// order, stage 2 chips sort the columns again (Algorithm 2). The m
// outputs are the first m matrix positions in row-major order.
type ColumnsortSwitch struct {
	n, m, r, s int
	// stages describes the chip stages (StageChips); plane holds the
	// live chip faults injected into the switch (nil when healthy).
	// See faultplane.go.
	stages []StageInfo
	plane  *FaultPlane
	// scratch pools the word-parallel kernel state (kernel.go).
	scratch routeScratch
}

// NewColumnsortSwitch builds the switch for an explicit r×s shape.
func NewColumnsortSwitch(r, s, m int) (*ColumnsortSwitch, error) {
	if r < 1 || s < 1 || s > r || r%s != 0 {
		return nil, fmt.Errorf("core: Columnsort switch requires r ≥ s ≥ 1 with s | r, got r=%d s=%d", r, s)
	}
	n := r * s
	if err := checkDims(n, m); err != nil {
		return nil, err
	}
	return &ColumnsortSwitch{n: n, m: m, r: r, s: s, stages: []StageInfo{
		{Name: "stage1 column chips", Chips: s, Ports: r, ChipsAreColumns: true},
		{Name: "stage2 column chips", Chips: s, Ports: r, ChipsAreColumns: true},
	}}, nil
}

// NewColumnsortSwitchBeta builds the switch with the β parameterization
// of §5: r = Θ(n^β), s = Θ(n^{1−β}) for ½ ≤ β ≤ 1 (see ShapeForBeta).
func NewColumnsortSwitchBeta(n, m int, beta float64) (*ColumnsortSwitch, error) {
	r, s, err := ShapeForBeta(n, beta)
	if err != nil {
		return nil, err
	}
	return NewColumnsortSwitch(r, s, m)
}

// ShapeForBeta chooses the r×s mesh shape realizing β for a
// power-of-four... more precisely, for any power-of-two n it returns
// r = 2^⌈β·lg n⌉ adjusted so that s | r and r·s = n, with ½ ≤ β ≤ 1.
func ShapeForBeta(n int, beta float64) (r, s int, err error) {
	if !isPow2(n) {
		return 0, 0, fmt.Errorf("core: β-shaping requires power-of-two n, got %d", n)
	}
	if beta < 0.5 || beta > 1 {
		return 0, 0, fmt.Errorf("core: β = %v out of range [1/2, 1]", beta)
	}
	lgN := ceilLg(n)
	lgR := int(beta*float64(lgN) + 0.5)
	// s | r requires lgR ≥ lgN − lgR, i.e. lgR ≥ ⌈lgN/2⌉.
	if min := (lgN + 1) / 2; lgR < min {
		lgR = min
	}
	if lgR > lgN {
		lgR = lgN
	}
	r = 1 << uint(lgR)
	s = n / r
	return r, s, nil
}

// Name implements Concentrator.
func (c *ColumnsortSwitch) Name() string { return "columnsort" }

// Inputs implements Concentrator.
func (c *ColumnsortSwitch) Inputs() int { return c.n }

// Outputs implements Concentrator.
func (c *ColumnsortSwitch) Outputs() int { return c.m }

// Shape returns the r×s mesh shape.
func (c *ColumnsortSwitch) Shape() (r, s int) { return c.r, c.s }

// Route implements Concentrator. With a fault plane installed the
// route reflects the injected chip failures.
func (c *ColumnsortSwitch) Route(valid *bitvec.Vector) ([]int, error) {
	out := make([]int, c.n)
	if err := c.RouteInto(out, valid); err != nil {
		return nil, err
	}
	return out, nil
}

// EpsilonBound implements Concentrator: Theorem 4's ε = (s−1)².
func (c *ColumnsortSwitch) EpsilonBound() int { return mesh.Algorithm2Bound(c.s) }

// GateDelays implements Concentrator: two chips of size r,
// 4β lg n + O(1) in total (§5).
func (c *ColumnsortSwitch) GateDelays() int {
	return 2 * (hyper.GateDelays(c.r) + hyper.PadDelays)
}

// ChipsTraversed implements Concentrator.
func (c *ColumnsortSwitch) ChipsTraversed() int { return 2 }

// ChipCount implements Concentrator: 2s chips of r-by-r each.
func (c *ColumnsortSwitch) ChipCount() int { return 2 * c.s }

// DataPinsPerChip implements Concentrator: 2r.
func (c *ColumnsortSwitch) DataPinsPerChip() int { return hyper.DataPins(c.r) }
