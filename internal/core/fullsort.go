package core

import (
	"fmt"

	"concentrators/internal/bitvec"
	"concentrators/internal/hyper"
	"concentrators/internal/mesh"
)

// ---------------------------------------------------------------------------
// FullRevsortHyper: §6, multichip hyperconcentrator from the full
// Revsort algorithm plus Shearsort cleanup.

// FullRevsortHyper is an n-by-n multichip HYPERconcentrator built by
// simulating the full Revsort algorithm: ⌈lg lg √n⌉ repetitions of
// stacks 1 and 2 of Figure 4, a column-sorting stack, then pairs of
// Shearsort stacks, and a final row-sorting stack. A message passes
// through 2 lg lg n + 4 ± O(1) chips and the switch uses
// Θ(√n lg lg n) chips in volume Θ(n^{3/2} lg lg n).
type FullRevsortHyper struct {
	n, m, side int
	lastStages int
	// scratch pools the word-parallel kernel state (kernel.go).
	scratch routeScratch
}

// NewFullRevsortHyper builds the switch; n must be a perfect square
// with power-of-two side, m ≤ n (m < n restricts the outputs, making
// it an n-by-m perfect concentrator).
func NewFullRevsortHyper(n, m int) (*FullRevsortHyper, error) {
	if err := checkDims(n, m); err != nil {
		return nil, err
	}
	side, ok := intSqrt(n)
	if !ok || !isPow2(side) {
		return nil, fmt.Errorf("core: full-Revsort hyperconcentrator requires square n with power-of-two side, got n=%d", n)
	}
	return &FullRevsortHyper{n: n, m: m, side: side}, nil
}

// Name implements Concentrator.
func (s *FullRevsortHyper) Name() string { return "full-revsort hyper" }

// Inputs implements Concentrator.
func (s *FullRevsortHyper) Inputs() int { return s.n }

// Outputs implements Concentrator.
func (s *FullRevsortHyper) Outputs() int { return s.m }

// Route implements Concentrator: it fully sorts the valid bits, so the
// k messages exit on the first k row-major outputs.
func (s *FullRevsortHyper) Route(valid *bitvec.Vector) ([]int, error) {
	out := make([]int, s.n)
	if err := s.RouteInto(out, valid); err != nil {
		return nil, err
	}
	return out, nil
}

// StagesLastRoute returns the number of chip stages the previous Route
// call actually used (for comparison with ChipsTraversed's worst-case
// formula).
func (s *FullRevsortHyper) StagesLastRoute() int { return s.lastStages }

// ChipsTraversed implements Concentrator with the §6 budget: two
// stacks per Revsort phase, one column stack, three Shearsort
// iterations (two stacks each), and a final row stack.
func (s *FullRevsortHyper) ChipsTraversed() int {
	return 2*mesh.RevsortPhaseCount(s.side) + 1 + 2*3 + 1
}

// EpsilonBound implements Concentrator: full sorting means ε = 0.
func (s *FullRevsortHyper) EpsilonBound() int { return 0 }

// GateDelays implements Concentrator: ChipsTraversed chips of size √n
// — Θ(lg n lg lg n), the paper's 4 lg n lg lg n + 8 lg n + O(lg lg n)
// shape.
func (s *FullRevsortHyper) GateDelays() int {
	return s.ChipsTraversed() * (hyper.GateDelays(s.side) + hyper.PadDelays)
}

// ChipCount implements Concentrator: √n chips per stack.
func (s *FullRevsortHyper) ChipCount() int {
	// Phase stacks also carry a barrel shifter per board.
	phases := mesh.RevsortPhaseCount(s.side)
	hyperChips := s.ChipsTraversed() * s.side
	shifters := phases * s.side
	return hyperChips + shifters
}

// DataPinsPerChip implements Concentrator.
func (s *FullRevsortHyper) DataPinsPerChip() int {
	return hyper.DataPins(s.side) + ceilLg(s.side)
}

// ---------------------------------------------------------------------------
// FullColumnsortHyper: §6, multichip hyperconcentrator from all eight
// Columnsort steps.

// FullColumnsortHyper is an n-by-n multichip HYPERconcentrator built by
// simulating all eight steps of Columnsort on an r×s mesh. A message
// passes through four chips, incurring 8β lg n + O(1) gate delays; the
// asymptotic chip count and volume match the two-stage partial
// concentrator. Outputs are numbered in COLUMN-major order (Columnsort
// sorts column-major).
type FullColumnsortHyper struct {
	n, m, r, s int
	// scratch pools the word-parallel kernel state (kernel.go).
	scratch routeScratch
}

// NewFullColumnsortHyper builds the switch. Requires s | r and
// r ≥ 2(s−1)² (Leighton's condition for full sorting).
func NewFullColumnsortHyper(r, s, m int) (*FullColumnsortHyper, error) {
	if r < 1 || s < 1 || s > r || r%s != 0 {
		return nil, fmt.Errorf("core: full Columnsort requires r ≥ s ≥ 1 with s | r, got r=%d s=%d", r, s)
	}
	if r < 2*(s-1)*(s-1) {
		return nil, fmt.Errorf("core: full Columnsort requires r ≥ 2(s−1)², got r=%d s=%d", r, s)
	}
	n := r * s
	if err := checkDims(n, m); err != nil {
		return nil, err
	}
	return &FullColumnsortHyper{n: n, m: m, r: r, s: s}, nil
}

// Name implements Concentrator.
func (c *FullColumnsortHyper) Name() string { return "full-columnsort hyper" }

// Inputs implements Concentrator.
func (c *FullColumnsortHyper) Inputs() int { return c.n }

// Outputs implements Concentrator.
func (c *FullColumnsortHyper) Outputs() int { return c.m }

// Route implements Concentrator: the k valid messages exit on the first
// k column-major outputs.
func (c *FullColumnsortHyper) Route(valid *bitvec.Vector) ([]int, error) {
	out := make([]int, c.n)
	if err := c.RouteInto(out, valid); err != nil {
		return nil, err
	}
	return out, nil
}

// EpsilonBound implements Concentrator: full sorting, ε = 0.
func (c *FullColumnsortHyper) EpsilonBound() int { return 0 }

// ChipsTraversed implements Concentrator: the four column-sort stages.
func (c *FullColumnsortHyper) ChipsTraversed() int { return 4 }

// GateDelays implements Concentrator: 8β lg n + O(1) (§6).
func (c *FullColumnsortHyper) GateDelays() int {
	return 4 * (hyper.GateDelays(c.r) + hyper.PadDelays)
}

// ChipCount implements Concentrator: four stages of s chips (the step-7
// stage has s+1 columns).
func (c *FullColumnsortHyper) ChipCount() int { return 3*c.s + (c.s + 1) }

// DataPinsPerChip implements Concentrator.
func (c *FullColumnsortHyper) DataPinsPerChip() int { return hyper.DataPins(c.r) }
