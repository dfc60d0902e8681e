package core

import (
	"fmt"
	"strings"

	"concentrators/internal/bitvec"
)

// Snapshot cell markers. Non-negative cells are message ids (the switch
// input index that injected the message).
const (
	CellEmpty   = -1 // an idle wire: an invalid input, a 0 valid bit
	CellPadOne  = -2 // a hardwired always-valid dummy input (Columnsort step 6 pads)
	CellPhantom = -3 // a stuck-at-1 chip output: asserts valid but carries no message
)

// Snapshot is the wire occupancy of the switch's underlying matrix at
// one point of the setup: Cell[i·Cols+j] holds the id of the message on
// the wire at row i, column j, CellEmpty (−1) for an idle wire, or
// CellPhantom for a stuck-at-1 output. Snapshots are what Figures 3 and
// 6 draw as heavy lines.
type Snapshot struct {
	Label      string
	Rows, Cols int
	Cell       []int
}

// Render draws the snapshot with one glyph per wire: '.' for idle
// wires and a rotating alphabet for message ids.
func (s Snapshot) Render() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s:\n", s.Label)
	for i := 0; i < s.Rows; i++ {
		sb.WriteString("  ")
		for j := 0; j < s.Cols; j++ {
			sb.WriteByte(glyph(s.Cell[i*s.Cols+j]))
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}

func glyph(id int) byte {
	const alpha = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789"
	if id < 0 {
		return '.'
	}
	return alpha[id%len(alpha)]
}

// Trace runs the Revsort switch's setup and returns the matrix
// occupancy after every stage, plus the final routing — the executable
// form of Figure 3's path drawing.
func (s *RevsortSwitch) Trace(valid *bitvec.Vector) ([]Snapshot, []int, error) {
	return s.TraceWithPlane(valid, nil)
}

// Trace runs the Columnsort switch's setup and returns the matrix
// occupancy after every stage and after the interstage wiring, plus the
// final routing — the executable form of Figure 6's path drawing.
func (c *ColumnsortSwitch) Trace(valid *bitvec.Vector) ([]Snapshot, []int, error) {
	if err := checkValid(valid, c.n); err != nil {
		return nil, nil, err
	}
	var snaps []Snapshot
	out := make([]int, c.n)
	if err := c.route(out, valid, nil, &snaps, true); err != nil {
		return nil, nil, err
	}
	return snaps, out, nil
}
