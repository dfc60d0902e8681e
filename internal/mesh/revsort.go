package mesh

import "fmt"

// Rev returns the q-bit reversal of i (including leading zeros), the
// rev() function of §4: e.g. for q = 4, Rev(3) = Rev(0011b) = 1100b = 12.
func Rev(i, q int) int {
	if q < 0 || i < 0 || i >= 1<<uint(q) {
		panic(fmt.Sprintf("mesh: Rev(%d, %d) out of range", i, q))
	}
	r := 0
	for b := 0; b < q; b++ {
		if i&(1<<uint(b)) != 0 {
			r |= 1 << uint(q-1-b)
		}
	}
	return r
}

// sideLg returns q with side == 2^q, or an error if side is not a
// power of two.
func sideLg(side int) (int, error) {
	q := 0
	for 1<<uint(q) < side {
		q++
	}
	if 1<<uint(q) != side {
		return 0, fmt.Errorf("mesh: side %d is not a power of two", side)
	}
	return q, nil
}

// RevRotate performs step 3 of Algorithm 1: cyclically rotate row i by
// Rev(i) places to the right, for every row. The matrix must be square
// with power-of-two side.
func RevRotate(m *Matrix) error {
	if m.rows != m.cols {
		return fmt.Errorf("mesh: RevRotate requires a square matrix, got %d×%d", m.rows, m.cols)
	}
	q, err := sideLg(m.rows)
	if err != nil {
		return err
	}
	for i := 0; i < m.rows; i++ {
		m.RotateRowRight(i, Rev(i, q))
	}
	return nil
}

// Algorithm1 runs the paper's Algorithm 1 — the first 1½ iterations of
// Revsort — in place on a √n×√n 0/1 matrix (√n a power of two):
//
//  1. fully sort the columns
//  2. fully sort the rows
//  3. cyclically rotate row i by rev(i) places to the right
//  4. fully sort the columns
//
// Afterwards the matrix consists of clean 1-rows, at most
// 2⌈n^{1/4}⌉ − 1 dirty rows, and clean 0-rows (Theorem 3 / [Schnorr &
// Shamir]), so its row-major reading is O(n^{3/4})-nearsorted.
func Algorithm1(m *Matrix) error {
	if m.rows != m.cols {
		return fmt.Errorf("mesh: Algorithm 1 requires a square matrix, got %d×%d", m.rows, m.cols)
	}
	if _, err := sideLg(m.rows); err != nil {
		return err
	}
	m.SortColumns()
	m.SortRows()
	if err := RevRotate(m); err != nil {
		return err
	}
	m.SortColumns()
	return nil
}

// Algorithm1DirtyBound returns the paper's bound on the number of
// dirty rows after Algorithm 1 on an n-element matrix:
// 2⌈n^{1/4}⌉ − 1.
func Algorithm1DirtyBound(n int) int {
	return 2*ceilFourthRoot(n) - 1
}

// ceilFourthRoot returns ⌈n^{1/4}⌉.
func ceilFourthRoot(n int) int {
	if n < 0 {
		panic("mesh: negative size")
	}
	r := 0
	for r*r*r*r < n {
		r++
	}
	return r
}

// RevsortPhase runs one Revsort phase (steps 1–3 of Algorithm 1: sort
// columns, sort rows, rev-rotate). Section 6 of the paper repeats this
// phase ⌈lg lg √n⌉ times, after which at most eight dirty rows remain
// (following a final column sort).
func RevsortPhase(m *Matrix) error {
	if m.rows != m.cols {
		return fmt.Errorf("mesh: Revsort requires a square matrix, got %d×%d", m.rows, m.cols)
	}
	if _, err := sideLg(m.rows); err != nil {
		return err
	}
	m.SortColumns()
	m.SortRows()
	return RevRotate(m)
}

// RevsortPhaseCount returns ⌈lg lg √n⌉ (at least 1), the number of
// phase repetitions §6 prescribes for a √n×√n mesh.
func RevsortPhaseCount(side int) int {
	lg := 0
	for 1<<uint(lg) < side {
		lg++
	}
	// lg = lg √n; we need ⌈lg lg √n⌉.
	c := 0
	for 1<<uint(c) < lg {
		c++
	}
	if c < 1 {
		c = 1
	}
	return c
}

// DirtyRowsAfterPhases runs p Revsort phases followed by one column
// sort (the state §6 reasons about) on a copy of the matrix and returns
// the dirty-row count. It is the measurable form of the Schnorr–Shamir
// claim that ⌈lg lg √n⌉ phases leave at most eight dirty rows.
func DirtyRowsAfterPhases(m *Matrix, phases int) (int, error) {
	c := m.Clone()
	for p := 0; p < phases; p++ {
		if err := RevsortPhase(c); err != nil {
			return 0, err
		}
	}
	c.SortColumns()
	return c.DirtyRows(), nil
}
