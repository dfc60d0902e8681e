package mesh

import "fmt"

// checkColumnsortShape validates the §5 shape constraints: n = r·s with
// s dividing r.
func checkColumnsortShape(m *Matrix) error {
	if m.cols > m.rows {
		return fmt.Errorf("mesh: Columnsort requires r ≥ s, got %d×%d", m.rows, m.cols)
	}
	if m.rows%m.cols != 0 {
		return fmt.Errorf("mesh: Columnsort requires s | r, got %d×%d", m.rows, m.cols)
	}
	return nil
}

// ReshapeCMtoRM performs step 2 of Algorithm 2: the element with
// column-major index x = r·j + i moves to the position with row-major
// index x, i.e. to row ⌊x/s⌋, column x mod s. The shape is unchanged.
func ReshapeCMtoRM(m *Matrix) {
	r, s := m.rows, m.cols
	out := make([]byte, r*s)
	for j := 0; j < s; j++ {
		for i := 0; i < r; i++ {
			x := r*j + i
			out[x] = m.bits[i*s+j] // destination row ⌊x/s⌋, col x mod s ⇒ row-major index x
		}
	}
	m.bits = out
}

// Algorithm2 runs the paper's Algorithm 2 — the first three steps of
// Columnsort — in place on an r×s 0/1 matrix with s | r:
//
//  1. fully sort the columns
//  2. convert the matrix from column-major to row-major order
//  3. fully sort the columns
//
// Afterwards the row-major reading is (s−1)²-nearsorted (Theorem 4 /
// [Leighton 1985]).
func Algorithm2(m *Matrix) error {
	if err := checkColumnsortShape(m); err != nil {
		return err
	}
	m.SortColumns()
	ReshapeCMtoRM(m)
	m.SortColumns()
	return nil
}

// Algorithm2Bound returns the nearsortedness bound (s−1)² for an
// r×s Columnsort mesh.
func Algorithm2Bound(s int) int { return (s - 1) * (s - 1) }
