// Package mesh implements the mesh-sorting substrate underlying both
// multichip switch designs, one byte per cell: 0/1 matrices with
// row/column sorting, Schnorr–Shamir Revsort (Algorithm 1 of §4, and
// the phase convergence §6 relies on), Shearsort, and Leighton's
// Columnsort (Algorithm 2 of §5). It is the reference the experiments
// run and core's kernel tests compare against; §6's full sorters are
// core's FullRevsortHyper and FullColumnsortHyper.
//
// Per §2 of the paper, "sorted" means NONINCREASING: 1s (valid bits)
// sort to the top of columns and to the left of rows. The 0-1 principle
// makes 0/1 matrices sufficient for everything the paper needs.
package mesh

import (
	"fmt"
	"strings"

	"concentrators/internal/bitvec"
)

// Matrix is an r×c matrix of bits.
type Matrix struct {
	rows, cols int
	bits       []byte // row-major; values 0 or 1
}

// NewMatrix returns an all-zero rows×cols matrix. Dimensions must be
// positive.
func NewMatrix(rows, cols int) *Matrix {
	if rows < 1 || cols < 1 {
		panic(fmt.Sprintf("mesh: invalid matrix dimensions %d×%d", rows, cols))
	}
	return &Matrix{rows: rows, cols: cols, bits: make([]byte, rows*cols)}
}

// FromRowMajor builds a rows×cols matrix whose row-major reading is v.
func FromRowMajor(v *bitvec.Vector, rows, cols int) (*Matrix, error) {
	if v.Len() != rows*cols {
		return nil, fmt.Errorf("mesh: vector length %d != %d×%d", v.Len(), rows, cols)
	}
	m := NewMatrix(rows, cols)
	for i := 0; i < v.Len(); i++ {
		if v.Get(i) {
			m.bits[i] = 1
		}
	}
	return m, nil
}

// Rows returns the number of rows.
func (m *Matrix) Rows() int { return m.rows }

// Cols returns the number of columns.
func (m *Matrix) Cols() int { return m.cols }

// Size returns rows×cols.
func (m *Matrix) Size() int { return m.rows * m.cols }

// Get returns the bit at row i, column j.
func (m *Matrix) Get(i, j int) byte {
	m.check(i, j)
	return m.bits[i*m.cols+j]
}

// Set stores b (0 or 1) at row i, column j.
func (m *Matrix) Set(i, j int, b byte) {
	m.check(i, j)
	if b != 0 {
		b = 1
	}
	m.bits[i*m.cols+j] = b
}

func (m *Matrix) check(i, j int) {
	if i < 0 || i >= m.rows || j < 0 || j >= m.cols {
		panic(fmt.Sprintf("mesh: index (%d,%d) out of range %d×%d", i, j, m.rows, m.cols))
	}
}

// Clone returns a deep copy.
func (m *Matrix) Clone() *Matrix {
	c := NewMatrix(m.rows, m.cols)
	copy(c.bits, m.bits)
	return c
}

// Equal reports whether m and o have identical shape and contents.
func (m *Matrix) Equal(o *Matrix) bool {
	if m.rows != o.rows || m.cols != o.cols {
		return false
	}
	for i := range m.bits {
		if m.bits[i] != o.bits[i] {
			return false
		}
	}
	return true
}

// Count returns the number of 1s.
func (m *Matrix) Count() int {
	c := 0
	for _, b := range m.bits {
		c += int(b)
	}
	return c
}

// RowMajor returns the row-major reading of the matrix.
func (m *Matrix) RowMajor() *bitvec.Vector {
	return bitvec.FromBits(m.bits)
}

// ColMajor returns the column-major reading of the matrix.
func (m *Matrix) ColMajor() *bitvec.Vector {
	v := bitvec.New(m.rows * m.cols)
	at := 0
	for j := 0; j < m.cols; j++ {
		for i := 0; i < m.rows; i++ {
			if m.bits[i*m.cols+j] != 0 {
				v.Set(at, true)
			}
			at++
		}
	}
	return v
}

// String renders the matrix with one row per line.
func (m *Matrix) String() string {
	var sb strings.Builder
	for i := 0; i < m.rows; i++ {
		for j := 0; j < m.cols; j++ {
			sb.WriteByte('0' + m.bits[i*m.cols+j])
		}
		if i+1 < m.rows {
			sb.WriteByte('\n')
		}
	}
	return sb.String()
}

// SortRow sorts row i nonincreasing (1s to the left).
func (m *Matrix) SortRow(i int) {
	ones := 0
	base := i * m.cols
	for j := 0; j < m.cols; j++ {
		ones += int(m.bits[base+j])
	}
	for j := 0; j < m.cols; j++ {
		if j < ones {
			m.bits[base+j] = 1
		} else {
			m.bits[base+j] = 0
		}
	}
}

// SortRowAscending sorts row i nondecreasing (1s to the right), used by
// Shearsort's snake order.
func (m *Matrix) SortRowAscending(i int) {
	ones := 0
	base := i * m.cols
	for j := 0; j < m.cols; j++ {
		ones += int(m.bits[base+j])
	}
	for j := 0; j < m.cols; j++ {
		if j >= m.cols-ones {
			m.bits[base+j] = 1
		} else {
			m.bits[base+j] = 0
		}
	}
}

// SortColumn sorts column j nonincreasing (1s to the top).
func (m *Matrix) SortColumn(j int) {
	ones := 0
	for i := 0; i < m.rows; i++ {
		ones += int(m.bits[i*m.cols+j])
	}
	for i := 0; i < m.rows; i++ {
		if i < ones {
			m.bits[i*m.cols+j] = 1
		} else {
			m.bits[i*m.cols+j] = 0
		}
	}
}

// SortRows sorts every row nonincreasing.
func (m *Matrix) SortRows() {
	for i := 0; i < m.rows; i++ {
		m.SortRow(i)
	}
}

// SortColumns sorts every column nonincreasing.
func (m *Matrix) SortColumns() {
	for j := 0; j < m.cols; j++ {
		m.SortColumn(j)
	}
}

// RotateRowRight cyclically rotates row i by k places to the right:
// the element in column j moves to column (j+k) mod cols.
func (m *Matrix) RotateRowRight(i, k int) {
	c := m.cols
	k = ((k % c) + c) % c
	if k == 0 {
		return
	}
	base := i * c
	tmp := make([]byte, c)
	for j := 0; j < c; j++ {
		tmp[(j+k)%c] = m.bits[base+j]
	}
	copy(m.bits[base:base+c], tmp)
}

// Transpose returns the cols×rows transpose.
func (m *Matrix) Transpose() *Matrix {
	t := NewMatrix(m.cols, m.rows)
	for i := 0; i < m.rows; i++ {
		for j := 0; j < m.cols; j++ {
			t.bits[j*m.rows+i] = m.bits[i*m.cols+j]
		}
	}
	return t
}

// rowClean reports whether row i is all v.
func (m *Matrix) rowClean(i int, v byte) bool {
	base := i * m.cols
	for j := 0; j < m.cols; j++ {
		if m.bits[base+j] != v {
			return false
		}
	}
	return true
}

// DirtyRows returns the number of rows in the "dirty band": rows not
// part of the leading run of all-1 rows or the trailing run of all-0
// rows. A matrix sorted into clean-1s / dirty band / clean-0s form has
// DirtyRows equal to the band height; a fully sorted matrix has at most
// one dirty row.
func (m *Matrix) DirtyRows() int {
	top := 0
	for top < m.rows && m.rowClean(top, 1) {
		top++
	}
	bot := m.rows
	for bot > top && m.rowClean(bot-1, 0) {
		bot--
	}
	return bot - top
}

// IsRowMajorSorted reports whether the row-major reading is fully
// sorted (nonincreasing).
func (m *Matrix) IsRowMajorSorted() bool { return m.RowMajor().IsSorted() }
