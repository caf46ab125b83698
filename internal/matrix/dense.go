// Package matrix provides the sparse and dense linear-algebra kernels used
// by the Markov-chain analytics in this repository: CSR construction,
// products and block extraction, and the pluggable solvers of systems
// with I − M (solver.go) — dense LU with partial pivoting, and sparse
// residual-controlled iterations for large state spaces.
//
// The matrices arising from the DSN 2011 targeted-attack model can be
// extremely ill-conditioned when the identifier-survival probability d
// approaches 1, so the dense solves use partial pivoting and every
// iterative solve stops on its true residual.
package matrix

import (
	"fmt"
	"strings"
)

// Dense is a dense row-major matrix of float64 values.
//
// The zero value is an empty 0x0 matrix ready to use.
type Dense struct {
	rows, cols int
	data       []float64
}

// NewDense returns a rows x cols matrix initialized to zero.
// It panics if rows or cols is negative, mirroring make() semantics.
func NewDense(rows, cols int) *Dense {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("matrix: NewDense with negative dimension %dx%d", rows, cols))
	}
	return &Dense{rows: rows, cols: cols, data: make([]float64, rows*cols)}
}

// Identity returns the n x n identity matrix.
func Identity(n int) *Dense {
	m := NewDense(n, n)
	for i := 0; i < n; i++ {
		m.Set(i, i, 1)
	}
	return m
}

// Rows returns the number of rows.
func (m *Dense) Rows() int { return m.rows }

// Cols returns the number of columns.
func (m *Dense) Cols() int { return m.cols }

// At returns the element at (i, j).
func (m *Dense) At(i, j int) float64 {
	m.boundsCheck(i, j)
	return m.data[i*m.cols+j]
}

// Set assigns the element at (i, j).
func (m *Dense) Set(i, j int, v float64) {
	m.boundsCheck(i, j)
	m.data[i*m.cols+j] = v
}

// Add increments the element at (i, j) by v.
func (m *Dense) Add(i, j int, v float64) {
	m.boundsCheck(i, j)
	m.data[i*m.cols+j] += v
}

func (m *Dense) boundsCheck(i, j int) {
	if i < 0 || i >= m.rows || j < 0 || j >= m.cols {
		panic(fmt.Sprintf("matrix: index (%d,%d) out of bounds for %dx%d matrix", i, j, m.rows, m.cols))
	}
}

// Clone returns a deep copy of m.
func (m *Dense) Clone() *Dense {
	c := NewDense(m.rows, m.cols)
	copy(c.data, m.data)
	return c
}

// RowView returns the backing slice of row i. Mutations are visible in m.
func (m *Dense) RowView(i int) []float64 {
	if i < 0 || i >= m.rows {
		panic(fmt.Sprintf("matrix: row %d out of bounds for %dx%d matrix", i, m.rows, m.cols))
	}
	return m.data[i*m.cols : (i+1)*m.cols]
}

// String renders the matrix for debugging; large matrices are elided.
func (m *Dense) String() string {
	const maxShown = 12
	var b strings.Builder
	fmt.Fprintf(&b, "Dense(%dx%d)", m.rows, m.cols)
	if m.rows > maxShown || m.cols > maxShown {
		return b.String()
	}
	b.WriteString("[\n")
	for i := 0; i < m.rows; i++ {
		b.WriteString("  ")
		for j := 0; j < m.cols; j++ {
			fmt.Fprintf(&b, "% .6g ", m.At(i, j))
		}
		b.WriteString("\n")
	}
	b.WriteString("]")
	return b.String()
}

// Ones returns a column vector of n ones.
func Ones(n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = 1
	}
	return v
}

// Dot returns the inner product of two equal-length vectors.
func Dot(a, b []float64) (float64, error) {
	if len(a) != len(b) {
		return 0, fmt.Errorf("matrix: dimension mismatch for Dot: %d vs %d", len(a), len(b))
	}
	var s float64
	for i := range a {
		s += float64(a[i] * b[i])
	}
	return s, nil
}

// VecAdd returns a + b element-wise.
func VecAdd(a, b []float64) ([]float64, error) {
	if len(a) != len(b) {
		return nil, fmt.Errorf("matrix: dimension mismatch for VecAdd: %d vs %d", len(a), len(b))
	}
	out := make([]float64, len(a))
	for i := range a {
		out[i] = a[i] + b[i]
	}
	return out, nil
}
