package matrix

import (
	"fmt"
	"math"
	"sort"
)

// Reference kernels for the tests: straightforward dense algebra and a
// coordinate-sorting sparse builder that the production paths (CSR
// products, RowBuilder, the solvers) are checked against.

// NewDenseFromRows builds a matrix from row slices. All rows must have equal
// length. The data is copied.
func NewDenseFromRows(rows [][]float64) (*Dense, error) {
	if len(rows) == 0 {
		return NewDense(0, 0), nil
	}
	cols := len(rows[0])
	m := NewDense(len(rows), cols)
	for i, r := range rows {
		if len(r) != cols {
			return nil, fmt.Errorf("matrix: ragged rows: row 0 has %d cols, row %d has %d", cols, i, len(r))
		}
		copy(m.data[i*cols:(i+1)*cols], r)
	}
	return m, nil
}

// Transpose returns the transpose of m.
func (m *Dense) Transpose() *Dense {
	out := NewDense(m.cols, m.rows)
	for i := 0; i < m.rows; i++ {
		for j := 0; j < m.cols; j++ {
			out.data[j*out.cols+i] = m.data[i*m.cols+j]
		}
	}
	return out
}

// MulVec returns the column vector m * v.
func (m *Dense) MulVec(v []float64) ([]float64, error) {
	if m.cols != len(v) {
		return nil, fmt.Errorf("matrix: dimension mismatch for MulVec: %dx%d * len %d", m.rows, m.cols, len(v))
	}
	out := make([]float64, m.rows)
	for i := 0; i < m.rows; i++ {
		row := m.data[i*m.cols : (i+1)*m.cols]
		var sum float64
		for j, rv := range row {
			sum += rv * v[j]
		}
		out[i] = sum
	}
	return out, nil
}

// VecMul returns the row vector v * m.
func (m *Dense) VecMul(v []float64) ([]float64, error) {
	if m.rows != len(v) {
		return nil, fmt.Errorf("matrix: dimension mismatch for VecMul: len %d * %dx%d", len(v), m.rows, m.cols)
	}
	out := make([]float64, m.cols)
	for i, vv := range v {
		if vv == 0 {
			continue
		}
		row := m.data[i*m.cols : (i+1)*m.cols]
		for j, rv := range row {
			out[j] += vv * rv
		}
	}
	return out, nil
}

// Equalish reports whether m and b have the same shape and all elements
// within tol of each other.
func (m *Dense) Equalish(b *Dense, tol float64) bool {
	if m.rows != b.rows || m.cols != b.cols {
		return false
	}
	for i := range m.data {
		if math.Abs(m.data[i]-b.data[i]) > tol {
			return false
		}
	}
	return true
}

// MulVec returns the column vector M * v.
func (m *CSR) MulVec(v []float64) ([]float64, error) {
	if len(v) != m.cols {
		return nil, fmt.Errorf("matrix: CSR MulVec length %d does not match %d cols", len(v), m.cols)
	}
	out := make([]float64, m.rows)
	for i := 0; i < m.rows; i++ {
		var s float64
		m.RowNonZeros(i, func(j int, a float64) { s += float64(a * v[j]) })
		out[i] = s
	}
	return out, nil
}

// Dense expands the matrix to dense form.
func (m *CSR) Dense() *Dense {
	d := NewDense(m.rows, m.cols)
	for i := 0; i < m.rows; i++ {
		m.RowNonZeros(i, func(j int, a float64) { d.Set(i, j, a) })
	}
	return d
}

// coord is a single (row, col) entry used while assembling a sparse matrix.
type coord struct {
	row, col int
	val      float64
}

// SparseBuilder accumulates entries for a compressed sparse row matrix.
// Duplicate (row, col) entries are summed, which is convenient when a
// transition tree reaches the same target state along several branches.
type SparseBuilder struct {
	rows, cols int
	entries    []coord
}

// NewSparseBuilder returns a builder for a rows x cols sparse matrix.
func NewSparseBuilder(rows, cols int) *SparseBuilder {
	return &SparseBuilder{rows: rows, cols: cols}
}

// Add accumulates v at (i, j).
func (b *SparseBuilder) Add(i, j int, v float64) error {
	if i < 0 || i >= b.rows || j < 0 || j >= b.cols {
		return fmt.Errorf("matrix: sparse entry (%d,%d) out of bounds for %dx%d", i, j, b.rows, b.cols)
	}
	if v == 0 {
		return nil
	}
	b.entries = append(b.entries, coord{row: i, col: j, val: v})
	return nil
}

// Build finalizes the builder into a CSR matrix.
//
// Contract: duplicate (i, j) entries are summed, in the order they were
// Added (the sort is stable, so equal coordinates keep insertion order and
// the floating-point sum is deterministic). Build may be called again —
// also after further Adds — and behaves as if every entry so far had been
// Added to a fresh builder: the merge compacts the entry log in place and
// b.entries is re-sliced to the compacted prefix, so no stale tail can
// leak into a later Build.
func (b *SparseBuilder) Build() *CSR {
	sort.SliceStable(b.entries, func(p, q int) bool {
		if b.entries[p].row != b.entries[q].row {
			return b.entries[p].row < b.entries[q].row
		}
		return b.entries[p].col < b.entries[q].col
	})
	// Merge duplicates in place.
	merged := b.entries[:0]
	for _, e := range b.entries {
		if n := len(merged); n > 0 && merged[n-1].row == e.row && merged[n-1].col == e.col {
			merged[n-1].val += e.val
			continue
		}
		merged = append(merged, e)
	}
	b.entries = merged
	rowPtr := make([]uint32, b.rows+1)
	colIdx := make([]uint32, len(merged))
	vals := make([]float64, len(merged))
	for i, e := range merged {
		rowPtr[e.row+1]++
		colIdx[i] = uint32(e.col)
		vals[i] = e.val
	}
	for r := 0; r < b.rows; r++ {
		rowPtr[r+1] += rowPtr[r]
	}
	return ownedCSR(b.rows, b.cols, rowPtr, colIdx, vals)
}

// iluLeftReference is the ILU(0) left solve in its transposed-gather
// form: BiCGSTAB on a stored copy of Mᵀ, each product computed row by row
// of Mᵀ as a dot product. The production left solve scatters over the
// rows of M instead and must match this bit for bit. It returns the
// solution and the iteration count.
func iluLeftReference(m *CSR, lu *iluFactors, b, x0 []float64) ([]float64, int, error) {
	tb := NewSparseBuilder(m.cols, m.rows)
	for i := 0; i < m.rows; i++ {
		m.RowNonZeros(i, func(j int, v float64) { _ = tb.Add(j, i, v) })
	}
	mT := tb.Build()
	gather := func(x, dst []float64) error {
		for j := range dst {
			var s float64
			mT.RowNonZeros(j, func(i int, a float64) { s += float64(a * x[i]) })
			dst[j] = s
		}
		return nil
	}
	var work bicgWork
	x, iters, _, err := work.bicgstab(m.rows, gather, lu.applyTransposed, b, x0, DefaultTol, DefaultBiCGSTABMaxIter)
	return x, iters, err
}
