package matrix

import (
	"fmt"
	"math"
	"slices"
)

// CSR is a compressed sparse row matrix. Row pointers and column indices
// are stored as 32-bit integers: the solve kernels stream them on every
// product, so their width sets the memory traffic and footprint of the
// largest chains. Every constructor checks that the matrix fits
// (checkIndexRange), so widening an index back to int is always exact.
type CSR struct {
	rows, cols int
	rowPtr     []uint32
	colIdx     []uint32
	vals       []float64
}

// maxIndex bounds the column count and the entry count of a CSR or an
// ILU(0) factor. It is the int32 limit, not the uint32 one, so that a
// stored index converts to a non-negative int on 32-bit platforms too.
const maxIndex = math.MaxInt32

// checkIndexRange reports an error when a matrix with cols columns and
// nnz stored entries does not fit the 32-bit index arrays. Constructors
// call it before they allocate.
func checkIndexRange(op string, cols, nnz int) error {
	if cols > maxIndex {
		return fmt.Errorf("matrix: %s: %d columns exceed the 32-bit index range", op, cols)
	}
	if nnz > maxIndex {
		return fmt.Errorf("matrix: %s: %d entries exceed the 32-bit index range", op, nnz)
	}
	return nil
}

// Rows returns the number of rows.
func (m *CSR) Rows() int { return m.rows }

// Cols returns the number of columns.
func (m *CSR) Cols() int { return m.cols }

// NNZ returns the number of stored entries.
func (m *CSR) NNZ() int { return len(m.vals) }

// At returns the element at (i, j); O(log nnz(row i)).
func (m *CSR) At(i, j int) float64 {
	if i < 0 || i >= m.rows || j < 0 || j >= m.cols {
		panic(fmt.Sprintf("matrix: CSR index (%d,%d) out of bounds for %dx%d", i, j, m.rows, m.cols))
	}
	lo, hi := int(m.rowPtr[i]), int(m.rowPtr[i+1])
	if k, ok := slices.BinarySearch(m.colIdx[lo:hi], uint32(j)); ok {
		return m.vals[lo+k]
	}
	return 0
}

// Equal reports whether m and o are identical as stored CSR matrices:
// same shape, same row pointers, same column indices and bit-identical
// values (compared with ==, so a NaN entry never compares equal). It is
// stricter than numerical equality — two matrices representing the same
// operator with different structural zeros compare unequal — which is
// exactly what the serial/parallel construction equivalence guarantees
// need.
func (m *CSR) Equal(o *CSR) bool {
	return m.rows == o.rows && m.cols == o.cols && slices.Equal(m.rowPtr, o.rowPtr) &&
		slices.Equal(m.colIdx, o.colIdx) && slices.Equal(m.vals, o.vals)
}

// VecMul returns the row vector v * M.
func (m *CSR) VecMul(v []float64) ([]float64, error) {
	out := make([]float64, m.cols)
	if err := m.VecMulInto(v, out); err != nil {
		return nil, err
	}
	return out, nil
}

// VecMulInto computes v * M into dst, which must have length Cols.
// It avoids allocation in hot iteration loops. The rows are scattered in
// ascending order, so every dst[j] sums its products in the order of the
// dot product of row j of Mᵀ: the result is bit-identical to MulVecInto
// on a stored transpose, without storing one.
func (m *CSR) VecMulInto(v, dst []float64) error {
	if len(v) != m.rows {
		return fmt.Errorf("matrix: CSR VecMulInto length %d does not match %d rows", len(v), m.rows)
	}
	if len(dst) != m.cols {
		return fmt.Errorf("matrix: CSR VecMulInto dst length %d does not match %d cols", len(dst), m.cols)
	}
	clear(dst)
	rowPtr, colIdx, vals := m.rowPtr, m.colIdx, m.vals
	for i, vv := range v {
		if vv == 0 {
			continue
		}
		for k, end := int(rowPtr[i]), int(rowPtr[i+1]); k < end; k++ {
			dst[colIdx[k]] += vv * vals[k]
		}
	}
	return nil
}

// RowSums returns the per-row sums, e.g. for stochasticity checks.
func (m *CSR) RowSums() []float64 {
	out := make([]float64, m.rows)
	for i := 0; i < m.rows; i++ {
		var s float64
		for k := m.rowPtr[i]; k < m.rowPtr[i+1]; k++ {
			s += m.vals[k]
		}
		out[i] = s
	}
	return out
}

// MulVecInto computes M * v into dst, which must have length Rows.
// It avoids allocation in hot iteration loops.
func (m *CSR) MulVecInto(v, dst []float64) error {
	if len(v) != m.cols {
		return fmt.Errorf("matrix: CSR MulVecInto length %d does not match %d cols", len(v), m.cols)
	}
	if len(dst) != m.rows {
		return fmt.Errorf("matrix: CSR MulVecInto dst length %d does not match %d rows", len(dst), m.rows)
	}
	rowPtr, colIdx, vals := m.rowPtr, m.colIdx, m.vals
	for i := range dst {
		var s float64
		for k, end := int(rowPtr[i]), int(rowPtr[i+1]); k < end; k++ {
			s += vals[k] * v[colIdx[k]]
		}
		dst[i] = s
	}
	return nil
}

// Transpose returns Mᵀ as a new CSR, preserving sparsity. It fails only
// when M has more rows than a column index can address.
func (m *CSR) Transpose() (*CSR, error) {
	if err := checkIndexRange("Transpose", m.rows, len(m.vals)); err != nil {
		return nil, err
	}
	t := &CSR{
		rows:   m.cols,
		cols:   m.rows,
		rowPtr: make([]uint32, m.cols+1),
		colIdx: make([]uint32, len(m.vals)),
		vals:   make([]float64, len(m.vals)),
	}
	for _, j := range m.colIdx {
		t.rowPtr[j+1]++
	}
	for r := 0; r < t.rows; r++ {
		t.rowPtr[r+1] += t.rowPtr[r]
	}
	next := slices.Clone(t.rowPtr[:t.rows])
	for i := 0; i < m.rows; i++ {
		for k := m.rowPtr[i]; k < m.rowPtr[i+1]; k++ {
			j := m.colIdx[k]
			p := next[j]
			next[j]++
			t.colIdx[p] = uint32(i)
			t.vals[p] = m.vals[k]
		}
	}
	return t, nil
}

// Diagonal returns the main diagonal as a vector of length min(rows, cols).
func (m *CSR) Diagonal() []float64 {
	n := m.rows
	if m.cols < n {
		n = m.cols
	}
	out := make([]float64, n)
	for i := 0; i < n; i++ {
		for k := m.rowPtr[i]; k < m.rowPtr[i+1]; k++ {
			if int(m.colIdx[k]) == i {
				out[i] = m.vals[k]
				break
			}
		}
	}
	return out
}

// RowNonZeros calls fn for every stored entry of row i.
func (m *CSR) RowNonZeros(i int, fn func(j int, v float64)) {
	if i < 0 || i >= m.rows {
		panic(fmt.Sprintf("matrix: CSR row %d out of bounds for %d rows", i, m.rows))
	}
	for k := m.rowPtr[i]; k < m.rowPtr[i+1]; k++ {
		fn(int(m.colIdx[k]), m.vals[k])
	}
}

// SubCSR extracts the sub-matrix with the given row and column index sets,
// preserving sparsity, without ever densifying: a direct CSR-to-CSR copy
// using a slice-based column position table (no maps, no re-sorting when
// the column selection is ascending — the common case for state-class
// index sets). A counting pass sizes the output exactly, so the copy
// allocates its column and value slices once.
func (m *CSR) SubCSR(rowIdx, colIdx []int) (*CSR, error) {
	if err := checkIndexRange("SubCSR", len(colIdx), 0); err != nil {
		return nil, err
	}
	colPos := make([]int, m.cols)
	for i := range colPos {
		colPos[i] = -1
	}
	ascending := true
	for p, c := range colIdx {
		if c < 0 || c >= m.cols {
			return nil, fmt.Errorf("matrix: SubCSR col index %d out of bounds for %d cols", c, m.cols)
		}
		if p > 0 && colIdx[p-1] >= c {
			ascending = false
		}
		colPos[c] = p
	}
	nnz := 0
	for _, r := range rowIdx {
		if r < 0 || r >= m.rows {
			return nil, fmt.Errorf("matrix: SubCSR row index %d out of bounds for %d rows", r, m.rows)
		}
		for _, c := range m.colIdx[m.rowPtr[r]:m.rowPtr[r+1]] {
			if colPos[c] >= 0 {
				nnz++
			}
		}
	}
	if err := checkIndexRange("SubCSR", 0, nnz); err != nil {
		return nil, err
	}
	out := &CSR{
		rows:   len(rowIdx),
		cols:   len(colIdx),
		rowPtr: make([]uint32, len(rowIdx)+1),
		colIdx: make([]uint32, 0, nnz),
		vals:   make([]float64, 0, nnz),
	}
	for p, r := range rowIdx {
		rowStart := len(out.vals)
		for k := m.rowPtr[r]; k < m.rowPtr[r+1]; k++ {
			if q := colPos[m.colIdx[k]]; q >= 0 {
				out.colIdx = append(out.colIdx, uint32(q))
				out.vals = append(out.vals, m.vals[k])
			}
		}
		if !ascending {
			// A reordered column selection scrambles the in-row column
			// order; restore the CSR invariant for this row.
			sortRow(out.colIdx[rowStart:], out.vals[rowStart:])
		}
		out.rowPtr[p+1] = uint32(len(out.vals))
	}
	return out, nil
}

// sortRow stably co-sorts one row's column indices and values by column
// (insertion sort: rows are short, so it beats sort.Sort's interface
// overhead, and moving only strictly greater elements keeps equal columns
// in their original order).
func sortRow(cols []uint32, vals []float64) {
	for i := 1; i < len(cols); i++ {
		c, v := cols[i], vals[i]
		j := i - 1
		for j >= 0 && cols[j] > c {
			cols[j+1], vals[j+1] = cols[j], vals[j]
			j--
		}
		cols[j+1], vals[j+1] = c, v
	}
}
