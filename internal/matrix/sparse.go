package matrix

import (
	"fmt"
	"math"
	"slices"
)

// CSR is a compressed sparse row matrix. Row bounds and column indices
// are stored as 32-bit integers: the solve kernels stream them on every
// product, so their width sets the memory traffic and footprint of the
// largest chains. Every constructor checks that the matrix fits
// (checkIndexRange), so widening an index back to int is always exact.
//
// Row i holds the entries colIdx[start[i]:end[i]] and vals[start[i]:end[i]],
// and a stored column index c stands for column c − colOff. A matrix
// this package builds owns its arrays: start and end are rowPtr[:rows]
// and rowPtr[1:] of one row-pointer array, so the bounds cost nothing
// extra, and colOff is 0. A block view (Blocks) shares its parent's
// arrays and reads a range of every row. Every kernel takes the same
// path for both.
type CSR struct {
	rows, cols int
	nnz        int
	start, end []uint32
	colIdx     []uint32
	vals       []float64
	colOff     uint32
}

// ownedCSR wraps a row-pointer array of length rows+1 and the entries it
// indexes into a CSR.
func ownedCSR(rows, cols int, rowPtr, colIdx []uint32, vals []float64) *CSR {
	return &CSR{rows: rows, cols: cols, nnz: len(vals), start: rowPtr[:rows], end: rowPtr[1:], colIdx: colIdx, vals: vals}
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
func (m *CSR) NNZ() int { return m.nnz }

// At returns the element at (i, j); O(log nnz(row i)).
func (m *CSR) At(i, j int) float64 {
	if i < 0 || i >= m.rows || j < 0 || j >= m.cols {
		panic(fmt.Sprintf("matrix: CSR index (%d,%d) out of bounds for %dx%d", i, j, m.rows, m.cols))
	}
	lo, hi := int(m.start[i]), int(m.end[i])
	if k, ok := slices.BinarySearch(m.colIdx[lo:hi], uint32(j)+m.colOff); ok {
		return m.vals[lo+k]
	}
	return 0
}

// Equal reports whether m and o are identical as stored CSR matrices:
// same shape, and in every row the same column indices and bit-identical
// values (compared with ==, so a NaN entry never compares equal). It is
// stricter than numerical equality — two matrices representing the same
// operator with different structural zeros compare unequal — which is
// exactly what the serial/parallel construction equivalence guarantees
// need.
func (m *CSR) Equal(o *CSR) bool {
	if m.rows != o.rows || m.cols != o.cols {
		return false
	}
	for i := range m.rows {
		mc, oc := m.colIdx[m.start[i]:m.end[i]], o.colIdx[o.start[i]:o.end[i]]
		if !slices.Equal(m.vals[m.start[i]:m.end[i]], o.vals[o.start[i]:o.end[i]]) ||
			!slices.EqualFunc(mc, oc, func(a, b uint32) bool { return a-m.colOff == b-o.colOff }) {
			return false
		}
	}
	return true
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
	start, end, off := m.start[:len(v)], m.end[:len(v)], m.colOff
	for i, vv := range v {
		if vv == 0 {
			continue
		}
		cols, vs := m.colIdx[start[i]:end[i]], m.vals[start[i]:end[i]]
		vs = vs[:len(cols)]
		for k, c := range cols {
			dst[c-off] += float64(vv * vs[k])
		}
	}
	return nil
}

// RowSums returns the per-row sums, e.g. for stochasticity checks.
func (m *CSR) RowSums() []float64 {
	out := make([]float64, m.rows)
	for i := range out {
		var s float64
		for _, v := range m.vals[m.start[i]:m.end[i]] {
			s += v
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
	start, end, off := m.start[:len(dst)], m.end[:len(dst)], m.colOff
	for i := range dst {
		cols, vs := m.colIdx[start[i]:end[i]], m.vals[start[i]:end[i]]
		vs = vs[:len(cols)]
		var s float64
		for k, c := range cols {
			s += float64(vs[k] * v[c-off])
		}
		dst[i] = s
	}
	return nil
}

// Transpose returns Mᵀ as a new CSR, preserving sparsity. It fails only
// when M has more rows than a column index can address.
func (m *CSR) Transpose() (*CSR, error) {
	if err := checkIndexRange("Transpose", m.rows, m.nnz); err != nil {
		return nil, err
	}
	rowPtr := make([]uint32, m.cols+1)
	for i := range m.rows {
		for _, c := range m.colIdx[m.start[i]:m.end[i]] {
			rowPtr[c-m.colOff+1]++
		}
	}
	for r := range m.cols {
		rowPtr[r+1] += rowPtr[r]
	}
	next := slices.Clone(rowPtr[:m.cols])
	colIdx := make([]uint32, m.nnz)
	vals := make([]float64, m.nnz)
	for i := range m.rows {
		for k := m.start[i]; k < m.end[i]; k++ {
			j := m.colIdx[k] - m.colOff
			p := next[j]
			next[j]++
			colIdx[p] = uint32(i)
			vals[p] = m.vals[k]
		}
	}
	return ownedCSR(m.cols, m.rows, rowPtr, colIdx, vals), nil
}

// Diagonal returns the main diagonal as a vector of length min(rows, cols).
func (m *CSR) Diagonal() []float64 {
	out := make([]float64, min(m.rows, m.cols))
	for i := range out {
		for k := m.start[i]; k < m.end[i]; k++ {
			if int(m.colIdx[k]-m.colOff) == i {
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
	for k := m.start[i]; k < m.end[i]; k++ {
		fn(int(m.colIdx[k]-m.colOff), m.vals[k])
	}
}

// Blocks splits the square matrix m = [[A, AB], [BA, B]] after its first
// nA rows and columns into four block views that share m's arrays: A
// and BA read each row up to its first column ≥ nA, AB and B read the
// rest with their columns shifted down by nA. Rows are column-sorted, so
// one split offset per row divides them, and each view keeps a row's
// entries in stored order: every kernel returns on a view the bits it
// returns on the extracted copy (SubCSR) of the same block. The views
// cost that split array; they read m, which no kernel ever writes.
func (m *CSR) Blocks(nA int) (a, ab, ba, b *CSR, err error) {
	n := m.rows
	if m.cols != n || nA < 0 || nA > n {
		return nil, nil, nil, nil, fmt.Errorf("matrix: Blocks cannot split a %dx%d matrix after %d rows", n, m.cols, nA)
	}
	split := make([]uint32, n)
	cut := m.colOff + uint32(nA)
	for i := range split {
		k, _ := slices.BinarySearch(m.colIdx[m.start[i]:m.end[i]], cut)
		split[i] = m.start[i] + uint32(k)
	}
	view := func(cols int, start, end []uint32, off uint32) *CSR {
		nnz := 0
		for i := range start {
			nnz += int(end[i] - start[i])
		}
		return &CSR{rows: len(start), cols: cols, nnz: nnz, start: start, end: end, colIdx: m.colIdx, vals: m.vals, colOff: off}
	}
	nB := n - nA
	return view(nA, m.start[:nA], split[:nA], m.colOff),
		view(nB, split[:nA], m.end[:nA], cut),
		view(nA, m.start[nA:], split[nA:], m.colOff),
		view(nB, split[nA:], m.end[nA:], cut), nil
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
	// colPos[c] is the output position of column c, or −1 when c is not
	// selected; int32 holds every position checkIndexRange admits.
	colPos := make([]int32, m.cols)
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
		colPos[c] = int32(p)
	}
	nnz := 0
	for _, r := range rowIdx {
		if r < 0 || r >= m.rows {
			return nil, fmt.Errorf("matrix: SubCSR row index %d out of bounds for %d rows", r, m.rows)
		}
		for _, c := range m.colIdx[m.start[r]:m.end[r]] {
			if colPos[c-m.colOff] >= 0 {
				nnz++
			}
		}
	}
	if err := checkIndexRange("SubCSR", 0, nnz); err != nil {
		return nil, err
	}
	rowPtr := make([]uint32, len(rowIdx)+1)
	outCols := make([]uint32, 0, nnz)
	outVals := make([]float64, 0, nnz)
	for p, r := range rowIdx {
		rowStart := len(outVals)
		for k := m.start[r]; k < m.end[r]; k++ {
			if q := colPos[m.colIdx[k]-m.colOff]; q >= 0 {
				outCols = append(outCols, uint32(q))
				outVals = append(outVals, m.vals[k])
			}
		}
		if !ascending {
			// A reordered column selection scrambles the in-row column
			// order; restore the CSR invariant for this row.
			sortRow(outCols[rowStart:], outVals[rowStart:])
		}
		rowPtr[p+1] = uint32(len(outVals))
	}
	return ownedCSR(len(rowIdx), len(colIdx), rowPtr, outCols, outVals), nil
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
