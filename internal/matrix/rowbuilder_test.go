package matrix

import (
	"math/rand"
	"runtime"
	"strconv"
	"testing"
)

func TestRowBuilderMatchesSparseBuilder(t *testing.T) {
	// The same entry stream emitted row-locally must build the exact CSR
	// (pointers, indices, bit-identical values) that SparseBuilder builds
	// globally — including out-of-order and duplicate columns.
	r := rand.New(rand.NewSource(11))
	const rows, cols = 40, 30
	sb := NewSparseBuilder(rows, cols)
	rb := NewRowBuilder(cols)
	for i := 0; i < rows; i++ {
		for e := 0; e < r.Intn(12); e++ {
			j := r.Intn(cols)
			v := r.NormFloat64()
			if err := sb.Add(i, j, v); err != nil {
				t.Fatal(err)
			}
			if err := rb.Add(j, v); err != nil {
				t.Fatal(err)
			}
		}
		rb.EndRow()
	}
	got, err := ConcatRows(cols, rb)
	if err != nil {
		t.Fatal(err)
	}
	if want := sb.Build(); !want.Equal(got) {
		t.Error("RowBuilder CSR differs from SparseBuilder CSR")
	}
}

func TestConcatRowsSplitInvariance(t *testing.T) {
	// Splitting the same rows across any number of builders must not
	// change the assembled matrix.
	r := rand.New(rand.NewSource(5))
	const rows, cols = 37, 19
	type entry struct {
		col int
		val float64
	}
	emitted := make([][]entry, rows)
	for i := range emitted {
		for e := 0; e < r.Intn(8); e++ {
			emitted[i] = append(emitted[i], entry{r.Intn(cols), r.NormFloat64()})
		}
	}
	build := func(chunk int) *CSR {
		t.Helper()
		var parts []*RowBuilder
		for lo := 0; lo < rows; lo += chunk {
			rb := NewRowBuilder(cols)
			for i := lo; i < lo+chunk && i < rows; i++ {
				for _, e := range emitted[i] {
					if err := rb.Add(e.col, e.val); err != nil {
						t.Fatal(err)
					}
				}
				rb.EndRow()
			}
			parts = append(parts, rb)
		}
		m, err := ConcatRows(cols, parts...)
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	whole := build(rows)
	for _, chunk := range []int{1, 2, 7, 16} {
		if !whole.Equal(build(chunk)) {
			t.Errorf("chunk size %d assembled a different matrix", chunk)
		}
	}
}

func TestRowBuilderSumsDuplicatesInEmissionOrder(t *testing.T) {
	rb := NewRowBuilder(4)
	var want float64
	for _, v := range []float64{0.1, 0.2, 0.3} {
		if err := rb.Add(2, v); err != nil {
			t.Fatal(err)
		}
		// Accumulated at runtime, left to right: the exact float the
		// emission-order contract promises (untyped-constant folding
		// would round differently).
		want += v
	}
	if err := rb.Add(0, 1); err != nil {
		t.Fatal(err)
	}
	rb.EndRow()
	rb.EndRow() // empty row is legal
	m, err := ConcatRows(4, rb)
	if err != nil {
		t.Fatal(err)
	}
	if m.Rows() != 2 || m.NNZ() != 2 {
		t.Fatalf("rows=%d nnz=%d, want 2 and 2", m.Rows(), m.NNZ())
	}
	if m.At(0, 2) != want {
		t.Errorf("duplicate sum = %v, want the emission-order sum %v", m.At(0, 2), want)
	}
	if m.At(0, 0) != 1 {
		t.Errorf("entry (0,0) = %v, want 1", m.At(0, 0))
	}
}

func TestRowBuilderErrors(t *testing.T) {
	rb := NewRowBuilder(3)
	if err := rb.Add(3, 1); err == nil {
		t.Error("column out of bounds: want error")
	}
	if err := rb.Add(-1, 1); err == nil {
		t.Error("negative column: want error")
	}
	if err := rb.Add(1, 0); err != nil {
		t.Errorf("zero value must be dropped silently, got %v", err)
	}
	rb.EndRow()
	if rb.Rows() != 1 || rb.Cols() != 3 {
		t.Errorf("Rows=%d Cols=%d, want 1 and 3", rb.Rows(), rb.Cols())
	}
	if _, err := ConcatRows(4, rb); err == nil {
		t.Error("width mismatch: want error")
	}
	if _, err := ConcatRows(3, rb, nil); err == nil {
		t.Error("nil part: want error")
	}
}

// TestIndexRangeGuard: a matrix wider than a 32-bit column index can
// address, or with more entries than a 32-bit row pointer can count, is an
// error, reported before anything of the matrix's size is allocated.
func TestIndexRangeGuard(t *testing.T) {
	if strconv.IntSize == 32 {
		t.Skip("an int cannot exceed the 32-bit index range")
	}
	wide := maxIndex
	wide += 2 // at run time, so the file also compiles where int is 32 bits
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	rb := NewRowBuilder(wide)
	if err := rb.Add(wide-1, 1); err == nil {
		t.Errorf("Add at column %d: want error", wide-1)
	}
	rb.EndRow()
	if _, err := ConcatRows(wide, rb); err == nil {
		t.Errorf("ConcatRows of width %d: want error", wide)
	}
	if _, err := (&CSR{rows: wide, cols: 1}).Transpose(); err == nil {
		t.Errorf("Transpose of %d rows: want error", wide)
	}
	// SubCSR's output width is the length of its column selection and its
	// entry count is known only after the counting pass; both go through
	// the same check.
	if err := checkIndexRange("SubCSR", 1, wide); err == nil {
		t.Errorf("%d entries: want error", wide)
	}
	if err := checkIndexRange("SubCSR", maxIndex, maxIndex); err != nil {
		t.Errorf("the largest representable matrix: %v", err)
	}
	runtime.ReadMemStats(&after)
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
		t.Errorf("the rejected constructions allocated %d bytes", grew)
	}
}
