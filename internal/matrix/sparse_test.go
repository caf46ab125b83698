package matrix

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestSparseBuilderBasic(t *testing.T) {
	b := NewSparseBuilder(3, 3)
	mustAdd := func(i, j int, v float64) {
		t.Helper()
		if err := b.Add(i, j, v); err != nil {
			t.Fatal(err)
		}
	}
	mustAdd(0, 0, 1)
	mustAdd(2, 1, 3)
	mustAdd(0, 2, 2)
	m := b.Build()
	if m.NNZ() != 3 {
		t.Fatalf("NNZ = %d, want 3", m.NNZ())
	}
	if m.At(0, 0) != 1 || m.At(0, 2) != 2 || m.At(2, 1) != 3 {
		t.Error("stored values wrong")
	}
	if m.At(1, 1) != 0 {
		t.Error("missing entry must read 0")
	}
}

func TestSparseBuilderDuplicatesSummed(t *testing.T) {
	b := NewSparseBuilder(2, 2)
	_ = b.Add(1, 1, 0.25)
	_ = b.Add(1, 1, 0.5)
	_ = b.Add(1, 1, 0.25)
	m := b.Build()
	if m.NNZ() != 1 {
		t.Fatalf("NNZ = %d, want 1 (duplicates merged)", m.NNZ())
	}
	if m.At(1, 1) != 1 {
		t.Errorf("At(1,1) = %v, want 1", m.At(1, 1))
	}
}

func TestSparseBuilderDuplicateOrderAndReuse(t *testing.T) {
	// The Build contract: duplicates are summed in insertion order, and
	// Build may be called repeatedly — also after further Adds — without
	// the in-place merge of a previous call corrupting the entry log.
	b := NewSparseBuilder(2, 3)
	var want float64 // left-to-right insertion-order sum, at runtime
	for _, v := range []float64{0.1, 0.2, 0.3} {
		if err := b.Add(0, 1, v); err != nil {
			t.Fatal(err)
		}
		want += v
	}
	if err := b.Add(1, 2, 5); err != nil {
		t.Fatal(err)
	}
	first := b.Build()
	if first.At(0, 1) != want || first.NNZ() != 2 {
		t.Fatalf("first Build: At(0,1)=%v nnz=%d, want %v and 2", first.At(0, 1), first.NNZ(), want)
	}
	second := b.Build()
	if !first.Equal(second) {
		t.Error("second Build differs from the first on an untouched builder")
	}
	if err := b.Add(0, 1, 1); err != nil {
		t.Fatal(err)
	}
	third := b.Build()
	if third.NNZ() != 2 || third.At(0, 1) != want+1 {
		t.Errorf("Build after merge+Add: At(0,1)=%v nnz=%d, want %v and 2",
			third.At(0, 1), third.NNZ(), want+1)
	}
	if third.At(1, 2) != 5 {
		t.Errorf("untouched entry lost: At(1,2)=%v, want 5", third.At(1, 2))
	}
}

func TestSparseBuilderZeroIgnored(t *testing.T) {
	b := NewSparseBuilder(1, 1)
	_ = b.Add(0, 0, 0)
	if m := b.Build(); m.NNZ() != 0 {
		t.Errorf("NNZ = %d, want 0", m.NNZ())
	}
}

func TestSparseBuilderOutOfBounds(t *testing.T) {
	b := NewSparseBuilder(1, 1)
	if err := b.Add(1, 0, 1); err == nil {
		t.Error("row out of bounds: want error")
	}
	if err := b.Add(0, -1, 1); err == nil {
		t.Error("col out of bounds: want error")
	}
}

func TestSparseEmptyRows(t *testing.T) {
	b := NewSparseBuilder(4, 4)
	_ = b.Add(2, 3, 7)
	m := b.Build()
	sums := m.RowSums()
	want := []float64{0, 0, 7, 0}
	for i := range want {
		if sums[i] != want[i] {
			t.Errorf("RowSums[%d] = %v, want %v", i, sums[i], want[i])
		}
	}
}

func TestCSRVecMulMatchesDense(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		rows, cols := 1+r.Intn(10), 1+r.Intn(10)
		b := NewSparseBuilder(rows, cols)
		d := NewDense(rows, cols)
		for e := 0; e < rows*cols/2; e++ {
			i, j, v := r.Intn(rows), r.Intn(cols), 2*r.Float64()-1
			if err := b.Add(i, j, v); err != nil {
				return false
			}
			d.Add(i, j, v)
		}
		m := b.Build()
		v := make([]float64, rows)
		for i := range v {
			v[i] = 2*r.Float64() - 1
		}
		got, err := m.VecMul(v)
		if err != nil {
			return false
		}
		want, err := d.VecMul(v)
		if err != nil {
			return false
		}
		for i := range want {
			if math.Abs(got[i]-want[i]) > 1e-10 {
				return false
			}
		}
		// Column product too.
		u := make([]float64, cols)
		for i := range u {
			u[i] = 2*r.Float64() - 1
		}
		gotC, err := m.MulVec(u)
		if err != nil {
			return false
		}
		wantC, err := d.MulVec(u)
		if err != nil {
			return false
		}
		for i := range wantC {
			if math.Abs(gotC[i]-wantC[i]) > 1e-10 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestCSRVecMulInto(t *testing.T) {
	b := NewSparseBuilder(2, 3)
	_ = b.Add(0, 1, 2)
	_ = b.Add(1, 2, 3)
	m := b.Build()
	dst := make([]float64, 3)
	if err := m.VecMulInto([]float64{1, 1}, dst); err != nil {
		t.Fatal(err)
	}
	if dst[0] != 0 || dst[1] != 2 || dst[2] != 3 {
		t.Errorf("dst = %v, want [0 2 3]", dst)
	}
	if err := m.VecMulInto([]float64{1}, dst); err == nil {
		t.Error("bad v length: want error")
	}
	if err := m.VecMulInto([]float64{1, 1}, make([]float64, 1)); err == nil {
		t.Error("bad dst length: want error")
	}
}

func TestCSRDenseRoundTrip(t *testing.T) {
	b := NewSparseBuilder(3, 2)
	_ = b.Add(0, 1, 5)
	_ = b.Add(2, 0, -1)
	d := b.Build().Dense()
	if d.At(0, 1) != 5 || d.At(2, 0) != -1 || d.At(1, 1) != 0 {
		t.Errorf("Dense round trip wrong: %v", d)
	}
}

func TestCSRRowNonZeros(t *testing.T) {
	b := NewSparseBuilder(2, 4)
	_ = b.Add(1, 0, 1)
	_ = b.Add(1, 3, 2)
	m := b.Build()
	var cols []int
	var vals []float64
	m.RowNonZeros(1, func(j int, v float64) {
		cols = append(cols, j)
		vals = append(vals, v)
	})
	if len(cols) != 2 || cols[0] != 0 || cols[1] != 3 || vals[1] != 2 {
		t.Errorf("RowNonZeros cols=%v vals=%v", cols, vals)
	}
	m.RowNonZeros(0, func(j int, v float64) {
		t.Error("row 0 must be empty")
	})
}

func TestSubCSR(t *testing.T) {
	b := NewSparseBuilder(3, 3)
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			_ = b.Add(i, j, float64(10*i+j))
		}
	}
	m := b.Build()
	sub, err := m.SubCSR([]int{2, 0}, []int{1, 2})
	if err != nil {
		t.Fatal(err)
	}
	if sub.At(0, 0) != 21 || sub.At(0, 1) != 22 || sub.At(1, 0) != 1 || sub.At(1, 1) != 2 {
		t.Errorf("SubCSR wrong: %v", sub.Dense())
	}
	if _, err := m.SubCSR([]int{9}, []int{0}); err == nil {
		t.Error("row out of range: want error")
	}
	if _, err := m.SubCSR([]int{0}, []int{9}); err == nil {
		t.Error("col out of range: want error")
	}
}

func TestCSRVecMulLengthMismatch(t *testing.T) {
	m := NewSparseBuilder(2, 2).Build()
	if _, err := m.VecMul([]float64{1}); err == nil {
		t.Error("want error")
	}
	if _, err := m.MulVec([]float64{1}); err == nil {
		t.Error("want error")
	}
}

func TestSubCSRReorderedColumns(t *testing.T) {
	// A descending column selection exercises the per-row re-sort path;
	// the CSR column invariant must hold (At relies on binary search).
	b := NewSparseBuilder(2, 4)
	for j := 0; j < 4; j++ {
		_ = b.Add(0, j, float64(j+1))
		_ = b.Add(1, j, float64(10*(j+1)))
	}
	sub, err := b.Build().SubCSR([]int{0, 1}, []int{3, 1, 0})
	if err != nil {
		t.Fatal(err)
	}
	want := [][]float64{{4, 2, 1}, {40, 20, 10}}
	for i := range want {
		for j, w := range want[i] {
			if got := sub.At(i, j); got != w {
				t.Errorf("sub(%d,%d) = %v, want %v", i, j, got, w)
			}
		}
	}
}

// subCSRReference extracts a sub-matrix the straightforward way: for each
// selected row and each selected column, in selection order (so output
// columns ascend), look the entry up by a scan of the stored row.
func subCSRReference(m *CSR, rowIdx, colIdx []int) *CSR {
	rowPtr := make([]uint32, len(rowIdx)+1)
	var cols []uint32
	var vals []float64
	for p, r := range rowIdx {
		for q, c := range colIdx {
			m.RowNonZeros(r, func(j int, v float64) {
				if j == c {
					cols = append(cols, uint32(q))
					vals = append(vals, v)
				}
			})
		}
		rowPtr[p+1] = uint32(len(vals))
	}
	return ownedCSR(len(rowIdx), len(colIdx), rowPtr, cols, vals)
}

// TestSubCSRExactAllocation: SubCSR sizes its output in a counting pass,
// so both slices come out with cap == len, and the copy equals the
// straightforward reference on ascending, reordered and empty selections.
func TestSubCSRExactAllocation(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	m := randomCSR(r, 12)
	selections := []struct {
		name       string
		rows, cols []int
	}{
		{"ascending", []int{0, 2, 3, 7, 11}, []int{1, 2, 5, 6, 10}},
		{"reordered", []int{9, 1, 4}, []int{11, 0, 6, 3}},
		{"all", []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11}, []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11}},
		{"no rows", nil, []int{0, 1}},
		{"no cols", []int{0, 1}, nil},
		{"empty", nil, nil},
	}
	for _, sel := range selections {
		sub, err := m.SubCSR(sel.rows, sel.cols)
		if err != nil {
			t.Fatalf("%s: %v", sel.name, err)
		}
		if cap(sub.colIdx) != len(sub.colIdx) || cap(sub.vals) != len(sub.vals) {
			t.Errorf("%s: colIdx len %d cap %d, vals len %d cap %d; want cap == len",
				sel.name, len(sub.colIdx), cap(sub.colIdx), len(sub.vals), cap(sub.vals))
		}
		if want := subCSRReference(m, sel.rows, sel.cols); !sub.Equal(want) {
			t.Errorf("%s: SubCSR differs from the reference", sel.name)
		}
	}
}

func TestCSRTranspose(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	for trial := 0; trial < 25; trial++ {
		rows, cols := 1+r.Intn(8), 1+r.Intn(8)
		b := NewSparseBuilder(rows, cols)
		for e := 0; e < rows*cols/2; e++ {
			_ = b.Add(r.Intn(rows), r.Intn(cols), 2*r.Float64()-1)
		}
		m := b.Build()
		mt, err := m.Transpose()
		if err != nil {
			t.Fatal(err)
		}
		if mt.Rows() != cols || mt.Cols() != rows || mt.NNZ() != m.NNZ() {
			t.Fatalf("transpose shape %dx%d nnz %d, want %dx%d nnz %d",
				mt.Rows(), mt.Cols(), mt.NNZ(), cols, rows, m.NNZ())
		}
		for i := 0; i < rows; i++ {
			for j := 0; j < cols; j++ {
				if m.At(i, j) != mt.At(j, i) {
					t.Fatalf("transpose(%d,%d) = %v, want %v", j, i, mt.At(j, i), m.At(i, j))
				}
			}
		}
	}
}

func TestCSRDiagonal(t *testing.T) {
	b := NewSparseBuilder(3, 3)
	_ = b.Add(0, 0, 1.5)
	_ = b.Add(1, 0, 2)
	_ = b.Add(2, 2, -4)
	d := b.Build().Diagonal()
	want := []float64{1.5, 0, -4}
	for i := range want {
		if d[i] != want[i] {
			t.Errorf("diag[%d] = %v, want %v", i, d[i], want[i])
		}
	}
}

func TestCSRMulVecInto(t *testing.T) {
	b := NewSparseBuilder(2, 3)
	_ = b.Add(0, 0, 1)
	_ = b.Add(0, 2, 2)
	_ = b.Add(1, 1, 3)
	m := b.Build()
	dst := make([]float64, 2)
	if err := m.MulVecInto([]float64{1, 2, 3}, dst); err != nil {
		t.Fatal(err)
	}
	if dst[0] != 7 || dst[1] != 6 {
		t.Errorf("MulVecInto = %v, want [7 6]", dst)
	}
	if err := m.MulVecInto([]float64{1}, dst); err == nil {
		t.Error("bad v length: want error")
	}
	if err := m.MulVecInto([]float64{1, 2, 3}, dst[:1]); err == nil {
		t.Error("bad dst length: want error")
	}
}
