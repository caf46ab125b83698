package matrix

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewDenseZeroed(t *testing.T) {
	m := NewDense(3, 4)
	if m.Rows() != 3 || m.Cols() != 4 {
		t.Fatalf("got %dx%d, want 3x4", m.Rows(), m.Cols())
	}
	for i := 0; i < 3; i++ {
		for j := 0; j < 4; j++ {
			if m.At(i, j) != 0 {
				t.Errorf("At(%d,%d) = %v, want 0", i, j, m.At(i, j))
			}
		}
	}
}

func TestNewDenseFromRows(t *testing.T) {
	m, err := NewDenseFromRows([][]float64{{1, 2}, {3, 4}})
	if err != nil {
		t.Fatal(err)
	}
	if m.At(1, 0) != 3 {
		t.Errorf("At(1,0) = %v, want 3", m.At(1, 0))
	}
	if _, err := NewDenseFromRows([][]float64{{1, 2}, {3}}); err == nil {
		t.Error("ragged rows: want error, got nil")
	}
	empty, err := NewDenseFromRows(nil)
	if err != nil || empty.Rows() != 0 {
		t.Errorf("empty rows: got %v rows, err=%v", empty.Rows(), err)
	}
}

// TestIdentityMul: the identity leaves vectors unchanged from either side.
func TestIdentityMul(t *testing.T) {
	v := []float64{1, -2, 3.5}
	id := Identity(3)
	right, err := id.MulVec(v)
	if err != nil {
		t.Fatal(err)
	}
	left, err := id.VecMul(v)
	if err != nil {
		t.Fatal(err)
	}
	for i := range v {
		if right[i] != v[i] || left[i] != v[i] {
			t.Errorf("entry %d: I·v = %v, v·I = %v, want %v", i, right[i], left[i], v[i])
		}
	}
}

// TestMulKnown checks the CSR products on a hand-computed example.
func TestMulKnown(t *testing.T) {
	b := NewRowBuilder(2)
	_ = b.Add(0, 1)
	_ = b.Add(1, 2)
	b.EndRow()
	_ = b.Add(0, 3)
	_ = b.Add(1, 4)
	b.EndRow()
	m, err := ConcatRows(2, b)
	if err != nil {
		t.Fatal(err)
	}
	right := make([]float64, 2)
	if err := m.MulVecInto([]float64{5, 7}, right); err != nil {
		t.Fatal(err)
	}
	if right[0] != 19 || right[1] != 43 {
		t.Errorf("M·v = %v, want [19 43]", right)
	}
	left, err := m.VecMul([]float64{5, 7})
	if err != nil {
		t.Fatal(err)
	}
	if left[0] != 26 || left[1] != 38 {
		t.Errorf("v·M = %v, want [26 38]", left)
	}
}

func TestMulDimensionMismatch(t *testing.T) {
	a := NewDense(2, 3)
	if _, err := a.MulVec([]float64{1, 2}); err == nil {
		t.Error("MulVec: want dimension error, got nil")
	}
	if _, err := a.VecMul([]float64{1, 2, 3}); err == nil {
		t.Error("VecMul: want dimension error, got nil")
	}
}

func TestTranspose(t *testing.T) {
	a, _ := NewDenseFromRows([][]float64{{1, 2, 3}, {4, 5, 6}})
	at := a.Transpose()
	if at.Rows() != 3 || at.Cols() != 2 {
		t.Fatalf("transpose shape %dx%d, want 3x2", at.Rows(), at.Cols())
	}
	if at.At(2, 1) != 6 {
		t.Errorf("At(2,1)=%v, want 6", at.At(2, 1))
	}
	if !at.Transpose().Equalish(a, 0) {
		t.Error("double transpose is not identity")
	}
}

func TestVecOps(t *testing.T) {
	a, _ := NewDenseFromRows([][]float64{{1, 2}, {3, 4}})
	mv, err := a.MulVec([]float64{1, 1})
	if err != nil {
		t.Fatal(err)
	}
	if mv[0] != 3 || mv[1] != 7 {
		t.Errorf("MulVec = %v, want [3 7]", mv)
	}
	vm, err := a.VecMul([]float64{1, 1})
	if err != nil {
		t.Fatal(err)
	}
	if vm[0] != 4 || vm[1] != 6 {
		t.Errorf("VecMul = %v, want [4 6]", vm)
	}
	d, err := Dot([]float64{1, 2, 3}, []float64{4, 5, 6})
	if err != nil || d != 32 {
		t.Errorf("Dot = %v err %v, want 32", d, err)
	}
	if _, err := Dot([]float64{1}, []float64{1, 2}); err == nil {
		t.Error("Dot length mismatch: want error")
	}
	va, err := VecAdd([]float64{1, 2}, []float64{3, 4})
	if err != nil || va[0] != 4 || va[1] != 6 {
		t.Errorf("VecAdd = %v err %v", va, err)
	}
}

// TestOnesAndMaxAbs checks Ones. Dense.MaxAbs, the other half of the
// original pair, is gone with the rest of the unreferenced dense algebra.
func TestOnesAndMaxAbs(t *testing.T) {
	if v := Ones(3); len(v) != 3 || v[0] != 1 || v[1] != 1 || v[2] != 1 {
		t.Errorf("Ones = %v", v)
	}
	if v := Ones(0); len(v) != 0 {
		t.Errorf("Ones(0) = %v, want empty", v)
	}
}

func TestRowAndRowView(t *testing.T) {
	a, _ := NewDenseFromRows([][]float64{{1, 2}, {3, 4}})
	rv := a.RowView(1)
	if rv[0] != 3 || rv[1] != 4 {
		t.Errorf("RowView(1) = %v, want [3 4]", rv)
	}
	rv[1] = 42
	if a.At(1, 1) != 42 {
		t.Error("RowView must alias")
	}
	defer func() {
		if recover() == nil {
			t.Error("RowView out of range: want panic")
		}
	}()
	a.RowView(2)
}

// randomMatrix returns an n x n matrix with entries in [-1, 1).
func randomMatrix(rng *rand.Rand, n int) *Dense {
	m := NewDense(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			m.Set(i, j, 2*rng.Float64()-1)
		}
	}
	return m
}

// randomCSR returns an n x n sparse matrix with about half its entries
// set, in [-1, 1).
func randomCSR(r *rand.Rand, n int) *CSR {
	b := NewRowBuilder(n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if r.Intn(2) == 0 {
				_ = b.Add(j, 2*r.Float64()-1)
			}
		}
		b.EndRow()
	}
	m, _ := ConcatRows(n, b)
	return m
}

// randomVec returns a length-n vector with entries in [-1, 1).
func randomVec(r *rand.Rand, n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = 2*r.Float64() - 1
	}
	return v
}

// TestMulAssociativityProperty checks (xM)·y == x·(My) for the CSR left
// and right products on random matrices.
func TestMulAssociativityProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(8)
		m, x, y := randomCSR(r, n), randomVec(r, n), randomVec(r, n)
		xm, err := m.VecMul(x)
		if err != nil {
			return false
		}
		my := make([]float64, n)
		if err := m.MulVecInto(y, my); err != nil {
			return false
		}
		lhs, _ := Dot(xm, y)
		rhs, _ := Dot(x, my)
		return math.Abs(lhs-rhs) <= 1e-12*float64(n*n)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// TestTransposeProductProperty checks Mᵀx == xM: the sparse transpose
// the iterative solvers build for left systems answers the row-vector
// product as a column product.
func TestTransposeProductProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(8)
		m, x := randomCSR(r, n), randomVec(r, n)
		want, err := m.VecMul(x)
		if err != nil {
			return false
		}
		got := make([]float64, n)
		mt, err := m.Transpose()
		if err != nil {
			return false
		}
		if err := mt.MulVecInto(x, got); err != nil {
			return false
		}
		for i := range want {
			if math.Abs(got[i]-want[i]) > 1e-12 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestEqualishShapeMismatch(t *testing.T) {
	if NewDense(1, 2).Equalish(NewDense(2, 1), 1) {
		t.Error("different shapes must not be Equalish")
	}
}

func TestStringSmallAndLarge(t *testing.T) {
	small, _ := NewDenseFromRows([][]float64{{1}})
	if s := small.String(); s == "" || math.IsNaN(1) {
		t.Errorf("String() empty: %q", s)
	}
	large := NewDense(20, 20)
	if s := large.String(); s != "Dense(20x20)" {
		t.Errorf("large String() = %q", s)
	}
}
