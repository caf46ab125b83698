package matrix

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestFactorLUKnownSolve(t *testing.T) {
	a, _ := NewDenseFromRows([][]float64{
		{2, 1, 1},
		{4, -6, 0},
		{-2, 7, 2},
	})
	x, err := mustLU(t, a).SolveVec([]float64{5, -2, 9})
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{1, 1, 2}
	for i := range want {
		if math.Abs(x[i]-want[i]) > 1e-12 {
			t.Errorf("x[%d] = %v, want %v", i, x[i], want[i])
		}
	}
}

func TestFactorLUSingular(t *testing.T) {
	a, _ := NewDenseFromRows([][]float64{{1, 2}, {2, 4}})
	if _, err := FactorLU(a); !errors.Is(err, ErrSingular) {
		t.Errorf("want ErrSingular, got %v", err)
	}
}

func TestFactorLUNonSquare(t *testing.T) {
	if _, err := FactorLU(NewDense(2, 3)); err == nil {
		t.Error("non-square: want error")
	}
}

// mustLU factors a or fails the test.
func mustLU(t *testing.T, a *Dense) *LU {
	t.Helper()
	f, err := FactorLU(a)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// luDet is the determinant read off the factors P A = L U: the product
// of U's diagonal times the sign of the row permutation.
func luDet(f *LU) float64 {
	d := 1.0
	seen := make([]bool, f.n)
	for i := range f.pivot {
		if seen[i] {
			continue
		}
		// A permutation cycle of length k contributes (−1)^(k−1).
		for j := i; !seen[j]; j = f.pivot[j] {
			seen[j] = true
			if j != i {
				d = -d
			}
		}
	}
	for i := 0; i < f.n; i++ {
		d *= f.lu.At(i, i)
	}
	return d
}

// TestDet checks the factors through the determinant they imply.
func TestDet(t *testing.T) {
	a, _ := NewDenseFromRows([][]float64{{3, 8}, {4, 6}})
	f, err := FactorLU(a)
	if err != nil {
		t.Fatal(err)
	}
	if got := luDet(f); math.Abs(got-(-14)) > 1e-12 {
		t.Errorf("det = %v, want -14", got)
	}
}

// TestInverse solves against every unit vector: the columns form A⁻¹.
func TestInverse(t *testing.T) {
	a, _ := NewDenseFromRows([][]float64{{4, 7}, {2, 6}})
	f := mustLU(t, a)
	for j := 0; j < 2; j++ {
		e := make([]float64, 2)
		e[j] = 1
		x, err := f.SolveVec(e)
		if err != nil {
			t.Fatal(err)
		}
		ax, err := a.MulVec(x)
		if err != nil {
			t.Fatal(err)
		}
		for i := range e {
			if math.Abs(ax[i]-e[i]) > 1e-12 {
				t.Errorf("column %d: A·x = %v, want %v", j, ax, e)
			}
		}
	}
}

// TestSolveMultiRHS: one factorization answers several right and left
// systems.
func TestSolveMultiRHS(t *testing.T) {
	b := NewSparseBuilder(2, 2)
	_ = b.Add(0, 0, 0.5)
	_ = b.Add(0, 1, 0.25)
	_ = b.Add(1, 0, 0.125)
	m := b.Build()
	a := Identity(2)
	for i := 0; i < 2; i++ {
		m.RowNonZeros(i, func(j int, v float64) { a.Add(i, j, -v) })
	}
	f := must(DenseSolver{}.Factor(m))
	for _, rhs := range [][]float64{{1, 0}, {0, 1}, {3, -2}} {
		x, err := f.SolveVec(rhs)
		if err != nil {
			t.Fatal(err)
		}
		y, err := f.SolveVecLeft(rhs)
		if err != nil {
			t.Fatal(err)
		}
		ax, _ := a.MulVec(x)
		ya, _ := a.VecMul(y)
		for i := range rhs {
			if math.Abs(ax[i]-rhs[i]) > 1e-12 || math.Abs(ya[i]-rhs[i]) > 1e-12 {
				t.Errorf("rhs %v: (I−M)x = %v, y(I−M) = %v", rhs, ax, ya)
			}
		}
	}
}

func TestSolveVecLeft(t *testing.T) {
	a, _ := NewDenseFromRows([][]float64{{1, 2}, {3, 4}})
	// x * A = b  with x = [1, 1]  =>  b = [4, 6].
	x, err := mustLU(t, a).SolveVecTransposed([]float64{4, 6})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(x[0]-1) > 1e-12 || math.Abs(x[1]-1) > 1e-12 {
		t.Errorf("x = %v, want [1 1]", x)
	}
}

func TestSolveVecLengthMismatch(t *testing.T) {
	if _, err := mustLU(t, Identity(3)).SolveVec([]float64{1}); err == nil {
		t.Error("length mismatch: want error")
	}
}

// TestResidual pins the iterative solvers' stopping rule
// ‖b − (I−M)x‖∞ ≤ tol·(‖b‖∞ + ‖x‖∞) through converged.
func TestResidual(t *testing.T) {
	b := NewSparseBuilder(2, 2)
	_ = b.Add(0, 0, 0.5)
	_ = b.Add(1, 1, 0.5)
	m := b.Build()
	tmp, scratch := make([]float64, 2), make([]float64, 2)
	iMinusM := func(x, dst []float64) {
		_ = m.MulVecInto(x, tmp)
		for i := range dst {
			dst[i] = x[i] - tmp[i]
		}
	}
	if !converged(iMinusM, []float64{2, 4}, []float64{1, 2}, scratch, 0) {
		t.Error("exact solution: want converged at tol 0")
	}
	// Residual 1 against the scale ‖b‖∞ + ‖x‖∞ = 3 + 4: the boundary is
	// tol = 1/7.
	x, rhs := []float64{2, 4}, []float64{1, 3}
	if converged(iMinusM, x, rhs, scratch, 0.14) || !converged(iMinusM, x, rhs, scratch, 0.15) {
		t.Error("residual 1 at scale 7: want converged exactly from tol 1/7 on")
	}
}

// TestSolveRandomProperty: for random well-conditioned systems,
// A * Solve(A, b) ≈ b.
func TestSolveRandomProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(12)
		a := randomMatrix(r, n)
		// Diagonal dominance keeps the condition number small.
		for i := 0; i < n; i++ {
			a.Add(i, i, float64(n)+1)
		}
		b := make([]float64, n)
		for i := range b {
			b[i] = 2*r.Float64() - 1
		}
		f, err := FactorLU(a)
		if err != nil {
			return false
		}
		x, err := f.SolveVec(b)
		if err != nil {
			return false
		}
		ax, err := a.MulVec(x)
		if err != nil {
			return false
		}
		for i := range b {
			if math.Abs(ax[i]-b[i]) >= 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// TestDetPermutationSign: factoring a permutation-like matrix exercises the
// pivoting path and sign bookkeeping.
func TestDetPermutationSign(t *testing.T) {
	p, _ := NewDenseFromRows([][]float64{
		{0, 1, 0},
		{0, 0, 1},
		{1, 0, 0},
	})
	f, err := FactorLU(p)
	if err != nil {
		t.Fatal(err)
	}
	if got := luDet(f); math.Abs(got-1) > 1e-12 {
		t.Errorf("det(cyclic permutation) = %v, want 1", got)
	}
}

func TestSolveVecTransposedMatchesExplicitTranspose(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	for trial := 0; trial < 20; trial++ {
		n := 1 + r.Intn(12)
		// No diagonal boost: generic random entries make partial pivoting
		// actually permute rows, exercising the inverse-permutation step.
		a := NewDense(n, n)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				a.Set(i, j, 2*r.Float64()-1)
			}
		}
		b := make([]float64, n)
		for i := range b {
			b[i] = r.NormFloat64()
		}
		f, err := FactorLU(a)
		if err != nil {
			continue // exactly singular draw (vanishingly rare)
		}
		got, err := f.SolveVecTransposed(b)
		if err != nil {
			t.Fatal(err)
		}
		want, err := mustLU(t, a.Transpose()).SolveVec(b)
		if err != nil {
			t.Fatal(err)
		}
		for i := range want {
			if math.Abs(got[i]-want[i]) > 1e-8*(1+math.Abs(want[i])) {
				t.Fatalf("n=%d: x[%d] = %v, want %v", n, i, got[i], want[i])
			}
		}
	}
	if _, err := (&LU{n: 2}).SolveVecTransposed([]float64{1}); err == nil {
		t.Error("bad rhs length: want error")
	}
}
