package matrix

import (
	"errors"
	"math"
	"math/rand"
	"testing"
)

// solverBackends enumerates every backend under test.
func solverBackends(t *testing.T) []Solver {
	t.Helper()
	return []Solver{
		DenseSolver{},
		GaussSeidelSolver{},
		BiCGSTABSolver{},
		ILUSolver{},
		AutoSolver{},
	}
}

// randomSubstochastic builds an n x n CSR with row sums ≤ 1−leak, the
// shape every absorbing-chain block has.
func randomSubstochastic(t *testing.T, r *rand.Rand, n int, leak float64) *CSR {
	t.Helper()
	b := NewSparseBuilder(n, n)
	for i := 0; i < n; i++ {
		weights := make([]float64, n)
		var sum float64
		for j := range weights {
			if r.Float64() < 0.5 { // keep it sparse
				weights[j] = r.Float64()
				sum += weights[j]
			}
		}
		if sum == 0 {
			continue
		}
		for j, w := range weights {
			if w > 0 {
				if err := b.Add(i, j, (1-leak)*w/sum); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	return b.Build()
}

func TestSolversAgreeOnRandomSystems(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for trial := 0; trial < 20; trial++ {
		n := 1 + r.Intn(40)
		m := randomSubstochastic(t, r, n, 0.05+0.2*r.Float64())
		b := make([]float64, n)
		for i := range b {
			b[i] = r.NormFloat64()
		}
		var refRight, refLeft []float64
		for _, s := range solverBackends(t) {
			f, err := s.Factor(m)
			if err != nil {
				t.Fatalf("%s: %v", s.Name(), err)
			}
			x, err := f.SolveVec(b)
			if err != nil {
				t.Fatalf("%s right solve: %v", s.Name(), err)
			}
			y, err := f.SolveVecLeft(b)
			if err != nil {
				t.Fatalf("%s left solve: %v", s.Name(), err)
			}
			if refRight == nil {
				refRight, refLeft = x, y
				continue
			}
			for i := range x {
				if math.Abs(x[i]-refRight[i]) > 1e-8*(1+math.Abs(refRight[i])) {
					t.Errorf("%s right solve differs from dense at %d: %v vs %v", s.Name(), i, x[i], refRight[i])
					break
				}
			}
			for i := range y {
				if math.Abs(y[i]-refLeft[i]) > 1e-8*(1+math.Abs(refLeft[i])) {
					t.Errorf("%s left solve differs from dense at %d: %v vs %v", s.Name(), i, y[i], refLeft[i])
					break
				}
			}
		}
	}
}

func TestIterativeResidualControl(t *testing.T) {
	// A slowly mixing chain: symmetric random walk on a path, leak only at
	// the ends. The solution ‖x‖ is large, so the update norm alone would
	// accept early; the residual check must hold the iteration.
	const n = 60
	b := NewSparseBuilder(n, n)
	for i := 0; i < n; i++ {
		if i > 0 {
			_ = b.Add(i, i-1, 0.5)
		}
		if i < n-1 {
			_ = b.Add(i, i+1, 0.5)
		}
	}
	m := b.Build()
	ones := Ones(n)
	want, err := must(DenseSolver{}.Factor(m)).SolveVec(ones)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range []Solver{GaussSeidelSolver{}, BiCGSTABSolver{}} {
		x, err := must(s.Factor(m)).SolveVec(ones)
		if err != nil {
			t.Fatalf("%s: %v", s.Name(), err)
		}
		// want[i] = E(absorption steps from i) peaks at (n/2)² ≈ 900.
		for i := range x {
			if math.Abs(x[i]-want[i]) > 1e-6*(1+math.Abs(want[i])) {
				t.Errorf("%s: x[%d] = %v, want %v", s.Name(), i, x[i], want[i])
				break
			}
		}
	}
}

func must(f Factorization, err error) Factorization {
	if err != nil {
		panic(err)
	}
	return f
}

func TestIterativeNoConvergenceError(t *testing.T) {
	// One sweep / iteration cannot solve a 40-state slow chain to 1e-12.
	const n = 40
	b := NewSparseBuilder(n, n)
	for i := 0; i < n; i++ {
		if i > 0 {
			_ = b.Add(i, i-1, 0.5)
		}
		if i < n-1 {
			_ = b.Add(i, i+1, 0.5)
		}
	}
	m := b.Build()
	for _, s := range []Solver{GaussSeidelSolver{MaxIter: 1}, BiCGSTABSolver{MaxIter: 1}} {
		if _, err := must(s.Factor(m)).SolveVec(Ones(n)); !errors.Is(err, ErrNoConvergence) {
			t.Errorf("%s with MaxIter=1: err = %v, want ErrNoConvergence", s.Name(), err)
		}
	}
	// Auto must absorb the failure via the dense fallback.
	auto := AutoSolver{Sparse: BiCGSTABSolver{MaxIter: 1}}
	x, err := must(auto.Factor(m)).SolveVec(Ones(n))
	if err != nil {
		t.Fatalf("auto fallback: %v", err)
	}
	want, _ := must(DenseSolver{}.Factor(m)).SolveVec(Ones(n))
	for i := range x {
		if math.Abs(x[i]-want[i]) > 1e-9*(1+math.Abs(want[i])) {
			t.Errorf("auto fallback x[%d] = %v, want %v", i, x[i], want[i])
			break
		}
	}
}

func TestFactorRejectsNonSquare(t *testing.T) {
	m := NewSparseBuilder(2, 3).Build()
	for _, s := range solverBackends(t) {
		if _, err := s.Factor(m); err == nil {
			t.Errorf("%s: non-square accepted", s.Name())
		}
	}
}

func TestGaussSeidelRejectsUnitDiagonal(t *testing.T) {
	b := NewSparseBuilder(2, 2)
	_ = b.Add(0, 0, 1) // absorbing row makes I−M singular
	_ = b.Add(1, 0, 0.5)
	if _, err := (GaussSeidelSolver{}).Factor(b.Build()); !errors.Is(err, ErrSingular) {
		t.Errorf("err = %v, want ErrSingular", err)
	}
}

func TestSolverConfigBuild(t *testing.T) {
	for _, tt := range []struct {
		kind string
		name string
	}{
		{"", "dense"},
		{"dense", "dense"},
		{"sparse", "bicgstab"},
		{"bicgstab", "bicgstab"},
		{"gs", "gauss-seidel"},
		{"gauss-seidel", "gauss-seidel"},
		{"ilu", "ilu"},
		{"auto", "auto"},
	} {
		s, err := SolverConfig{Kind: tt.kind}.Build()
		if err != nil {
			t.Fatalf("%q: %v", tt.kind, err)
		}
		if s.Name() != tt.name {
			t.Errorf("Kind %q built %q, want %q", tt.kind, s.Name(), tt.name)
		}
	}
	if _, err := (SolverConfig{Kind: "qr"}).Build(); err == nil {
		t.Error("unknown kind accepted")
	}
}

func TestSolveEmptySystem(t *testing.T) {
	m := NewSparseBuilder(0, 0).Build()
	for _, s := range solverBackends(t) {
		f, err := s.Factor(m)
		if err != nil {
			t.Fatalf("%s: %v", s.Name(), err)
		}
		if x, err := f.SolveVec(nil); err != nil || len(x) != 0 {
			t.Errorf("%s: empty solve = %v, %v", s.Name(), x, err)
		}
	}
}

func TestSolversRejectWrongRhsLength(t *testing.T) {
	b := NewSparseBuilder(3, 3)
	_ = b.Add(0, 1, 0.5)
	_ = b.Add(1, 2, 0.5)
	m := b.Build()
	for _, s := range solverBackends(t) {
		f, err := s.Factor(m)
		if err != nil {
			t.Fatalf("%s: %v", s.Name(), err)
		}
		for _, rhs := range [][]float64{make([]float64, 2), make([]float64, 4)} {
			if _, err := f.SolveVec(rhs); err == nil {
				t.Errorf("%s: SolveVec accepted rhs of length %d", s.Name(), len(rhs))
			}
			if _, err := f.SolveVecLeft(rhs); err == nil {
				t.Errorf("%s: SolveVecLeft accepted rhs of length %d", s.Name(), len(rhs))
			}
		}
	}
}

// TestAutoFallbackIsSticky pins the auto backend's cost model: after one
// non-convergence on a block, later solves must skip the doomed sparse
// iteration and use the cached dense factors directly.
func TestAutoFallbackIsSticky(t *testing.T) {
	const n = 40
	b := NewSparseBuilder(n, n)
	for i := 0; i < n; i++ {
		if i > 0 {
			_ = b.Add(i, i-1, 0.5)
		}
		if i < n-1 {
			_ = b.Add(i, i+1, 0.5)
		}
	}
	auto := AutoSolver{Sparse: countingSolver{inner: BiCGSTABSolver{MaxIter: 1}}}
	f, err := auto.Factor(b.Build())
	if err != nil {
		t.Fatal(err)
	}
	cf := f.(*autoFactorization).sparse.(*countingFactorization)
	if _, err := f.SolveVec(Ones(n)); err != nil {
		t.Fatal(err)
	}
	if cf.calls != 1 {
		t.Fatalf("first solve made %d sparse attempts, want 1", cf.calls)
	}
	if _, err := f.SolveVecLeft(Ones(n)); err != nil {
		t.Fatal(err)
	}
	if cf.calls != 1 {
		t.Errorf("sparse attempted again after fallback (%d calls); fallback must be sticky", cf.calls)
	}
}

// countingSolver wraps a Solver and counts solve attempts.
type countingSolver struct{ inner Solver }

func (s countingSolver) Name() string { return s.inner.Name() }

func (s countingSolver) Factor(m *CSR) (Factorization, error) {
	f, err := s.inner.Factor(m)
	if err != nil {
		return nil, err
	}
	return &countingFactorization{inner: f}, nil
}

type countingFactorization struct {
	inner Factorization
	calls int
}

func (f *countingFactorization) SolveVec(b []float64) ([]float64, error) {
	f.calls++
	return f.inner.SolveVec(b)
}

func (f *countingFactorization) SolveVecLeft(b []float64) ([]float64, error) {
	f.calls++
	return f.inner.SolveVecLeft(b)
}

func (f *countingFactorization) SolveVecFrom(b, x0 []float64) ([]float64, error) {
	f.calls++
	return f.inner.SolveVecFrom(b, x0)
}

func (f *countingFactorization) SolveVecLeftFrom(b, x0 []float64) ([]float64, error) {
	f.calls++
	return f.inner.SolveVecLeftFrom(b, x0)
}

func (f *countingFactorization) Stats() SolveStats { return f.inner.Stats() }

// TestZeroRHSWarmStart: a zero right-hand side has the exact solution
// x = 0, and every iterative backend must return it at once even from a
// nonzero guess, in both orientations (a warm start once drove BiCGSTAB
// through its whole budget and Gauss–Seidel into subnormals).
func TestZeroRHSWarmStart(t *testing.T) {
	b := NewSparseBuilder(2, 2)
	_ = b.Add(0, 0, 0.5)
	_ = b.Add(0, 1, 0.25)
	_ = b.Add(1, 0, 0.125)
	_ = b.Add(1, 1, 0.75)
	m := b.Build()
	for _, kind := range []string{"bicgstab", "ilu", "gs", "auto"} {
		s, err := SolverConfig{Kind: kind}.Build()
		if err != nil {
			t.Fatal(err)
		}
		for _, left := range []bool{false, true} {
			f := must(s.Factor(m))
			solve := f.SolveVecFrom
			if left {
				solve = f.SolveVecLeftFrom
			}
			x, err := solve(make([]float64, 2), Ones(2))
			if err != nil {
				t.Fatalf("%s (left %t): %v", kind, left, err)
			}
			if x[0] != 0 || x[1] != 0 {
				t.Errorf("%s (left %t): x = %v, want 0", kind, left, x)
			}
			if st := f.Stats(); st.Iterations != 0 || st.Fallbacks != 0 {
				t.Errorf("%s (left %t): %d iterations, %d fallbacks; want none", kind, left, st.Iterations, st.Fallbacks)
			}
		}
	}
}
