package matrix

import (
	"errors"
	"fmt"
	"math"
	"strings"
)

// This file is the pluggable linear-solver layer of the analytic pipeline.
// Every closed-form relation of the absorbing-chain analytics reduces to
// systems with the matrix A = I − M, where M is a substochastic CSR block
// of the transition matrix (spectral radius < 1). A Solver prepares a
// Factorization of I − M once; the Factorization then answers right
// systems (I−M)x = b and left (row-vector) systems x(I−M) = b, so a
// single prepared block serves several relations.
//
// Three families are provided:
//
//   - DenseSolver: the exact LU path. It densifies I − M and factors it
//     with partial pivoting — O(n³) but backward stable; the fallback and
//     cross-check reference.
//   - Iterative solvers (GaussSeidelSolver, BiCGSTABSolver, ILUSolver):
//     sparse residual-controlled iterations that never materialize a
//     dense matrix, making state spaces with hundreds of thousands of
//     transient states affordable. BiCGSTAB preconditions with fixed
//     Gauss–Seidel sweeps; ILUSolver preconditions the same Krylov
//     iteration with an ILU(0) factorization, which keeps the iteration
//     count flat as the chain's mixing slows (d → 1).
//   - AutoSolver composes them: probe the block's mixing speed, iterate
//     sparsely with the matching preconditioner, densify only if the
//     iteration fails to converge.
//
// Iterative factorizations accept a warm start (SolveVecFrom,
// SolveVecLeftFrom): an initial guess x0 from a nearby system — the previous cell
// of a parameter sweep, the previous step of a sojourn recursion — cuts
// the iteration count without changing the convergence criterion.

// ErrNoConvergence is returned when an iterative solve fails to reach its
// residual tolerance within its iteration budget.
var ErrNoConvergence = errors.New("matrix: iterative solve did not converge")

// Default iterative-solver controls.
const (
	// DefaultTol is the default residual tolerance of the iterative
	// solvers: a solve x is accepted when
	// ‖b − Ax‖∞ ≤ tol · (‖b‖∞ + ‖x‖∞).
	DefaultTol = 1e-12
	// DefaultGSMaxIter bounds Gauss–Seidel sweeps.
	DefaultGSMaxIter = 500_000
	// DefaultBiCGSTABMaxIter bounds BiCGSTAB iterations.
	DefaultBiCGSTABMaxIter = 100_000
)

// ConvergenceError is the detailed failure of an iterative solve. It
// wraps ErrNoConvergence (errors.Is works) and carries the diagnostics
// the auto backend's fallback accounting reports: how much budget was
// burned and whether the iteration suffered numerical breakdowns (the
// two point at different remedies — a bigger budget / better
// preconditioner versus a fundamentally ill-suited Krylov method).
type ConvergenceError struct {
	// Method names the iteration ("bicgstab", "gauss-seidel", "ilu").
	Method string
	// Iterations is the number of iterations performed before giving up.
	Iterations int
	// Breakdowns counts near-breakdown restarts (vanishing ρ or ω) the
	// iteration hit; 0 means the budget simply ran out.
	Breakdowns int
	// N and Tol describe the attempted system.
	N   int
	Tol float64
}

func (e *ConvergenceError) Error() string {
	msg := fmt.Sprintf("%v: %s after %d iterations (n=%d, tol=%g)",
		ErrNoConvergence, e.Method, e.Iterations, e.N, e.Tol)
	if e.Breakdowns > 0 {
		msg += fmt.Sprintf(", %d breakdown restarts", e.Breakdowns)
	}
	return msg
}

func (e *ConvergenceError) Unwrap() error { return ErrNoConvergence }

// FallbackReason classifies why the auto backend abandoned the sparse
// path for a block.
type FallbackReason string

const (
	// FallbackNone: the sparse path never failed.
	FallbackNone FallbackReason = ""
	// FallbackIterationCap: the iteration ran out of budget.
	FallbackIterationCap FallbackReason = "iteration_cap"
	// FallbackBreakdown: the iteration hit numerical breakdowns before
	// running out of budget.
	FallbackBreakdown FallbackReason = "breakdown"
)

// classifyFallback maps an iterative-solve error to its FallbackReason.
func classifyFallback(err error) FallbackReason {
	var ce *ConvergenceError
	if errors.As(err, &ce) && ce.Breakdowns > 0 {
		return FallbackBreakdown
	}
	return FallbackIterationCap
}

// SolveStats summarizes the work a Factorization has performed so far.
// Counters are cumulative across all solves on the factorization; like
// the Factorization itself they are not safe for concurrent use.
type SolveStats struct {
	// Backend names the backend that served the solves ("dense",
	// "bicgstab", "ilu", ...). For the auto backend it names the chosen
	// sparse backend even after a fallback (Fallbacks tells the rest).
	Backend string
	// Iterations is the cumulative iterative work: Krylov iterations for
	// BiCGSTAB/ILU, sweeps for Gauss–Seidel, 0 for dense.
	Iterations int64
	// Fallbacks counts solves answered by the auto backend's dense
	// fallback instead of the sparse path.
	Fallbacks int64
	// FallbackReason records why the block first fell back.
	FallbackReason FallbackReason
}

// Plus merges two stats (summing counters, keeping the first non-empty
// backend and reason), for aggregation across a chain's factorizations.
func (s SolveStats) Plus(o SolveStats) SolveStats {
	out := s
	out.Iterations += o.Iterations
	out.Fallbacks += o.Fallbacks
	if out.Backend == "" {
		out.Backend = o.Backend
	}
	if out.FallbackReason == FallbackNone {
		out.FallbackReason = o.FallbackReason
	}
	return out
}

// Factorization is a prepared solving context for A = I − M: right and
// left vector solves, each with an optional warm start, and the work
// counters of all solves so far. A caller with several systems against
// one block issues one vector solve per right-hand side; the block's
// setup (LU or ILU factors, the Gauss–Seidel-based backends' sparse
// transpose) is paid once, on first use.
// Implementations are not safe for concurrent use.
type Factorization interface {
	// SolveVec solves (I − M) x = b.
	SolveVec(b []float64) ([]float64, error)
	// SolveVecLeft solves the row-vector system x (I − M) = b,
	// i.e. (I − M)ᵀ xᵀ = bᵀ.
	SolveVecLeft(b []float64) ([]float64, error)
	// SolveVecFrom is SolveVec warm-started from the initial guess x0
	// (same convergence criterion, fewer iterations when x0 is close).
	// A nil x0 is the cold start; a non-nil x0 must have the order of
	// the system.
	// The dense backend ignores the guess. x0 is read, never written.
	SolveVecFrom(b, x0 []float64) ([]float64, error)
	// SolveVecLeftFrom is SolveVecLeft warm-started from x0.
	SolveVecLeftFrom(b, x0 []float64) ([]float64, error)
	// Stats reports the cumulative work of all solves so far.
	Stats() SolveStats
}

// Solver prepares factorizations of I − M for square substochastic CSR
// blocks M.
type Solver interface {
	// Name identifies the backend ("dense", "gauss-seidel", ...).
	Name() string
	// Factor prepares I − m for repeated solves.
	Factor(m *CSR) (Factorization, error)
}

// iterativeControls checks that m is square and resolves an iterative
// backend's zero controls to their defaults.
func iterativeControls(m *CSR, tol float64, maxIter, defaultMaxIter int) (float64, int, error) {
	if m.Rows() != m.Cols() {
		return 0, 0, fmt.Errorf("matrix: Factor requires a square matrix, got %dx%d", m.Rows(), m.Cols())
	}
	if tol <= 0 {
		tol = DefaultTol
	}
	if maxIter <= 0 {
		maxIter = defaultMaxIter
	}
	return tol, maxIter, nil
}

// checkSystem validates a right-hand side and a warm-start guess against
// the system order.
func checkSystem(b, x0 []float64, n int) error {
	if len(b) != n {
		return fmt.Errorf("matrix: solve rhs length %d does not match order %d", len(b), n)
	}
	if x0 != nil && len(x0) != n {
		return fmt.Errorf("matrix: warm-start guess length %d does not match order %d", len(x0), n)
	}
	return nil
}

// ---------------------------------------------------------------------------
// Dense LU backend.

// DenseSolver densifies I − M and solves with LU partial pivoting: the
// exact reference backend.
type DenseSolver struct{}

// Name implements Solver.
func (DenseSolver) Name() string { return "dense" }

// Factor implements Solver.
func (DenseSolver) Factor(m *CSR) (Factorization, error) {
	if m.Rows() != m.Cols() {
		return nil, fmt.Errorf("matrix: Factor requires a square matrix, got %dx%d", m.Rows(), m.Cols())
	}
	a := Identity(m.Rows())
	for i := 0; i < m.Rows(); i++ {
		m.RowNonZeros(i, func(j int, v float64) {
			a.Add(i, j, -v)
		})
	}
	return &denseFactorization{a: a}, nil
}

type denseFactorization struct {
	a *Dense
	// One lazy LU serves both orientations: left systems solve through
	// SolveVecTransposed on the same P A = L U factors, so no block is
	// ever factored twice and a relation that never solves an
	// orientation never pays for it.
	lu *LU
}

func (f *denseFactorization) factor() (*LU, error) {
	if f.lu == nil {
		lu, err := FactorLU(f.a)
		if err != nil {
			return nil, err
		}
		f.lu = lu
	}
	return f.lu, nil
}

func (f *denseFactorization) SolveVec(b []float64) ([]float64, error) {
	lu, err := f.factor()
	if err != nil {
		return nil, err
	}
	return lu.SolveVec(b)
}

func (f *denseFactorization) SolveVecLeft(b []float64) ([]float64, error) {
	lu, err := f.factor()
	if err != nil {
		return nil, err
	}
	return lu.SolveVecTransposed(b)
}

// SolveVecFrom validates and then discards the guess: direct solves have
// no iteration to shorten.
func (f *denseFactorization) SolveVecFrom(b, x0 []float64) ([]float64, error) {
	if err := checkSystem(b, x0, f.a.Rows()); err != nil {
		return nil, err
	}
	return f.SolveVec(b)
}

func (f *denseFactorization) SolveVecLeftFrom(b, x0 []float64) ([]float64, error) {
	if err := checkSystem(b, x0, f.a.Rows()); err != nil {
		return nil, err
	}
	return f.SolveVecLeft(b)
}

func (f *denseFactorization) Stats() SolveStats { return SolveStats{Backend: "dense"} }

// ---------------------------------------------------------------------------
// Gauss–Seidel backend.

// GaussSeidelSolver solves (I−M)x = b by forward Gauss–Seidel sweeps over
// the CSR rows, with residual-controlled convergence. It never builds a
// dense matrix; left systems sweep over the (sparse) transpose, built
// lazily once per factorization.
type GaussSeidelSolver struct {
	// Tol is the residual tolerance; 0 selects DefaultTol.
	Tol float64
	// MaxIter bounds the number of sweeps; 0 selects DefaultGSMaxIter.
	MaxIter int
}

// Name implements Solver.
func (GaussSeidelSolver) Name() string { return "gauss-seidel" }

// Factor implements Solver.
func (s GaussSeidelSolver) Factor(m *CSR) (Factorization, error) {
	tol, maxIter, err := iterativeControls(m, s.Tol, s.MaxIter, DefaultGSMaxIter)
	if err != nil {
		return nil, err
	}
	diag := m.Diagonal()
	for i, d := range diag {
		if 1-d <= 0 {
			return nil, fmt.Errorf("%w: diagonal of I−M is %v at row %d", ErrSingular, 1-d, i)
		}
	}
	return &gsFactorization{m: m, diag: diag, tol: tol, maxIter: maxIter}, nil
}

type gsFactorization struct {
	m *CSR
	// mT is the lazily built transpose for left systems. Unlike a
	// product, a Gauss–Seidel sweep on Mᵀ cannot scatter over M's rows:
	// each row of Mᵀ mixes iterates already updated in this sweep with
	// old ones, in column order, and only the stored transpose keeps that
	// summation order bit for bit.
	mT      *CSR
	diag    []float64
	tol     float64
	maxIter int
	iters   int64
}

func (f *gsFactorization) SolveVec(b []float64) ([]float64, error) {
	return f.SolveVecFrom(b, nil)
}

func (f *gsFactorization) SolveVecFrom(b, x0 []float64) ([]float64, error) {
	x, sweeps, err := gaussSeidel(f.m, f.diag, b, x0, f.tol, f.maxIter)
	f.iters += int64(sweeps)
	return x, err
}

func (f *gsFactorization) SolveVecLeft(b []float64) ([]float64, error) {
	return f.SolveVecLeftFrom(b, nil)
}

func (f *gsFactorization) SolveVecLeftFrom(b, x0 []float64) ([]float64, error) {
	if f.mT == nil {
		mT, err := f.m.Transpose()
		if err != nil {
			return nil, err
		}
		f.mT = mT
	}
	x, sweeps, err := gaussSeidel(f.mT, f.diag, b, x0, f.tol, f.maxIter)
	f.iters += int64(sweeps)
	return x, err
}

func (f *gsFactorization) Stats() SolveStats {
	return SolveStats{Backend: "gauss-seidel", Iterations: f.iters}
}

// gaussSeidel iterates x_i ← (b_i + Σ_{j≠i} M_ij x_j) / (1 − M_ii) until
// the residual of (I−M)x = b satisfies ‖b − Ax‖∞ ≤ tol·(‖b‖∞ + ‖x‖∞).
// diag must be the diagonal of M (shared by M and Mᵀ). A nil x0 starts
// from b (the natural first iterate for A ≈ I); a warm start with a zero
// b returns the exact solution x = b = 0 without sweeping. The sweep
// count is returned alongside the solution for work accounting.
func gaussSeidel(m *CSR, diag []float64, b, x0 []float64, tol float64, maxIter int) ([]float64, int, error) {
	n := m.Rows()
	if err := checkSystem(b, x0, n); err != nil {
		return nil, 0, err
	}
	tmp, scratch := make([]float64, n), make([]float64, n)
	iMinusM := func(x, dst []float64) {
		_ = m.MulVecInto(x, tmp)
		for i := range dst {
			dst[i] = x[i] - tmp[i]
		}
	}
	var x []float64
	if x0 != nil {
		if isZero(b) {
			x0 = b // the exact solution; it passes the check below
		}
		x = append([]float64(nil), x0...)
		// A warm start may already satisfy the criterion (e.g. re-solving
		// a system from its own solution); check before sweeping.
		if converged(iMinusM, x, b, scratch, tol) {
			return x, 0, nil
		}
	} else {
		x = append([]float64(nil), b...)
	}
	start, end, off := m.start[:n], m.end[:n], m.colOff
	for iter := 0; iter < maxIter; iter++ {
		var maxDiff, maxX float64
		for i := range start {
			cols, vs := m.colIdx[start[i]:end[i]], m.vals[start[i]:end[i]]
			vs = vs[:len(cols)]
			s := b[i]
			for k, c := range cols {
				if j := int(c - off); j != i {
					s += float64(vs[k] * x[j])
				}
			}
			nx := s / (1 - diag[i])
			if d := math.Abs(nx - x[i]); d > maxDiff {
				maxDiff = d
			}
			if a := math.Abs(nx); a > maxX {
				maxX = a
			}
			x[i] = nx
		}
		// The sweep has stagnated; confirm with the true residual (the
		// update norm underestimates the error for slowly mixing chains).
		if maxDiff <= tol*(1+maxX) {
			if converged(iMinusM, x, b, scratch, tol) {
				return x, iter + 1, nil
			}
		}
	}
	if converged(iMinusM, x, b, scratch, tol) {
		return x, maxIter, nil
	}
	return nil, maxIter, &ConvergenceError{Method: "gauss-seidel", Iterations: maxIter, N: n, Tol: tol}
}

// ---------------------------------------------------------------------------
// BiCGSTAB backend.

// BiCGSTABSolver solves (I−M)x = b with the biconjugate gradient
// stabilized method of van der Vorst: a Krylov iteration for
// non-symmetric systems that typically converges in far fewer matrix
// passes than stationary sweeps. The iteration is preconditioned with a
// fixed number of forward Gauss–Seidel sweeps (a linear operator, since
// every sweep starts from zero) applied to the Krylov directions — the
// standard right-preconditioned formulation, whose residual is the true
// residual of the unpreconditioned system. GS sweeps are a natural
// preconditioner for these M-matrix systems and flatten the heavy
// self-loops that slow convergence as d → 1; for severely slow-mixing
// blocks, ILUSolver swaps in a stronger ILU(0) preconditioner around the
// same iteration. Left systems run on the (sparse, lazily built)
// transpose; nothing is ever densified.
type BiCGSTABSolver struct {
	// Tol is the residual tolerance; 0 selects DefaultTol.
	Tol float64
	// MaxIter bounds iterations; 0 selects DefaultBiCGSTABMaxIter.
	MaxIter int
}

// Name implements Solver.
func (BiCGSTABSolver) Name() string { return "bicgstab" }

// Factor implements Solver.
func (s BiCGSTABSolver) Factor(m *CSR) (Factorization, error) {
	tol, maxIter, err := iterativeControls(m, s.Tol, s.MaxIter, DefaultBiCGSTABMaxIter)
	if err != nil {
		return nil, err
	}
	diag := m.Diagonal()
	invDiag := make([]float64, len(diag))
	for i, d := range diag {
		if 1-d <= 0 {
			return nil, fmt.Errorf("%w: diagonal of I−M is %v at row %d", ErrSingular, 1-d, i)
		}
		invDiag[i] = 1 / (1 - d)
	}
	return &bicgstabFactorization{m: m, invDiag: invDiag, tol: tol, maxIter: maxIter}, nil
}

// bicgstabPrecondSweeps is the fixed number of forward Gauss–Seidel
// sweeps per preconditioner application. Two sweeps roughly halve the
// Krylov iteration count again relative to one at ~1 extra matvec of
// cost each.
const bicgstabPrecondSweeps = 2

type bicgstabFactorization struct {
	m       *CSR
	mT      *CSR      // lazily built transpose for left systems (see gsFactorization.mT)
	invDiag []float64 // 1/(1−M_ii), shared by M and Mᵀ
	work    bicgWork
	tol     float64
	maxIter int
	iters   int64
}

// gsSweepsInto writes into z the result of bicgstabPrecondSweeps forward
// Gauss–Seidel sweeps for (I−M)z = r starting from z = 0: the
// preconditioner application z = P⁻¹r. The first sweep skips the
// all-zero z reads. Like the products, it ranges over each row's column
// and value slices: with row bounds and a column offset in play, an
// index counter over the bounds spills the loop state to the stack and
// ran slower in the kernel micro-benchmarks (BenchmarkGSSweeps*).
func gsSweepsInto(m *CSR, invDiag, r, z []float64) {
	start, end, off := m.start, m.end[:len(m.start)], m.colOff
	r, invDiag = r[:len(start)], invDiag[:len(start)]
	for i := range start {
		cols, vs := m.colIdx[start[i]:end[i]], m.vals[start[i]:end[i]]
		vs = vs[:len(cols)]
		s := r[i]
		for k, c := range cols {
			if j := int(c - off); j < i {
				s += float64(vs[k] * z[j])
			}
		}
		z[i] = s * invDiag[i]
	}
	for sweep := 1; sweep < bicgstabPrecondSweeps; sweep++ {
		for i := range start {
			cols, vs := m.colIdx[start[i]:end[i]], m.vals[start[i]:end[i]]
			vs = vs[:len(cols)]
			s := r[i]
			for k, c := range cols {
				if j := int(c - off); j != i {
					s += float64(vs[k] * z[j])
				}
			}
			z[i] = s * invDiag[i]
		}
	}
}

// solve runs the preconditioned iteration on a, which is M for right
// systems and Mᵀ for left ones (so both orientations see a plain
// (I−a)x = b system).
func (f *bicgstabFactorization) solve(b, x0 []float64, a *CSR) ([]float64, error) {
	precond := func(r, z []float64) {
		gsSweepsInto(a, f.invDiag, r, z)
	}
	x, iters, _, err := f.work.bicgstab(a.Rows(), a.MulVecInto, precond, b, x0, f.tol, f.maxIter)
	f.iters += int64(iters)
	return x, err
}

func (f *bicgstabFactorization) SolveVec(b []float64) ([]float64, error) {
	return f.solve(b, nil, f.m)
}

func (f *bicgstabFactorization) SolveVecFrom(b, x0 []float64) ([]float64, error) {
	return f.solve(b, x0, f.m)
}

func (f *bicgstabFactorization) SolveVecLeft(b []float64) ([]float64, error) {
	return f.SolveVecLeftFrom(b, nil)
}

func (f *bicgstabFactorization) SolveVecLeftFrom(b, x0 []float64) ([]float64, error) {
	if f.mT == nil {
		mT, err := f.m.Transpose()
		if err != nil {
			return nil, err
		}
		f.mT = mT
	}
	return f.solve(b, x0, f.mT)
}

func (f *bicgstabFactorization) Stats() SolveStats {
	return SolveStats{Backend: "bicgstab", Iterations: f.iters}
}

// bicgWork is the BiCGSTAB workspace of one factorization: the nine
// work vectors of the iteration, allocated by its first solve and reused
// by every later one. The iteration writes each vector before it reads
// it, so reuse cannot change a result, and a factorization serves one
// goroutine at a time, so no two solves share the vectors at once.
type bicgWork [9][]float64

// bicgstab runs the preconditioned BiCGSTAB iteration of van der Vorst
// for the order-n system (I − A)x = b, where mul computes the product
// dst = A x and precond the preconditioner application z ≈ (I − A)⁻¹r.
// It starts from x0, or from b when x0 is nil or b is zero (so a zero b
// returns its exact solution x = 0 at iteration 0). The stopping rule is
// the true residual ‖b − (I − A)x‖∞ ≤ tol·(‖b‖∞ + ‖x‖∞).
// Near-breakdowns (vanishing ρ or ω) restart the iteration from the
// current iterate; the iteration and breakdown counts are returned for
// work accounting and fallback diagnostics. The returned x is a fresh
// slice, which callers may keep (warm-start records do).
func (w *bicgWork) bicgstab(n int, mul func(x, dst []float64) error, precond func(r, z []float64), b, x0 []float64, tol float64, maxIter int) ([]float64, int, int, error) {
	if err := checkSystem(b, x0, n); err != nil {
		return nil, 0, 0, err
	}
	if len(w[0]) != n {
		for i := range w {
			w[i] = make([]float64, n)
		}
	}
	tmp, r, rhat, v, p, phat, s, shat, t := w[0], w[1], w[2], w[3], w[4], w[5], w[6], w[7], w[8]
	matvec := func(x, dst []float64) {
		_ = mul(x, tmp)
		for i := range dst {
			dst[i] = x[i] - tmp[i]
		}
	}
	var x []float64
	if x0 == nil || isZero(b) {
		x = append([]float64(nil), b...)
	} else {
		x = append([]float64(nil), x0...)
	}
	breakdowns := 0
	restart := func() float64 {
		matvec(x, r)
		var norm float64
		for i := range r {
			r[i] = b[i] - r[i]
			norm += float64(r[i] * r[i])
		}
		copy(rhat, r)
		copy(p, r)
		for i := range v {
			v[i] = 0
		}
		return norm
	}
	rho := restart()
	if converged(matvec, x, b, t, tol) {
		return x, 0, 0, nil
	}
	var maxB float64
	for i := range b {
		if a := math.Abs(b[i]); a > maxB {
			maxB = a
		}
	}
	const breakdown = 1e-280
	iters := 0
	for ; iters < maxIter; iters++ {
		precond(p, phat)
		matvec(phat, v)
		var rhatV float64
		for i := range v {
			rhatV += float64(rhat[i] * v[i])
		}
		if math.Abs(rhatV) < breakdown {
			breakdowns++
			rho = restart()
			continue
		}
		alpha := rho / rhatV
		for i := range s {
			s[i] = r[i] - float64(alpha*v[i])
		}
		precond(s, shat)
		matvec(shat, t)
		var tt, ts float64
		for i := range t {
			tt += float64(t[i] * t[i])
			ts += float64(t[i] * s[i])
		}
		var omega float64
		if tt > breakdown {
			omega = ts / tt
		}
		var maxX float64
		for i := range x {
			x[i] += float64(alpha*phat[i]) + float64(omega*shat[i])
			if a := math.Abs(x[i]); a > maxX {
				maxX = a
			}
		}
		if omega == 0 || math.Abs(omega) < breakdown {
			if converged(matvec, x, b, t, tol) {
				return x, iters + 1, breakdowns, nil
			}
			breakdowns++
			rho = restart()
			continue
		}
		var rhoNext, rNorm float64
		for i := range r {
			r[i] = s[i] - float64(omega*t[i])
			rhoNext += float64(rhat[i] * r[i])
			rNorm += float64(r[i] * r[i])
		}
		// Cheap scale-aware 2-norm gate (‖r‖∞ ≤ ‖r‖₂) before paying one
		// extra matvec for the true-residual ∞-norm check; the %16
		// backstop catches recursive-residual drift.
		if target := tol * (maxB + maxX); rNorm <= target*target || iters%16 == 15 {
			if converged(matvec, x, b, t, tol) {
				return x, iters + 1, breakdowns, nil
			}
		}
		if math.Abs(rhoNext) < breakdown {
			breakdowns++
			rho = restart()
			continue
		}
		beta := (rhoNext / rho) * (alpha / omega)
		rho = rhoNext
		for i := range p {
			p[i] = r[i] + float64(beta*(p[i]-float64(omega*v[i])))
		}
	}
	if converged(matvec, x, b, t, tol) {
		return x, iters, breakdowns, nil
	}
	return nil, iters, breakdowns, &ConvergenceError{Method: "bicgstab", Iterations: iters, Breakdowns: breakdowns, N: n, Tol: tol}
}

// isZero reports whether every entry of v is zero.
func isZero(v []float64) bool {
	for _, a := range v {
		if a != 0 {
			return false
		}
	}
	return true
}

// converged checks the true residual ‖b − op(x)‖∞ ≤ tol·(‖b‖∞ + ‖x‖∞),
// using scratch as workspace: a backward-error-style criterion that stays
// achievable when the solution is large, as it is for long-lived chains.
func converged(op func(x, dst []float64), x, b, scratch []float64, tol float64) bool {
	op(x, scratch)
	var res, maxB, maxX float64
	for i := range scratch {
		if r := math.Abs(b[i] - scratch[i]); r > res {
			res = r
		}
		if a := math.Abs(b[i]); a > maxB {
			maxB = a
		}
		if a := math.Abs(x[i]); a > maxX {
			maxX = a
		}
	}
	return res <= tol*(maxB+maxX+1e-300)
}

// ---------------------------------------------------------------------------
// Auto backend: sparse first, dense fallback.

// Mixing-heuristic controls for AutoSolver's preconditioner choice.
const (
	// MixingProbeSteps is the number of power-iteration matvecs the
	// heuristic spends estimating a block's spectral radius.
	MixingProbeSteps = 16
	// DefaultSlowMixThreshold is the estimated spectral radius above
	// which a block counts as slow-mixing and gets the ILU(0)
	// preconditioner instead of Gauss–Seidel sweeps.
	DefaultSlowMixThreshold = 0.995
)

// MixingEstimate estimates the spectral radius of the substochastic
// block M with `steps` power-iteration matvecs on the all-ones vector:
// (Mᵏ1)_i is the probability of surviving k steps from state i, so the
// k-th root of its maximum estimates the slowest decay rate — the
// quantity that governs how hard (I−M)x = b is for weakly
// preconditioned Krylov iterations. Cost: steps sparse matvecs.
func MixingEstimate(m *CSR, steps int) float64 {
	n := m.Rows()
	if n == 0 || n != m.Cols() || steps <= 0 {
		return 0
	}
	v := Ones(n)
	w := make([]float64, n)
	for s := 0; s < steps; s++ {
		_ = m.MulVecInto(v, w)
		v, w = w, v
	}
	var max float64
	for _, a := range v {
		if a > max {
			max = a
		}
	}
	return math.Pow(max, 1/float64(steps))
}

// AutoSolver iterates sparsely and falls back to the dense LU path only
// when the iteration fails to converge — robustness of the dense path at
// sparse cost on the common path. With no explicit Sparse backend it
// probes each block's mixing speed (MixingEstimate) and picks the
// preconditioner accordingly: Gauss–Seidel-preconditioned BiCGSTAB for
// fast-mixing blocks, ILU(0)-preconditioned for slow-mixing ones.
type AutoSolver struct {
	// Sparse is the iterative backend; nil selects the mixing heuristic
	// between BiCGSTABSolver and ILUSolver per block.
	Sparse Solver
	// Tol and MaxIter parameterize the heuristically chosen backend;
	// ignored when Sparse is set explicitly.
	Tol     float64
	MaxIter int
}

// Name implements Solver.
func (AutoSolver) Name() string { return "auto" }

// Factor implements Solver.
func (s AutoSolver) Factor(m *CSR) (Factorization, error) {
	if m.Rows() != m.Cols() {
		return nil, fmt.Errorf("matrix: Factor requires a square matrix, got %dx%d", m.Rows(), m.Cols())
	}
	sparse := s.Sparse
	if sparse == nil {
		if MixingEstimate(m, MixingProbeSteps) >= DefaultSlowMixThreshold {
			sparse = ILUSolver{Tol: s.Tol, MaxIter: s.MaxIter}
		} else {
			sparse = BiCGSTABSolver{Tol: s.Tol, MaxIter: s.MaxIter}
		}
	}
	f, err := sparse.Factor(m)
	if err != nil {
		return nil, err
	}
	return &autoFactorization{m: m, sparse: f}, nil
}

type autoFactorization struct {
	m      *CSR
	sparse Factorization
	dense  Factorization // built on first fallback
	// fellBack remembers a non-convergence: once one solve on this block
	// has failed to converge, later solves skip the doomed full-budget
	// iteration and go straight to the dense factors. reason records why
	// the block fell back; fallbacks counts the solves the dense path
	// answered.
	fellBack  bool
	reason    FallbackReason
	fallbacks int64
}

func (f *autoFactorization) fallback() (Factorization, error) {
	f.fellBack = true
	if f.dense == nil {
		d, err := DenseSolver{}.Factor(f.m)
		if err != nil {
			return nil, err
		}
		f.dense = d
	}
	return f.dense, nil
}

func (f *autoFactorization) solve(b, x0 []float64, left bool) ([]float64, error) {
	if !f.fellBack {
		var x []float64
		var err error
		if left {
			x, err = f.sparse.SolveVecLeftFrom(b, x0)
		} else {
			x, err = f.sparse.SolveVecFrom(b, x0)
		}
		if !errors.Is(err, ErrNoConvergence) {
			return x, err
		}
		f.reason = classifyFallback(err)
	}
	d, err := f.fallback()
	if err != nil {
		return nil, err
	}
	f.fallbacks++
	if left {
		return d.SolveVecLeft(b)
	}
	return d.SolveVec(b)
}

func (f *autoFactorization) SolveVec(b []float64) ([]float64, error) {
	return f.solve(b, nil, false)
}

func (f *autoFactorization) SolveVecLeft(b []float64) ([]float64, error) {
	return f.solve(b, nil, true)
}

func (f *autoFactorization) SolveVecFrom(b, x0 []float64) ([]float64, error) {
	return f.solve(b, x0, false)
}

func (f *autoFactorization) SolveVecLeftFrom(b, x0 []float64) ([]float64, error) {
	return f.solve(b, x0, true)
}

func (f *autoFactorization) Stats() SolveStats {
	st := f.sparse.Stats()
	st.Fallbacks = f.fallbacks
	st.FallbackReason = f.reason
	return st
}

// ---------------------------------------------------------------------------
// Configuration.

// SolverConfig selects and parameterizes a Solver from flag-friendly
// values. The zero value selects the exact dense LU backend.
type SolverConfig struct {
	// Kind names the backend: "dense" (or ""), "sparse"/"bicgstab",
	// "gs"/"gauss-seidel", "ilu", or "auto".
	Kind string
	// Tol is the iterative residual tolerance; 0 selects DefaultTol.
	// Ignored by the dense backend.
	Tol float64
	// MaxIter bounds iterative work; 0 selects the backend default.
	// Ignored by the dense backend.
	MaxIter int
}

// SolverKinds lists the accepted SolverConfig.Kind values.
func SolverKinds() []string {
	return []string{"dense", "sparse", "bicgstab", "gs", "gauss-seidel", "ilu", "auto"}
}

// Build resolves the configuration into a Solver.
func (c SolverConfig) Build() (Solver, error) {
	switch c.Kind {
	case "", "dense":
		return DenseSolver{}, nil
	case "sparse", "bicgstab":
		return BiCGSTABSolver{Tol: c.Tol, MaxIter: c.MaxIter}, nil
	case "gs", "gauss-seidel":
		return GaussSeidelSolver{Tol: c.Tol, MaxIter: c.MaxIter}, nil
	case "ilu":
		return ILUSolver{Tol: c.Tol, MaxIter: c.MaxIter}, nil
	case "auto":
		return AutoSolver{Tol: c.Tol, MaxIter: c.MaxIter}, nil
	default:
		return nil, fmt.Errorf("matrix: unknown solver kind %q (want one of %s)",
			c.Kind, strings.Join(SolverKinds(), ", "))
	}
}
