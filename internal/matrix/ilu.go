package matrix

import (
	"fmt"
	"math"
)

// ILU(0)-preconditioned BiCGSTAB backend.
//
// The Gauss–Seidel-preconditioned BiCGSTAB iteration degrades as the
// chain's mixing slows: for merge probability d → 1 the block M develops
// heavy self-loops and near-unit spectral radius, and the Krylov
// iteration count blows up — the bound that capped cluster sizes at
// C=∆≈50. An incomplete LU factorization with zero fill-in (ILU(0)) of
// A = I − M is a far stronger preconditioner for these M-matrix systems:
// it is computed once per block on A's own sparsity pattern (no fill, so
// memory stays O(nnz)), and each application is two sparse triangular
// solves — about the cost of one matvec.
//
// One factorization serves both orientations: right systems precondition
// with z = U⁻¹L⁻¹r, left (row-vector) systems run BiCGSTAB on Mᵀ and
// precondition with z = (LU)⁻ᵀr = L⁻ᵀU⁻ᵀr via transposed triangular
// solves on the same factors — no second factorization, no transposed
// copy of the factors, and no transposed copy of M either: the left
// products scatter over M's rows (CSR.VecMulInto).

// ILUSolver solves (I−M)x = b with BiCGSTAB preconditioned by an ILU(0)
// factorization of I − M. It is the backend of choice for slow-mixing
// blocks (d → 1, very large state spaces); for fast-mixing blocks the
// plain BiCGSTABSolver converges in a handful of iterations anyway and
// skips the factorization cost.
type ILUSolver struct {
	// Tol is the residual tolerance; 0 selects DefaultTol.
	Tol float64
	// MaxIter bounds BiCGSTAB iterations; 0 selects
	// DefaultBiCGSTABMaxIter.
	MaxIter int
}

// Name implements Solver.
func (ILUSolver) Name() string { return "ilu" }

// Factor implements Solver: it assembles A = I − M in CSR form and
// computes its ILU(0) factors eagerly (unlike the lazy dense LU, the
// factorization is cheap — O(Σ_rows nnz(row)²) — and every solve needs
// it).
func (s ILUSolver) Factor(m *CSR) (Factorization, error) {
	tol, maxIter, err := iterativeControls(m, s.Tol, s.MaxIter, DefaultBiCGSTABMaxIter)
	if err != nil {
		return nil, err
	}
	lu, err := factorILU0(m)
	if err != nil {
		return nil, err
	}
	return &iluFactorization{m: m, lu: lu, tol: tol, maxIter: maxIter}, nil
}

// iluPivotFloor rejects pivots that would turn the triangular solves
// into overflow machines. For the substochastic blocks of an absorbing
// chain the pivots stay near 1−M_ii > 0, so hitting the floor means the
// input was not such a block.
const iluPivotFloor = 1e-300

// iluFactors stores the combined L\U factors of ILU(0) in one CSR
// layout, with 32-bit indices like CSR: within each (column-sorted) row,
// entries left of the diagonal are L (unit diagonal implied), the
// diagonal and entries right of it are U.
type iluFactors struct {
	n      int
	rowPtr []uint32
	colIdx []uint32
	vals   []float64
	diag   []uint32 // index into vals/colIdx of each row's diagonal entry
}

// factorILU0 assembles A = I − M on M's sparsity pattern (plus a
// guaranteed diagonal) and eliminates in place with the IKJ ordering,
// dropping every update outside the pattern — the defining ILU(0)
// approximation A ≈ LU.
func factorILU0(m *CSR) (*iluFactors, error) {
	n := m.Rows()
	if err := checkIndexRange("ILU(0)", n, m.NNZ()+n); err != nil {
		return nil, err
	}
	lu := &iluFactors{
		n:      n,
		rowPtr: make([]uint32, n+1),
		colIdx: make([]uint32, 0, m.NNZ()+n),
		vals:   make([]float64, 0, m.NNZ()+n),
		diag:   make([]uint32, n),
	}
	// Assembly: rows of M are column-sorted, so the diagonal of A can be
	// merged in at its sorted position in one pass.
	for i := 0; i < n; i++ {
		placed := false
		m.RowNonZeros(i, func(j int, v float64) {
			if !placed && j >= i {
				placed = true
				lu.diag[i] = uint32(len(lu.vals))
				lu.colIdx = append(lu.colIdx, uint32(i))
				if j == i {
					lu.vals = append(lu.vals, 1-v)
					return
				}
				lu.vals = append(lu.vals, 1)
			}
			lu.colIdx = append(lu.colIdx, uint32(j))
			lu.vals = append(lu.vals, -v)
		})
		if !placed {
			lu.diag[i] = uint32(len(lu.vals))
			lu.colIdx = append(lu.colIdx, uint32(i))
			lu.vals = append(lu.vals, 1)
		}
		lu.rowPtr[i+1] = uint32(len(lu.vals))
	}
	// IKJ elimination. pos scatters the current row's pattern for O(1)
	// membership tests (entry index + 1; 0 = outside the pattern).
	pos := make([]uint32, n)
	for i := 0; i < n; i++ {
		start, end := lu.rowPtr[i], lu.rowPtr[i+1]
		for k := start; k < end; k++ {
			pos[lu.colIdx[k]] = k + 1
		}
		for k := start; k < end; k++ {
			kcol := lu.colIdx[k]
			if int(kcol) >= i {
				break // rows are column-sorted: L entries come first
			}
			lik := lu.vals[k] / lu.vals[lu.diag[kcol]]
			lu.vals[k] = lik
			for kk := lu.diag[kcol] + 1; kk < lu.rowPtr[kcol+1]; kk++ {
				if p := pos[lu.colIdx[kk]]; p != 0 {
					lu.vals[p-1] -= float64(lik * lu.vals[kk])
				}
			}
		}
		if piv := lu.vals[lu.diag[i]]; math.Abs(piv) < iluPivotFloor {
			return nil, fmt.Errorf("%w: ILU(0) pivot %v at row %d", ErrSingular, piv, i)
		}
		for k := start; k < end; k++ {
			pos[lu.colIdx[k]] = 0
		}
	}
	return lu, nil
}

// apply writes z = U⁻¹ L⁻¹ r: forward substitution through the unit
// lower factor, then backward substitution through the upper factor.
func (lu *iluFactors) apply(r, z []float64) {
	rowPtr, colIdx, vals, diag := lu.rowPtr, lu.colIdx, lu.vals, lu.diag
	for i := 0; i < lu.n; i++ {
		s := r[i]
		for k, d := int(rowPtr[i]), int(diag[i]); k < d; k++ {
			s -= float64(vals[k] * z[colIdx[k]])
		}
		z[i] = s
	}
	for i := lu.n - 1; i >= 0; i-- {
		s := z[i]
		d := int(diag[i])
		for k, end := d+1, int(rowPtr[i+1]); k < end; k++ {
			s -= float64(vals[k] * z[colIdx[k]])
		}
		z[i] = s / vals[d]
	}
}

// applyTransposed writes z = (LU)⁻ᵀ r = L⁻ᵀ U⁻ᵀ r. The factors are
// stored by rows of LU, so both transposed triangular solves run in
// scatter form: Uᵀw = r ascending (each finished w_i updates the
// pending entries below it), then Lᵀz = w descending with the implied
// unit diagonal.
func (lu *iluFactors) applyTransposed(r, z []float64) {
	rowPtr, colIdx, vals, diag := lu.rowPtr, lu.colIdx, lu.vals, lu.diag
	copy(z, r)
	for i := 0; i < lu.n; i++ {
		d := int(diag[i])
		z[i] /= vals[d]
		wi := z[i]
		for k, end := d+1, int(rowPtr[i+1]); k < end; k++ {
			z[colIdx[k]] -= float64(vals[k] * wi)
		}
	}
	for i := lu.n - 1; i >= 0; i-- {
		zi := z[i]
		for k, d := int(rowPtr[i]), int(diag[i]); k < d; k++ {
			z[colIdx[k]] -= float64(vals[k] * zi)
		}
	}
}

type iluFactorization struct {
	m       *CSR
	lu      *iluFactors
	work    bicgWork
	tol     float64
	maxIter int
	iters   int64
}

// solve runs ILU(0)-preconditioned BiCGSTAB on I − A, where mul is the
// product with A (M.MulVecInto for right systems, M.VecMulInto — the
// product with Mᵀ — for left ones), with the matching preconditioner
// orientation.
func (f *iluFactorization) solve(b, x0 []float64, mul func(x, dst []float64) error, precond func(r, z []float64)) ([]float64, error) {
	x, iters, _, err := f.work.bicgstab(f.lu.n, mul, precond, b, x0, f.tol, f.maxIter)
	f.iters += int64(iters)
	if ce, ok := err.(*ConvergenceError); ok {
		ce.Method = "ilu-bicgstab"
	}
	return x, err
}

func (f *iluFactorization) SolveVec(b []float64) ([]float64, error) {
	return f.SolveVecFrom(b, nil)
}

func (f *iluFactorization) SolveVecFrom(b, x0 []float64) ([]float64, error) {
	return f.solve(b, x0, f.m.MulVecInto, f.lu.apply)
}

func (f *iluFactorization) SolveVecLeft(b []float64) ([]float64, error) {
	return f.SolveVecLeftFrom(b, nil)
}

func (f *iluFactorization) SolveVecLeftFrom(b, x0 []float64) ([]float64, error) {
	return f.solve(b, x0, f.m.VecMulInto, f.lu.applyTransposed)
}

func (f *iluFactorization) Stats() SolveStats {
	return SolveStats{Backend: "ilu", Iterations: f.iters}
}
