package matrix

import (
	"errors"
	"fmt"
	"math"
)

// ErrSingular is returned when a factorization or solve encounters an
// exactly singular matrix.
var ErrSingular = errors.New("matrix: singular matrix")

// LU is an LU factorization with partial pivoting: P*A = L*U.
type LU struct {
	lu    *Dense // packed L (unit diagonal, below) and U (on/above diagonal)
	pivot []int  // row permutation
	n     int
}

// FactorLU computes the LU factorization of a square matrix a with partial
// (row) pivoting. The input matrix is not modified.
func FactorLU(a *Dense) (*LU, error) {
	if a.Rows() != a.Cols() {
		return nil, fmt.Errorf("matrix: FactorLU requires a square matrix, got %dx%d", a.Rows(), a.Cols())
	}
	n := a.Rows()
	f := &LU{lu: a.Clone(), pivot: make([]int, n), n: n}
	for i := range f.pivot {
		f.pivot[i] = i
	}
	lu := f.lu
	for col := 0; col < n; col++ {
		// Find pivot.
		p := col
		mx := math.Abs(lu.At(col, col))
		for r := col + 1; r < n; r++ {
			if v := math.Abs(lu.At(r, col)); v > mx {
				mx, p = v, r
			}
		}
		if mx == 0 {
			return nil, fmt.Errorf("%w: zero pivot at column %d", ErrSingular, col)
		}
		if p != col {
			f.swapRows(p, col)
			f.pivot[p], f.pivot[col] = f.pivot[col], f.pivot[p]
		}
		// Eliminate below.
		piv := lu.At(col, col)
		for r := col + 1; r < n; r++ {
			m := lu.At(r, col) / piv
			lu.Set(r, col, m)
			if m == 0 {
				continue
			}
			rr := lu.RowView(r)
			cr := lu.RowView(col)
			for j := col + 1; j < n; j++ {
				rr[j] -= float64(m * cr[j])
			}
		}
	}
	return f, nil
}

func (f *LU) swapRows(i, j int) {
	ri := f.lu.RowView(i)
	rj := f.lu.RowView(j)
	for k := range ri {
		ri[k], rj[k] = rj[k], ri[k]
	}
}

// SolveVec solves A x = b for a single right-hand side.
func (f *LU) SolveVec(b []float64) ([]float64, error) {
	if len(b) != f.n {
		return nil, fmt.Errorf("matrix: SolveVec rhs length %d does not match order %d", len(b), f.n)
	}
	x := make([]float64, f.n)
	// Apply permutation: x = P*b.
	for i := 0; i < f.n; i++ {
		x[i] = b[f.pivot[i]]
	}
	// Forward substitution with unit lower-triangular L.
	for i := 1; i < f.n; i++ {
		row := f.lu.RowView(i)
		s := x[i]
		for j := 0; j < i; j++ {
			s -= float64(row[j] * x[j])
		}
		x[i] = s
	}
	// Back substitution with U.
	for i := f.n - 1; i >= 0; i-- {
		row := f.lu.RowView(i)
		s := x[i]
		for j := i + 1; j < f.n; j++ {
			s -= float64(row[j] * x[j])
		}
		x[i] = s / row[i]
	}
	return x, nil
}

// SolveVecTransposed solves Aᵀ x = b from the same factorization
// P A = L U, without a second O(n³) factorization: Aᵀ = Uᵀ Lᵀ P, so a
// forward substitution with Uᵀ, a backward substitution with Lᵀ, and the
// inverse row permutation give x.
func (f *LU) SolveVecTransposed(b []float64) ([]float64, error) {
	if len(b) != f.n {
		return nil, fmt.Errorf("matrix: SolveVecTransposed rhs length %d does not match order %d", len(b), f.n)
	}
	y := append([]float64(nil), b...)
	// Forward substitution with Uᵀ (lower triangular, diagonal of U).
	for i := 0; i < f.n; i++ {
		s := y[i]
		for j := 0; j < i; j++ {
			s -= float64(f.lu.At(j, i) * y[j])
		}
		y[i] = s / f.lu.At(i, i)
	}
	// Backward substitution with Lᵀ (unit upper triangular).
	for i := f.n - 1; i >= 0; i-- {
		s := y[i]
		for j := i + 1; j < f.n; j++ {
			s -= float64(f.lu.At(j, i) * y[j])
		}
		y[i] = s
	}
	// x = Pᵀ y.
	x := make([]float64, f.n)
	for i := 0; i < f.n; i++ {
		x[f.pivot[i]] = y[i]
	}
	return x, nil
}
