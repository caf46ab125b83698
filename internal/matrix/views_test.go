package matrix

import (
	"math"
	"math/rand"
	"slices"
	"testing"
)

// randomPartitioned draws an n×n substochastic matrix and a random
// partition of its indices into a (nA states) and b, both in random
// order. Each row draws entries on both sides of the partition, on the
// a side only, on the b side only, or none at all, so the block views
// meet rows that are empty on one side of the split.
func randomPartitioned(t *testing.T, r *rand.Rand, n, nA int) (m *CSR, a, b []int) {
	t.Helper()
	perm := r.Perm(n)
	a, b = perm[:nA], perm[nA:]
	inA := make([]bool, n)
	for _, i := range a {
		inA[i] = true
	}
	bld := NewSparseBuilder(n, n)
	for i := 0; i < n; i++ {
		side := r.Intn(4) // 0 both, 1 a only, 2 b only, 3 empty
		for j := 0; j < n; j++ {
			if r.Intn(2) == 0 && (side == 0 || side == 1 && inA[j] || side == 2 && !inA[j]) {
				if err := bld.Add(i, j, 0.99*r.Float64()/float64(n)); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	return bld.Build(), a, b
}

// entryBits lists every stored entry of m in stored order as its row,
// column and value bits.
func entryBits(m *CSR) [][3]uint64 {
	var out [][3]uint64
	for i := 0; i < m.Rows(); i++ {
		m.RowNonZeros(i, func(j int, v float64) {
			out = append(out, [3]uint64{uint64(i), uint64(j), math.Float64bits(v)})
		})
	}
	return out
}

// vecBits returns the bits of every entry of v.
func vecBits(v []float64) []uint64 {
	out := make([]uint64, len(v))
	for i, x := range v {
		out[i] = math.Float64bits(x)
	}
	return out
}

// TestBlockViewsMatchSubCSR: the four block views of T that Blocks
// returns give, kernel by kernel, the bits of the blocks that SubCSR
// extracts as copies. T is a random substochastic matrix restricted to a
// random (A, B) partition, with A empty, B empty, and rows with no
// entries on one side of the split among the trials.
func TestBlockViewsMatchSubCSR(t *testing.T) {
	r := rand.New(rand.NewSource(32))
	for trial := 0; trial < 60; trial++ {
		n := 1 + r.Intn(30)
		nA := r.Intn(n + 1)
		switch trial % 10 {
		case 0:
			nA = 0
		case 1:
			nA = n
		}
		full, a, b := randomPartitioned(t, r, n, nA)
		tt, err := full.SubCSR(append(slices.Clone(a), b...), append(slices.Clone(a), b...))
		if err != nil {
			t.Fatal(err)
		}
		ma, mab, mba, mb, err := tt.Blocks(nA)
		if err != nil {
			t.Fatal(err)
		}
		blocks := []struct {
			name       string
			view       *CSR
			rows, cols []int
		}{{"A", ma, a, a}, {"AB", mab, a, b}, {"BA", mba, b, a}, {"B", mb, b, b}}
		for _, blk := range blocks {
			cp, err := full.SubCSR(blk.rows, blk.cols)
			if err != nil {
				t.Fatal(err)
			}
			compareBlock(t, trial, blk.name, blk.view, cp, r)
		}
	}
}

// compareBlock checks every kernel on view against the extracted copy.
func compareBlock(t *testing.T, trial int, name string, view, cp *CSR, r *rand.Rand) {
	t.Helper()
	fail := func(what string) { t.Errorf("trial %d block %s: %s differs between view and copy", trial, name, what) }
	if view.Rows() != cp.Rows() || view.Cols() != cp.Cols() || view.NNZ() != cp.NNZ() || !view.Equal(cp) || !cp.Equal(view) {
		fail("shape or entries")
		return
	}
	if !slices.Equal(entryBits(view), entryBits(cp)) {
		fail("RowNonZeros")
	}
	for i := 0; i < cp.Rows(); i++ {
		for j := 0; j < cp.Cols(); j++ {
			if math.Float64bits(view.At(i, j)) != math.Float64bits(cp.At(i, j)) {
				fail("At")
			}
		}
	}
	x, y := randomVec(r, cp.Cols()), randomVec(r, cp.Rows())
	gotR, wantR := make([]float64, cp.Rows()), make([]float64, cp.Rows())
	_ = view.MulVecInto(x, gotR)
	_ = cp.MulVecInto(x, wantR)
	if !slices.Equal(vecBits(gotR), vecBits(wantR)) {
		fail("MulVecInto")
	}
	gotL, wantL := make([]float64, cp.Cols()), make([]float64, cp.Cols())
	_ = view.VecMulInto(y, gotL)
	_ = cp.VecMulInto(y, wantL)
	if !slices.Equal(vecBits(gotL), vecBits(wantL)) {
		fail("VecMulInto")
	}
	if !slices.Equal(vecBits(view.Diagonal()), vecBits(cp.Diagonal())) {
		fail("Diagonal")
	}
	vt, err1 := view.Transpose()
	ct, err2 := cp.Transpose()
	if err1 != nil || err2 != nil || !slices.Equal(entryBits(vt), entryBits(ct)) {
		fail("Transpose")
	}
	if cp.Rows() != cp.Cols() || cp.Rows() == 0 {
		return
	}
	// Square blocks: the preconditioners and every solver backend.
	vlu, err1 := factorILU0(view)
	clu, err2 := factorILU0(cp)
	if err1 != nil || err2 != nil {
		t.Fatalf("trial %d block %s: ILU(0): %v, %v", trial, name, err1, err2)
	}
	if !slices.Equal(vlu.rowPtr, clu.rowPtr) || !slices.Equal(vlu.colIdx, clu.colIdx) ||
		!slices.Equal(vlu.diag, clu.diag) || !slices.Equal(vecBits(vlu.vals), vecBits(clu.vals)) {
		fail("ILU(0) factors")
	}
	zv, zc := make([]float64, cp.Rows()), make([]float64, cp.Rows())
	vlu.apply(y, zv)
	clu.apply(y, zc)
	if !slices.Equal(vecBits(zv), vecBits(zc)) {
		fail("ILU(0) apply")
	}
	vlu.applyTransposed(y, zv)
	clu.applyTransposed(y, zc)
	if !slices.Equal(vecBits(zv), vecBits(zc)) {
		fail("ILU(0) applyTransposed")
	}
	invDiag := cp.Diagonal()
	for i, d := range invDiag {
		invDiag[i] = 1 / (1 - d)
	}
	gsSweepsInto(view, invDiag, y, zv)
	gsSweepsInto(cp, invDiag, y, zc)
	if !slices.Equal(vecBits(zv), vecBits(zc)) {
		fail("gsSweepsInto")
	}
	for _, s := range solverBackends(t) {
		fv, err1 := s.Factor(view)
		fc, err2 := s.Factor(cp)
		if err1 != nil || err2 != nil {
			t.Fatalf("trial %d block %s: %s Factor: %v, %v", trial, name, s.Name(), err1, err2)
		}
		xv, err1 := fv.SolveVec(y)
		xc, err2 := fc.SolveVec(y)
		if err1 != nil || err2 != nil || !slices.Equal(vecBits(xv), vecBits(xc)) {
			fail(s.Name() + " SolveVec")
		}
		xv, err1 = fv.SolveVecLeft(y)
		xc, err2 = fc.SolveVecLeft(y)
		if err1 != nil || err2 != nil || !slices.Equal(vecBits(xv), vecBits(xc)) {
			fail(s.Name() + " SolveVecLeft")
		}
		if fv.Stats() != fc.Stats() {
			fail(s.Name() + " Stats")
		}
	}
}

// TestBlocksRejectsBadSplits: Blocks needs a square matrix and a split
// inside it.
func TestBlocksRejectsBadSplits(t *testing.T) {
	m := randomCSR(rand.New(rand.NewSource(1)), 4)
	for _, nA := range []int{-1, 5} {
		if _, _, _, _, err := m.Blocks(nA); err == nil {
			t.Errorf("Blocks(%d) of a 4x4 matrix: want error", nA)
		}
	}
	if _, _, _, _, err := NewSparseBuilder(2, 3).Build().Blocks(1); err == nil {
		t.Error("Blocks of a 2x3 matrix: want error")
	}
}

// TestSecondSolveAllocatesOnlyItsResult: the BiCGSTAB-based
// factorizations keep their work vectors, so once the first solves have
// built them (and bicgstab's transpose), every later solve in either
// orientation allocates one slice, the solution it returns.
func TestSecondSolveAllocatesOnlyItsResult(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	m := randomSubstochastic(t, r, 40, 0.05)
	b, x0 := randomVec(r, 40), randomVec(r, 40)
	for _, s := range []Solver{BiCGSTABSolver{}, ILUSolver{}, AutoSolver{}, AutoSolver{Sparse: ILUSolver{}}} {
		f, err := s.Factor(m)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.SolveVec(b); err != nil {
			t.Fatal(err)
		}
		if _, err := f.SolveVecLeft(b); err != nil {
			t.Fatal(err)
		}
		solves := map[string]func(){
			"SolveVecFrom":     func() { _, _ = f.SolveVecFrom(b, x0) },
			"SolveVecLeftFrom": func() { _, _ = f.SolveVecLeftFrom(b, x0) },
		}
		for name, solve := range solves {
			if allocs := testing.AllocsPerRun(10, solve); allocs != 1 {
				t.Errorf("%s %s: %v allocations per solve, want 1 (the result)", s.Name(), name, allocs)
			}
		}
	}
}
