package matrix

import (
	"fmt"
	"testing"
)

// Micro-benchmarks of the solve kernels that stream the CSR index arrays:
// the two SpMV orientations, the Gauss–Seidel preconditioner and both
// ILU(0) applications. They run on a deterministic banded substochastic
// matrix at the transient-block sizes of the C=∆=40 sweep cells (33,579)
// and of the C=∆=100 cell (509,949), so a change of index width or loop
// shape can be sized per kernel before it is sized end to end. The View
// variants run the product and sweep kernels on the same matrix read as
// a block view with a column offset (bandedView), the way a chain's
// solves read M_A, M_AB, M_BA and M_B out of T.

// kernelSizes names the benchmarked orders.
var kernelSizes = []struct {
	name string
	n    int
}{
	{"sweep40", 33_579},
	{"colossal", 509_949},
}

// bandedOffsets is the column pattern of every benchmark row relative to
// the row index: a tridiagonal core plus near and far bands, ≈6 entries
// per row like the chain blocks (2.86M entries on 520k states).
var bandedOffsets = []int{-611, -1, 0, 1, 37, 4099}

// bandedSubstochastic returns the n×n benchmark matrix. Entry weights come
// from a fixed integer hash, the diagonal carries the largest weight (the
// self-loops of a slow-mixing block) and every row sums to 0.98.
func bandedSubstochastic(tb testing.TB, n int) *CSR {
	tb.Helper()
	b := NewRowBuilder(n)
	w := make([]float64, len(bandedOffsets))
	for i := 0; i < n; i++ {
		var sum float64
		for p, off := range bandedOffsets {
			w[p] = 0
			if j := i + off; j >= 0 && j < n {
				h := uint32(i*len(bandedOffsets)+p) * 2654435761
				w[p] = 1 + float64(h>>24)/64
				if off == 0 {
					w[p] += 8
				}
				sum += w[p]
			}
		}
		for p, off := range bandedOffsets {
			if w[p] != 0 {
				if err := b.Add(i+off, 0.98*w[p]/sum); err != nil {
					tb.Fatal(err)
				}
			}
		}
		b.EndRow()
	}
	m, err := ConcatRows(n, b)
	if err != nil {
		tb.Fatal(err)
	}
	return m
}

// benchVec returns a deterministic length-n vector with entries in (0, 1].
func benchVec(n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = float64(uint32(i)*2246822519>>8+1) / (1 << 24)
	}
	return v
}

// viewLead is the order of the leading block that bandedView places
// before the benchmark matrix, and so the view's column offset.
const viewLead = 1024

// bandedView returns the benchmark matrix of order n as the trailing
// diagonal block view of a matrix of order viewLead+n, as M_B sits in T:
// each of its rows follows one entry left of the split, so its rows are
// not contiguous, and its columns carry the offset viewLead.
func bandedView(tb testing.TB, n int) *CSR {
	tb.Helper()
	m := bandedSubstochastic(tb, n)
	b := NewRowBuilder(viewLead + n)
	for i := 0; i < viewLead; i++ {
		_ = b.Add(i, 0.5)
		b.EndRow()
	}
	for i := 0; i < n; i++ {
		_ = b.Add(i%viewLead, 0.01)
		m.RowNonZeros(i, func(j int, v float64) { _ = b.Add(viewLead+j, v) })
		b.EndRow()
	}
	t, err := ConcatRows(viewLead+n, b)
	if err != nil {
		tb.Fatal(err)
	}
	_, _, _, view, err := t.Blocks(viewLead)
	if err != nil {
		tb.Fatal(err)
	}
	return view
}

// benchKernel runs kernel once per iteration on the owned benchmark
// matrix of every benchmarked size; setup, given the matrix, prepares
// the kernel outside the timer.
func benchKernel(b *testing.B, setup func(b *testing.B, m *CSR) func()) {
	benchKernelOn(b, bandedSubstochastic, setup)
}

// benchKernelOn is benchKernel on the matrices that build returns.
func benchKernelOn(b *testing.B, build func(testing.TB, int) *CSR, setup func(b *testing.B, m *CSR) func()) {
	for _, sz := range kernelSizes {
		b.Run(fmt.Sprintf("%s/n=%d", sz.name, sz.n), func(b *testing.B) {
			kernel := setup(b, build(b, sz.n))
			b.ReportAllocs()
			for b.Loop() {
				kernel()
			}
		})
	}
}

func mulVecKernel(b *testing.B, m *CSR) func() {
	v, dst := benchVec(m.Cols()), make([]float64, m.Rows())
	return func() { _ = m.MulVecInto(v, dst) }
}

func vecMulKernel(b *testing.B, m *CSR) func() {
	v, dst := benchVec(m.Rows()), make([]float64, m.Cols())
	return func() { _ = m.VecMulInto(v, dst) }
}

func gsSweepsKernel(b *testing.B, m *CSR) func() {
	invDiag := m.Diagonal()
	for i, d := range invDiag {
		invDiag[i] = 1 / (1 - d)
	}
	r, z := benchVec(m.Rows()), make([]float64, m.Rows())
	return func() { gsSweepsInto(m, invDiag, r, z) }
}

func BenchmarkMulVecInto(b *testing.B)     { benchKernel(b, mulVecKernel) }
func BenchmarkMulVecIntoView(b *testing.B) { benchKernelOn(b, bandedView, mulVecKernel) }
func BenchmarkVecMulInto(b *testing.B)     { benchKernel(b, vecMulKernel) }
func BenchmarkVecMulIntoView(b *testing.B) { benchKernelOn(b, bandedView, vecMulKernel) }
func BenchmarkGSSweeps(b *testing.B)       { benchKernel(b, gsSweepsKernel) }
func BenchmarkGSSweepsView(b *testing.B)   { benchKernelOn(b, bandedView, gsSweepsKernel) }

func benchILU(b *testing.B, m *CSR) *iluFactors {
	lu, err := factorILU0(m)
	if err != nil {
		b.Fatal(err)
	}
	return lu
}

func BenchmarkILUApply(b *testing.B) {
	benchKernel(b, func(b *testing.B, m *CSR) func() {
		lu := benchILU(b, m)
		r, z := benchVec(m.Rows()), make([]float64, m.Rows())
		return func() { lu.apply(r, z) }
	})
}

func BenchmarkILUApplyTransposed(b *testing.B) {
	benchKernel(b, func(b *testing.B, m *CSR) func() {
		lu := benchILU(b, m)
		r, z := benchVec(m.Rows()), make([]float64, m.Rows())
		return func() { lu.applyTransposed(r, z) }
	})
}
