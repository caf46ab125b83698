package markov

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"targetedattacks/internal/matrix"
)

// oldExtraction is the extraction NewChain made before the blocks became
// views of T: one SubCSR copy per block, and per absorbing class the
// block of transitions from the transient states into that class.
func oldExtraction(t *testing.T, spec Spec) (blocks [4]*matrix.CSR, abs map[string]*matrix.CSR) {
	t.Helper()
	sets := [][2][]int{
		{spec.SubsetA, spec.SubsetA}, {spec.SubsetA, spec.SubsetB},
		{spec.SubsetB, spec.SubsetA}, {spec.SubsetB, spec.SubsetB},
	}
	for k, s := range sets {
		blk, err := spec.Full.SubCSR(s[0], s[1])
		if err != nil {
			t.Fatal(err)
		}
		blocks[k] = blk
	}
	transient := append(slices.Clone(spec.SubsetA), spec.SubsetB...)
	abs = make(map[string]*matrix.CSR)
	for name, idx := range spec.AbsorbingClasses {
		blk, err := spec.Full.SubCSR(transient, idx)
		if err != nil {
			t.Fatal(err)
		}
		abs[name] = blk
	}
	return blocks, abs
}

// interleavedChainSpec draws a chain of n states whose subsets A, B and
// absorbing classes "u", "v", "w" interleave in index order, with a
// random number of states in A and in B (either may be empty). Each
// transient row leaks at least 0.05 out of the transient states.
func interleavedChainSpec(r *rand.Rand, n int) Spec {
	spec := Spec{AbsorbingClasses: map[string][]int{"u": nil, "v": nil, "w": nil}, ClassOrder: []string{"u", "v", "w"}}
	b := newSparseBuilder(n, n)
	transient := make([]bool, n)
	for i := 0; i < n; i++ {
		switch c := r.Intn(5); c {
		case 0:
			spec.SubsetA = append(spec.SubsetA, i)
			transient[i] = true
		case 1:
			spec.SubsetB = append(spec.SubsetB, i)
			transient[i] = true
		default:
			name := spec.ClassOrder[c-2]
			spec.AbsorbingClasses[name] = append(spec.AbsorbingClasses[name], i)
			_ = b.Add(i, i, 1)
		}
	}
	for i := 0; i < n; i++ {
		if transient[i] {
			for j := 0; j < n; j++ {
				if r.Intn(2) == 0 {
					_ = b.Add(i, j, 0.95*r.Float64()/float64(n))
				}
			}
		}
	}
	spec.Full = b.Build()
	spec.Alpha = make([]float64, n)
	for _, i := range append(slices.Clone(spec.SubsetA), spec.SubsetB...) {
		spec.Alpha[i] = r.Float64()
	}
	return spec
}

// TestChainBlocksMatchOldExtraction: the Chain's block views hold the
// entries of the old SubCSR copies, its sparse exit masses carry the
// bits of RowSums on the old absorbing blocks, and the two relations
// that read the exit masses return the bits of the old RowSums path.
func TestChainBlocksMatchOldExtraction(t *testing.T) {
	r := rand.New(rand.NewSource(32))
	for trial := 0; trial < 200; trial++ {
		spec := interleavedChainSpec(r, 1+r.Intn(25))
		c, err := NewChain(spec)
		if err != nil {
			t.Fatal(err)
		}
		old, abs := oldExtraction(t, spec)
		for k, view := range []*matrix.CSR{c.ma, c.mab, c.mba, c.mb} {
			if !view.Equal(old[k]) {
				t.Errorf("trial %d: block %d differs from its SubCSR copy", trial, k)
			}
		}
		nT := c.nA + c.nB
		for k, name := range c.classes {
			got := make([]float64, nT)
			for q, row := range c.exits[k].rows {
				got[row] = c.exits[k].mass[q]
			}
			for i, want := range abs[name].RowSums() {
				if math.Float64bits(got[i]) != math.Float64bits(want) {
					t.Errorf("trial %d class %s row %d: exit mass %v, RowSums %v", trial, name, i, got[i], want)
				}
			}
		}
		if nT == 0 {
			continue
		}
		probs, err := c.AbsorptionProbabilities()
		if err != nil {
			t.Fatal(err)
		}
		y, _ := c.visits()
		for _, name := range c.classes {
			want, _ := matrix.Dot(y, abs[name].RowSums())
			if math.Float64bits(probs[name]) != math.Float64bits(want) {
				t.Errorf("trial %d: p(%s) = %v, old path %v", trial, name, probs[name], want)
			}
		}
		if c.nA == 0 {
			continue
		}
		got, err := c.AbsorbedWithinA("u", "w")
		if err != nil {
			t.Fatal(err)
		}
		rhs := make([]float64, c.nA)
		for _, name := range []string{"u", "w"} {
			for i, s := range abs[name].RowSums()[:c.nA] {
				rhs[i] += s
			}
		}
		fa, _ := c.factA()
		z, _ := fa.SolveVec(rhs)
		if want, _ := matrix.Dot(c.alphaA, z); math.Float64bits(got) != math.Float64bits(want) {
			t.Errorf("trial %d: AbsorbedWithinA = %v, old path %v", trial, got, want)
		}
	}
}
