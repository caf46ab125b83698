package markov

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"targetedattacks/internal/matrix"
)

// sparseBuilder collects (i, j, v) entries in any order and assembles
// them row by row through matrix.RowBuilder, each row's entries in the
// order they were added.
type sparseBuilder struct {
	rows [][]rowEntry
	cols int
}

type rowEntry struct {
	j int
	v float64
}

func newSparseBuilder(rows, cols int) *sparseBuilder {
	return &sparseBuilder{rows: make([][]rowEntry, rows), cols: cols}
}

func (b *sparseBuilder) Add(i, j int, v float64) error {
	if i < 0 || i >= len(b.rows) || j < 0 || j >= b.cols {
		return fmt.Errorf("entry (%d,%d) out of bounds for %dx%d", i, j, len(b.rows), b.cols)
	}
	b.rows[i] = append(b.rows[i], rowEntry{j, v})
	return nil
}

func (b *sparseBuilder) Build() *matrix.CSR {
	rb := matrix.NewRowBuilder(b.cols)
	for _, row := range b.rows {
		for _, e := range row {
			_ = rb.Add(e.j, e.v)
		}
		rb.EndRow()
	}
	m, err := matrix.ConcatRows(b.cols, rb)
	if err != nil {
		panic(err)
	}
	return m
}

// twoStateChain is a hand-solvable chain: transient a (subset A) and b
// (subset B), absorbing classes one = {2}, two = {3}.
//
//	a → a 0.2, b 0.3, one 0.5
//	b → a 0.4, b 0.1, two 0.5
//
// With the fundamental matrix N = (I−T)⁻¹ = [[1.5, 0.5], [2/3, 4/3]]:
// starting at a, E(T_A) = 1.5, E(T_B) = 0.5, p(one) = 0.75, p(two) = 0.25,
// E(T_{A,1}) = 1.25, E(T_{A,n+1}) = E(T_{A,n})/6,
// E(T_{B,1}) = 0.375/0.9, same ratio 1/6.
func twoStateChain(t *testing.T) *Chain {
	t.Helper()
	b := newSparseBuilder(4, 4)
	add := func(i, j int, v float64) {
		t.Helper()
		if err := b.Add(i, j, v); err != nil {
			t.Fatal(err)
		}
	}
	add(0, 0, 0.2)
	add(0, 1, 0.3)
	add(0, 2, 0.5)
	add(1, 0, 0.4)
	add(1, 1, 0.1)
	add(1, 3, 0.5)
	add(2, 2, 1)
	add(3, 3, 1)
	c, err := NewChain(Spec{
		Full:             b.Build(),
		Alpha:            []float64{1, 0, 0, 0},
		SubsetA:          []int{0},
		SubsetB:          []int{1},
		AbsorbingClasses: map[string][]int{"one": {2}, "two": {3}},
		ClassOrder:       []string{"one", "two"},
	})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// SuccessiveSojournsInA is the single-subset form of relation (7): the
// A recursion on its own, one vector solve at a time. It is the oracle
// SuccessiveSojournsBoth's lockstep recursion must match bit for bit.
func (c *Chain) SuccessiveSojournsInA(n int) ([]float64, error) {
	return c.successiveSojourns(n, false)
}

// SuccessiveSojournsInB is the subset-B oracle (relation (8)).
func (c *Chain) SuccessiveSojournsInB(n int) ([]float64, error) {
	return c.successiveSojourns(n, true)
}

// successiveSojourns evaluates relation (7) with every matrix power
// applied as sparse solves and products: out[i] = v Gⁱ u with
// G = (I−M_A)⁻¹ M_AB (I−M_B)⁻¹ M_BA and u = (I−M_A)⁻¹ 1. swapped selects
// the subset-B orientation (A and B exchange roles).
func (c *Chain) successiveSojourns(n int, swapped bool) ([]float64, error) {
	if n < 0 {
		return nil, fmt.Errorf("markov: negative sojourn count %d", n)
	}
	alphaA, alphaB := c.alphaA, c.alphaB
	mab, mba := c.mab, c.mba
	factA, factB := c.factA, c.factB
	if swapped {
		alphaA, alphaB = alphaB, alphaA
		mab, mba = mba, mab
		factA, factB = factB, factA
	}
	out := make([]float64, n)
	if n == 0 || len(alphaA) == 0 {
		return out, nil
	}
	fa, err := factA()
	if err != nil {
		return nil, err
	}
	v := append([]float64(nil), alphaA...)
	var fb matrix.Factorization
	if len(alphaB) > 0 {
		if fb, err = factB(); err != nil {
			return nil, err
		}
		if v, _, err = entryVector(alphaA, alphaB, fb, mba, nil); err != nil {
			return nil, err
		}
	}
	u, err := fa.SolveVec(matrix.Ones(len(alphaA)))
	if err != nil {
		return nil, err
	}
	r := v
	for i := 0; i < n; i++ {
		e, err := matrix.Dot(r, u)
		if err != nil {
			return nil, err
		}
		out[i] = e
		if i+1 == n {
			break
		}
		// Empty B makes G = 0: only the first sojourn exists.
		if len(alphaB) == 0 {
			break
		}
		// r ← r G, one factor at a time: two sparse left-solves and two
		// CSR row-vector products instead of a dense G.
		t1, err := fa.SolveVecLeft(r)
		if err != nil {
			return nil, err
		}
		t2, err := mab.VecMul(t1)
		if err != nil {
			return nil, err
		}
		t3, err := fb.SolveVecLeft(t2)
		if err != nil {
			return nil, err
		}
		if r, err = mba.VecMul(t3); err != nil {
			return nil, err
		}
	}
	return out, nil
}

func TestTwoStateExpectedTimes(t *testing.T) {
	c := twoStateChain(t)
	ea, err := c.ExpectedTotalTimeInA()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(ea-1.5) > 1e-12 {
		t.Errorf("E(T_A) = %v, want 1.5", ea)
	}
	eb, err := c.ExpectedTotalTimeInB()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(eb-0.5) > 1e-12 {
		t.Errorf("E(T_B) = %v, want 0.5", eb)
	}
	if math.Abs(ea+eb-2.0) > 1e-12 {
		t.Errorf("E(T) = %v, want 2", ea+eb)
	}
}

func TestTwoStateAbsorption(t *testing.T) {
	c := twoStateChain(t)
	p, err := c.AbsorptionProbabilities()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(p["one"]-0.75) > 1e-12 {
		t.Errorf("p(one) = %v, want 0.75", p["one"])
	}
	if math.Abs(p["two"]-0.25) > 1e-12 {
		t.Errorf("p(two) = %v, want 0.25", p["two"])
	}
}

func TestTwoStateSuccessiveSojourns(t *testing.T) {
	c := twoStateChain(t)
	sa, sb, err := c.SuccessiveSojournsBoth(4)
	if err != nil {
		t.Fatal(err)
	}
	wantA := []float64{1.25, 1.25 / 6, 1.25 / 36, 1.25 / 216}
	for i := range wantA {
		if math.Abs(sa[i]-wantA[i]) > 1e-12 {
			t.Errorf("E(T_A,%d) = %v, want %v", i+1, sa[i], wantA[i])
		}
	}
	if math.Abs(sb[0]-0.375/0.9) > 1e-12 {
		t.Errorf("E(T_B,1) = %v, want %v", sb[0], 0.375/0.9)
	}
	if math.Abs(sb[1]-sb[0]/6) > 1e-12 {
		t.Errorf("E(T_B,2) = %v, want %v", sb[1], sb[0]/6)
	}
	// Geometric sum of the sojourn series must recover the total time.
	sumA := sa[0] / (1 - 1.0/6)
	ea, err := c.ExpectedTotalTimeInA()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(sumA-ea) > 1e-10 {
		t.Errorf("Σ E(T_A,n) = %v, want E(T_A) = %v", sumA, ea)
	}
}

func TestSojournEdgeCases(t *testing.T) {
	c := twoStateChain(t)
	if _, _, err := c.SuccessiveSojournsBoth(-1); err == nil {
		t.Error("negative n: want error")
	}
	za, zb, err := c.SuccessiveSojournsBoth(0)
	if err != nil || len(za) != 0 || len(zb) != 0 {
		t.Errorf("n=0: got %v, %v, %v", za, zb, err)
	}
	// n = 0 needs no solve: nothing is factored.
	if st := c.SolveStats(); c.fa != nil || c.fb != nil || st.Backend != "dense" {
		t.Errorf("n=0 factored a block: %+v", st)
	}
}

// gamblersRuin builds the symmetric random walk on {0..n} with absorbing
// barriers; all interior states are subset A, subset B is empty.
func gamblersRuin(t *testing.T, n, start int) *Chain {
	t.Helper()
	b := newSparseBuilder(n+1, n+1)
	for i := 1; i < n; i++ {
		if err := b.Add(i, i-1, 0.5); err != nil {
			t.Fatal(err)
		}
		if err := b.Add(i, i+1, 0.5); err != nil {
			t.Fatal(err)
		}
	}
	_ = b.Add(0, 0, 1)
	_ = b.Add(n, n, 1)
	alpha := make([]float64, n+1)
	alpha[start] = 1
	interior := make([]int, 0, n-1)
	for i := 1; i < n; i++ {
		interior = append(interior, i)
	}
	c, err := NewChain(Spec{
		Full:             b.Build(),
		Alpha:            alpha,
		SubsetA:          interior,
		SubsetB:          nil,
		AbsorbingClasses: map[string][]int{"ruin": {0}, "win": {n}},
		ClassOrder:       []string{"ruin", "win"},
	})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestGamblersRuinKnownResults(t *testing.T) {
	// From start i on {0..n}: E(steps) = i(n−i), p(ruin) = 1 − i/n.
	for _, tt := range []struct{ n, start int }{{7, 3}, {7, 1}, {10, 5}, {4, 2}} {
		c := gamblersRuin(t, tt.n, tt.start)
		ea, err := c.ExpectedTotalTimeInA()
		if err != nil {
			t.Fatal(err)
		}
		want := float64(tt.start * (tt.n - tt.start))
		if math.Abs(ea-want) > 1e-9 {
			t.Errorf("n=%d start=%d: E(T) = %v, want %v", tt.n, tt.start, ea, want)
		}
		eb, err := c.ExpectedTotalTimeInB()
		if err != nil {
			t.Fatal(err)
		}
		if eb != 0 {
			t.Errorf("empty subset B: E(T_B) = %v, want 0", eb)
		}
		p, err := c.AbsorptionProbabilities()
		if err != nil {
			t.Fatal(err)
		}
		wantRuin := 1 - float64(tt.start)/float64(tt.n)
		if math.Abs(p["ruin"]-wantRuin) > 1e-9 {
			t.Errorf("n=%d start=%d: p(ruin) = %v, want %v", tt.n, tt.start, p["ruin"], wantRuin)
		}
		if math.Abs(p["ruin"]+p["win"]-1) > 1e-9 {
			t.Errorf("absorption probabilities sum to %v", p["ruin"]+p["win"])
		}
	}
}

func TestGamblersRuinSojournIsTotal(t *testing.T) {
	// With empty B there is a single sojourn in A: E(T_{A,1}) = E(T_A) and
	// all later sojourns are zero.
	c := gamblersRuin(t, 7, 3)
	s, sb, err := c.SuccessiveSojournsBoth(3)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(s[0]-12) > 1e-9 {
		t.Errorf("E(T_A,1) = %v, want 12", s[0])
	}
	if s[1] != 0 || s[2] != 0 {
		t.Errorf("later sojourns = %v, want zeros", s[1:])
	}
	if len(sb) != 3 || sb[0] != 0 || sb[1] != 0 || sb[2] != 0 {
		t.Errorf("sojourns in the empty subset = %v, want zeros", sb)
	}
}

func TestSpecValidation(t *testing.T) {
	b := newSparseBuilder(2, 2)
	_ = b.Add(0, 1, 1)
	_ = b.Add(1, 1, 1)
	full := b.Build()
	base := Spec{
		Full:             full,
		Alpha:            []float64{1, 0},
		SubsetA:          []int{0},
		AbsorbingClasses: map[string][]int{"end": {1}},
		ClassOrder:       []string{"end"},
	}

	// want, when set, is the exact error message: the partition check's
	// messages are part of the package's contract.
	tests := []struct {
		name   string
		mutate func(*Spec)
		want   string
	}{
		{"nil full", func(s *Spec) { s.Full = nil }, ""},
		{"alpha length", func(s *Spec) { s.Alpha = []float64{1} }, ""},
		{"bad index", func(s *Spec) { s.SubsetA = []int{5} }, "markov: state index 5 out of range [0,2)"},
		{"negative index", func(s *Spec) { s.SubsetA = []int{-1} }, "markov: state index -1 out of range [0,2)"},
		{"class index", func(s *Spec) { s.AbsorbingClasses = map[string][]int{"end": {2}} }, "markov: state index 2 out of range [0,2)"},
		{"overlap", func(s *Spec) { s.SubsetB = []int{0} }, "markov: state 0 assigned to both A and B"},
		{"repeat in A", func(s *Spec) { s.SubsetA = []int{0, 0} }, "markov: state 0 assigned to both A and A"},
		{"B and class", func(s *Spec) { s.SubsetB = []int{1} }, "markov: state 1 assigned to both B and end"},
		{"unknown class", func(s *Spec) { s.ClassOrder = []string{"nope"} }, ""},
		{"class count", func(s *Spec) { s.ClassOrder = nil }, ""},
		{
			"state in two classes",
			func(s *Spec) {
				s.AbsorbingClasses = map[string][]int{"end": {1}, "dup": {1}}
				s.ClassOrder = []string{"end", "dup"}
			},
			"markov: state 1 assigned to both end and dup",
		},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			spec := base
			tt.mutate(&spec)
			_, err := NewChain(spec)
			switch {
			case err == nil:
				t.Error("want error, got nil")
			case tt.want != "" && err.Error() != tt.want:
				t.Errorf("error %q, want %q", err, tt.want)
			}
		})
	}

	if _, err := NewChain(base); err != nil {
		t.Errorf("valid spec rejected: %v", err)
	}
}

func TestNonSquareRejected(t *testing.T) {
	b := newSparseBuilder(2, 3)
	if _, err := NewChain(Spec{Full: b.Build(), Alpha: []float64{1, 0}}); err == nil {
		t.Error("non-square matrix: want error")
	}
}

// randomChainSpec draws a random absorbing chain: nA + nB transient
// states, every row leaking at least 0.05 to two absorbing states "u"
// and "v", and all initial mass on one random transient state.
func randomChainSpec(r *rand.Rand, nA, nB int) Spec {
	nT := nA + nB
	n := nT + 2 // two absorbing states
	b := newSparseBuilder(n, n)
	for i := 0; i < nT; i++ {
		// Random transition row with at least 0.05 leak to absorbing.
		weights := make([]float64, n)
		var sum float64
		for j := 0; j < n; j++ {
			weights[j] = r.Float64()
			sum += weights[j]
		}
		leak := 0.05 + 0.2*r.Float64()
		for j := 0; j < nT; j++ {
			_ = b.Add(i, j, (1-leak)*weights[j]/sum)
		}
		// Remaining mass (leak plus unassigned weight share) to absorbing.
		var assigned float64
		for j := 0; j < nT; j++ {
			assigned += (1 - leak) * weights[j] / sum
		}
		rest := 1 - assigned
		_ = b.Add(i, nT, rest/2)
		_ = b.Add(i, nT+1, rest/2)
	}
	_ = b.Add(nT, nT, 1)
	_ = b.Add(nT+1, nT+1, 1)
	alpha := make([]float64, n)
	alpha[r.Intn(nT)] = 1
	subsetA := make([]int, nA)
	for i := range subsetA {
		subsetA[i] = i
	}
	subsetB := make([]int, nB)
	for i := range subsetB {
		subsetB[i] = nA + i
	}
	return Spec{
		Full:             b.Build(),
		Alpha:            alpha,
		SubsetA:          subsetA,
		SubsetB:          subsetB,
		AbsorbingClasses: map[string][]int{"u": {nT}, "v": {nT + 1}},
		ClassOrder:       []string{"u", "v"},
	}
}

// TestRandomChainInvariants builds random absorbing chains and checks the
// structural invariants: absorption probabilities form a distribution, all
// expected times are non-negative, and the sojourn series sums toward the
// total time.
func TestRandomChainInvariants(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		nA := 1 + r.Intn(4)
		nB := r.Intn(4)
		c, err := NewChain(randomChainSpec(r, nA, nB))
		if err != nil {
			return false
		}
		p, err := c.AbsorptionProbabilities()
		if err != nil {
			return false
		}
		if math.Abs(p["u"]+p["v"]-1) > 1e-8 {
			return false
		}
		ea, err := c.ExpectedTotalTimeInA()
		if err != nil || ea < -1e-12 {
			return false
		}
		eb, err := c.ExpectedTotalTimeInB()
		if err != nil || eb < -1e-12 {
			return false
		}
		// Sojourn series partial sums stay below the totals.
		sa, _, err := c.SuccessiveSojournsBoth(64)
		if err != nil {
			return false
		}
		var sum float64
		for _, s := range sa {
			if s < -1e-12 {
				return false
			}
			sum += s
		}
		return sum <= ea+1e-6 && ea-sum < 1e-3*(1+ea)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestHitProbabilities: the probability of ever entering B is the
// complement of dying in a clean class along an all-A path.
func TestHitProbabilities(t *testing.T) {
	c := twoStateChain(t)
	// From a, the chain dies in "one" before moving to b with probability
	// 0.5/(1−0.2) = 0.625, so B is hit with probability 0.375.
	clean, err := c.AbsorbedWithinA("one")
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(1-clean-0.375) > 1e-12 {
		t.Errorf("P(hit B) = %v, want 0.375", 1-clean)
	}
	if _, err := c.AbsorbedWithinA("nope"); err == nil {
		t.Error("unknown class: want error")
	}
}

func TestHitProbabilityEmptySubset(t *testing.T) {
	c := gamblersRuin(t, 5, 2)
	// B is empty: every path to absorption stays in A.
	clean, err := c.AbsorbedWithinA("ruin", "win")
	if err != nil || math.Abs(clean-1) > 1e-12 {
		t.Errorf("P(absorbed within A) = %v err %v, want 1", clean, err)
	}
}

// TestClassesAndSizes: the absorption map covers exactly the declared
// classes, and the recorded warm-start vectors have the subset sizes.
func TestClassesAndSizes(t *testing.T) {
	c := gamblersRuin(t, 6, 2)
	p, err := c.AbsorptionProbabilities()
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := p["ruin"]; !ok || len(p) != 2 {
		t.Errorf("absorption classes = %v, want ruin and win", p)
	}
	c = twoStateChain(t)
	if _, _, err := c.SuccessiveSojournsBoth(2); err != nil {
		t.Fatal(err)
	}
	if _, err := c.AbsorptionProbabilities(); err != nil {
		t.Fatal(err)
	}
	ws := c.RecordedWarmStart()
	if len(ws.Visits) != 2 || len(ws.UA) != 1 || len(ws.UB) != 1 || len(ws.EntryA) != 1 || len(ws.EntryB) != 1 {
		t.Errorf("recorded sizes: visits %d, u (%d, %d), entry (%d, %d); want 2, (1, 1), (1, 1)",
			len(ws.Visits), len(ws.UA), len(ws.UB), len(ws.EntryA), len(ws.EntryB))
	}
}

// TestChainAcrossSolverBackends re-runs the hand-solvable chains through
// every solver backend: the sparse iterative paths must reproduce the
// dense LU results on all relations.
func TestChainAcrossSolverBackends(t *testing.T) {
	solvers := []matrix.Solver{
		matrix.DenseSolver{},
		matrix.GaussSeidelSolver{},
		matrix.BiCGSTABSolver{},
		matrix.ILUSolver{},
		matrix.AutoSolver{},
	}
	for _, s := range solvers {
		t.Run(s.Name(), func(t *testing.T) {
			b := newSparseBuilder(4, 4)
			for _, e := range []struct {
				i, j int
				v    float64
			}{
				{0, 0, 0.2}, {0, 1, 0.3}, {0, 2, 0.5},
				{1, 0, 0.4}, {1, 1, 0.1}, {1, 3, 0.5},
				{2, 2, 1}, {3, 3, 1},
			} {
				if err := b.Add(e.i, e.j, e.v); err != nil {
					t.Fatal(err)
				}
			}
			c, err := NewChain(Spec{
				Full:             b.Build(),
				Alpha:            []float64{1, 0, 0, 0},
				SubsetA:          []int{0},
				SubsetB:          []int{1},
				AbsorbingClasses: map[string][]int{"one": {2}, "two": {3}},
				ClassOrder:       []string{"one", "two"},
				Solver:           s,
			})
			if err != nil {
				t.Fatal(err)
			}
			if c.SolverName() != s.Name() {
				t.Errorf("SolverName = %q, want %q", c.SolverName(), s.Name())
			}
			checks := []struct {
				name string
				got  func() (float64, error)
				want float64
			}{
				{"E(T_A)", c.ExpectedTotalTimeInA, 1.5},
				{"E(T_B)", c.ExpectedTotalTimeInB, 0.5},
				{"P(clean in A)", func() (float64, error) { return c.AbsorbedWithinA("one") }, 0.625},
			}
			for _, chk := range checks {
				v, err := chk.got()
				if err != nil {
					t.Fatalf("%s: %v", chk.name, err)
				}
				if math.Abs(v-chk.want) > 1e-9 {
					t.Errorf("%s = %v, want %v", chk.name, v, chk.want)
				}
			}
			p, err := c.AbsorptionProbabilities()
			if err != nil {
				t.Fatal(err)
			}
			if math.Abs(p["one"]-0.75) > 1e-9 || math.Abs(p["two"]-0.25) > 1e-9 {
				t.Errorf("absorption = %v, want one=0.75 two=0.25", p)
			}
			sa, sb, err := c.SuccessiveSojournsBoth(3)
			if err != nil {
				t.Fatal(err)
			}
			wantA := []float64{1.25, 1.25 / 6, 1.25 / 36}
			for i := range wantA {
				if math.Abs(sa[i]-wantA[i]) > 1e-9 {
					t.Errorf("E(T_A,%d) = %v, want %v", i+1, sa[i], wantA[i])
				}
				if wantB := 0.375 / 0.9 / math.Pow(6, float64(i)); math.Abs(sb[i]-wantB) > 1e-9 {
					t.Errorf("E(T_B,%d) = %v, want %v", i+1, sb[i], wantB)
				}
			}
		})
	}
}

// TestDefaultSolverIsDense pins the compatibility contract: a Spec without
// a Solver uses the exact dense LU backend.
func TestDefaultSolverIsDense(t *testing.T) {
	c := twoStateChain(t)
	if c.SolverName() != "dense" {
		t.Errorf("default solver = %q, want dense", c.SolverName())
	}
}

// TestSuccessiveSojournsBothMatchesSingle pins the lockstep A and B
// sojourn recursions: SuccessiveSojournsBoth runs the exact per-vector
// arithmetic of the two single-subset recursions, interleaved, so its
// outputs must be bit-identical to the SuccessiveSojournsInA /
// SuccessiveSojournsInB oracles — on random chains, with an empty
// subset, and across solver backends.
func TestSuccessiveSojournsBothMatchesSingle(t *testing.T) {
	solvers := []matrix.Solver{nil, matrix.GaussSeidelSolver{}, matrix.BiCGSTABSolver{}}
	r := rand.New(rand.NewSource(77))
	for trial := 0; trial < 6; trial++ {
		nA := 1 + r.Intn(4)
		nB := 1 + r.Intn(4)
		nT := nA + nB
		n := nT + 1
		b := newSparseBuilder(n, n)
		for i := 0; i < nT; i++ {
			weights := make([]float64, nT)
			var sum float64
			for j := range weights {
				weights[j] = r.Float64()
				sum += weights[j]
			}
			leak := 0.05 + 0.2*r.Float64()
			for j := 0; j < nT; j++ {
				if err := b.Add(i, j, (1-leak)*weights[j]/sum); err != nil {
					t.Fatal(err)
				}
			}
			if err := b.Add(i, nT, leak); err != nil {
				t.Fatal(err)
			}
		}
		if err := b.Add(nT, nT, 1); err != nil {
			t.Fatal(err)
		}
		alpha := make([]float64, n)
		alpha[r.Intn(nT)] = 1
		subsetA := make([]int, nA)
		for i := range subsetA {
			subsetA[i] = i
		}
		subsetB := make([]int, nB)
		for i := range subsetB {
			subsetB[i] = nA + i
		}
		full := b.Build()
		for _, solver := range solvers {
			spec := Spec{
				Full:             full,
				Alpha:            alpha,
				SubsetA:          subsetA,
				SubsetB:          subsetB,
				AbsorbingClasses: map[string][]int{"end": {nT}},
				ClassOrder:       []string{"end"},
				Solver:           solver,
			}
			c, err := NewChain(spec)
			if err != nil {
				t.Fatal(err)
			}
			const terms = 7
			bothA, bothB, err := c.SuccessiveSojournsBoth(terms)
			if err != nil {
				t.Fatal(err)
			}
			sa, err := c.SuccessiveSojournsInA(terms)
			if err != nil {
				t.Fatal(err)
			}
			sb, err := c.SuccessiveSojournsInB(terms)
			if err != nil {
				t.Fatal(err)
			}
			name := "dense"
			if solver != nil {
				name = solver.Name()
			}
			for i := 0; i < terms; i++ {
				if bothA[i] != sa[i] || bothB[i] != sb[i] {
					t.Errorf("trial %d %s term %d: Both = (%v, %v), single = (%v, %v)",
						trial, name, i, bothA[i], bothB[i], sa[i], sb[i])
				}
			}
		}
	}
	// An empty subset takes the short path; it must agree too.
	for _, solver := range solvers {
		c := gamblersRuin(t, 7, 3)
		c.solver = solver
		if solver == nil {
			c.solver = matrix.DenseSolver{}
		}
		bothA, bothB, err := c.SuccessiveSojournsBoth(4)
		if err != nil {
			t.Fatal(err)
		}
		sa, _ := c.SuccessiveSojournsInA(4)
		sb, _ := c.SuccessiveSojournsInB(4)
		for i := range sa {
			if bothA[i] != sa[i] || bothB[i] != sb[i] {
				t.Errorf("empty B, %s, term %d: Both = (%v, %v), single = (%v, %v)",
					c.SolverName(), i, bothA[i], bothB[i], sa[i], sb[i])
			}
		}
	}
	// Degenerate inputs mirror the single-subset semantics.
	c := twoStateChain(t)
	if _, _, err := c.SuccessiveSojournsBoth(-1); err == nil {
		t.Error("negative count: want error")
	}
	za, zb, err := c.SuccessiveSojournsBoth(0)
	if err != nil || len(za) != 0 || len(zb) != 0 {
		t.Errorf("zero count: got (%v, %v, %v)", za, zb, err)
	}
}

// failingSolver factors with the dense backend but fails every left
// solve after the first okLeft on each factorization, as an exhausted
// iterative budget would.
type failingSolver struct{ okLeft int }

func (failingSolver) Name() string { return "failing" }

func (s failingSolver) Factor(m *matrix.CSR) (matrix.Factorization, error) {
	f, err := matrix.DenseSolver{}.Factor(m)
	return &failingFactorization{Factorization: f, okLeft: s.okLeft}, err
}

type failingFactorization struct {
	matrix.Factorization
	okLeft int
}

func (f *failingFactorization) SolveVecLeftFrom(b, x0 []float64) ([]float64, error) {
	if f.okLeft == 0 {
		return nil, &matrix.ConvergenceError{Method: "test", N: len(b)}
	}
	f.okLeft--
	return f.Factorization.SolveVecLeftFrom(b, x0)
}

// TestSojournStepFailureIsNoConvergence: a solve that fails inside the
// lockstep recursion surfaces as matrix.ErrNoConvergence, which the
// serving layer maps to its HTTP status.
func TestSojournStepFailureIsNoConvergence(t *testing.T) {
	c := twoStateChain(t)
	// Two left solves per block succeed (the entry vector and the
	// prologue on I−M_B, the entry vector and rA's first step on I−M_A),
	// so the first failure is the B recursion's half-step on I−M_A.
	c.solver = failingSolver{okLeft: 2}
	_, _, err := c.SuccessiveSojournsBoth(3)
	if !errors.Is(err, matrix.ErrNoConvergence) {
		t.Fatalf("err = %v, want matrix.ErrNoConvergence", err)
	}
}

// relationResults holds every relation's output on one chain, plus what
// the chain recorded, for bit-for-bit comparison.
type relationResults struct {
	timeA, timeB, clean  float64
	sojournsA, sojournsB []float64
	absorption           map[string]float64
	stats                matrix.SolveStats
	rec                  *WarmStart
	errT, errAB          error
}

// runGroupT runs the relations that use only I−T and the visits vector.
func runGroupT(c *Chain, r *relationResults) {
	if r.timeA, r.errT = c.ExpectedTotalTimeInA(); r.errT != nil {
		return
	}
	if r.timeB, r.errT = c.ExpectedTotalTimeInB(); r.errT != nil {
		return
	}
	r.absorption, r.errT = c.AbsorptionProbabilities()
}

// runGroupAB runs the relations that use only I−M_A and I−M_B.
func runGroupAB(c *Chain, r *relationResults) {
	if r.sojournsA, r.sojournsB, r.errAB = c.SuccessiveSojournsBoth(4); r.errAB != nil {
		return
	}
	r.clean, r.errAB = c.AbsorbedWithinA("u")
}

// warmVectors lists every vector a WarmStart holds, in a fixed order.
func warmVectors(ws *WarmStart) [][]float64 {
	v := [][]float64{ws.Visits, ws.EntryA, ws.EntryB, ws.UA, ws.UB, ws.SojournPrologue, ws.Clean}
	for _, steps := range [][][][]float64{ws.StepsA, ws.StepsB} {
		for _, step := range steps {
			v = append(v, step...)
		}
	}
	return v
}

// TestRelationGroupsRunConcurrently pins the Chain's concurrency
// contract: the I−T group and the I−M_A/I−M_B group may run on two
// goroutines against one chain, and every output, solver counter and
// recorded warm-start vector is bit-identical to a serial run on a
// chain built from the same spec, cold and warm-started. Run it under
// go test -race.
func TestRelationGroupsRunConcurrently(t *testing.T) {
	solvers := []matrix.Solver{
		matrix.DenseSolver{},
		matrix.GaussSeidelSolver{},
		matrix.BiCGSTABSolver{},
		matrix.ILUSolver{},
		matrix.AutoSolver{},
	}
	r := rand.New(rand.NewSource(28))
	spec, neighbour := randomChainSpec(r, 40, 30), randomChainSpec(r, 40, 30)
	// Like a sweep lane's neighbour, the seeding chain shares the
	// initial distribution.
	neighbour.Alpha = spec.Alpha
	for _, s := range solvers {
		spec.Solver, neighbour.Solver = s, s
		// A neighbouring chain's recorded vectors seed the warm runs.
		seedChain, err := NewChain(neighbour)
		if err != nil {
			t.Fatal(err)
		}
		var seedRun relationResults
		runGroupT(seedChain, &seedRun)
		runGroupAB(seedChain, &seedRun)
		seed := seedChain.RecordedWarmStart()
		for _, ws := range []*WarmStart{nil, seed} {
			name := fmt.Sprintf("%s warm=%t", s.Name(), ws != nil)
			run := func(concurrent bool) relationResults {
				c, err := NewChain(spec)
				if err != nil {
					t.Fatal(err)
				}
				c.SeedWarmStart(ws)
				var res relationResults
				if concurrent {
					done := make(chan struct{})
					go func() {
						defer close(done)
						runGroupT(c, &res)
					}()
					runGroupAB(c, &res)
					<-done
				} else {
					runGroupT(c, &res)
					runGroupAB(c, &res)
				}
				res.stats = c.SolveStats()
				res.rec = c.RecordedWarmStart()
				return res
			}
			serial, conc := run(false), run(true)
			if serial.errT != nil || serial.errAB != nil || conc.errT != nil || conc.errAB != nil {
				t.Fatalf("%s: errors serial (%v, %v), concurrent (%v, %v)", name,
					serial.errT, serial.errAB, conc.errT, conc.errAB)
			}
			same := func(what string, a, b []float64) {
				if len(a) != len(b) {
					t.Errorf("%s: %s has length %d concurrently, %d serially", name, what, len(b), len(a))
					return
				}
				for i := range a {
					if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
						t.Errorf("%s: %s[%d] = %v concurrently, %v serially", name, what, i, b[i], a[i])
						return
					}
				}
			}
			same("E(T_A), E(T_B), clean", []float64{serial.timeA, serial.timeB, serial.clean},
				[]float64{conc.timeA, conc.timeB, conc.clean})
			same("absorption", []float64{serial.absorption["u"], serial.absorption["v"]},
				[]float64{conc.absorption["u"], conc.absorption["v"]})
			same("sojourns A", serial.sojournsA, conc.sojournsA)
			same("sojourns B", serial.sojournsB, conc.sojournsB)
			if serial.stats != conc.stats {
				t.Errorf("%s: solve stats %+v concurrently, %+v serially", name, conc.stats, serial.stats)
			}
			if s.Name() != "dense" && serial.stats.Iterations == 0 {
				t.Errorf("%s: no iterations; the chain does not exercise the iterative path", name)
			}
			sv, cv := warmVectors(serial.rec), warmVectors(conc.rec)
			if len(sv) != len(cv) {
				t.Fatalf("%s: %d recorded warm-start vectors concurrently, %d serially", name, len(cv), len(sv))
			}
			for i := range sv {
				same(fmt.Sprintf("recorded warm-start vector %d", i), sv[i], cv[i])
			}
		}
	}
}
