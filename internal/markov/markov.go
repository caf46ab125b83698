// Package markov implements the absorbing discrete-time Markov-chain
// analytics that the DSN 2011 targeted-attack paper builds on:
//
//   - expected total time spent in a subset of transient states before
//     absorption (Sericola, J. Appl. Prob. 1990 — the paper's relations
//     (5) and (6)),
//   - expected durations of the successive sojourns in each transient
//     subset (Sericola & Rubino, J. Appl. Prob. 1989 — relations (7), (8)),
//   - absorption probabilities per absorbing class (relation (9)).
//
// The chain's transient states are partitioned into two subsets A and B
// (the paper's safe set S and polluted set P); the remaining states form
// named absorbing classes.
//
// The pipeline is sparse end-to-end: the transient block T is carved
// directly out of the CSR, its four blocks M_A, M_AB, M_BA and M_B are
// views of T rather than copies, every relation is routed through the
// pluggable matrix.Solver interface, and nothing is densified unless the
// dense LU backend itself is selected. Factorizations and the shared
// visits vector α_T(I−T)⁻¹ are cached on the Chain and reused across
// relations, so e.g. E(T_S), E(T_P) and the absorption probabilities cost
// one linear solve between them.
package markov

import (
	"fmt"
	"slices"

	"targetedattacks/internal/matrix"
)

// Chain is an absorbing discrete-time Markov chain whose transient states
// are split into two subsets. Construction extracts the transient block
// T once, views its four blocks in place, and reduces each absorbing
// class to its exit masses; the analytic methods are then pure (sparse)
// linear algebra. A Chain caches factorizations and shared solves, so its
// methods are not safe for concurrent use, with one exception: the
// methods on I−T (ExpectedTotalTimeInA, ExpectedTotalTimeInB and
// AbsorptionProbabilities) may run on one goroutine while the methods
// on I−M_A and I−M_B (SuccessiveSojournsBoth and AbsorbedWithinA) run
// on another. The two groups share no factorization and write disjoint
// fields, so their results are bit-identical to a serial run. Nothing
// else may run concurrently, and SeedWarmStart must come before both.
type Chain struct {
	// tt is the transient block T = [[M_A, M_AB], [M_BA, M_B]] in the
	// (A, B) order, the chain's one copy of its transitions; ma, mab,
	// mba and mb are block views of it (matrix.CSR.Blocks).
	tt, ma, mab, mba, mb *matrix.CSR
	// exits[k] is R_U·1 for the absorbing class U = classes[k].
	exits   []exitMass
	classes []string // deterministic iteration order
	alphaA  []float64
	alphaB  []float64
	nA, nB  int

	solver matrix.Solver
	// Cached factorizations of I−M_A, I−M_B, I−T and the shared visits
	// vector y = α_T (I−T)⁻¹, filled on first use.
	fa, fb, ft matrix.Factorization
	visitsVec  []float64
	// ws seeds iterative solves from a neighboring chain's recorded
	// solutions; rec accumulates this chain's own converged vectors.
	ws  *WarmStart
	rec WarmStart
}

// WarmStart carries the converged solution vectors of one chain's
// analysis so a neighboring chain — the next cell of a parameter sweep,
// whose blocks differ only by smoothly varying branch weights — can seed
// its iterative solves with them. Vectors are keyed by the relation that
// produced them; any entry may be nil (that solve starts cold). Seeding
// is best-effort: a vector whose length does not match the consuming
// chain's blocks is ignored. The vectors are read-only — the producing
// and the consuming chain may hold references to the same slices.
type WarmStart struct {
	// Visits seeds the shared left solve α_T(I−T)⁻¹ of relations (5),
	// (6) and (9); length |A|+|B|.
	Visits []float64
	// EntryA seeds the αB(I−M_B)⁻¹ left solve inside the subset-A entry
	// vector of relation (5) (length |B|); EntryB seeds the mirrored
	// solve of the subset-B entry vector (length |A|).
	EntryA, EntryB []float64
	// UA and UB seed the column solves (I−M_A)⁻¹1 and (I−M_B)⁻¹1 of
	// relations (7)/(8).
	UA, UB []float64
	// SojournPrologue seeds the B recursion's first half-step of
	// SuccessiveSojournsBoth.
	SojournPrologue []float64
	// StepsA[i] and StepsB[i] seed the left solves of sojourn recursion
	// step i+1 against I−M_A and I−M_B respectively, one vector per
	// solve in issue order.
	StepsA, StepsB [][][]float64
	// Clean seeds the (I−M_A)⁻¹ solve of AbsorbedWithinA; length |A|.
	Clean []float64
}

// SeedWarmStart installs ws as the source of initial guesses for the
// chain's iterative solves; call it before any analysis method. A nil
// ws (or nil entries) leaves the corresponding solves cold. Warm-started
// solves satisfy the same residual tolerance as cold ones, so results
// agree with the cold path to solver tolerance — they are not
// bit-identical. The dense backend ignores seeds entirely.
func (c *Chain) SeedWarmStart(ws *WarmStart) { c.ws = ws }

// RecordedWarmStart returns the solution vectors recorded by the
// analysis methods run so far, for seeding a neighboring chain.
func (c *Chain) RecordedWarmStart() *WarmStart {
	rec := c.rec
	return &rec
}

// SolveStats aggregates the linear-solver work of every factorization
// the chain has built so far.
func (c *Chain) SolveStats() matrix.SolveStats {
	var st matrix.SolveStats
	for _, f := range []matrix.Factorization{c.ft, c.fa, c.fb} {
		if f != nil {
			st = st.Plus(f.Stats())
		}
	}
	if st.Backend == "" {
		st.Backend = c.solver.Name()
	}
	return st
}

// fit returns seed if it has length n, else nil: chain-level warm
// starting is best-effort and must never turn a solvable analysis into
// an error.
func fit(seed []float64, n int) []float64 {
	if len(seed) == n {
		return seed
	}
	return nil
}

// fitBatch returns the recorded step-i guesses (1-based loop index) if
// their shape matches the pending want solves of n-vectors, else nil:
// a step is seeded all or nothing.
func fitBatch(steps [][][]float64, i, want, n int) [][]float64 {
	if i-1 >= len(steps) || len(steps[i-1]) != want {
		return nil
	}
	for _, s := range steps[i-1] {
		if len(s) != n {
			return nil
		}
	}
	return steps[i-1]
}

// Spec describes how to carve a Chain out of a full transition matrix.
type Spec struct {
	// Full is the complete transition matrix over all states.
	Full *matrix.CSR
	// Alpha is the initial distribution over all states.
	Alpha []float64
	// SubsetA and SubsetB are the two transient subsets (paper: S and P).
	SubsetA, SubsetB []int
	// AbsorbingClasses maps a class name to its state indices.
	AbsorbingClasses map[string][]int
	// ClassOrder fixes the iteration order of the absorbing classes; it
	// must list every key of AbsorbingClasses exactly once.
	ClassOrder []string
	// Solver selects the linear-solver backend for every relation; nil
	// selects the exact dense LU backend.
	Solver matrix.Solver
}

// NewChain validates a Spec, extracts the transient block T with its
// block views, and computes the exit masses of every absorbing class.
// The full matrix is never densified, and the Chain keeps no reference
// to it.
func NewChain(spec Spec) (*Chain, error) {
	if spec.Full == nil {
		return nil, fmt.Errorf("markov: Spec.Full is nil")
	}
	n := spec.Full.Rows()
	if spec.Full.Cols() != n {
		return nil, fmt.Errorf("markov: transition matrix is %dx%d, want square", n, spec.Full.Cols())
	}
	if len(spec.Alpha) != n {
		return nil, fmt.Errorf("markov: alpha has length %d, want %d", len(spec.Alpha), n)
	}
	if len(spec.ClassOrder) != len(spec.AbsorbingClasses) {
		return nil, fmt.Errorf("markov: ClassOrder lists %d classes, AbsorbingClasses has %d",
			len(spec.ClassOrder), len(spec.AbsorbingClasses))
	}
	// owner[i] is 1 + the position in labels of the set state i belongs
	// to; 0 means unassigned.
	owner := make([]int32, n)
	labels := make([]string, 0, 2+len(spec.ClassOrder))
	mark := func(idx []int, label string) error {
		labels = append(labels, label)
		id := int32(len(labels))
		for _, i := range idx {
			if i < 0 || i >= n {
				return fmt.Errorf("markov: state index %d out of range [0,%d)", i, n)
			}
			if prev := owner[i]; prev != 0 {
				return fmt.Errorf("markov: state %d assigned to both %s and %s", i, labels[prev-1], label)
			}
			owner[i] = id
		}
		return nil
	}
	if err := mark(spec.SubsetA, "A"); err != nil {
		return nil, err
	}
	if err := mark(spec.SubsetB, "B"); err != nil {
		return nil, err
	}
	for k, name := range spec.ClassOrder {
		idx, ok := spec.AbsorbingClasses[name]
		if !ok {
			return nil, fmt.Errorf("markov: ClassOrder names unknown class %q", name)
		}
		if slices.Contains(spec.ClassOrder[:k], name) {
			return nil, fmt.Errorf("markov: ClassOrder lists class %q twice", name)
		}
		if err := mark(idx, name); err != nil {
			return nil, err
		}
	}

	transient := make([]int, 0, len(spec.SubsetA)+len(spec.SubsetB))
	transient = append(transient, spec.SubsetA...)
	transient = append(transient, spec.SubsetB...)
	// T's rows and columns follow transient, so A's columns come first in
	// every column-sorted row and the blocks are row ranges of T.
	tt, err := spec.Full.SubCSR(transient, transient)
	if err != nil {
		return nil, err
	}
	ma, mab, mba, mb, err := tt.Blocks(len(spec.SubsetA))
	if err != nil {
		return nil, err
	}
	solver := spec.Solver
	if solver == nil {
		solver = matrix.DenseSolver{}
	}
	c := &Chain{
		ma: ma, mab: mab, mba: mba, mb: mb, tt: tt,
		exits:   exitMasses(spec.Full, transient, owner, len(spec.ClassOrder)),
		classes: append([]string(nil), spec.ClassOrder...),
		alphaA:  pick(spec.Alpha, spec.SubsetA),
		alphaB:  pick(spec.Alpha, spec.SubsetB),
		nA:      len(spec.SubsetA),
		nB:      len(spec.SubsetB),
		solver:  solver,
	}
	return c, nil
}

// exitMass is R_U·1 for one absorbing class U, stored sparse: mass[q]
// is the one-step probability of moving from transient state rows[q]
// (its position in the (A, B) order; rows ascend) into U.
type exitMass struct {
	rows []int
	mass []float64
}

// exitMasses computes the exit masses of all nClasses absorbing classes
// in one pass over the transient rows of full; owner labels class k of
// ClassOrder as 3+k (after A and B). Each row adds its entries into a
// class in stored column order, the order in which RowSums adds them on
// the extracted block SubCSR(transient, U) when U's index list ascends.
// Leaving out a zero mass drops a zero term, which changes no finite
// sum, so the relations read the bits of dense R_U·1 vectors.
func exitMasses(full *matrix.CSR, transient []int, owner []int32, nClasses int) []exitMass {
	exits := make([]exitMass, nClasses)
	sum := make([]float64, nClasses)
	for p, r := range transient {
		full.RowNonZeros(r, func(j int, v float64) {
			if k := owner[j] - 3; k >= 0 {
				sum[k] += v
			}
		})
		for k, s := range sum {
			if s != 0 {
				exits[k].rows = append(exits[k].rows, p)
				exits[k].mass = append(exits[k].mass, s)
				sum[k] = 0
			}
		}
	}
	return exits
}

func pick(v []float64, idx []int) []float64 {
	out := make([]float64, len(idx))
	for p, i := range idx {
		out[p] = v[i]
	}
	return out
}

// SolverName reports which linear-solver backend the chain routes its
// relations through.
func (c *Chain) SolverName() string { return c.solver.Name() }

// factA returns the cached factorization of I − M_A.
func (c *Chain) factA() (matrix.Factorization, error) {
	if c.fa == nil {
		f, err := c.solver.Factor(c.ma)
		if err != nil {
			return nil, fmt.Errorf("markov: factoring I−M_A: %w", err)
		}
		c.fa = f
	}
	return c.fa, nil
}

// factB returns the cached factorization of I − M_B.
func (c *Chain) factB() (matrix.Factorization, error) {
	if c.fb == nil {
		f, err := c.solver.Factor(c.mb)
		if err != nil {
			return nil, fmt.Errorf("markov: factoring I−M_B: %w", err)
		}
		c.fb = f
	}
	return c.fb, nil
}

// factT returns the cached factorization of I − T over all transient
// states.
func (c *Chain) factT() (matrix.Factorization, error) {
	if c.ft == nil {
		f, err := c.solver.Factor(c.tt)
		if err != nil {
			return nil, fmt.Errorf("markov: factoring I−T: %w", err)
		}
		c.ft = f
	}
	return c.ft, nil
}

// visits returns the cached visits vector y = α_T (I − T)⁻¹: y_j is the
// expected number of visits to transient state j before absorption. One
// left solve serves relations (5), (6) and (9).
func (c *Chain) visits() ([]float64, error) {
	if c.visitsVec != nil {
		return c.visitsVec, nil
	}
	ft, err := c.factT()
	if err != nil {
		return nil, err
	}
	alphaT := make([]float64, 0, c.nA+c.nB)
	alphaT = append(alphaT, c.alphaA...)
	alphaT = append(alphaT, c.alphaB...)
	var seed []float64
	if c.ws != nil {
		seed = fit(c.ws.Visits, c.nA+c.nB)
	}
	y, err := ft.SolveVecLeftFrom(alphaT, seed)
	if err != nil {
		return nil, fmt.Errorf("markov: solving α_T(I−T)⁻¹: %w", err)
	}
	c.visitsVec = y
	c.rec.Visits = y
	return y, nil
}

// entryVector computes the paper's v (relation (5)) for subset A:
// v = αA + αB (I − M_B)⁻¹ M_{BA}, the distribution of the state in A at
// the instant the chain first visits A (counting a start in A). B must
// be non-empty and fb must factor I − M_B. x0 optionally warm-starts the
// inner left solve, whose solution is returned alongside v for
// recording.
func entryVector(alphaA, alphaB []float64, fb matrix.Factorization, mba *matrix.CSR, x0 []float64) (v, u []float64, err error) {
	u, err = fb.SolveVecLeftFrom(alphaB, fit(x0, len(alphaB)))
	if err != nil {
		return nil, nil, fmt.Errorf("markov: solving αB(I−M_B)⁻¹: %w", err)
	}
	um, err := mba.VecMul(u)
	if err != nil {
		return nil, nil, err
	}
	v, err = matrix.VecAdd(alphaA, um)
	return v, u, err
}

// ExpectedTotalTimeInA returns E(T_A), the expected number of transitions
// spent in subset A before absorption (paper relation (5)). The censored
// kernel identity v(I − R)⁻¹1 of the paper is evaluated through the
// equivalent fundamental-matrix form Σ_{j∈A} [α_T(I−T)⁻¹]_j, which shares
// its single sparse solve with relation (6) and the absorption
// probabilities (9).
func (c *Chain) ExpectedTotalTimeInA() (float64, error) {
	return c.expectedTotalTime(0, c.nA)
}

// ExpectedTotalTimeInB returns E(T_B), the expected number of transitions
// spent in subset B before absorption (paper relation (6)).
func (c *Chain) ExpectedTotalTimeInB() (float64, error) {
	return c.expectedTotalTime(c.nA, c.nA+c.nB)
}

func (c *Chain) expectedTotalTime(lo, hi int) (float64, error) {
	if lo == hi {
		return 0, nil
	}
	y, err := c.visits()
	if err != nil {
		return 0, err
	}
	var s float64
	for _, v := range y[lo:hi] {
		s += v
	}
	return s, nil
}

// SuccessiveSojournsBoth returns E(T_{A,1}), …, E(T_{A,n}) and
// E(T_{B,1}), …, E(T_{B,n}): the expected durations of the first n
// sojourns of the chain in subset A and in subset B (paper relations (7)
// and (8), after Sericola & Rubino 1989). Relation (7) is
// E(T_{A,i+1}) = v Gⁱ u with G = (I−M_A)⁻¹ M_AB (I−M_B)⁻¹ M_BA and
// u = (I−M_A)⁻¹ 1; every matrix power is applied as sparse left solves
// and CSR row-vector products, never formed. The A and B recursions
// advance in lockstep: each step issues one warm-started left solve per
// vector, first the pending systems against I−M_A, then those against
// I−M_B, so each block's setup (LU factors, sparse transpose) is paid
// once for the whole recursion.
func (c *Chain) SuccessiveSojournsBoth(n int) ([]float64, []float64, error) {
	if n < 0 {
		return nil, nil, fmt.Errorf("markov: negative sojourn count %d", n)
	}
	if n == 0 || c.nA == 0 || c.nB == 0 {
		// With a subset empty, G = 0: the other subset has one sojourn,
		// its entry vector is its initial mass, and no cross-block work
		// is needed.
		a, err := firstSojourn(n, c.alphaA, c.factA)
		if err != nil {
			return nil, nil, err
		}
		b, err := firstSojourn(n, c.alphaB, c.factB)
		if err != nil {
			return nil, nil, err
		}
		return a, b, nil
	}
	fa, err := c.factA()
	if err != nil {
		return nil, nil, err
	}
	fb, err := c.factB()
	if err != nil {
		return nil, nil, err
	}
	// Seed every solve from the neighboring chain's recorded solutions
	// (ws == nil or a nil entry means a cold start), and record this
	// chain's own solutions for the next neighbor.
	ws := c.ws
	if ws == nil {
		ws = &WarmStart{}
	}
	vA, entryA, err := entryVector(c.alphaA, c.alphaB, fb, c.mba, ws.EntryA)
	if err != nil {
		return nil, nil, err
	}
	c.rec.EntryA = entryA
	vB, entryB, err := entryVector(c.alphaB, c.alphaA, fa, c.mab, ws.EntryB)
	if err != nil {
		return nil, nil, err
	}
	c.rec.EntryB = entryB
	uA, err := fa.SolveVecFrom(matrix.Ones(c.nA), fit(ws.UA, c.nA))
	if err != nil {
		return nil, nil, err
	}
	c.rec.UA = uA
	uB, err := fb.SolveVecFrom(matrix.Ones(c.nB), fit(ws.UB, c.nB))
	if err != nil {
		return nil, nil, err
	}
	c.rec.UB = uB
	outA := make([]float64, n)
	outB := make([]float64, n)
	rA, rB := vA, vB
	if outA[0], err = matrix.Dot(rA, uA); err != nil {
		return nil, nil, err
	}
	if outB[0], err = matrix.Dot(rB, uB); err != nil {
		return nil, nil, err
	}
	if n == 1 {
		return outA, outB, nil
	}
	// Pipeline prologue: the B recursion's first half-step (its fb solve)
	// runs once on its own; from then on every fb solve of the B
	// recursion is issued next to the A recursion's.
	sB, err := fb.SolveVecLeftFrom(rB, fit(ws.SojournPrologue, c.nB))
	if err != nil {
		return nil, nil, err
	}
	c.rec.SojournPrologue = sB
	pB, err := c.mba.VecMul(sB)
	if err != nil {
		return nil, nil, err
	}
	c.rec.StepsA = make([][][]float64, 0, n-1)
	c.rec.StepsB = make([][][]float64, 0, n-1)
	for i := 1; i < n; i++ {
		// Against I−M_A: rA's step and the B recursion's second
		// half-step.
		xs, err := solveLeftEach(fa, [][]float64{rA, pB}, fitBatch(ws.StepsA, i, 2, c.nA))
		if err != nil {
			return nil, nil, err
		}
		c.rec.StepsA = append(c.rec.StepsA, xs)
		qA, err := c.mab.VecMul(xs[0])
		if err != nil {
			return nil, nil, err
		}
		if rB, err = c.mab.VecMul(xs[1]); err != nil {
			return nil, nil, err
		}
		if outB[i], err = matrix.Dot(rB, uB); err != nil {
			return nil, nil, err
		}
		// Against I−M_B: the A step's second half, prefetching the B
		// recursion's next first half alongside.
		rhs := [][]float64{qA}
		if i+1 < n {
			rhs = append(rhs, rB)
		}
		ys, err := solveLeftEach(fb, rhs, fitBatch(ws.StepsB, i, len(rhs), c.nB))
		if err != nil {
			return nil, nil, err
		}
		c.rec.StepsB = append(c.rec.StepsB, ys)
		if rA, err = c.mba.VecMul(ys[0]); err != nil {
			return nil, nil, err
		}
		if outA[i], err = matrix.Dot(rA, uA); err != nil {
			return nil, nil, err
		}
		if i+1 < n {
			if pB, err = c.mba.VecMul(ys[1]); err != nil {
				return nil, nil, err
			}
		}
	}
	return outA, outB, nil
}

// firstSojourn answers relation (7) for a subset whose complement is
// empty: only the first sojourn exists, E(T_1) = α (I−M)⁻¹ 1 with fact
// factoring I − M; the rest of the n terms are zero.
func firstSojourn(n int, alpha []float64, fact func() (matrix.Factorization, error)) ([]float64, error) {
	out := make([]float64, n)
	if n == 0 || len(alpha) == 0 {
		return out, nil
	}
	f, err := fact()
	if err != nil {
		return nil, err
	}
	u, err := f.SolveVec(matrix.Ones(len(alpha)))
	if err != nil {
		return nil, err
	}
	if out[0], err = matrix.Dot(alpha, u); err != nil {
		return nil, err
	}
	return out, nil
}

// solveLeftEach answers x_j (I − M) = bs[j] for every j with one
// left solve per vector, in order; guesses is nil (all cold) or holds
// one warm-start guess per vector.
func solveLeftEach(f matrix.Factorization, bs, guesses [][]float64) ([][]float64, error) {
	xs := make([][]float64, len(bs))
	for j, b := range bs {
		var x0 []float64
		if guesses != nil {
			x0 = guesses[j]
		}
		x, err := f.SolveVecLeftFrom(b, x0)
		if err != nil {
			return nil, err
		}
		xs[j] = x
	}
	return xs, nil
}

// AbsorptionProbabilities returns, for every absorbing class, the
// probability that the chain is eventually absorbed there (relation (9)):
// p(U) = α_T (I − T)⁻¹ R_U 1, reusing the shared visits vector.
func (c *Chain) AbsorptionProbabilities() (map[string]float64, error) {
	if c.nA+c.nB == 0 {
		return nil, fmt.Errorf("markov: no transient states")
	}
	y, err := c.visits()
	if err != nil {
		return nil, err
	}
	out := make(map[string]float64, len(c.classes))
	for k, name := range c.classes {
		// The dot product of y with R_U 1, over the rows that reach U.
		var p float64
		e := c.exits[k]
		for q, r := range e.rows {
			p += float64(y[r] * e.mass[q])
		}
		out[name] = p
	}
	return out, nil
}

// AbsorbedWithinA returns the probability that the chain reaches one of
// the named absorbing classes along a path that never leaves subset A:
// α_A (I − M_A)⁻¹ R^A 1, with R^A 1 the classes' exit masses from the
// states of subset A. Initial mass on subset B contributes
// nothing. It separates "dies clean" from "was ever dirty":
// P(ever in B ∪ other classes) = 1 − AbsorbedWithinA(clean classes).
func (c *Chain) AbsorbedWithinA(classes ...string) (float64, error) {
	if c.nA == 0 {
		return 0, nil
	}
	rhs := make([]float64, c.nA)
	for _, name := range classes {
		k := slices.Index(c.classes, name)
		if k < 0 {
			return 0, fmt.Errorf("markov: unknown absorbing class %q", name)
		}
		e := c.exits[k]
		for q, r := range e.rows {
			if r >= c.nA {
				break
			}
			rhs[r] += e.mass[q]
		}
	}
	fa, err := c.factA()
	if err != nil {
		return 0, err
	}
	var seed []float64
	if c.ws != nil {
		seed = fit(c.ws.Clean, c.nA)
	}
	z, err := fa.SolveVecFrom(rhs, seed)
	if err != nil {
		return 0, fmt.Errorf("markov: solving (I−M_A)⁻¹: %w", err)
	}
	c.rec.Clean = z
	return matrix.Dot(c.alphaA, z)
}
