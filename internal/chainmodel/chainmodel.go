// Package chainmodel defines the model interface of the absorbing-chain
// analytics engine: what a Markov-chain family must declare for the
// generic layers — parallel matrix construction (internal/matrix), the
// Sericola closed forms (internal/markov), the amortized sweep planner
// (internal/sweep) and the HTTP serving layer (internal/attackd) — to
// analyze it without knowing its state space.
//
// A family (one per model, e.g. the paper's targeted-attack chain or the
// APT compromise chain) declares:
//
//   - state enumeration and the transient/absorbing split, via the
//     RowEmitter its instances build their transition matrices through;
//   - sparse row emission compatible with matrix.RowBuilder and the
//     chunked parallel build (BuildMatrix — bit-identical CSR output for
//     any worker count);
//   - the transient subset split (A, B) and named absorbing classes,
//     via the markov.Chain each Instance assembles;
//   - sweep structure: a grouping key for shared immutable tables, a
//     dedup signature for provably identical cells, and a warm-start
//     lane key along the family's natural slow axis.
//
// Families register themselves (Register, usually from an init function)
// so the serving layer and CLIs can select them by name.
package chainmodel

import (
	"context"
	"fmt"
	"math"
	"time"

	"targetedattacks/internal/engine"
	"targetedattacks/internal/markov"
	"targetedattacks/internal/matrix"
	"targetedattacks/internal/obs"
)

// RowEmitter enumerates a chain's states and emits the sparse transition
// row of each transient state. Emitters must be safe for concurrent
// EmitRow calls on distinct rows: the parallel build invokes them from
// multiple goroutines.
type RowEmitter interface {
	// NumStates is the total number of states.
	NumStates() int
	// Transient reports whether state i is transient. Absorbing states
	// get an exact self-loop emitted for them by BuildMatrix.
	Transient(i int) bool
	// EmitRow adds the outgoing probabilities of transient state i to
	// the builder's current row (duplicate targets are summed, zeros
	// dropped). It must not call EndRow.
	EmitRow(rb *matrix.RowBuilder, i int) error
}

// buildChunkRows is the number of consecutive rows one pool task seals
// into its own matrix.RowBuilder: large enough to amortize scheduling and
// builder allocation, small enough to load-balance the ~n/chunk tasks
// across workers. It is the same chunking the paper model always used,
// so matrices built through this generic path are bit-identical to the
// pre-interface builds.
const buildChunkRows = 512

// BuildMatrix constructs a transition matrix from em, fanning row chunks
// across pool (nil builds serially). Rows are emitted into row-local
// builders and concatenated in row order, so the CSR — row pointers,
// column indices and values — is bit-identical for any pool width.
// Absorbing states receive an exact self-loop.
func BuildMatrix(em RowEmitter, pool *engine.Pool) (*matrix.CSR, error) {
	return BuildMatrixObserved(em, pool, nil)
}

// BuildMatrixObserved is BuildMatrix reporting the wall-clock duration
// of the whole build as stage "matrix" to o (nil reports nothing). The
// produced matrix is byte-identical to BuildMatrix's.
func BuildMatrixObserved(em RowEmitter, pool *engine.Pool, o obs.Observer) (*matrix.CSR, error) {
	var t0 time.Time
	if o != nil {
		t0 = time.Now()
	}
	n := em.NumStates()
	nChunks := (n + buildChunkRows - 1) / buildChunkRows
	parts := make([]*matrix.RowBuilder, nChunks)
	err := engine.Ensure(pool).Run(context.Background(), nChunks, func(chunk int) error {
		lo := chunk * buildChunkRows
		hi := min(lo+buildChunkRows, n)
		rb := matrix.NewRowBuilder(n)
		for i := lo; i < hi; i++ {
			if !em.Transient(i) {
				if err := rb.Add(i, 1); err != nil {
					return err
				}
			} else if err := em.EmitRow(rb, i); err != nil {
				return err
			}
			rb.EndRow()
		}
		parts[chunk] = rb
		return nil
	})
	if err != nil {
		return nil, err
	}
	m, err := matrix.ConcatRows(n, parts...)
	if err != nil {
		return nil, fmt.Errorf("chainmodel: assembling transition matrix: %w", err)
	}
	if o != nil {
		o.Observe("matrix", time.Since(t0))
	}
	return m, nil
}

// WarmStart re-exports the chain-level warm start: the converged
// solution vectors of one analysis, usable as initial guesses for a
// neighboring cell's iterative solves.
type WarmStart = markov.WarmStart

// Instance is one analyzable chain of a family: a built transition
// matrix plus the partition the markov kernel needs. Instances are
// solver-stateful (markov.Chain caches factorizations), so one instance
// must not be analyzed concurrently.
type Instance interface {
	// NumStates is the total number of states.
	NumStates() int
	// NumTransient is the number of transient states (|A| + |B|).
	NumTransient() int
	// TransientState reports whether state i is transient.
	TransientState(i int) bool
	// Matrix is the full transition matrix.
	Matrix() *matrix.CSR
	// CleanClasses names the absorbing classes reachable without ever
	// entering subset B; Analysis.HitProbability is 1 minus the
	// probability of being absorbed in one of them along an all-A path.
	CleanClasses() []string
	// Chain assembles the absorbing-chain view for a named initial
	// distribution of the family.
	Chain(dist string) (*markov.Chain, error)
}

// Analysis bundles the closed-form results of one instance and initial
// distribution, in model-free vocabulary: subset A is the family's
// "good" transient set, subset B its "bad" one (safe/polluted for the
// paper model, contained/escalated for the APT model).
type Analysis struct {
	// TimeInA is E(T_A), the expected number of transitions spent in
	// subset A before absorption; TimeInB is E(T_B).
	TimeInA, TimeInB float64
	// SojournsA[i] is the expected duration of the (i+1)-th sojourn in
	// subset A; SojournsB likewise for B.
	SojournsA, SojournsB []float64
	// Absorption maps each absorbing class to its absorption probability.
	Absorption map[string]float64
	// HitProbability is the probability that the chain ever visits
	// subset B (or is absorbed outside the clean classes): the
	// complement of being absorbed in a clean class along an all-A path.
	HitProbability float64
	// Solver summarizes the linear-solver work behind this analysis.
	Solver matrix.SolveStats
}

// AnalyzeChain runs every closed-form relation on an assembled chain:
// expected total times in A and B, the first nSojourns successive
// sojourn expectations of both subsets (lockstep recursion),
// absorption probabilities per class, and the hit probability of subset
// B as the complement of a clean all-A absorption.
//
// The relations fall into two groups that share no factorization, and
// the groups run concurrently:
//   - group T, on a goroutine of its own: E(T_A) then E(T_B), which
//     factor I−T and solve the shared visits vector α_T(I−T)⁻¹;
//   - group AB, on the calling goroutine: the sojourns then the clean
//     all-A absorption, which factor I−M_A and I−M_B.
//
// After both groups join, the absorption probabilities read the cached
// visits vector. Each factorization is used by one goroutine only and
// every arithmetic step is the serial one, so results are bit-identical
// to running the relations one after the other. Errors are reported
// after the join in the serial order — E(T_A), E(T_B), sojourns,
// absorption, hit probability — whichever group failed first in time,
// and a panic in group T is re-raised on the calling goroutine.
func AnalyzeChain(ch *markov.Chain, cleanClasses []string, nSojourns int) (*Analysis, error) {
	// The buffer lets group T finish and exit even when group AB panics
	// and nothing receives.
	timesCh := make(chan totalTimes, 1)
	go func() { timesCh <- expectedTotalTimes(ch) }()

	// The two sojourn recursions advance in lockstep, one left solve per
	// vector.
	sa, sb, sojErr := ch.SuccessiveSojournsBoth(nSojourns)
	// "Ever in B" counts transient B visits AND direct absorptions into
	// a non-clean class: complement of dying in a clean class without
	// ever leaving A.
	var clean float64
	var cleanErr error
	if sojErr == nil {
		clean, cleanErr = ch.AbsorbedWithinA(cleanClasses...)
	}

	times := <-timesCh
	if times.panicked != nil {
		panic(times.panicked)
	}
	if times.err != nil {
		return nil, times.err
	}
	if sojErr != nil {
		return nil, fmt.Errorf("chainmodel: sojourns: %w", sojErr)
	}
	abs, err := ch.AbsorptionProbabilities()
	if err != nil {
		return nil, fmt.Errorf("chainmodel: absorption: %w", err)
	}
	if cleanErr != nil {
		return nil, fmt.Errorf("chainmodel: hit probability: %w", cleanErr)
	}
	hit := 1 - clean
	// Clamp float64 round-off at the extremes (e.g. a zero attack rate
	// gives clean = 1 − ulp).
	if hit < 1e-14 {
		hit = 0
	}
	if hit > 1 {
		hit = 1
	}
	return &Analysis{
		TimeInA:        times.a,
		TimeInB:        times.b,
		SojournsA:      sa,
		SojournsB:      sb,
		Absorption:     abs,
		HitProbability: hit,
		Solver:         ch.SolveStats(),
	}, nil
}

// totalTimes is the outcome of AnalyzeChain's group T.
type totalTimes struct {
	a, b     float64
	err      error
	panicked any
}

// expectedTotalTimes runs group T: E(T_A), then E(T_B) unless E(T_A)
// failed. A panic is caught so the caller can re-raise it on its own
// goroutine, where a serving layer's recover sees it.
func expectedTotalTimes(ch *markov.Chain) (r totalTimes) {
	defer func() {
		if p := recover(); p != nil {
			r = totalTimes{panicked: p}
		}
	}()
	var err error
	if r.a, err = ch.ExpectedTotalTimeInA(); err != nil {
		r.err = fmt.Errorf("chainmodel: E(T_A): %w", err)
		return r
	}
	if r.b, err = ch.ExpectedTotalTimeInB(); err != nil {
		r.err = fmt.Errorf("chainmodel: E(T_B): %w", err)
	}
	return r
}

// Analyze assembles inst's chain for the named initial distribution and
// runs the full closed-form analysis.
func Analyze(inst Instance, dist string, nSojourns int) (*Analysis, error) {
	a, _, err := AnalyzeWarm(inst, dist, nSojourns, nil)
	return a, err
}

// AnalyzeWarm is Analyze with warm starting: iterative solves seed from
// ws (nil means all cold), and the analysis's own converged vectors are
// returned for chaining into a neighboring cell. Warm-started results
// satisfy the same residual tolerances as cold ones.
func AnalyzeWarm(inst Instance, dist string, nSojourns int, ws *markov.WarmStart) (*Analysis, *markov.WarmStart, error) {
	ch, err := inst.Chain(dist)
	if err != nil {
		return nil, nil, err
	}
	ch.SeedWarmStart(ws)
	a, err := AnalyzeChain(ch, inst.CleanClasses(), nSojourns)
	if err != nil {
		return nil, nil, err
	}
	return a, ch.RecordedWarmStart(), nil
}

// CloneAnalysis deep-copies an Analysis so callers may mutate shared
// sweep results independently.
func CloneAnalysis(a *Analysis) *Analysis {
	b := *a
	b.SojournsA = append([]float64(nil), a.SojournsA...)
	b.SojournsB = append([]float64(nil), a.SojournsB...)
	b.Absorption = make(map[string]float64, len(a.Absorption))
	for k, v := range a.Absorption {
		b.Absorption[k] = v
	}
	return &b
}

// DefaultStochasticityTol is the row-sum tolerance of the stochasticity
// contract: transition rows built from exact probability splits keep
// rounding error well under 1e-12.
const DefaultStochasticityTol = 1e-12

// ValidateStochasticity checks that m is the transition matrix of a
// well-formed absorbing chain: every entry a probability, every
// transient row summing to 1 within tol, and every absorbing row an
// exact self-loop (a single stored entry at (i, i) with value exactly
// 1). transient reports the split; tol ≤ 0 selects
// DefaultStochasticityTol. The check is sparse: it visits only stored
// entries. Every registered family must satisfy it (the chainmodel
// contract test runs it table-driven over the registry).
func ValidateStochasticity(m *matrix.CSR, transient func(i int) bool, tol float64) error {
	if m == nil || transient == nil {
		return fmt.Errorf("chainmodel: ValidateStochasticity needs a matrix and a transient split")
	}
	if tol <= 0 {
		tol = DefaultStochasticityTol
	}
	n := m.Rows()
	if m.Cols() != n {
		return fmt.Errorf("chainmodel: transition matrix is %dx%d, want square", n, m.Cols())
	}
	for i := 0; i < n; i++ {
		var sum float64
		var entries int
		var selfLoop float64
		var bad error
		m.RowNonZeros(i, func(j int, v float64) {
			entries++
			if j == i {
				selfLoop = v
			}
			if bad == nil && (v < 0 || v > 1+tol || math.IsNaN(v)) {
				bad = fmt.Errorf("chainmodel: entry (%d,%d) is %v, not a probability", i, j, v)
			}
			sum += v
		})
		if bad != nil {
			return bad
		}
		if transient(i) {
			if math.Abs(sum-1) > tol {
				return fmt.Errorf("chainmodel: transient state %d: row sums to %v (|Δ| = %.3g > %g)",
					i, sum, math.Abs(sum-1), tol)
			}
			continue
		}
		if entries != 1 || selfLoop != 1 {
			return fmt.Errorf("chainmodel: absorbing state %d: want exact self-loop, got %d entries with self-loop %v",
				i, entries, selfLoop)
		}
	}
	return nil
}

// ValidateInstance runs the stochasticity contract on a built instance.
func ValidateInstance(inst Instance, tol float64) error {
	return ValidateStochasticity(inst.Matrix(), inst.TransientState, tol)
}
