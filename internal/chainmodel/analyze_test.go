package chainmodel_test

import (
	"errors"
	"fmt"
	"testing"

	"targetedattacks/internal/chainmodel"
	"targetedattacks/internal/markov"
	"targetedattacks/internal/matrix"
)

// errFactor is the failure factorFailSolver reports.
var errFactor = errors.New("test: cannot factor")

// factorFailSolver factors with the dense backend but fails (or panics
// on) every block whose order is listed. Orders identify the blocks of
// errorOrderChain: 3 is I−T, 2 is I−M_A and 1 is I−M_B. It holds no
// mutable state, so both of AnalyzeChain's groups may share it.
type factorFailSolver struct {
	fail  []int
	panic bool
}

func (factorFailSolver) Name() string { return "factor-fail" }

func (s factorFailSolver) Factor(m *matrix.CSR) (matrix.Factorization, error) {
	for _, n := range s.fail {
		if m.Rows() == n {
			if s.panic {
				panic(fmt.Sprintf("test: factoring a block of order %d", n))
			}
			return nil, errFactor
		}
	}
	return matrix.DenseSolver{}.Factor(m)
}

// errorOrderChain is a chain with |A| = 2, |B| = 1 and two absorbing
// classes, so every block has an order of its own.
func errorOrderChain(t *testing.T, s matrix.Solver) *markov.Chain {
	t.Helper()
	rows := [][]struct {
		j int
		v float64
	}{
		{{0, 0.2}, {1, 0.3}, {2, 0.1}, {3, 0.4}},
		{{0, 0.1}, {1, 0.2}, {2, 0.3}, {4, 0.4}},
		{{0, 0.3}, {2, 0.2}, {4, 0.5}},
		{{3, 1}},
		{{4, 1}},
	}
	b := matrix.NewRowBuilder(len(rows))
	for _, row := range rows {
		for _, e := range row {
			if err := b.Add(e.j, e.v); err != nil {
				t.Fatal(err)
			}
		}
		b.EndRow()
	}
	full, err := matrix.ConcatRows(len(rows), b)
	if err != nil {
		t.Fatal(err)
	}
	ch, err := markov.NewChain(markov.Spec{
		Full:             full,
		Alpha:            []float64{1, 0, 0, 0, 0},
		SubsetA:          []int{0, 1},
		SubsetB:          []int{2},
		AbsorbingClasses: map[string][]int{"clean": {3}, "dirty": {4}},
		ClassOrder:       []string{"clean", "dirty"},
		Solver:           s,
	})
	if err != nil {
		t.Fatal(err)
	}
	return ch
}

// TestAnalyzeChainErrorOrder: AnalyzeChain runs its two relation groups
// concurrently but reports errors in the serial order — E(T_A), E(T_B),
// sojourns, absorption, hit probability — with the serial messages, so
// a failed cell keeps its error text and HTTP status.
func TestAnalyzeChainErrorOrder(t *testing.T) {
	const (
		factT = "markov: factoring I−T: test: cannot factor"
		factA = "markov: factoring I−M_A: test: cannot factor"
		factB = "markov: factoring I−M_B: test: cannot factor"
	)
	tests := []struct {
		name     string
		fail     []int
		sojourns int
		want     string
	}{
		{"T and M_A fail", []int{3, 2}, 2, "chainmodel: E(T_A): " + factT},
		{"all fail", []int{1, 2, 3}, 2, "chainmodel: E(T_A): " + factT},
		{"M_A fails", []int{2}, 2, "chainmodel: sojourns: " + factA},
		{"M_B fails", []int{1}, 2, "chainmodel: sojourns: " + factB},
		{"M_A fails, no sojourns", []int{2}, 0, "chainmodel: hit probability: " + factA},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			ch := errorOrderChain(t, factorFailSolver{fail: tt.fail})
			a, err := chainmodel.AnalyzeChain(ch, []string{"clean"}, tt.sojourns)
			if err == nil {
				t.Fatalf("got analysis %+v, want error %q", a, tt.want)
			}
			if err.Error() != tt.want {
				t.Errorf("error %q, want %q", err, tt.want)
			}
			if !errors.Is(err, errFactor) {
				t.Errorf("error %v does not wrap the solver's error", err)
			}
		})
	}
	if _, err := chainmodel.AnalyzeChain(errorOrderChain(t, factorFailSolver{}), []string{"clean"}, 2); err != nil {
		t.Errorf("no failing block: %v", err)
	}
}

// TestAnalyzeChainRepanicsGroupT: a panic on group T's goroutine reaches
// the caller's goroutine, where a serving layer's recover sees it,
// instead of ending the process.
func TestAnalyzeChainRepanicsGroupT(t *testing.T) {
	ch := errorOrderChain(t, factorFailSolver{fail: []int{3}, panic: true})
	defer func() {
		if p := recover(); p != "test: factoring a block of order 3" {
			t.Errorf("recovered %v, want group T's panic", p)
		}
	}()
	_, _ = chainmodel.AnalyzeChain(ch, []string{"clean"}, 2)
	t.Error("AnalyzeChain returned, want a panic")
}
