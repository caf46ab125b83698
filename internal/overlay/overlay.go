// Package overlay implements the overlay-level analysis of Section VIII of
// the DSN 2011 targeted-attack paper: n clusters D₁…Dₙ evolve as n
// identical Markov chains X⁽¹⁾…X⁽ⁿ⁾ that *compete for transitions* — each
// global join/leave event is routed to one chain chosen uniformly at
// random. The package computes the expected number of safe and polluted
// clusters after m events using the paper's Theorems 1 and 2:
//
//	E(N_S(m))/n = α (T/n + (1−1/n)·I)^m 1_S
//
// which it evaluates by iterated sparse row-vector products.
package overlay

import (
	"fmt"

	"targetedattacks/internal/combin"
	"targetedattacks/internal/core"
	"targetedattacks/internal/matrix"
)

// CompetingChains is the n-cluster overlay view of a cluster model.
type CompetingChains struct {
	model *core.Model
	n     int
}

// New builds the overlay view for n clusters.
func New(model *core.Model, n int) (*CompetingChains, error) {
	if model == nil {
		return nil, fmt.Errorf("overlay: nil model")
	}
	if n < 1 {
		return nil, fmt.Errorf("overlay: need n ≥ 1 clusters, got %d", n)
	}
	return &CompetingChains{model: model, n: n}, nil
}

// N returns the number of competing clusters.
func (cc *CompetingChains) N() int { return cc.n }

// Point is one sample of the expected proportions of safe and polluted
// clusters after Events global events.
type Point struct {
	// Events is m, the number of join/leave events routed to the overlay.
	Events int
	// Safe is E(N_S(m))/n.
	Safe float64
	// Polluted is E(N_P(m))/n.
	Polluted float64
}

// ProportionSeries evaluates Theorem 2 for m = 0 … maxEvents and returns
// about `samples` evenly spaced points (always including m = 0 and
// m = maxEvents). alpha is the per-cluster initial distribution over Ω.
func (cc *CompetingChains) ProportionSeries(alpha []float64, maxEvents, samples int) ([]Point, error) {
	sp := cc.model.Space()
	if len(alpha) != sp.Size() {
		return nil, fmt.Errorf("overlay: alpha has length %d, want |Ω| = %d", len(alpha), sp.Size())
	}
	if maxEvents < 0 {
		return nil, fmt.Errorf("overlay: negative event count %d", maxEvents)
	}
	if samples < 1 {
		return nil, fmt.Errorf("overlay: need ≥ 1 samples, got %d", samples)
	}
	stride := maxEvents / samples
	if stride == 0 {
		stride = 1
	}
	safeInd := cc.model.TransientIndicator(core.ClassSafe)
	pollInd := cc.model.TransientIndicator(core.ClassPolluted)
	m := cc.model.TransitionMatrix()

	v := append([]float64(nil), alpha...)
	next := make([]float64, len(v))
	invN := 1 / float64(cc.n)
	var out []Point
	record := func(events int) error {
		s, err := matrix.Dot(v, safeInd)
		if err != nil {
			return err
		}
		p, err := matrix.Dot(v, pollInd)
		if err != nil {
			return err
		}
		out = append(out, Point{Events: events, Safe: s, Polluted: p})
		return nil
	}
	if err := record(0); err != nil {
		return nil, err
	}
	for ev := 1; ev <= maxEvents; ev++ {
		// v ← v·(M/n + (1−1/n)·I) = (1/n)·(v·M) + (1−1/n)·v.
		if err := m.VecMulInto(v, next); err != nil {
			return nil, err
		}
		for i := range v {
			v[i] = invN*next[i] + (1-invN)*v[i]
		}
		if ev%stride == 0 || ev == maxEvents {
			if err := record(ev); err != nil {
				return nil, err
			}
		}
	}
	return out, nil
}

// SingleChainDistribution evaluates Theorem 1: the distribution of one
// tagged chain X⁽ʰ⁾ after m overlay events, as the binomial mixture of the
// generic chain's ℓ-step distributions
//
//	P{X⁽ʰ⁾_m = j} = Σ_ℓ C(m,ℓ) (1/n)^ℓ (1−1/n)^{m−ℓ} P{X_ℓ = j}.
//
// It is primarily a cross-check of ProportionSeries (the two must agree),
// and costs O(m) chain steps.
func (cc *CompetingChains) SingleChainDistribution(alpha []float64, m int) ([]float64, error) {
	sp := cc.model.Space()
	if len(alpha) != sp.Size() {
		return nil, fmt.Errorf("overlay: alpha has length %d, want |Ω| = %d", len(alpha), sp.Size())
	}
	if m < 0 {
		return nil, fmt.Errorf("overlay: negative event count %d", m)
	}
	tm := cc.model.TransitionMatrix()
	out := make([]float64, sp.Size())
	pi := append([]float64(nil), alpha...)
	next := make([]float64, sp.Size())
	p := 1 / float64(cc.n)
	for l := 0; l <= m; l++ {
		w, err := binomialWeight(m, l, p)
		if err != nil {
			return nil, err
		}
		if w > 0 {
			for j := range out {
				out[j] += w * pi[j]
			}
		}
		if l < m {
			if err := tm.VecMulInto(pi, next); err != nil {
				return nil, err
			}
			pi, next = next, pi
		}
	}
	return out, nil
}

func binomialWeight(m, l int, p float64) (float64, error) {
	return combin.BinomialPMF(m, p, l)
}
