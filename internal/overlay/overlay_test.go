package overlay

import (
	"math"
	"testing"

	"targetedattacks/internal/core"
)

func newModel(t *testing.T, mu, d float64) *core.Model {
	t.Helper()
	m, err := core.New(core.Params{C: 7, Delta: 7, Mu: mu, D: d, K: 1, Nu: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestNewValidation(t *testing.T) {
	m := newModel(t, 0.1, 0.9)
	if _, err := New(nil, 10); err == nil {
		t.Error("nil model: want error")
	}
	if _, err := New(m, 0); err == nil {
		t.Error("n=0: want error")
	}
	cc, err := New(m, 500)
	if err != nil {
		t.Fatal(err)
	}
	if cc.N() != 500 {
		t.Errorf("N() = %d", cc.N())
	}
}

func TestProportionSeriesStartsAtAlpha(t *testing.T) {
	m := newModel(t, 0.1, 0.9)
	cc, err := New(m, 500)
	if err != nil {
		t.Fatal(err)
	}
	pts, err := cc.ProportionSeries(m.InitialDelta(), 100, 10)
	if err != nil {
		t.Fatal(err)
	}
	if pts[0].Events != 0 || math.Abs(pts[0].Safe-1) > 1e-12 || pts[0].Polluted != 0 {
		t.Errorf("t=0 point = %+v, want Safe=1 Polluted=0", pts[0])
	}
	if last := pts[len(pts)-1]; last.Events != 100 {
		t.Errorf("last sample at %d events, want 100", last.Events)
	}
}

func TestProportionSeriesMonotoneDecayFailureFree(t *testing.T) {
	// With µ = 0 the safe proportion decays monotonically toward 0 and
	// the polluted proportion stays 0.
	m := newModel(t, 0, 0.9)
	cc, err := New(m, 100)
	if err != nil {
		t.Fatal(err)
	}
	pts, err := cc.ProportionSeries(m.InitialDelta(), 20000, 40)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(pts); i++ {
		if pts[i].Safe > pts[i-1].Safe+1e-12 {
			t.Errorf("safe proportion increased: %v → %v", pts[i-1], pts[i])
		}
		if pts[i].Polluted != 0 {
			t.Errorf("polluted proportion %v at µ=0", pts[i].Polluted)
		}
	}
	if final := pts[len(pts)-1].Safe; final > 0.01 {
		t.Errorf("safe proportion after 20000 events on 100 clusters = %v, want ≈ 0", final)
	}
}

func TestProportionsStayInUnitInterval(t *testing.T) {
	m := newModel(t, 0.3, 0.9)
	cc, err := New(m, 500)
	if err != nil {
		t.Fatal(err)
	}
	alpha, err := m.InitialBeta()
	if err != nil {
		t.Fatal(err)
	}
	pts, err := cc.ProportionSeries(alpha, 5000, 20)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range pts {
		if p.Safe < -1e-12 || p.Safe > 1+1e-12 || p.Polluted < -1e-12 || p.Polluted > 1+1e-12 {
			t.Errorf("proportion outside [0,1]: %+v", p)
		}
		if p.Safe+p.Polluted > 1+1e-9 {
			t.Errorf("Safe+Polluted = %v > 1", p.Safe+p.Polluted)
		}
	}
}

func TestLargerNSlowsDecay(t *testing.T) {
	// Each cluster receives fewer events when n is larger, so the safe
	// proportion at a fixed m must be higher for larger n (paper Figure
	// 5: the n=1500 curves sit above the n=500 curves).
	m := newModel(t, 0.1, 0.9)
	cc500, err := New(m, 500)
	if err != nil {
		t.Fatal(err)
	}
	cc1500, err := New(m, 1500)
	if err != nil {
		t.Fatal(err)
	}
	p500, err := cc500.ProportionSeries(m.InitialDelta(), 30000, 3)
	if err != nil {
		t.Fatal(err)
	}
	p1500, err := cc1500.ProportionSeries(m.InitialDelta(), 30000, 3)
	if err != nil {
		t.Fatal(err)
	}
	last500 := p500[len(p500)-1]
	last1500 := p1500[len(p1500)-1]
	if last1500.Safe <= last500.Safe {
		t.Errorf("safe(n=1500)=%v ≤ safe(n=500)=%v at m=30000", last1500.Safe, last500.Safe)
	}
}

func TestTheorem1MatchesTheorem2(t *testing.T) {
	// The expected proportion from Theorem 2 must equal Σ_{j∈S} of the
	// single-chain distribution from Theorem 1.
	m := newModel(t, 0.2, 0.8)
	cc, err := New(m, 50)
	if err != nil {
		t.Fatal(err)
	}
	alpha := m.InitialDelta()
	const events = 200
	pts, err := cc.ProportionSeries(alpha, events, 1)
	if err != nil {
		t.Fatal(err)
	}
	dist, err := cc.SingleChainDistribution(alpha, events)
	if err != nil {
		t.Fatal(err)
	}
	var safe, polluted float64
	sp := m.Space()
	for j, st := range sp.States() {
		switch sp.Classify(st) {
		case core.ClassSafe:
			safe += dist[j]
		case core.ClassPolluted:
			polluted += dist[j]
		}
	}
	last := pts[len(pts)-1]
	if math.Abs(last.Safe-safe) > 1e-9 {
		t.Errorf("Theorem2 safe = %v, Theorem1 safe = %v", last.Safe, safe)
	}
	if math.Abs(last.Polluted-polluted) > 1e-9 {
		t.Errorf("Theorem2 polluted = %v, Theorem1 polluted = %v", last.Polluted, polluted)
	}
}

func TestSingleChainDistributionIsDistribution(t *testing.T) {
	m := newModel(t, 0.2, 0.9)
	cc, err := New(m, 10)
	if err != nil {
		t.Fatal(err)
	}
	dist, err := cc.SingleChainDistribution(m.InitialDelta(), 100)
	if err != nil {
		t.Fatal(err)
	}
	var sum float64
	for _, v := range dist {
		if v < -1e-12 {
			t.Errorf("negative mass %v", v)
		}
		sum += v
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("distribution sums to %v", sum)
	}
}

func TestSeriesArgumentValidation(t *testing.T) {
	m := newModel(t, 0.1, 0.9)
	cc, err := New(m, 10)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cc.ProportionSeries([]float64{1}, 10, 1); err == nil {
		t.Error("short alpha: want error")
	}
	if _, err := cc.ProportionSeries(m.InitialDelta(), -1, 1); err == nil {
		t.Error("negative events: want error")
	}
	if _, err := cc.ProportionSeries(m.InitialDelta(), 10, 0); err == nil {
		t.Error("zero samples: want error")
	}
	if _, err := cc.SingleChainDistribution([]float64{1}, 10); err == nil {
		t.Error("short alpha: want error")
	}
	if _, err := cc.SingleChainDistribution(m.InitialDelta(), -1); err == nil {
		t.Error("negative events: want error")
	}
}

func TestPollutedProportionLowPaperHeadline(t *testing.T) {
	// Paper, Section VIII: the expected proportion of polluted clusters
	// stays very low (< 2.2%) even for d = 90%. The paper does not print
	// its µ for Figure 5; µ = 25% reproduces the 2.2%% ceiling exactly
	// (peak 2.17% at n=500, d=90%; µ=30% would peak at 3.2%) — see
	// EXPERIMENTS.md. Checked for n = 500 over 100k events.
	m := newModel(t, 0.25, 0.9)
	cc, err := New(m, 500)
	if err != nil {
		t.Fatal(err)
	}
	pts, err := cc.ProportionSeries(m.InitialDelta(), 100000, 50)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range pts {
		if p.Polluted > 0.022 {
			t.Errorf("polluted proportion %v > 2.2%% at m=%d", p.Polluted, p.Events)
		}
	}
}
