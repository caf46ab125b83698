package main

import (
	"embed"
	"fmt"
	"math"
	"math/rand/v2"

	ta "targetedattacks"
	"targetedattacks/internal/adversary"
	"targetedattacks/internal/overlaynet"
)

// testdata holds the pinned outputs the workloads are checked against.
//
//go:embed testdata
var testdata embed.FS

// workloads are the benchmark's workloads, in run order. README.md gives
// the reason for each; the sizes were chosen on a 2-vCPU machine so that
// a repetition takes seconds and a run stays well inside its budget.
var workloads = []*workload{
	// One slow-mixing 509,949-state transient block, solved by the auto
	// backend (which picks ILU): nothing to share or deduplicate, so it
	// isolates the matrix and chainmodel solve layers.
	{name: "colossal", runner: gridBench{
		plan:   paperPlan([]int{100}, []int{1}, []float64{0.9}, []float64{0.1}),
		solver: "auto",
		pins:   "colossal.json",
	}},
	// 64 cells that deduplicate to 36 chains in 2 warm-start lanes: the
	// planner does real work, and the fast-mixing blocks use the solver
	// differently than colossal. It runs as attackd serves sweeps.
	{name: "sweep40", runner: gridBench{
		plan: paperPlan([]int{40}, []int{1, 2}, []float64{0.5, 0.6, 0.7, 0.8},
			[]float64{0.05, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.8}),
		solver:     "bicgstab",
		warm:       true,
		pins:       "sweep40.json",
		stageCheck: true,
	}},
	// Two 10^6-peer overlays of 200,000 churn events each, in parallel:
	// the only workload of overlaynet and the DES core, with no linear
	// algebra.
	{name: "swarm", runner: swarmBench{
		plan: ta.SimPlan{
			Strategies:   []adversary.Strategy{adversary.StrategyPaper, adversary.StrategyPassive},
			Mu:           []float64{0.2},
			D:            []float64{0.9},
			Sizes:        []int{1_000_000},
			Params:       ta.Params{C: 7, Delta: 7, K: 1, Nu: 0.1},
			Events:       200_000,
			Replicas:     1,
			Mode:         overlaynet.ModelFidelity,
			Stationary:   true,
			FastIdentity: true,
		},
		pins: "swarm.json",
	}},
	// The attackd traffic mix at a fixed rate below the knee, run as three
	// phases in fresh servers. Higher rates make the client's two
	// connections queue, and queueing amplifies host contention on a
	// shared 2-vCPU machine: over ten seeds the p50 spread 41% of its
	// median at 400 rps and 43% at 300 rps, too much to gate a change.
	{name: "serve", runner: serveBench{rate: 200}},
}

// paperPlan is a C = ∆ grid of the paper model at µ = 0.2 from δ, with
// one sojourn.
func paperPlan(c, k []int, d, nu []float64) ta.SweepPlan {
	return ta.SweepPlan{C: c, Delta: c, K: k, Mu: []float64{0.2}, D: d, Nu: nu, Dist: ta.DistributionDelta, Sojourns: 1}
}

// serveKinds is the attackd traffic of the serve workload: 40% small
// paper cells, 10% larger ones, 10% grids buffered and 10% streamed, 20%
// APT-family cells and 10% small simulation sweeps (weights of the fresh
// bodies; half of all requests repeat a recent body).
var serveKinds = []reqKind{
	{name: "analyze7", weight: 40, path: "/v1/analyze", fresh: analyzeBody(7, 7), check: checkAnalyze(7, 7)},
	{name: "analyze20", weight: 10, path: "/v1/analyze", fresh: analyzeBody(20, 3), check: checkAnalyze(20, 20)},
	{name: "sweep7", weight: 10, path: "/v1/sweep", fresh: sweepBody, check: checkSweep(24)},
	{name: "stream7", weight: 10, path: "/v1/sweep?stream=1", fresh: sweepBody, check: checkStream(24)},
	{name: "apt", weight: 20, path: "/v1/analyze", fresh: aptBody, check: checkModelAnalyze("apt-compromise")},
	{name: "simsweep", weight: 10, path: "/v1/simsweep", fresh: simBody, check: checkSimSweep(2000)},
}

// uniform draws from [lo, hi) at six decimals: fresh bodies then differ
// with overwhelming probability and print exactly.
func uniform(r *rand.Rand, lo, hi float64) float64 {
	return math.Round((lo+(hi-lo)*r.Float64())*1e6) / 1e6
}

// analyzeBody draws a C = ∆ = c paper cell with protocol k ≤ maxK.
func analyzeBody(c, maxK int) func(*rand.Rand) string {
	return func(r *rand.Rand) string {
		k := 1 + r.IntN(maxK)
		mu, d, nu := uniform(r, 0.05, 0.3), uniform(r, 0.5, 0.9), uniform(r, 0.05, 0.8)
		return fmt.Sprintf(`{"c":%d,"delta":%d,"k":%d,"mu":%g,"d":%g,"nu":%g}`, c, c, k, mu, d, nu)
	}
}

// sweepBody draws a 24-cell C = ∆ = 7 grid: 2 µ × 3 d × 4 ν.
func sweepBody(r *rand.Rand) string {
	k := 1 + r.IntN(7)
	mu := [2]float64{uniform(r, 0.05, 0.15), uniform(r, 0.15, 0.3)}
	d := [3]float64{uniform(r, 0.5, 0.65), uniform(r, 0.65, 0.8), uniform(r, 0.8, 0.9)}
	nu := [4]float64{uniform(r, 0.05, 0.2), uniform(r, 0.2, 0.4), uniform(r, 0.4, 0.6), uniform(r, 0.6, 0.8)}
	return fmt.Sprintf(`{"c":"7","delta":"7","k":"%d","mu":"%g,%g","d":"%g,%g,%g","nu":"%g,%g,%g,%g"}`,
		k, mu[0], mu[1], d[0], d[1], d[2], nu[0], nu[1], nu[2], nu[3])
}

// aptBody draws an APT compromise-chain cell with n ≤ 16, δ ≥ 0.6 and
// ρ ≤ 0.3, where the served absorption mass sums to 1 within 3e-8. Larger,
// stealthier campaigns (n ≈ 40, δ ≈ 0.5, ρ ≈ 0.4) absorb so slowly that
// the default BiCGSTAB backend returns absorption masses far from 1, and
// every such request would fail its check.
func aptBody(r *rand.Rand) string {
	n := 6 + r.IntN(11)
	theta, phi, rho, detect := uniform(r, 0.3, 0.6), uniform(r, 0.3, 0.5), uniform(r, 0, 0.3), uniform(r, 0.6, 0.9)
	return fmt.Sprintf(`{"model":"apt-compromise","n":%d,"theta":%g,"phi":%g,"rho":%g,"detect":%g}`, n, theta, phi, rho, detect)
}

// simBody draws a one-cell simulation sweep of 256 peers and 2,000
// events.
func simBody(r *rand.Rand) string {
	mu, d := uniform(r, 0.05, 0.3), uniform(r, 0.5, 0.95)
	return fmt.Sprintf(`{"mu":"%g","d":"%g","sizes":"256","events":2000,"replicas":1,"seed":%d}`, mu, d, 1+r.IntN(1<<30))
}
