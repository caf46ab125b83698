package main

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash"
	"math"
	"sort"
	"time"

	ta "targetedattacks"
	"targetedattacks/internal/chainmodel"
	"targetedattacks/internal/core"
	"targetedattacks/internal/obs"
)

// gridBench evaluates a paper-model parameter grid with EvaluateSweep,
// the amortized evaluator attackd serves sweeps with. Its traced pass
// replays the evaluator's planner through the public chainmodel.Family
// methods, with a span around every call into a layer.
type gridBench struct {
	plan   ta.SweepPlan
	solver string
	warm   bool
	// pins names the testdata file holding the pinned results; "" skips
	// the check (test workloads).
	pins string
	// stageCheck re-runs EvaluateSweep under an obs.Trace in the traced
	// pass and requires its build and solve stages to agree with the
	// replay's own spans.
	stageCheck bool
}

// absorptionTol bounds |Σ absorption − 1| per cell. The colossal cell's
// ILU solve leaves 1.2e-9, the sweep40 cells at most 2.3e-10.
const absorptionTol = 1e-8

// stageTolerance bounds the relative difference between the build share
// of build+solve time in the replay's spans and in the program's
// obs.Trace stages, the stages /metrics reports. The two come from two
// executions; the share cancels machine-wide slowdowns between them, and
// 15 trial runs on a shared 2-vCPU machine differed by at most 8%, while
// a stage boundary that moved (build absorbing the space pass, say)
// shifts the share by far more.
const stageTolerance = 0.20

// cellValues is one grid cell's output, in the paper's vocabulary.
type cellValues struct {
	States, Transient              int
	SafeTime, PollutedTime         float64
	SafeSojourns, PollutedSojourns []float64
	Absorption                     map[string]float64
	PollutionProbability           float64
}

func (g gridBench) options(pool *ta.Pool) ta.SweepOptions {
	return ta.SweepOptions{Pool: pool, BuildPool: pool, Solver: ta.SolverConfig{Kind: g.solver}, WarmStart: g.warm}
}

func (g gridBench) rep(ctx context.Context, c *repCtx) (childResult, error) {
	if c.tracer != nil {
		return g.traced(ctx, c)
	}
	pool := ta.NewPool(0)
	arr := &arrivals{}
	opts := g.options(pool)
	opts.OnCell = func(ta.SweepCell) { arr.mark() }
	c.ready()
	arr.start = time.Now()
	rs, err := ta.EvaluateSweep(ctx, g.plan, opts)
	wall := time.Since(arr.start)
	res := childResult{Attempted: 1, LatencyMS: arr.meanMS(), TailMS: ms(wall)}
	if err != nil {
		res.addError("EvaluateSweep: %v", err)
	} else {
		cells := sweepValues(rs)
		res.Digest = digestCells(cells)
		arr.check(len(cells), &res)
		g.check(cells, &res)
	}
	if len(res.Errors) > 0 {
		res.Failed = 1
	}
	return res, nil
}

func sweepValues(rs *ta.SweepResult) []cellValues {
	out := make([]cellValues, len(rs.Cells))
	for i, c := range rs.Cells {
		a := c.Analysis
		out[i] = cellValues{
			States: c.States, Transient: c.Transient,
			SafeTime: a.ExpectedSafeTime, PollutedTime: a.ExpectedPollutedTime,
			SafeSojourns: a.SafeSojourns, PollutedSojourns: a.PollutedSojourns,
			Absorption:           a.Absorption,
			PollutionProbability: a.PollutionProbability,
		}
	}
	return out
}

// gridPins is a testdata file of pinned grid results.
type gridPins struct {
	RelTol float64      `json:"rel_tol"`
	Cells  []pinnedCell `json:"cells"`
}

type pinnedCell struct {
	States       int     `json:"states"`
	Transient    int     `json:"transient"`
	SafeTime     float64 `json:"expected_safe_time"`
	PollutedTime float64 `json:"expected_polluted_time"`
}

// check requires every cell's absorption mass to sum to 1 and compares
// the cells against the pinned values.
func (g gridBench) check(cells []cellValues, res *childResult) {
	for i, c := range cells {
		var sum float64
		for _, p := range c.Absorption {
			sum += p
		}
		if math.Abs(sum-1) > absorptionTol {
			res.addError("cell %d: absorption sums to %.17g, want 1 within %g", i, sum, absorptionTol)
		}
	}
	if g.pins == "" {
		return
	}
	var pins gridPins
	if err := readTestdata(g.pins, &pins); err != nil {
		res.addError("%v", err)
		return
	}
	if len(pins.Cells) != len(cells) {
		res.addError("%d cells, %s pins %d", len(cells), g.pins, len(pins.Cells))
		return
	}
	for i, p := range pins.Cells {
		c := cells[i]
		if c.States != p.States || c.Transient != p.Transient {
			res.addError("cell %d: |Ω|=%d transient=%d, want %d and %d", i, c.States, c.Transient, p.States, p.Transient)
		}
		if relErr(c.SafeTime, p.SafeTime) > pins.RelTol || relErr(c.PollutedTime, p.PollutedTime) > pins.RelTol {
			res.addError("cell %d: E(T_S)=%.10g E(T_P)=%.10g, pinned %.10g and %.10g (relative tolerance %g)",
				i, c.SafeTime, c.PollutedTime, p.SafeTime, p.PollutedTime, pins.RelTol)
		}
	}
}

// traced replays EvaluateSweep's three planner passes and its lane
// evaluation through the family interface, recording a span per call.
// The replay runs lanes across the same pool width as the evaluator, so
// its wall time compares with the untraced repetitions'.
func (g gridBench) traced(ctx context.Context, c *repCtx) (childResult, error) {
	fam, ok := ta.LookupModelFamily("")
	if !ok {
		return childResult{}, fmt.Errorf("default model family not registered")
	}
	dist, err := fam.ParseDist(g.plan.Dist.Name())
	if err != nil {
		return childResult{}, err
	}
	sc := ta.SolverConfig{Kind: g.solver}
	pool := ta.NewPool(0)
	var cells []chainmodel.Cell
	for _, p := range g.plan.Cells() {
		cells = append(cells, p)
	}
	sojourns := max(1, g.plan.Sojourns)
	tr := c.tracer
	res := childResult{Attempted: 1}
	fail := func(err error) (childResult, error) {
		res.addError("traced pass: %v", err)
		res.Failed = 1
		return res, nil
	}

	c.ready()
	arr := &arrivals{start: time.Now()}
	root := tr.start("evaluate", nil)

	// Pass 1: one shared table set per group.
	sp := tr.start("space", root)
	groups := make(map[any][]chainmodel.Cell)
	var order []any
	for _, cell := range cells {
		k := fam.GroupKey(cell)
		if _, ok := groups[k]; !ok {
			order = append(order, k)
		}
		groups[k] = append(groups[k], cell)
	}
	shared := make(map[any]any, len(order))
	for _, k := range order {
		s, err := fam.NewShared(groups[k])
		if err != nil {
			return fail(err)
		}
		shared[k] = s
	}
	sp.end()

	// Pass 2: equivalence classes by signature; pass 3: warm-start lanes.
	pl := tr.start("plan", root)
	type class struct {
		leader  int
		members []int
	}
	classOf := make(map[any]int)
	var classes []class
	for i, cell := range cells {
		sig, err := fam.Signature(shared[fam.GroupKey(cell)], cell)
		if err != nil {
			return fail(err)
		}
		ci, ok := classOf[sig]
		if !ok {
			ci = len(classes)
			classOf[sig] = ci
			classes = append(classes, class{leader: i})
		}
		classes[ci].members = append(classes[ci].members, i)
	}
	var lanes [][]int
	for ci := range classes {
		if g.warm && ci > 0 && fam.LaneKey(cells[classes[ci-1].leader]) == fam.LaneKey(cells[classes[ci].leader]) {
			lanes[len(lanes)-1] = append(lanes[len(lanes)-1], ci)
			continue
		}
		lanes = append(lanes, []int{ci})
	}
	pl.end()

	type laneStat struct {
		dur              time.Duration
		iters, fallbacks int64
		states, nnz      int
		first            chainmodel.Instance // the lane's first chain, for the probe
	}
	out := make([]cellValues, len(cells))
	stats := make([]laneStat, len(lanes))
	err = pool.Run(ctx, len(lanes), func(li int) error {
		ls := tr.start("lane", root)
		laneStart := time.Now()
		st := &stats[li]
		var ws *chainmodel.WarmStart
		for _, ci := range lanes[li] {
			cell := cells[classes[ci].leader]
			b := tr.start("build", ls)
			inst, err := fam.Build(shared[fam.GroupKey(cell)], cell, sc, pool)
			b.end()
			if err != nil {
				return err
			}
			s := tr.start("solve", ls)
			a, rec, err := chainmodel.AnalyzeWarm(inst, dist, sojourns, ws)
			s.end()
			if err != nil {
				return err
			}
			if g.warm {
				ws = rec
			}
			if st.first == nil {
				st.first = inst
			}
			st.iters += a.Solver.Iterations
			st.fallbacks += a.Solver.Fallbacks
			st.states = max(st.states, inst.NumStates())
			st.nnz = max(st.nnz, inst.Matrix().NNZ())
			v := cellValues{
				States: inst.NumStates(), Transient: inst.NumTransient(),
				SafeTime: a.TimeInA, PollutedTime: a.TimeInB,
				SafeSojourns: a.SojournsA, PollutedSojourns: a.SojournsB,
				Absorption: a.Absorption, PollutionProbability: a.HitProbability,
			}
			for _, i := range classes[ci].members {
				out[i] = v
				arr.mark()
			}
		}
		st.dur = time.Since(laneStart)
		ls.end()
		return nil
	})
	root.end()
	wall := time.Since(arr.start)
	if err != nil {
		return fail(err)
	}
	res.LatencyMS, res.TailMS = arr.meanMS(), ms(wall)
	res.Digest = digestCells(out)
	arr.check(len(out), &res)
	g.check(out, &res)

	share := func(d time.Duration) float64 { return d.Seconds() / wall.Seconds() }
	var laneSum, laneMax time.Duration
	layers := map[string]float64{
		"core.space_share":       share(tr.total("space")),
		"core.build_share":       share(tr.total("build")),
		"sweep.plan_share":       share(tr.total("plan")),
		"chainmodel.solve_share": share(tr.total("solve")),
		"sweep.classes":          float64(len(classes)),
		"sweep.lanes":            float64(len(lanes)),
		"sweep.dedup_ratio":      float64(len(cells)) / float64(len(classes)),
		"trace.wall_ms":          ms(wall),
	}
	for _, st := range stats {
		laneSum += st.dur
		laneMax = max(laneMax, st.dur)
		layers["chainmodel.iterations"] += float64(st.iters)
		layers["chainmodel.fallbacks"] += float64(st.fallbacks)
		layers["core.states"] = max(layers["core.states"], float64(st.states))
		layers["core.nnz"] = max(layers["core.nnz"], float64(st.nnz))
	}
	layers["sweep.lane_balance"] = laneMax.Seconds() / (laneSum.Seconds() / float64(len(lanes)))
	layers["engine.busy_ratio"] = laneSum.Seconds() / (wall.Seconds() * float64(pool.Workers()))
	addRuntime(layers)
	res.Layers = layers

	// Work after the timed window: the matrix probe and the stage
	// cross-check.
	factor, solve, iters, err := probeMatrix(stats[0].first, sc)
	if err != nil {
		return fail(fmt.Errorf("matrix probe: %w", err))
	}
	layers["matrix.factor_share"] = share(factor)
	layers["matrix.solve_share"] = share(solve)
	layers["matrix.iterations"] = float64(iters)
	if g.stageCheck {
		otr := obs.NewTrace("")
		rs, err := ta.EvaluateSweep(obs.ContextWithTrace(ctx, otr), g.plan, g.options(pool))
		if err != nil {
			return fail(fmt.Errorf("stage cross-check: %w", err))
		}
		if d := digestCells(sweepValues(rs)); d != res.Digest {
			res.addError("traced replay differs from EvaluateSweep (digest %s, want %s)", res.Digest, d)
		}
		stages := otr.Stages()
		for _, stage := range []string{"build", "solve"} {
			if mine, theirs := tr.count(stage), stages[stage].Count; mine != theirs {
				res.addError("stage %s: %d spans, obs.Trace counts %d", stage, mine, theirs)
			}
		}
		build, solve := tr.total("build"), tr.total("solve")
		mine := build.Seconds() / (build + solve).Seconds()
		build, solve = stages["build"].Duration, stages["solve"].Duration
		theirs := build.Seconds() / (build + solve).Seconds()
		if relErr(mine, theirs) > stageTolerance {
			res.addError("build is %.1f%% of build+solve in the spans, %.1f%% in obs.Trace", 100*mine, 100*theirs)
		}
	}
	if len(res.Errors) > 0 {
		res.Failed = 1
	}
	return res, nil
}

// probeMatrix factors I − T for the full transient block T of inst with
// the solver configuration, then solves it once from the left against
// the δ start vector: one factorization and one left solve, the unit of
// work the chain's relations repeat.
func probeMatrix(inst chainmodel.Instance, sc ta.SolverConfig) (factor, solve time.Duration, iters int64, err error) {
	pi, ok := inst.(core.Instance)
	if !ok {
		return 0, 0, 0, fmt.Errorf("instance %T is not a paper-model chain", inst)
	}
	var idx []int
	for i := 0; i < inst.NumStates(); i++ {
		if inst.TransientState(i) {
			idx = append(idx, i)
		}
	}
	t, err := inst.Matrix().SubCSR(idx, idx)
	if err != nil {
		return 0, 0, 0, err
	}
	alpha := pi.M.InitialDelta()
	b := make([]float64, len(idx))
	for k, i := range idx {
		b[k] = alpha[i]
	}
	solver, err := sc.Build()
	if err != nil {
		return 0, 0, 0, err
	}
	start := time.Now()
	f, err := solver.Factor(t)
	factor = time.Since(start)
	if err != nil {
		return 0, 0, 0, err
	}
	start = time.Now()
	if _, err := f.SolveVecLeft(b); err != nil {
		return 0, 0, 0, err
	}
	return factor, time.Since(start), f.Stats().Iterations, nil
}

// digestCells fingerprints the exact bits of every cell's output.
func digestCells(cells []cellValues) string {
	h := sha256.New()
	for _, c := range cells {
		writeInts(h, int64(c.States), int64(c.Transient))
		writeFloats(h, c.SafeTime, c.PollutedTime, c.PollutionProbability)
		writeFloats(h, c.SafeSojourns...)
		writeFloats(h, c.PollutedSojourns...)
		keys := make([]string, 0, len(c.Absorption))
		for k := range c.Absorption {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			h.Write([]byte(k))
			writeFloats(h, c.Absorption[k])
		}
	}
	return hex.EncodeToString(h.Sum(nil)[:16])
}

func writeInts(h hash.Hash, vs ...int64) {
	for _, v := range vs {
		_ = binary.Write(h, binary.LittleEndian, v) // hash writes never fail
	}
}

func writeFloats(h hash.Hash, vs ...float64) {
	for _, v := range vs {
		writeInts(h, int64(math.Float64bits(v)))
	}
}

func relErr(got, want float64) float64 {
	if got == want {
		return 0
	}
	return math.Abs(got-want) / math.Max(math.Abs(want), math.SmallestNonzeroFloat64)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// readTestdata decodes one embedded testdata file.
func readTestdata(name string, v any) error {
	data, err := testdata.ReadFile("testdata/" + name)
	if err != nil {
		return fmt.Errorf("reading pinned results: %w", err)
	}
	if err := json.Unmarshal(data, v); err != nil {
		return fmt.Errorf("decoding testdata/%s: %w", name, err)
	}
	return nil
}
