package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"strconv"
	"sync/atomic"
	"time"

	ta "targetedattacks"
	"targetedattacks/internal/engine"
	"targetedattacks/internal/overlaynet"
	"targetedattacks/internal/stats"
)

// swarmBench runs a simulation grid of whole overlay systems with
// EvaluateSimSweep. Its traced pass replays every replica through
// overlaynet.New and Network.Run with the evaluator's per-replica seeds.
type swarmBench struct {
	// plan's Seed is replaced by the run's seed.
	plan ta.SimPlan
	// pins names the testdata file of pinned digests by seed; "" skips
	// the check.
	pins string
}

// simValues is one simulation cell's output: the deterministic fields
// of its replica summary.
type simValues struct {
	events                                int64
	finalPeers, pollutedFraction          float64
	splits, merges, joins, leaves         int64
	discarded, refused, voluntary, expiry int64
}

// swarmPins is the testdata file of pinned swarm results.
type swarmPins struct {
	// Digests maps a seed to the digest of its summaries.
	Digests map[string]string `json:"digests"`
}

func (s swarmBench) rep(ctx context.Context, c *repCtx) (childResult, error) {
	plan := s.plan
	plan.Seed = c.seed
	if c.tracer != nil {
		return s.traced(ctx, c, plan)
	}
	pool := ta.NewPool(0)
	arr := &arrivals{}
	c.ready()
	arr.start = time.Now()
	rs, err := ta.EvaluateSimSweep(ctx, plan, ta.SimOptions{Pool: pool, OnCell: func(ta.SimCell) { arr.mark() }})
	wall := time.Since(arr.start)
	res := childResult{Attempted: 1, LatencyMS: arr.meanMS(), TailMS: ms(wall)}
	if err != nil {
		res.addError("EvaluateSimSweep: %v", err)
	} else {
		arr.check(len(rs.Cells), &res)
		cells := make([]simValues, len(rs.Cells))
		for i, cell := range rs.Cells {
			sum := cell.Summary
			cells[i] = simValues{
				events: sum.Events, finalPeers: sum.FinalPeers.Mean(), pollutedFraction: sum.PollutedFraction.Mean(),
				splits: sum.Splits, merges: sum.Merges, joins: sum.Joins, leaves: sum.Leaves,
				discarded: sum.DiscardedJoins, refused: sum.RefusedLeaves, voluntary: sum.VoluntaryLeaves,
				expiry: sum.ExpiryLeaves,
			}
		}
		res.Digest = s.check(plan, cells, &res)
	}
	if len(res.Errors) > 0 {
		res.Failed = 1
	}
	return res, nil
}

// check requires every planned event to have run and the summaries to
// match the digest pinned for the seed, and returns the digest.
func (s swarmBench) check(plan ta.SimPlan, cells []simValues, res *childResult) string {
	var events int64
	for _, c := range cells {
		events += c.events
	}
	if want := int64(plan.Size()) * int64(plan.Replicas) * int64(plan.Events); events != want {
		res.addError("%d events processed, want %d", events, want)
	}
	d := digestSims(cells)
	if s.pins == "" {
		return d
	}
	var pins swarmPins
	if err := readTestdata(s.pins, &pins); err != nil {
		res.addError("%v", err)
		return d
	}
	if want, ok := pins.Digests[strconv.FormatInt(plan.Seed, 10)]; ok && want != d {
		res.addError("seed %d: summary digest %s, pinned %s", plan.Seed, d, want)
	}
	return d
}

// traced replays EvaluateSimSweep: every replica task builds its overlay
// with overlaynet.New and runs it with Network.Run on the stream the
// evaluator derives from (seed, task), across the same pool width, and
// each cell reduces its replicas in replica order.
func (s swarmBench) traced(ctx context.Context, c *repCtx, plan ta.SimPlan) (childResult, error) {
	res := childResult{Attempted: 1}
	if err := plan.Validate(); err != nil {
		return res, err
	}
	pool := ta.NewPool(0)
	cells := plan.Cells()
	type outcome struct {
		metrics overlaynet.Metrics
		snap    overlaynet.Snapshot
		peers   int
		dur     time.Duration
	}
	outs := make([]outcome, len(cells)*plan.Replicas)
	landed := make([]atomic.Int64, len(cells)) // replicas done per cell
	tr := c.tracer

	c.ready()
	arr := &arrivals{start: time.Now()}
	root := tr.start("evaluate", nil)
	err := pool.Run(ctx, len(outs), func(task int) error {
		cell := cells[task/plan.Replicas]
		p := plan.Params
		p.Mu, p.D = cell.Mu, cell.D
		bits := cell.LabelBits
		if bits == 0 {
			bits = -1 // a single root cluster; 0 would select the default
		}
		cfg := overlaynet.Config{
			Params:               p,
			IDBits:               64,
			InitialLabelBits:     bits,
			Mode:                 plan.Mode,
			FastIdentity:         plan.FastIdentity,
			Strategy:             cell.Strategy,
			StationaryPopulation: plan.Stationary,
			TrackAbsorption:      plan.TrackAbsorption,
			StopOnAbsorption:     plan.StopOnAbsorption,
			Seed:                 engine.Stream(uint64(plan.Seed), uint64(task)).Int64(),
		}
		taskStart := time.Now()
		sim := tr.start("simulate", root)
		defer sim.end()
		b := tr.start("bootstrap", sim)
		n, err := overlaynet.New(cfg)
		b.end()
		if err != nil {
			return err
		}
		peers := n.Population()
		r := tr.start("run", sim)
		err = n.Run(plan.Events)
		r.end()
		if err != nil {
			return err
		}
		outs[task] = outcome{metrics: n.Metrics(), snap: n.Snapshot(), peers: peers, dur: time.Since(taskStart)}
		if landed[task/plan.Replicas].Add(1) == int64(plan.Replicas) {
			arr.mark() // the cell's last replica: the evaluator delivers it now
		}
		return nil
	})
	root.end()
	wall := time.Since(arr.start)
	if err != nil {
		res.addError("traced pass: %v", err)
		res.Failed = 1
		return res, nil
	}
	res.LatencyMS, res.TailMS = arr.meanMS(), ms(wall)
	arr.check(len(cells), &res)

	values := make([]simValues, len(cells))
	var taskSum time.Duration
	layers := map[string]float64{"trace.wall_ms": ms(wall)}
	for ci := range cells {
		var finalPeers, polluted stats.Running
		v := &values[ci]
		for _, o := range outs[ci*plan.Replicas : (ci+1)*plan.Replicas] {
			m := o.metrics
			v.events += m.Events
			finalPeers.Observe(float64(o.snap.Peers))
			polluted.Observe(o.snap.PollutedFraction)
			v.splits += m.Splits
			v.merges += m.Merges
			v.joins += m.Joins
			v.leaves += m.Leaves
			v.discarded += m.DiscardedJoins
			v.refused += m.RefusedLeaves
			v.voluntary += m.VoluntaryLeaves
			v.expiry += m.ExpiryLeaves
			taskSum += o.dur
			layers["overlaynet.peers"] += float64(o.peers)
		}
		v.finalPeers, v.pollutedFraction = finalPeers.Mean(), polluted.Mean()
		layers["overlaynet.events"] += float64(v.events)
		layers["overlaynet.splits"] += float64(v.splits)
		layers["overlaynet.merges"] += float64(v.merges)
	}
	layers["overlaynet.bootstrap_share"] = tr.total("bootstrap").Seconds() / wall.Seconds()
	layers["overlaynet.simulate_share"] = tr.total("simulate").Seconds() / wall.Seconds()
	layers["engine.busy_ratio"] = taskSum.Seconds() / (wall.Seconds() * float64(pool.Workers()))
	addRuntime(layers)
	res.Layers = layers
	res.Digest = s.check(plan, values, &res)
	if len(res.Errors) > 0 {
		res.Failed = 1
	}
	return res, nil
}

// digestSims fingerprints the exact bits of every cell's summary.
func digestSims(cells []simValues) string {
	h := sha256.New()
	for _, c := range cells {
		writeInts(h, c.events, c.splits, c.merges, c.joins, c.leaves, c.discarded, c.refused, c.voluntary, c.expiry)
		writeFloats(h, c.finalPeers, c.pollutedFraction)
	}
	return hex.EncodeToString(h.Sum(nil)[:16])
}
