package main

import (
	"fmt"
	"io"
	"sort"
	"strconv"
)

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics a user of the system sees; -trace 0 prints
// them for every workload. BENCHMARK.json declares the same names with
// the bound by which each may worsen.
var endToEnd = []metricDef{
	// latency_ms is the typical time to one result: for a serve workload
	// the p50 of its HTTP requests, timed from when each was due; for a
	// batch workload the mean time from the start of the timed call to a
	// cell's result, as a caller streaming the cells waits for them.
	{"latency_ms", "ms"},
	// tail_ms is the time to the last result: the p99 of a serve
	// workload's requests (a phase holds at least ten requests beyond it),
	// or the whole timed call of a batch workload.
	{"tail_ms", "ms"},
	// peak_rss_mb is the peak resident set of the process that did the
	// work (median over repetitions).
	{"peak_rss_mb", "MiB"},
	// setup_s runs from the exec of a fresh process to its readiness: the
	// moment just before the timed call (batch) or the first 200 on
	// /healthz (serve); median over every process of the run.
	{"setup_s", "s"},
}

// perLayer are the per-layer metrics; -trace 1 prints them for every
// workload. Every workload reports every metric: a layer the workload
// does not reach reads 0. Layer times are given as shares of the traced
// pass's wall time (trace.wall_ms), so a layer idle on a workload reads
// 0 rather than a time; a share above 1 means the layer kept more than
// one core busy.
var perLayer = []metricDef{
	{"core.space_share", "ratio"},
	{"core.build_share", "ratio"},
	{"core.states", "count"},
	{"core.nnz", "count"},
	{"sweep.plan_share", "ratio"},
	{"sweep.classes", "count"},
	{"sweep.dedup_ratio", "ratio"},
	{"sweep.lanes", "count"},
	{"sweep.lane_balance", "ratio"},
	{"chainmodel.solve_share", "ratio"},
	{"chainmodel.iterations", "count"},
	{"chainmodel.fallbacks", "count"},
	{"matrix.factor_share", "ratio"},
	{"matrix.solve_share", "ratio"},
	{"matrix.iterations", "count"},
	{"engine.busy_ratio", "ratio"},
	{"overlaynet.bootstrap_share", "ratio"},
	{"overlaynet.simulate_share", "ratio"},
	{"overlaynet.events", "count"},
	{"overlaynet.peers", "count"},
	{"overlaynet.splits", "count"},
	{"overlaynet.merges", "count"},
	{"attackd.cache_hit_ratio", "ratio"},
	{"attackd.singleflight_shared", "count"},
	{"attackd.evaluations", "count"},
	{"attackd.server_p50_share", "ratio"},
	{"attackd.server_p99_share", "ratio"},
	{"attackd.parse_share", "ratio"},
	{"attackd.cache_share", "ratio"},
	{"attackd.encode_share", "ratio"},
	{"serve.conn_wait_share", "ratio"},
	{"go.alloc_mb", "MiB"},
	{"go.gc_cycles", "count"},
	{"go.gc_pause_ms", "ms"},
	{"trace.overhead_ratio", "ratio"},
	{"trace.wall_ms", "ms"},
}

// metricValue is one reported value with its unit.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// summary is the result line: the last line the benchmark prints.
type summary struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// record is one workload run as appended to a -json file, the input of
// -compare.
type record struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Trace    int    `json:"trace"`
	summary
}

// printLines writes one "<workload> <metric> <value> <unit>" line per
// metric, in name order.
func printLines(w io.Writer, workload string, ms map[string]metricValue) {
	names := make([]string, 0, len(ms))
	for n := range ms {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "%s %s %s %s\n", workload, n, strconv.FormatFloat(ms[n].Value, 'g', -1, 64), ms[n].Unit)
	}
}
