package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// childEnv marks a process as a repetition child: the benchmark runs
// every repetition in a fresh copy of its own binary, so each one pays
// process set-up and has its own peak RSS.
const childEnv = "PERFBENCH_CHILD"

// Child modes.
const (
	modePlain  = "plain"  // one untraced repetition
	modeTraced = "traced" // one repetition through the traced pass
	modeProbe  = "probe"  // set-up only: exit once ready
)

// setupProbes is the number of set-up-only processes each run adds to
// its repetitions, so setup_s, a time of about a millisecond that a
// neighbour on a shared machine easily doubles, is a median of at least
// 35 samples. A probe costs a few milliseconds.
const setupProbes = 32

// childTimeout bounds the set-up and timed call of one child process; a
// serve phase adds its length and drainTime. A hung repetition is killed
// and counted as failed instead of stalling the run.
const childTimeout = 90 * time.Second

// minReps is the number of phases of a serve run and the fewest
// repetitions of a batch run.
const minReps = 3

// workload is one set of inputs the benchmark runs.
type workload struct {
	name string
	runner
}

// phased reports whether w is a serve workload: it splits the budget into
// minReps phases of equal length, where batch workloads repeat until the
// budget is spent.
func (w *workload) phased() bool {
	_, ok := w.runner.(serveBench)
	return ok
}

// runner performs one repetition inside a fresh child process.
type runner interface {
	rep(ctx context.Context, c *repCtx) (childResult, error)
}

// repCtx is what a repetition knows about its run.
type repCtx struct {
	seed    int64
	seconds float64 // length of a phased repetition
	tracer  *tracer // nil unless the repetition runs the traced pass
	ready   func()  // marks the end of set-up; exits a probe process
}

// childResult is what one repetition reports to the parent.
type childResult struct {
	// LatencyMS and TailMS are the repetition's operation latency: for a
	// batch workload the mean time to a cell's result and the time to the
	// whole result of the timed call, for a serve workload the median and
	// the tail percentile of its requests.
	LatencyMS float64 `json:"latency_ms"`
	TailMS    float64 `json:"tail_ms"`
	Attempted int     `json:"attempted"`
	Failed    int     `json:"failed"`
	// Errors describes the first failures, for the report.
	Errors []string `json:"errors,omitempty"`
	// Digest fingerprints the exact output bits; every repetition of a
	// run, traced or not, must produce the same digest.
	Digest string             `json:"digest,omitempty"`
	Layers map[string]float64 `json:"layers,omitempty"`
	Spans  []spanRecord       `json:"spans,omitempty"`
}

// maxErrors caps the failure descriptions one repetition carries.
const maxErrors = 5

func (r *childResult) addError(format string, args ...any) {
	if len(r.Errors) < maxErrors {
		r.Errors = append(r.Errors, fmt.Sprintf(format, args...))
	}
}

// addRuntime records the Go runtime's allocation and GC totals of the
// process so far.
func addRuntime(layers map[string]float64) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	layers["go.alloc_mb"] = float64(ms.TotalAlloc) / (1 << 20)
	layers["go.gc_cycles"] = float64(ms.NumGC)
	layers["go.gc_pause_ms"] = float64(ms.PauseTotalNs) / 1e6
}

// childMain runs one repetition: it prints "ready" when set-up is done,
// then the repetition's childResult as one JSON line.
func childMain(args []string, stdout io.Writer) int {
	var (
		name    string
		seed    int64
		seconds float64
		mode    string
		traceID string
	)
	fs := newFlagSet("perfbench child", os.Stderr)
	fs.StringVar(&name, "workload", "", "workload")
	fs.Int64Var(&seed, "seed", 1, "seed")
	fs.Float64Var(&seconds, "seconds", 1, "length of a phased repetition")
	fs.StringVar(&mode, "mode", modePlain, "plain, traced or probe")
	fs.StringVar(&traceID, "trace-id", "", "trace ID of the run")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w := lookup(name)
	if w == nil {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", name)
		return 2
	}
	c := &repCtx{
		seed:    seed,
		seconds: seconds,
		ready: func() {
			fmt.Fprintln(stdout, "ready")
			if mode == modeProbe {
				os.Exit(0)
			}
		},
	}
	if mode == modeTraced {
		c.tracer = newTracer(traceID)
	}
	res, err := w.rep(context.Background(), c)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", name, err)
		return 1
	}
	res.Spans = c.tracer.records()
	if err := json.NewEncoder(stdout).Encode(res); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: writing result: %v\n", err)
		return 1
	}
	return 0
}

// childRun is one finished child process as the parent saw it.
type childRun struct {
	ok     bool    // the child reported a result (probes: became ready)
	setup  float64 // seconds from exec to the ready line
	rssMiB float64
	res    childResult
}

// spawn runs one child process and waits for it to end; seconds is the
// length of a serve phase, 0 for any other child.
func spawn(ctx context.Context, w *workload, seed int64, seconds float64, mode, traceID string) childRun {
	fail := func(err error) childRun {
		r := childRun{res: childResult{Attempted: 1, Failed: 1}}
		if mode == modeProbe {
			r.res = childResult{Failed: 1} // a probe is no operation
		}
		r.res.addError("%s child: %v", mode, err)
		return r
	}
	exe, err := os.Executable()
	if err != nil {
		return fail(err)
	}
	timeout := childTimeout
	if seconds > 0 {
		timeout += time.Duration(seconds*float64(time.Second)) + drainTime
	}
	ctx, cancel := context.WithTimeout(ctx, timeout)
	defer cancel()
	cmd := exec.CommandContext(ctx, exe,
		"-workload", w.name,
		"-seed", strconv.FormatInt(seed, 10),
		"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64),
		"-mode", mode,
		"-trace-id", traceID)
	cmd.Env = append(os.Environ(), childEnv+"=1")
	cmd.Stderr = os.Stderr
	out, err := cmd.StdoutPipe()
	if err != nil {
		return fail(err)
	}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return fail(err)
	}
	br := bufio.NewReader(out)
	first, readErr := br.ReadString('\n')
	setup := time.Since(start).Seconds()
	rest, _ := io.ReadAll(br) // a short read shows up as a missing result below
	if err := cmd.Wait(); err != nil {
		return fail(err)
	}
	if readErr != nil || first != "ready\n" {
		return fail(fmt.Errorf("no ready line (got %q)", first))
	}
	r := childRun{ok: true, setup: setup}
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		r.rssMiB = float64(ru.Maxrss) / 1024 // Linux reports KiB
	}
	if mode == modeProbe {
		return r
	}
	if err := json.Unmarshal(rest, &r.res); err != nil {
		return fail(fmt.Errorf("decoding result: %w", err))
	}
	return r
}

// reps runs minReps phases of a serve workload, or repetitions of a
// batch workload: at least minReps, then more while another one as long
// as the last still ends within budget seconds, so a run does not
// overshoot its budget by up to a whole repetition.
func reps(ctx context.Context, w *workload, seed int64, budget float64, mode, traceID string) []childRun {
	phased := w.phased()
	length := 0.0
	if phased {
		length = budget / minReps
	}
	start := time.Now()
	var last time.Duration
	var runs []childRun
	for len(runs) < minReps || (!phased && (time.Since(start)+last).Seconds() <= budget) {
		if ctx.Err() != nil {
			break
		}
		t := time.Now()
		runs = append(runs, spawn(ctx, w, seed, length, mode, traceID))
		last = time.Since(t)
	}
	return runs
}

// arrivals records when each cell of a batch workload's timed call
// reached the caller, as attackd streams a sweep's cells.
type arrivals struct {
	start time.Time
	mu    sync.Mutex
	at    []time.Duration
}

// mark records one cell's arrival; it is safe for concurrent use.
func (a *arrivals) mark() {
	d := time.Since(a.start)
	a.mu.Lock()
	a.at = append(a.at, d)
	a.mu.Unlock()
}

// meanMS is the mean arrival time in milliseconds: the mean time a caller
// waits for a cell. Unlike the median cell, which can sit where one lane's
// cells end and another's begin, it moves smoothly with every lane.
func (a *arrivals) meanMS() float64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	if len(a.at) == 0 {
		return 0
	}
	var sum time.Duration
	for _, d := range a.at {
		sum += d
	}
	return ms(sum) / float64(len(a.at))
}

// check requires exactly one arrival per cell.
func (a *arrivals) check(cells int, res *childResult) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if len(a.at) != cells {
		res.addError("%d cells delivered, want %d", len(a.at), cells)
	}
}

// workloadRun is the outcome of one workload run.
type workloadRun struct {
	summary
	traceID string
	spans   [][]spanRecord // per traced repetition
}

// runWorkload measures one workload for budget seconds: untraced
// repetitions for the end-to-end metrics, or, with trace, half the
// budget untraced and half through the traced pass for the per-layer
// metrics and the tracing overhead.
func runWorkload(ctx context.Context, w *workload, seed int64, seconds int, trace bool, report io.Writer) workloadRun {
	traceID := newTraceID()
	budget := float64(seconds)
	if trace {
		budget /= 2
	}
	plain := reps(ctx, w, seed, budget, modePlain, traceID)
	var traced []childRun
	if trace {
		traced = reps(ctx, w, seed, budget, modeTraced, traceID)
	}
	var probes []childRun
	for i := 0; i < setupProbes && ctx.Err() == nil; i++ {
		probes = append(probes, spawn(ctx, w, seed, 0, modeProbe, traceID))
	}

	out := workloadRun{traceID: traceID}
	out.Metrics = make(map[string]metricValue)
	var setups, lat, tail, rss, tracedTail []float64
	digests := make(map[string]bool)
	for _, group := range [][]childRun{plain, traced, probes} {
		for _, r := range group {
			out.Attempted += r.res.Attempted
			out.Failed += r.res.Failed
			for _, e := range r.res.Errors {
				fmt.Fprintf(report, "%s: %s\n", w.name, e)
			}
			if !r.ok {
				continue
			}
			setups = append(setups, r.setup)
			if r.res.Digest != "" {
				digests[r.res.Digest] = true
			}
		}
	}
	if len(digests) > 1 {
		out.Failed++
		fmt.Fprintf(report, "%s: outputs differ between repetitions (%d distinct digests)\n", w.name, len(digests))
	}
	for _, r := range plain {
		if r.ok {
			lat = append(lat, r.res.LatencyMS)
			tail = append(tail, r.res.TailMS)
			rss = append(rss, r.rssMiB)
		}
	}
	for _, r := range traced {
		if r.ok {
			tracedTail = append(tracedTail, r.res.TailMS)
			out.spans = append(out.spans, r.res.Spans)
		}
	}
	if !trace {
		for _, m := range endToEnd {
			var v float64
			switch m.name {
			case "latency_ms":
				v = median(lat)
			case "tail_ms":
				v = median(tail)
			case "peak_rss_mb":
				v = median(rss)
			case "setup_s":
				v = median(setups)
			}
			out.Metrics[m.name] = metricValue{v, m.unit}
		}
	} else {
		for _, m := range perLayer {
			var vs []float64
			for _, r := range traced {
				if r.ok {
					vs = append(vs, r.res.Layers[m.name])
				}
			}
			v := median(vs)
			if m.name == "trace.overhead_ratio" && median(tail) > 0 {
				v = median(tracedTail) / median(tail)
			}
			out.Metrics[m.name] = metricValue{v, m.unit}
		}
	}
	out.Correct = out.Failed == 0 && out.Attempted > 0 && len(lat) > 0 && (!trace || len(tracedTail) > 0)
	return out
}

func lookup(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// listNames renders the registered workload names for messages.
func listNames() string {
	out := make([]string, len(workloads))
	for i, w := range workloads {
		out[i] = w.name
	}
	return strings.Join(out, ", ")
}
