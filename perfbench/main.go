// Command perfbench is the repository's benchmark. It drives the program
// only through its public entry points — the api.go facade, the
// chainmodel.Family interface, overlaynet.New/Run and the attackd HTTP
// handler over loopback — checks every output, and reports end-to-end
// metrics (-trace 0) or per-layer metrics from a traced pass (-trace 1).
//
// Run it from the repository root through the wrapper that builds it:
//
//	bash perfbench/run.sh [-workload all|NAME] [-seed N] [-seconds S] [-trace 0|1]
//	                      [-json runs.jsonl] [-spans spans.json]
//	bash perfbench/run.sh -compare base.jsonl head.jsonl
//
// It prints one "<workload> <metric> <value> <unit>" line per metric and
// ends with one JSON line {"correct", "attempted", "failed", "metrics"}.
// The exit status is non-zero when any output check failed. See
// README.md for the workloads, the metrics and how to compare commits.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
)

func main() {
	if os.Getenv(childEnv) != "" {
		os.Exit(childMain(os.Args[1:], os.Stdout))
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	os.Exit(run(ctx, os.Args[1:], os.Stdout, os.Stderr))
}

func newFlagSet(name string, out io.Writer) *flag.FlagSet {
	fs := flag.NewFlagSet(name, flag.ContinueOnError)
	fs.SetOutput(out)
	return fs
}

func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := newFlagSet("perfbench", stderr)
	var (
		name    = fs.String("workload", "all", "workload to run: all, or one of "+listNames())
		seed    = fs.Int64("seed", 1, "seed the stochastic workloads draw their inputs from")
		seconds = fs.Int("seconds", 30, "seconds each workload measures for")
		trace   = fs.Int("trace", 0, "0 prints end-to-end metrics; 1 runs the traced pass and prints per-layer metrics")
		jsonOut = fs.String("json", "", "append one JSON record per workload run to this file, for -compare")
		spans   = fs.String("spans", "", "with -trace 1, write the recorded spans to this file (default <build dir>/spans.json)")
		compare = fs.Bool("compare", false, "compare two -json files given as arguments: BASE HEAD, with the bounds of ./BENCHMARK.json")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "perfbench: -compare needs two files: BASE HEAD")
			return 2
		}
		return compareFiles("BENCHMARK.json", fs.Arg(0), fs.Arg(1), stdout, stderr)
	}
	if fs.NArg() != 0 {
		fmt.Fprintf(stderr, "perfbench: unexpected arguments %q\n", fs.Args())
		return 2
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintf(stderr, "perfbench: -trace must be 0 or 1, got %d\n", *trace)
		return 2
	}
	if *seconds < 1 {
		fmt.Fprintf(stderr, "perfbench: -seconds must be at least 1, got %d\n", *seconds)
		return 2
	}
	selected := workloads
	if *name != "all" {
		w := lookup(*name)
		if w == nil {
			fmt.Fprintf(stderr, "perfbench: unknown workload %q (want all or one of %s)\n", *name, listNames())
			return 2
		}
		selected = []*workload{w}
	}

	var runs []workloadRun
	total := summary{Correct: true, Metrics: make(map[string]metricValue)}
	for _, w := range selected {
		r := runWorkload(ctx, w, *seed, *seconds, *trace == 1, stderr)
		printLines(stdout, w.name, r.Metrics)
		runs = append(runs, r)
		total.Correct = total.Correct && r.Correct
		total.Attempted += r.Attempted
		total.Failed += r.Failed
		for k, v := range r.Metrics {
			total.Metrics[w.name+"."+k] = v
		}
		if *jsonOut != "" {
			if err := appendRecord(*jsonOut, record{Workload: w.name, Seed: *seed, Trace: *trace, summary: r.summary}); err != nil {
				fmt.Fprintf(stderr, "perfbench: %v\n", err)
				total.Correct = false
			}
		}
	}
	if *trace == 1 {
		path := *spans
		if path == "" {
			path = filepath.Join(buildDir(), "spans.json")
		}
		if err := writeSpans(path, selected, runs); err != nil {
			fmt.Fprintf(stderr, "perfbench: %v\n", err)
			total.Correct = false
		}
	}
	// With one workload the result line carries its metrics under their
	// declared names; a run of all workloads prefixes them.
	last := total
	if len(runs) == 1 {
		last = runs[0].summary
		last.Correct = total.Correct
	}
	line, err := json.Marshal(last)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: encoding result: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !last.Correct {
		return 1
	}
	return 0
}

// buildDir is where run.sh keeps build outputs.
func buildDir() string {
	if d := os.Getenv("CARGO_TARGET_DIR"); d != "" {
		return d
	}
	return ".bench_build"
}

func appendRecord(path string, r record) error {
	line, err := json.Marshal(r)
	if err != nil {
		return fmt.Errorf("encoding record: %w", err)
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return fmt.Errorf("writing %s: %w", path, err)
	}
	return f.Close()
}

// writeSpans writes every traced repetition's spans, with self times.
func writeSpans(path string, ws []*workload, runs []workloadRun) error {
	type workloadSpans struct {
		Workload string         `json:"workload"`
		TraceID  string         `json:"trace_id"`
		Reps     [][]spanRecord `json:"reps"`
	}
	out := make([]workloadSpans, len(runs))
	for i, r := range runs {
		out[i] = workloadSpans{Workload: ws[i].name, TraceID: r.traceID, Reps: r.spans}
	}
	data, err := json.Marshal(out)
	if err != nil {
		return fmt.Errorf("encoding spans: %w", err)
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
