package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"time"

	ta "targetedattacks"
	"targetedattacks/internal/adversary"
	"targetedattacks/internal/attackd"
	"targetedattacks/internal/overlaynet"
)

// tinyWorkloads exercise every runner in milliseconds per repetition.
var tinyWorkloads = []*workload{
	{name: "tiny-grid", runner: gridBench{
		plan:   paperPlan([]int{5}, []int{1, 2}, []float64{0.5, 0.8}, []float64{0.1, 0.5}),
		solver: "bicgstab",
		warm:   true,
	}},
	{name: "tiny-swarm", runner: swarmBench{plan: ta.SimPlan{
		Strategies:   []adversary.Strategy{adversary.StrategyPaper},
		Mu:           []float64{0.2},
		D:            []float64{0.9},
		Sizes:        []int{2000},
		Params:       ta.Params{C: 7, Delta: 7, K: 1, Nu: 0.1},
		Events:       2000,
		Replicas:     2,
		Mode:         overlaynet.ModelFidelity,
		Stationary:   true,
		FastIdentity: true,
	}}},
	{name: "tiny-serve", runner: serveBench{rate: 200}},
}

func init() { workloads = append(workloads, tinyWorkloads...) }

func TestRequestSequenceDependsOnlyOnSeed(t *testing.T) {
	a, b, c := requests(1, 3000), requests(1, 3000), requests(2, 3000)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("seed 1 generated two different request sequences")
	}
	if reflect.DeepEqual(a, c) {
		t.Fatal("seeds 1 and 2 generated the same request sequence")
	}
}

func TestRepeatShareAndWindow(t *testing.T) {
	if repeatWindow >= attackd.DefaultCacheSize {
		t.Fatalf("repeat window %d does not fit attackd's %d-entry cache", repeatWindow, attackd.DefaultCacheSize)
	}
	reqs := requests(7, 20000)
	var fresh []string
	repeats := 0
	for i, q := range reqs {
		if q.fresh {
			fresh = append(fresh, q.body)
			continue
		}
		repeats++
		recent := fresh[max(0, len(fresh)-repeatWindow):]
		found := false
		for _, b := range recent {
			found = found || b == q.body
		}
		if !found {
			t.Fatalf("request %d repeats a body outside the last %d distinct ones", i, repeatWindow)
		}
	}
	if share := float64(repeats) / float64(len(reqs)); share < 0.48 || share > 0.52 {
		t.Fatalf("repeat share %.3f, want 0.50 ± 0.02", share)
	}
	distinct := make(map[string]bool)
	for _, b := range fresh {
		distinct[b] = true
	}
	if len(distinct) != len(fresh) {
		t.Fatalf("%d fresh bodies but only %d distinct", len(fresh), len(distinct))
	}
}

// TestServePhasesBackTheirTail checks that every phase of an untraced
// serve run at the declared run length has at least ten requests beyond
// its tail percentile, so tail_ms is a percentile and not an outlier.
func TestServePhasesBackTheirTail(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		RunSeconds float64 `json:"run_seconds"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	for _, w := range workloads {
		s, ok := w.runner.(serveBench)
		if !ok || strings.HasPrefix(w.name, "tiny-") {
			continue
		}
		n := int(s.rate * spec.RunSeconds / minReps)
		lat := make([]float64, n)
		if _, ok := percentile(lat, tailQ); !ok {
			t.Errorf("%s: a %d-request phase backs no p%g with %d beyond it", w.name, n, 100*tailQ, minBeyond)
		}
	}
}

func TestPercentileNeedsTenBeyond(t *testing.T) {
	vs := func(n int) []float64 {
		out := make([]float64, n)
		for i := range out {
			out[i] = float64(i + 1)
		}
		return out
	}
	for _, tc := range []struct {
		n    int
		q    float64
		want float64
		ok   bool
	}{
		{1000, 0.99, 990, true},
		{999, 0.99, 990, false},
		{100, 0.9, 90, true},
		{99, 0.9, 90, false},
		{5, 0.5, 3, false},
	} {
		got, ok := percentile(vs(tc.n), tc.q)
		if got != tc.want || ok != tc.ok {
			t.Errorf("percentile(1..%d, %g) = %g, %v; want %g, %v", tc.n, tc.q, got, ok, tc.want, tc.ok)
		}
	}
	// Quartiles follow Python's statistics.quantiles(n=4).
	if q1, q3 := quartiles(vs(10)); q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %g, %g; want 2.75, 8.25", q1, q3)
	}
	if q1, q3 := quartiles([]float64{3, 1}); q1 != 0.5 || q3 != 3.5 {
		t.Errorf("quartiles(1, 3) = %g, %g; want 0.5, 3.5", q1, q3)
	}
}

func TestSelfTimeSubtractsMergedChildren(t *testing.T) {
	if got := covered([][2]float64{{3, 6}, {1, 4}, {8, 12}}, 0, 10); got != 7 {
		t.Fatalf("covered = %g, want 7 (1..6 and 8..10)", got)
	}
}

// declared reads the metric names and units BENCHMARK.json declares.
func declared(t *testing.T) (endToEnd, perLayer map[string]string) {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	endToEnd, perLayer = make(map[string]string), make(map[string]string)
	for _, m := range spec.EndToEnd {
		endToEnd[m.Name] = m.Unit
	}
	for _, m := range spec.PerLayer {
		perLayer[m.Name] = m.Unit
	}
	return endToEnd, perLayer
}

func TestTinyRunsEmitExactlyTheDeclaredMetrics(t *testing.T) {
	endToEnd, perLayer := declared(t)
	for _, w := range tinyWorkloads {
		for trace, want := range []map[string]string{endToEnd, perLayer} {
			t.Run(w.name+"/trace="+strconv.Itoa(trace), func(t *testing.T) {
				t.Parallel()
				var stdout, stderr bytes.Buffer
				args := []string{"-workload", w.name, "-seconds", "1", "-trace", strconv.Itoa(trace),
					"-spans", filepath.Join(t.TempDir(), "spans.json")}
				ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
				defer cancel()
				if code := run(ctx, args, &stdout, &stderr); code != 0 {
					t.Fatalf("exit %d\n%s", code, stderr.String())
				}
				lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
				var last summary
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
					t.Fatal(err)
				}
				if !last.Correct || last.Failed != 0 || last.Attempted < 1 {
					t.Fatalf("result %+v\n%s", last, stderr.String())
				}
				got := make(map[string]string)
				for name, v := range last.Metrics {
					got[name] = v.Unit
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("metrics %v\nwant %v", got, want)
				}
				if len(lines)-1 != len(want) {
					t.Fatalf("%d metric lines, want %d", len(lines)-1, len(want))
				}
				for _, l := range lines[:len(lines)-1] {
					f := strings.Fields(l)
					if len(f) != 4 || f[0] != w.name || want[f[1]] != f[3] {
						t.Fatalf("line %q is not %q <metric> <value> <unit>", l, w.name)
					}
				}
			})
		}
	}
}

func TestCompareVerdicts(t *testing.T) {
	base := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	shift := func(d float64) []float64 {
		out := make([]float64, len(base))
		for i, v := range base {
			out[i] = v + d
		}
		return out
	}
	noisy := []float64{60, 140, 80, 120, 100, 70, 130, 90, 110, 100}
	for _, tc := range []struct {
		name   string
		head   []float64
		better string
		want   string
		bound  float64
	}{
		{name: "faster", head: shift(-10), better: "lower", want: improved, bound: 0.1},
		{name: "slower", head: shift(20), better: "lower", want: regressed, bound: 0.1},
		{name: "within bound", head: shift(5), better: "lower", want: unchanged, bound: 0.1},
		{name: "noisy", head: noisy, better: "lower", want: unresolved, bound: 0.1},
		{name: "higher is better", head: shift(-10), better: "higher", want: regressed, bound: 0.05},
		{name: "too few pairs", head: shift(-10)[:5], better: "lower", want: unchanged, bound: 0.1},
	} {
		if got, _, _ := judge(base, tc.head, tc.better, tc.bound); got != tc.want {
			t.Errorf("%s: %s, want %s", tc.name, got, tc.want)
		}
	}
}

// TestCompareInvalidatesFailedRuns checks that a head that runs faster
// but fails operations is judged invalid, not improved, and fails the
// comparison.
func TestCompareInvalidatesFailedRuns(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, latency float64, failedRun int) string {
		path := filepath.Join(dir, name)
		for i := range 10 {
			r := record{Workload: "w", Seed: int64(i + 1), summary: summary{Correct: true, Attempted: 1,
				Metrics: map[string]metricValue{"latency_ms": {latency + float64(i%3), "ms"}}}}
			if i == failedRun {
				r.Correct, r.Failed = false, 1
			}
			if err := appendRecord(path, r); err != nil {
				t.Fatal(err)
			}
		}
		return path
	}
	base := write("base.jsonl", 100, -1)
	for _, tc := range []struct {
		name      string
		failedRun int
		verdict   string
		code      int
	}{
		{"all correct", -1, improved, 0},
		{"one head run failed", 4, invalid, 1},
	} {
		head := write(tc.name+".jsonl", 50, tc.failedRun)
		var stdout, stderr bytes.Buffer
		code := compareFiles("../BENCHMARK.json", base, head, &stdout, &stderr)
		fields := strings.Fields(strings.Split(stdout.String(), "\n")[0])
		if code != tc.code || len(fields) < 3 || fields[1] != "latency_ms" || fields[2] != tc.verdict {
			t.Errorf("%s: exit %d, output\n%s\nwant latency_ms %s and exit %d", tc.name, code, stdout.String(), tc.verdict, tc.code)
		}
	}
}
