package attackd

import (
	"bytes"
	"encoding/json"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

	"targetedattacks/internal/obs"
)

// This file tests the observability layer end to end over HTTP: trace
// propagation (W3C traceparent in and out, fresh IDs otherwise), the
// opt-in per-stage timing breakdown and its agreement with the
// /metrics latency histograms, the structured slow-request log, and a
// strict self-check of the whole Prometheus exposition.

var traceIDRe = regexp.MustCompile(`^[0-9a-f]{32}$`)

// syncBuffer makes a bytes.Buffer safe for the handler goroutines that
// write log lines while the test reads them.
type syncBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (sb *syncBuffer) Write(p []byte) (int, error) {
	sb.mu.Lock()
	defer sb.mu.Unlock()
	return sb.b.Write(p)
}

func (sb *syncBuffer) String() string {
	sb.mu.Lock()
	defer sb.mu.Unlock()
	return sb.b.String()
}

// postTraced posts a JSON body with an optional traceparent header and
// decodes the response, returning the response's traceparent header too.
func postTraced[T any](t *testing.T, url, traceparent string, body any) (T, string) {
	t.Helper()
	raw, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	if traceparent != "" {
		req.Header.Set("traceparent", traceparent)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out T
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatalf("decoding response: %v", err)
	}
	if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusAccepted {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	return out, resp.Header.Get("traceparent")
}

func TestTraceparentPropagates(t *testing.T) {
	var logs syncBuffer
	logger, err := obs.NewLogger(&logs, "json", slog.LevelDebug)
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(Config{Logger: logger})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	const traceID = "4bf92f3577b34da6a3ce929d0e0e4736"
	req := paperCell()
	req.Timings = true
	got, echoed := postTraced[AnalyzeResponse](t, ts.URL+"/v1/analyze", "00-"+traceID+"-00f067aa0ba902b7-01", req)
	if got.Timings == nil {
		t.Fatal("timings requested but absent from response")
	}
	if got.Timings.TraceID != traceID {
		t.Errorf("timings trace_id = %q, want the inbound %q", got.Timings.TraceID, traceID)
	}
	if !strings.HasPrefix(echoed, "00-"+traceID+"-") {
		t.Errorf("response traceparent %q does not carry the inbound trace ID", echoed)
	}
	if !strings.Contains(logs.String(), traceID) {
		t.Errorf("request log does not mention trace ID %s:\n%s", traceID, logs.String())
	}

	// A malformed traceparent must not be propagated; the server mints a
	// fresh ID instead.
	got, echoed = postTraced[AnalyzeResponse](t, ts.URL+"/v1/analyze", "00-DEADBEEF-bad-01", req)
	if got.Timings.TraceID == traceID || !traceIDRe.MatchString(got.Timings.TraceID) {
		t.Errorf("malformed traceparent produced trace_id %q", got.Timings.TraceID)
	}
	if !strings.Contains(echoed, got.Timings.TraceID) {
		t.Errorf("response traceparent %q does not match timings trace_id %q", echoed, got.Timings.TraceID)
	}
}

func TestFreshTraceIDsAreValidAndDistinct(t *testing.T) {
	ts := newTestServer(t, Config{})
	req := paperCell()
	req.Timings = true
	seen := make(map[string]bool)
	for i := 0; i < 4; i++ {
		got, echoed := postTraced[AnalyzeResponse](t, ts.URL+"/v1/analyze", "", req)
		id := got.Timings.TraceID
		if !traceIDRe.MatchString(id) {
			t.Fatalf("trace_id %q is not 32 lowercase hex digits", id)
		}
		if seen[id] {
			t.Fatalf("trace_id %q repeated across requests", id)
		}
		seen[id] = true
		parts := strings.Split(echoed, "-")
		if len(parts) != 4 || parts[0] != "00" || parts[1] != id {
			t.Errorf("response traceparent %q malformed or mismatched", echoed)
		}
	}
}

func TestJobInheritsTraceID(t *testing.T) {
	ts := newTestServer(t, Config{})
	const traceID = "4bf92f3577b34da6a3ce929d0e0e4736"
	body := map[string]any{
		"kind": "sweep",
		"c":    "7", "delta": "7", "k": "1",
		"mu": "0.2", "d": "0.9", "nu": "0.1",
		"timings": true,
	}
	sub, _ := postTraced[JobSubmitResponse](t, ts.URL+"/v1/jobs", "00-"+traceID+"-00f067aa0ba902b7-01", body)
	if sub.Status.TraceID != traceID {
		t.Fatalf("job trace_id = %q, want the submitting request's %q", sub.Status.TraceID, traceID)
	}
	// Poll to completion, then check the result carries timings recorded
	// under the job's own (child) trace.
	var status JobStatus
	for i := 0; i < 500; i++ {
		resp, err := http.Get(ts.URL + "/v1/jobs/" + sub.ID)
		if err != nil {
			t.Fatal(err)
		}
		err = json.NewDecoder(resp.Body).Decode(&status)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if status.State != JobRunning {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if status.State != JobDone {
		t.Fatalf("job state = %q, want done", status.State)
	}
	if status.TraceID != traceID {
		t.Errorf("finished job trace_id = %q, want %q", status.TraceID, traceID)
	}
	resp, err := http.Get(ts.URL + "/v1/jobs/" + sub.ID + "/result")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var result SweepResponse
	if err := json.NewDecoder(resp.Body).Decode(&result); err != nil {
		t.Fatal(err)
	}
	if result.Timings == nil {
		t.Fatal("job requested timings but the result has none")
	}
	if result.Timings.TraceID != traceID {
		t.Errorf("job result trace_id = %q, want %q", result.Timings.TraceID, traceID)
	}
	if result.Timings.StagesMS["solve"] <= 0 {
		t.Errorf("job timings lack a solve stage: %v", result.Timings.StagesMS)
	}
}

// TestTimingsSumMatchesHistogram is the acceptance check: for a
// single-worker sweep, the per-stage breakdown must account for the
// request's wall clock as measured independently by the request
// latency histogram on /metrics, to within 10%.
func TestTimingsSumMatchesHistogram(t *testing.T) {
	ts := newTestServer(t, Config{})
	req := SweepRequest{
		C: "20", Delta: "20", K: "1",
		// 50 compute-heavy cells, sequentially on one worker, so the
		// traced stages dominate the request and untraced gaps (goroutine
		// handoff, DTO assembly) stay well under the 10% band. At C=∆=20
		// the request takes ≈200 ms on one core, so the band is ≈20 ms:
		// wider than a scheduler time slice, so one preemption of the
		// test process inside an untraced gap cannot break it.
		Mu: "0.05:0.5:0.05", D: "0.5:0.9:0.1", Nu: "0.1",
		Workers: 1,
		Timings: true,
	}
	code, got := postJSON[SweepResponse](t, ts.URL+"/v1/sweep", req)
	if code != http.StatusOK {
		t.Fatalf("status = %d", code)
	}
	if got.Timings == nil {
		t.Fatal("timings requested but absent")
	}
	var stageSum float64
	for _, ms := range got.Timings.StagesMS {
		stageSum += ms
	}

	// The server observes the request histogram once the handler has
	// returned, which can be after the client has read the whole body:
	// re-scrape until the /v1/sweep series appears.
	scrape := func() map[string]*obs.MetricFamily {
		t.Helper()
		resp, err := http.Get(ts.URL + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		fams, err := obs.ParseProm(resp.Body)
		if err != nil {
			t.Fatalf("parsing /metrics: %v", err)
		}
		return fams
	}
	var fams map[string]*obs.MetricFamily
	var snap obs.HistogramSnapshot
	var err error
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(10 * time.Millisecond) {
		fams = scrape()
		snap, err = obs.ExtractHistogram(fams, "attackd_request_duration_seconds", map[string]string{"endpoint": "/v1/sweep"})
		if err == nil || time.Now().After(deadline) {
			break
		}
	}
	if err != nil {
		t.Fatal(err)
	}
	if n := snap.Counts[len(snap.Counts)-1]; n != 1 {
		t.Fatalf("request histogram observed %d /v1/sweep requests, want exactly 1", n)
	}
	totalMS := snap.Sum * 1000
	if diff := totalMS - stageSum; diff < 0 || diff > 0.10*totalMS {
		t.Errorf("stage sum %.2fms vs histogram request duration %.2fms: outside the 10%% band (stages: %v)",
			stageSum, totalMS, got.Timings.StagesMS)
	}
	// The stage histogram must have absorbed the same stages.
	for _, stage := range []string{"parse", "cache", "space", "plan", "build", "solve", "encode"} {
		if _, err := obs.ExtractHistogram(fams, "attackd_stage_duration_seconds", map[string]string{"stage": stage}); err != nil {
			t.Errorf("stage histogram missing %q: %v", stage, err)
		}
	}
}

func TestTimingsOmittedByDefaultAndCacheStaysClean(t *testing.T) {
	ts := newTestServer(t, Config{})
	req := SweepRequest{C: "7", Delta: "7", K: "1", Mu: "0.2", D: "0.9", Nu: "0.1"}

	code, plain := postJSON[SweepResponse](t, ts.URL+"/v1/sweep", req)
	if code != http.StatusOK || plain.Timings != nil {
		t.Fatalf("untimed request: status=%d timings=%v", code, plain.Timings)
	}
	// The same grid with timings opted in must hit the cache (the flag
	// stays out of the key) and still get a fresh breakdown.
	req.Timings = true
	code, timed := postJSON[SweepResponse](t, ts.URL+"/v1/sweep", req)
	if code != http.StatusOK || !timed.Cached {
		t.Fatalf("timed repeat: status=%d cached=%v, want a cache hit", code, timed.Cached)
	}
	if timed.Timings == nil || timed.Timings.TraceID == "" {
		t.Fatal("cached reply lost the requested timings")
	}
	if _, ok := timed.Timings.StagesMS["solve"]; ok {
		t.Errorf("cache-hit timings claim a solve stage: %v", timed.Timings.StagesMS)
	}
	// And a third untimed request must not inherit the second's timings
	// through the cache.
	req.Timings = false
	code, again := postJSON[SweepResponse](t, ts.URL+"/v1/sweep", req)
	if code != http.StatusOK || again.Timings != nil {
		t.Fatalf("third request: status=%d timings=%v, want cached reply without timings", code, again.Timings)
	}
}

func TestSlowRequestLogsSpanTree(t *testing.T) {
	var logs syncBuffer
	logger, err := obs.NewLogger(&logs, "json", slog.LevelInfo)
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(Config{Logger: logger, SlowRequest: 1}) // 1ns: everything is slow
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	if code, _ := postJSON[AnalyzeResponse](t, ts.URL+"/v1/analyze", paperCell()); code != http.StatusOK {
		t.Fatalf("status = %d", code)
	}
	var line struct {
		Level    string `json:"level"`
		Msg      string `json:"msg"`
		Endpoint string `json:"endpoint"`
		TraceID  string `json:"trace_id"`
		Spans    string `json:"spans"`
	}
	found := false
	for _, raw := range strings.Split(strings.TrimSpace(logs.String()), "\n") {
		if err := json.Unmarshal([]byte(raw), &line); err != nil {
			t.Fatalf("log line is not JSON: %q", raw)
		}
		if line.Msg == "slow request" && line.Endpoint == "/v1/analyze" {
			found = true
			break
		}
	}
	if !found {
		t.Fatalf("no slow-request log for /v1/analyze in:\n%s", logs.String())
	}
	if line.Level != "WARN" || !traceIDRe.MatchString(line.TraceID) {
		t.Errorf("slow-request log level=%q trace_id=%q", line.Level, line.TraceID)
	}
	for _, stage := range []string{"request", "solve"} {
		if !strings.Contains(line.Spans, stage) {
			t.Errorf("span tree %q lacks the %s span", line.Spans, stage)
		}
	}
}

// TestMetricsExpositionSelfCheck parses the server's entire /metrics
// output with the strict exposition parser, checks the families the
// dashboards depend on, and scrapes twice to assert counters are
// monotone and histograms only grow.
func TestMetricsExpositionSelfCheck(t *testing.T) {
	ts := newTestServer(t, Config{})
	// Exercise every traffic path once so all families have points.
	if code, _ := postJSON[AnalyzeResponse](t, ts.URL+"/v1/analyze", paperCell()); code != http.StatusOK {
		t.Fatalf("analyze status = %d", code)
	}
	sweep := SweepRequest{C: "7", Delta: "7", K: "1", Mu: "0.2", D: "0.9", Nu: "0.1"}
	if code, _ := postJSON[SweepResponse](t, ts.URL+"/v1/sweep", sweep); code != http.StatusOK {
		t.Fatalf("sweep status = %d", code)
	}
	sim := map[string]any{"mu": "0.2", "d": "0.9", "sizes": "64", "events": 200, "seed": 7}
	if code, _ := postJSON[SimSweepResponse](t, ts.URL+"/v1/simsweep", sim); code != http.StatusOK {
		t.Fatalf("simsweep status = %d", code)
	}

	scrapeAll := func() map[string]*obs.MetricFamily {
		resp, err := http.Get(ts.URL + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		fams, err := obs.ParseProm(resp.Body)
		if err != nil {
			body, _ := io.ReadAll(resp.Body)
			t.Fatalf("exposition does not parse: %v\n%s", err, body)
		}
		return fams
	}

	first := scrapeAll()
	wantTypes := map[string]string{
		"attackd_requests_total":           "counter",
		"attackd_cache_hits_total":         "counter",
		"attackd_cache_misses_total":       "counter",
		"attackd_evaluations_total":        "counter",
		"attackd_sim_evaluations_total":    "counter",
		"attackd_sim_events_total":         "counter",
		"attackd_jobs_total":               "counter",
		"attackd_jobs_active":              "gauge",
		"attackd_inflight_evaluations":     "gauge",
		"attackd_request_duration_seconds": "histogram",
		"attackd_stage_duration_seconds":   "histogram",
		"attackd_go_goroutines":            "gauge",
		"attackd_go_heap_alloc_bytes":      "gauge",
		"attackd_go_gcs_total":             "counter",
	}
	for name, typ := range wantTypes {
		f := first[name]
		if f == nil {
			t.Errorf("family %q missing", name)
			continue
		}
		if f.Type != typ {
			t.Errorf("family %q has type %q, want %q", name, f.Type, typ)
		}
		if f.Help == "" {
			t.Errorf("family %q has no HELP", name)
		}
	}
	if eps := obs.LabelValues(first["attackd_request_duration_seconds"], "endpoint"); len(eps) < 3 {
		t.Errorf("request histogram has endpoints %v, want at least analyze/sweep/simsweep", eps)
	}

	// One more request, then a second scrape: counters must not step
	// backwards and histogram deltas must be well-formed.
	if code, _ := postJSON[AnalyzeResponse](t, ts.URL+"/v1/analyze", paperCell()); code != http.StatusOK {
		t.Fatalf("analyze status = %d", code)
	}
	second := scrapeAll()
	for name, f := range first {
		if f.Type != "counter" {
			continue
		}
		for _, p := range f.Points {
			after, ok := findPoint(second[name], p.Labels)
			if !ok {
				t.Errorf("counter %s%v disappeared between scrapes", name, p.Labels)
				continue
			}
			if after < p.Value {
				t.Errorf("counter %s%v went backwards: %g -> %g", name, p.Labels, p.Value, after)
			}
		}
	}
	m := map[string]string{"endpoint": "/v1/analyze"}
	b, err := obs.ExtractHistogram(first, "attackd_request_duration_seconds", m)
	if err != nil {
		t.Fatal(err)
	}
	a, err := obs.ExtractHistogram(second, "attackd_request_duration_seconds", m)
	if err != nil {
		t.Fatal(err)
	}
	d, err := a.Sub(b)
	if err != nil {
		t.Fatalf("histogram delta for %v: %v", m, err)
	}
	if n := d.Counts[len(d.Counts)-1]; n != 1 {
		t.Errorf("analyze histogram grew by %d between scrapes, want 1", n)
	}
	// A scrape's own latency is observed after its exposition is
	// written, so the /metrics label appears from the second scrape on.
	if _, err := obs.ExtractHistogram(second, "attackd_request_duration_seconds", map[string]string{"endpoint": "/metrics"}); err != nil {
		t.Errorf("second scrape lacks the /metrics endpoint label: %v", err)
	}
}

// findPoint locates the sample with exactly the given labels.
func findPoint(f *obs.MetricFamily, labels map[string]string) (float64, bool) {
	if f == nil {
		return 0, false
	}
outer:
	for _, p := range f.Points {
		if len(p.Labels) != len(labels) {
			continue
		}
		for k, v := range labels {
			if p.Labels[k] != v {
				continue outer
			}
		}
		return p.Value, true
	}
	return 0, false
}
