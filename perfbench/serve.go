package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"math"
	"math/rand/v2"
	"net"
	"net/http"
	"net/http/httptrace"
	"os"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	ta "targetedattacks"
	"targetedattacks/internal/attackd"
	"targetedattacks/internal/obs"
)

// serveBench drives an in-process attackd server, built with the default
// configuration, over loopback HTTP with the serveKinds traffic mix. The
// load is open-loop: requests are due at a fixed rate whatever the server
// does, one pacing goroutine issues them, and at most one connection per
// CPU carries them, so a stall makes later requests wait for a
// connection. Every request is timed from when it was due.
type serveBench struct {
	rate float64 // requests per second
}

const (
	// tailQ is the percentile reported as tail_ms.
	tailQ = 0.99
	// repeatWindow is how many of the most recent distinct bodies a
	// repeat draws from; it stays below attackd's LRU capacity, so a
	// repeat is a cache hit unless its first request is still in flight.
	repeatWindow = 512
	// verifyCells is the number of fresh analyze7 responses recomputed
	// with an independent model after a phase.
	verifyCells = 32
	// drainTime is how long requests may run past the last due time
	// before they count as unfinished.
	drainTime = 5 * time.Second
	// lateLimit is how late the pacing goroutine may issue a request
	// before the phase's rate no longer holds and the phase is invalid.
	lateLimit = 50 * time.Millisecond
)

// reqKind is one kind of request in the traffic mix.
type reqKind struct {
	name   string
	weight int
	path   string
	fresh  func(r *rand.Rand) string // a new body
	check  func(body []byte) error   // the response's shape
}

// request is one generated request; fresh marks the first use of a body.
type request struct {
	kind  int
	body  string
	fresh bool
}

// requests generates n requests from seed. Each is, with probability 1/2,
// a repeat of one of the last repeatWindow distinct bodies, else a fresh
// body of a kind drawn by weight; the hit share is thus fixed by
// construction rather than by run length.
func requests(seed int64, n int) []request {
	r := rand.New(rand.NewPCG(uint64(seed), 0x5eed5e7e))
	total := 0
	for _, k := range serveKinds {
		total += k.weight
	}
	out := make([]request, n)
	var recent []request
	next := 0
	for i := range out {
		if len(recent) > 0 && r.IntN(2) == 0 {
			q := recent[r.IntN(len(recent))]
			q.fresh = false
			out[i] = q
			continue
		}
		k, w := 0, r.IntN(total)
		for w >= serveKinds[k].weight {
			w -= serveKinds[k].weight
			k++
		}
		q := request{kind: k, body: serveKinds[k].fresh(r), fresh: true}
		out[i] = q
		if len(recent) < repeatWindow {
			recent = append(recent, q)
		} else {
			recent[next] = q
			next = (next + 1) % repeatWindow
		}
	}
	return out
}

// outcome is one request's measurement.
type outcome struct {
	latency, connWait time.Duration
	err               error
	body              []byte // kept only for the responses verified afterwards
}

func (s serveBench) rep(ctx context.Context, c *repCtx) (childResult, error) {
	srv, err := ta.NewAttackServer(ta.AttackServerConfig{Logger: slog.New(slog.NewTextHandler(io.Discard, nil))})
	if err != nil {
		return childResult{}, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return childResult{}, err
	}
	hs := &http.Server{Handler: srv.Handler()}
	served := make(chan error, 1)
	go func() { served <- hs.Serve(ln) }()
	conns := runtime.NumCPU()
	tp := &http.Transport{MaxConnsPerHost: conns, MaxIdleConnsPerHost: conns, DisableCompression: true}
	client := &http.Client{Transport: tp}
	defer func() {
		sctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = hs.Shutdown(sctx) // a timeout leaves Serve running; the process exits next anyway
		<-served
		tp.CloseIdleConnections()
	}()
	base := "http://" + ln.Addr().String()
	if err := waitHealthy(ctx, client, base); err != nil {
		return childResult{}, err
	}
	c.ready()

	reqs := requests(c.seed, int(s.rate*c.seconds))
	verify := make(map[int]bool)
	for i, q := range reqs {
		if len(verify) < verifyCells && q.fresh && serveKinds[q.kind].name == "analyze7" {
			verify[i] = true
		}
	}
	before, err := scrape(ctx, client, base)
	if err != nil {
		return childResult{}, err
	}
	outs, late, wall := s.phase(ctx, client, base, reqs, verify, c.tracer)
	after, err := scrape(ctx, client, base)
	if err != nil {
		return childResult{}, err
	}

	res := childResult{Attempted: len(reqs)}
	var lat []float64
	byKind := make([][]float64, len(serveKinds))
	var latSum, waitSum time.Duration
	for i, o := range outs {
		if o.err != nil {
			res.Failed++
			res.addError("request %d (%s): %v", i, serveKinds[reqs[i].kind].name, o.err)
			continue
		}
		lat = append(lat, ms(o.latency))
		byKind[reqs[i].kind] = append(byKind[reqs[i].kind], ms(o.latency))
		latSum += o.latency
		waitSum += o.connWait
	}
	for i := range verify {
		if outs[i].err == nil {
			if err := verifyAnalyze(reqs[i].body, outs[i].body); err != nil {
				res.Failed++
				res.addError("request %d: %v", i, err)
			}
		}
	}
	// A phase of an untraced run at the declared length has at least ten
	// requests beyond tailQ (TestServePhasesBackTheirTail); shorter phases
	// report only layer metrics.
	sort.Float64s(lat)
	res.LatencyMS, _ = percentile(lat, 0.5)
	res.TailMS, _ = percentile(lat, tailQ)
	if late > lateLimit {
		res.Failed++
		res.addError("the pacing goroutine ran up to %v late (limit %v): the rate did not hold", late, lateLimit)
	}
	s.report(byKind, late)

	layers, err := serverLayers(before, after, wall)
	if err != nil {
		return childResult{}, err
	}
	if res.LatencyMS > 0 && res.TailMS > 0 {
		layers["attackd.server_p50_share"] /= res.LatencyMS
		layers["attackd.server_p99_share"] /= res.TailMS
	}
	if latSum > 0 {
		layers["serve.conn_wait_share"] = waitSum.Seconds() / latSum.Seconds()
	}
	layers["trace.wall_ms"] = ms(wall)
	addRuntime(layers)
	res.Layers = layers
	return res, nil
}

// waitHealthy polls /healthz until the first 200.
func waitHealthy(ctx context.Context, client *http.Client, base string) error {
	deadline := time.Now().Add(10 * time.Second)
	for {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/healthz", nil)
		if err != nil {
			return err
		}
		resp, err := client.Do(req)
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("attackd not healthy after 10s (last error %v)", err)
		}
		time.Sleep(time.Millisecond)
	}
}

// phase issues reqs at the configured rate and waits for every response
// or the drain deadline. It returns each request's outcome, how late the
// pacing goroutine ran at worst, and the phase's wall time.
func (s serveBench) phase(ctx context.Context, client *http.Client, base string, reqs []request, keep map[int]bool, tr *tracer) ([]outcome, time.Duration, time.Duration) {
	interval := time.Duration(float64(time.Second) / s.rate)
	start := time.Now()
	last := start.Add(time.Duration(len(reqs)-1) * interval)
	rctx, cancel := context.WithDeadline(ctx, last.Add(drainTime))
	defer cancel()
	root := tr.startAt("phase", nil, start)
	outs := make([]outcome, len(reqs))
	var late time.Duration
	var wg sync.WaitGroup
	for i, q := range reqs {
		due := start.Add(time.Duration(i) * interval)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		late = max(late, time.Since(due))
		wg.Add(1)
		go func() {
			defer wg.Done()
			outs[i] = send(rctx, client, base, q, due, keep[i], tr, root)
		}()
	}
	wg.Wait()
	root.end()
	return outs, late, time.Since(start)
}

// send issues one request and reads and checks its whole response.
func send(ctx context.Context, client *http.Client, base string, q request, due time.Time, keep bool, tr *tracer, parent *span) outcome {
	k := serveKinds[q.kind]
	sp := tr.startAt(k.name, parent, due)
	var gotConn atomic.Int64
	ct := &httptrace.ClientTrace{GotConn: func(httptrace.GotConnInfo) { gotConn.Store(time.Now().UnixNano()) }}
	var o outcome
	body, err := func() ([]byte, error) {
		req, err := http.NewRequestWithContext(httptrace.WithClientTrace(ctx, ct), http.MethodPost, base+k.path, strings.NewReader(q.body))
		if err != nil {
			return nil, err
		}
		req.Header.Set("Content-Type", "application/json")
		if sp != nil {
			req.Header.Set("traceparent", "00-"+tr.traceID+"-"+sp.hexID()+"-01")
		}
		resp, err := client.Do(req)
		if err != nil {
			return nil, err
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			return nil, err
		}
		if resp.StatusCode != http.StatusOK {
			return nil, fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(body))
		}
		return body, nil
	}()
	end := time.Now()
	o.latency = end.Sub(due)
	if t := gotConn.Load(); t != 0 {
		got := time.Unix(0, t)
		o.connWait = got.Sub(due)
		tr.startAt("conn_wait", sp, due).endAt(got)
	}
	sp.endAt(end)
	if err == nil {
		err = k.check(body)
	}
	o.err = err
	if keep {
		o.body = body
	}
	return o
}

// report prints each kind's p50 and p90 (p90 only with ten requests
// beyond it) and the generator's worst lateness to standard error.
func (s serveBench) report(byKind [][]float64, late time.Duration) {
	for i, vs := range byKind {
		sort.Float64s(vs)
		p50, _ := percentile(vs, 0.5)
		p90 := "-"
		if v, ok := percentile(vs, 0.9); ok {
			p90 = fmt.Sprintf("%.3fms", v)
		}
		fmt.Fprintf(os.Stderr, "serve %4.0frps %-9s n=%-5d p50=%.3fms p90=%s\n", s.rate, serveKinds[i].name, len(vs), p50, p90)
	}
	fmt.Fprintf(os.Stderr, "serve %4.0frps generator late max=%.3fms\n", s.rate, ms(late))
}

// scrape reads attackd's /metrics exposition.
func scrape(ctx context.Context, client *http.Client, base string) (map[string]*obs.MetricFamily, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/metrics", nil)
	if err != nil {
		return nil, err
	}
	resp, err := client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET /metrics: status %d", resp.StatusCode)
	}
	fams, err := obs.ParseProm(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("parsing /metrics: %w", err)
	}
	return fams, nil
}

// serverLayers derives the server-side layer metrics from the /metrics
// deltas of a phase: counters, busy time per stage as a share of the
// phase's wall time, and the server's own request-latency quantiles (in
// ms; the caller divides them by the client's).
func serverLayers(before, after map[string]*obs.MetricFamily, wall time.Duration) (map[string]float64, error) {
	delta := func(name string) float64 { return counterSum(after, name) - counterSum(before, name) }
	hist := func(name, key, value string) (obs.HistogramSnapshot, error) {
		match := map[string]string{key: value}
		a, err := obs.ExtractHistogram(after, name, match)
		if err != nil {
			return a, err
		}
		b, err := obs.ExtractHistogram(before, name, match)
		if err != nil {
			return a, nil // the series appeared during the phase
		}
		return a.Sub(b)
	}
	stageShare := func(names ...string) float64 {
		var sum float64
		for _, n := range names {
			if h, err := hist("attackd_stage_duration_seconds", "stage", n); err == nil {
				sum += h.Sum
			} // else the stage did not run
		}
		return sum / wall.Seconds()
	}
	var server obs.HistogramSnapshot
	for _, ep := range []string{"/v1/analyze", "/v1/sweep", "/v1/simsweep"} {
		h, err := hist("attackd_request_duration_seconds", "endpoint", ep)
		if err != nil {
			continue
		}
		if server.Counts == nil {
			server = h
			continue
		}
		if len(h.Counts) != len(server.Counts) {
			return nil, fmt.Errorf("request histograms of different shapes")
		}
		for i := range h.Counts {
			server.Counts[i] += h.Counts[i]
		}
	}
	if server.Counts == nil {
		return nil, fmt.Errorf("/metrics recorded no API request during the phase")
	}
	hits, misses := delta("attackd_cache_hits_total"), delta("attackd_cache_misses_total")
	layers := map[string]float64{
		"attackd.singleflight_shared": delta("attackd_singleflight_shared_total"),
		"attackd.evaluations":         delta("attackd_evaluations_total"),
		"attackd.server_p50_share":    1000 * server.Quantile(0.5),
		"attackd.server_p99_share":    1000 * server.Quantile(0.99),
		"chainmodel.iterations":       delta("attackd_solver_iterations_total"),
		"chainmodel.fallbacks":        delta("attackd_solver_fallbacks_total"),
		"overlaynet.events":           delta("attackd_sim_events_total"),
	}
	if hits+misses > 0 {
		layers["attackd.cache_hit_ratio"] = hits / (hits + misses)
	}
	for name, stages := range map[string][]string{
		"attackd.parse_share":       {"parse"},
		"attackd.cache_share":       {"cache"},
		"attackd.encode_share":      {"encode"},
		"core.space_share":          {"space", "kernel"},
		"core.build_share":          {"build", "matrix"},
		"sweep.plan_share":          {"plan"},
		"chainmodel.solve_share":    {"solve"},
		"overlaynet.simulate_share": {"simulate"},
	} {
		layers[name] = stageShare(stages...)
	}
	return layers, nil
}

// counterSum adds up every sample of a counter family (all label sets);
// 0 when the family is absent.
func counterSum(fams map[string]*obs.MetricFamily, name string) float64 {
	f := fams[name]
	if f == nil {
		return 0
	}
	var sum float64
	for _, p := range f.Points {
		sum += p.Value
	}
	return sum
}

// verifyAnalyze recomputes a paper-model cell with an independently
// built model and compares it with the served response.
func verifyAnalyze(reqBody string, respBody []byte) error {
	var cell struct {
		C     int     `json:"c"`
		Delta int     `json:"delta"`
		K     int     `json:"k"`
		Mu    float64 `json:"mu"`
		D     float64 `json:"d"`
		Nu    float64 `json:"nu"`
	}
	if err := json.Unmarshal([]byte(reqBody), &cell); err != nil {
		return err
	}
	p := ta.Params{C: cell.C, Delta: cell.Delta, K: cell.K, Mu: cell.Mu, D: cell.D, Nu: cell.Nu}
	var got attackd.AnalyzeResponse
	if err := json.Unmarshal(respBody, &got); err != nil {
		return err
	}
	m, err := ta.NewModelWithSolver(p, ta.SolverConfig{Kind: "bicgstab"})
	if err != nil {
		return err
	}
	want, err := m.AnalyzeNamed(ta.DistributionDelta, 1)
	if err != nil {
		return err
	}
	const tol = 1e-9
	pairs := [][2]float64{
		{got.Analysis.ExpectedSafeTime, want.ExpectedSafeTime},
		{got.Analysis.ExpectedPollutedTime, want.ExpectedPollutedTime},
		{got.Analysis.PollutionProbability, want.PollutionProbability},
	}
	for class, v := range want.Absorption {
		pairs = append(pairs, [2]float64{got.Analysis.Absorption[class], v})
	}
	for _, pr := range pairs {
		if relErr(pr[0], pr[1]) > tol && math.Abs(pr[0]-pr[1]) > tol {
			return fmt.Errorf("served %v, recomputed %v for %v", pr[0], pr[1], p)
		}
	}
	return nil
}

// checkAnalysis checks one analysis: finite, non-negative times and
// absorption probabilities summing to 1.
func checkAnalysis(safe, polluted float64, absorption map[string]float64) error {
	if !(safe >= 0 && polluted >= 0) || math.IsInf(safe, 0) || math.IsInf(polluted, 0) {
		return fmt.Errorf("times E(T_A)=%v E(T_B)=%v are not finite and non-negative", safe, polluted)
	}
	var sum float64
	for _, v := range absorption {
		sum += v
	}
	if math.Abs(sum-1) > 1e-6 {
		return fmt.Errorf("absorption sums to %v", sum)
	}
	return nil
}

// checkAnalyze checks a paper-model /v1/analyze response of a C × ∆
// cell.
func checkAnalyze(c, delta int) func([]byte) error {
	return func(body []byte) error {
		var r attackd.AnalyzeResponse
		if err := json.Unmarshal(body, &r); err != nil {
			return err
		}
		if want := (c + 1) * (delta + 1) * (delta + 2) / 2; r.States != want {
			return fmt.Errorf("|Ω| = %d, want %d", r.States, want)
		}
		a := r.Analysis
		return checkAnalysis(a.ExpectedSafeTime, a.ExpectedPollutedTime, a.Absorption)
	}
}

// checkSweep checks a buffered /v1/sweep response of cells cells.
func checkSweep(cells int) func([]byte) error {
	return func(body []byte) error {
		var r attackd.SweepResponse
		if err := json.Unmarshal(body, &r); err != nil {
			return err
		}
		if len(r.Cells) != cells {
			return fmt.Errorf("%d cells, want %d", len(r.Cells), cells)
		}
		for _, c := range r.Cells {
			if err := checkAnalysis(c.Analysis.ExpectedSafeTime, c.Analysis.ExpectedPollutedTime, c.Analysis.Absorption); err != nil {
				return fmt.Errorf("cell %d: %w", c.Index, err)
			}
		}
		return nil
	}
}

// checkStream checks an NDJSON /v1/sweep response: one line per cell,
// then exactly one summary line counting them.
func checkStream(cells int) func([]byte) error {
	return func(body []byte) error {
		sc := bufio.NewScanner(bytes.NewReader(body))
		sc.Buffer(nil, 1<<20)
		var lines [][]byte
		for sc.Scan() {
			lines = append(lines, append([]byte(nil), sc.Bytes()...))
		}
		if err := sc.Err(); err != nil {
			return err
		}
		if len(lines) != cells+1 {
			return fmt.Errorf("%d lines, want %d cells and a summary", len(lines), cells)
		}
		seen := make(map[int]bool)
		for _, l := range lines[:cells] {
			var c attackd.SweepCellDTO
			if err := json.Unmarshal(l, &c); err != nil {
				return err
			}
			if err := checkAnalysis(c.Analysis.ExpectedSafeTime, c.Analysis.ExpectedPollutedTime, c.Analysis.Absorption); err != nil {
				return fmt.Errorf("cell %d: %w", c.Index, err)
			}
			seen[c.Index] = true
		}
		var tail struct {
			Summary *attackd.StreamSummary `json:"summary"`
		}
		if err := json.Unmarshal(lines[cells], &tail); err != nil {
			return err
		}
		if tail.Summary == nil || tail.Summary.Cells != cells || len(seen) != cells {
			return errors.New("stream does not end with a summary of every cell")
		}
		return nil
	}
}

// checkModelAnalyze checks a /v1/analyze response of a named family.
func checkModelAnalyze(model string) func([]byte) error {
	return func(body []byte) error {
		var r attackd.ModelAnalyzeResponse
		if err := json.Unmarshal(body, &r); err != nil {
			return err
		}
		if r.Model != model {
			return fmt.Errorf("model %q, want %q", r.Model, model)
		}
		a := r.Analysis
		return checkAnalysis(a.TimeInA, a.TimeInB, a.Absorption)
	}
}

// checkSimSweep checks a /v1/simsweep response of one cell that ran
// events events.
func checkSimSweep(events int64) func([]byte) error {
	return func(body []byte) error {
		var r attackd.SimSweepResponse
		if err := json.Unmarshal(body, &r); err != nil {
			return err
		}
		if len(r.Cells) != 1 || r.Events != events {
			return fmt.Errorf("%d cells and %d events, want 1 and %d", len(r.Cells), r.Events, events)
		}
		return nil
	}
}
