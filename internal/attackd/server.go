// Package attackd is the HTTP serving layer over the targeted-attack
// analytics: a JSON API that answers single-cell analyses (/v1/analyze),
// whole parameter grids (/v1/sweep) and simulation-sweep grids of
// whole-system overlay runs (/v1/simsweep) from one warm process.
//
// Three layers keep repeated traffic cheap: a size-bounded LRU cache
// keyed by canonical request parameters, singleflight deduplication so
// concurrent identical requests share one evaluation, and the sweep
// evaluator's own structural amortization underneath. Simulation sweeps
// always run hash-derived fast identities and are bounded by a cell
// limit and a cells×replicas×events budget; their responses carry no
// wall-clock fields, so cached replies are byte-identical to fresh ones.
//
// Grid endpoints deliver three ways from one pipeline: buffered JSON,
// NDJSON streaming (Accept: application/x-ndjson or ?stream=1 — one
// cell line as each cell completes, then a {"summary":{...}} line; see
// stream.go for the protocol), and async jobs (POST /v1/jobs submits
// any sweep/simsweep body, GET /v1/jobs/{id} polls cell-level progress,
// /result fetches or streams the finished response, DELETE cancels;
// see jobs.go). All three share the cache and singleflight, so a
// streamed or job-run grid warms the same entries a buffered request
// would. Requests may override tol, max_iter and workers per call;
// tol and max_iter enter the cache key, workers deliberately does not
// (results are bit-identical at any pool width).
//
// /healthz and /metrics (Prometheus text format) expose liveness,
// request counts, cache hit rates (leader-only misses, with
// singleflight followers counted separately), in-flight evaluations,
// streamed cells, job states and simulated event totals.
//
// Observability rides internal/obs: every request runs inside a trace
// (inbound W3C traceparent adopted and echoed, fresh crypto/rand IDs
// otherwise), handlers open per-stage spans, and after each response
// the middleware feeds the request- and stage-latency histograms on
// /metrics and emits a structured log line — at warn level with the
// full span tree when the request exceeded Config.SlowRequest. Any
// analysis or sweep body may opt into a "timings" response breakdown
// with "timings": true; breakdowns are attached at delivery time so
// cached values stay byte-identical.
package attackd

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"math"
	"net/http"
	"strconv"
	"strings"
	"time"

	// Registers the built-in second model family (APT compromise chain)
	// so every server instance can serve it by name.
	_ "targetedattacks/internal/aptchain"
	"targetedattacks/internal/chainmodel"
	"targetedattacks/internal/core"
	"targetedattacks/internal/engine"
	"targetedattacks/internal/matrix"
	"targetedattacks/internal/obs"
	"targetedattacks/internal/sweep"
)

// Config parameterizes a Server.
type Config struct {
	// Pool fans sweep cells (and the row-parallel matrix construction)
	// across workers; nil uses a per-CPU pool.
	Pool *engine.Pool
	// Solver is the analytic backend of every evaluation; the zero value
	// picks the sparse BiCGSTAB path, which keeps large C/∆ requests
	// affordable in a serving context.
	Solver matrix.SolverConfig
	// CacheSize bounds the LRU result cache in entries; 0 picks
	// DefaultCacheSize, negative disables caching.
	CacheSize int
	// MaxCells bounds the grid size a single /v1/sweep request may ask
	// for; 0 picks DefaultMaxCells.
	MaxCells int
	// MaxStates bounds |Ω| per cell, rejecting accidental C=∆=500
	// requests that would pin the process; 0 picks DefaultMaxStates.
	MaxStates int
	// MaxSojourns bounds the per-request sojourn count (each sojourn
	// costs four left solves and two result slots); 0 picks
	// DefaultMaxSojourns.
	MaxSojourns int
	// MaxSimCells bounds the grid size a single /v1/simsweep request may
	// ask for; 0 picks DefaultMaxSimCells.
	MaxSimCells int
	// MaxSimEventBudget bounds a /v1/simsweep request's total simulated
	// events (cells × replicas × events); 0 picks
	// DefaultMaxSimEventBudget.
	MaxSimEventBudget int64
	// MaxJobs bounds the async job store in entries (running plus
	// retained finished jobs); 0 picks DefaultMaxJobs, negative disables
	// the job API (submissions are rejected).
	MaxJobs int
	// JobTTL is how long a finished job's result stays pollable before
	// eviction; 0 picks DefaultJobTTL.
	JobTTL time.Duration
	// Logger receives the server's structured logs (per-request debug
	// lines, slow-request warnings, job completions); nil uses
	// slog.Default(). Wrap it with obs.NewLogger to get trace IDs
	// stamped on every record.
	Logger *slog.Logger
	// SlowRequest is the latency beyond which a completed request logs
	// its span tree at Warn level; 0 picks DefaultSlowRequest, negative
	// disables slow-request logging.
	SlowRequest time.Duration
}

// Serving defaults.
const (
	DefaultCacheSize   = 4096
	DefaultMaxCells    = 4096
	DefaultMaxStates   = 200_000
	DefaultMaxSojourns = 1024
	// DefaultMaxJobs bounds the async job store; DefaultJobTTL is how
	// long finished jobs stay pollable.
	DefaultMaxJobs = 64
	DefaultJobTTL  = 15 * time.Minute
	// DefaultSlowRequest is the slow-request log threshold: long enough
	// that routine traffic stays quiet, short enough to catch a
	// colossal sweep monopolizing the process.
	DefaultSlowRequest = time.Second
	// maxRequestWorkers bounds the per-request "workers" override: wide
	// enough for any real machine, small enough that a request cannot ask
	// for a million goroutines.
	maxRequestWorkers = 256
	// maxRequestIter bounds the per-request "max_iter" override.
	maxRequestIter = 10_000_000
	// minRequestTol floors the per-request "tol" override: a tolerance
	// below float64 round-off can never converge and would burn the whole
	// iteration cap on every solve.
	minRequestTol = 1e-15
	// maxBodyBytes bounds a request body before JSON decoding — the
	// first allocation gate an untrusted request hits; axis and grid
	// limits apply after parsing. 1 MiB fits any legal request with
	// room to spare.
	maxBodyBytes = 1 << 20
	// maxCacheWeight bounds the cache's total retained result size,
	// measured in result floats (a sweep entry holds roughly
	// cells × (2·sojourns + const) of them): 4M floats ≈ 32 MiB of
	// payload however the entry count divides it.
	maxCacheWeight = 4 << 20
)

// analysisWeight approximates the retained size of one cell's analysis
// in floats.
func analysisWeight(sojourns int) int64 {
	return int64(sojourns)*2 + 16
}

// Server answers the attackd HTTP API. Create one with New and mount
// Handler on an http.Server.
type Server struct {
	pool              *engine.Pool
	solver            matrix.SolverConfig
	maxCells          int
	maxStates         int
	maxSojourns       int
	maxSimCells       int
	maxSimEventBudget int64
	cache             *lru
	flights           *flightGroup
	metrics           *metrics
	jobs              *jobStore
	mux               *http.ServeMux
	logger            *slog.Logger
	slowReq           time.Duration
}

// New builds a Server from cfg.
func New(cfg Config) (*Server, error) {
	solver := cfg.Solver
	if solver.Kind == "" {
		solver.Kind = "bicgstab"
	}
	if _, err := solver.Build(); err != nil {
		return nil, fmt.Errorf("attackd: %w", err)
	}
	cacheSize := cfg.CacheSize
	if cacheSize == 0 {
		cacheSize = DefaultCacheSize
	}
	maxCells := cfg.MaxCells
	if maxCells == 0 {
		maxCells = DefaultMaxCells
	}
	maxStates := cfg.MaxStates
	if maxStates == 0 {
		maxStates = DefaultMaxStates
	}
	maxSojourns := cfg.MaxSojourns
	if maxSojourns == 0 {
		maxSojourns = DefaultMaxSojourns
	}
	maxSimCells := cfg.MaxSimCells
	if maxSimCells == 0 {
		maxSimCells = DefaultMaxSimCells
	}
	maxSimEventBudget := cfg.MaxSimEventBudget
	if maxSimEventBudget == 0 {
		maxSimEventBudget = DefaultMaxSimEventBudget
	}
	maxJobs := cfg.MaxJobs
	if maxJobs == 0 {
		maxJobs = DefaultMaxJobs
	}
	jobTTL := cfg.JobTTL
	if jobTTL == 0 {
		jobTTL = DefaultJobTTL
	}
	pool := cfg.Pool
	if pool == nil {
		pool = engine.New(0) // per-CPU, as the Config doc promises
	}
	logger := cfg.Logger
	if logger == nil {
		logger = slog.Default()
	}
	slowReq := cfg.SlowRequest
	if slowReq == 0 {
		slowReq = DefaultSlowRequest
	}
	s := &Server{
		pool:              pool,
		solver:            solver,
		maxCells:          maxCells,
		maxStates:         maxStates,
		maxSojourns:       maxSojourns,
		maxSimCells:       maxSimCells,
		maxSimEventBudget: maxSimEventBudget,
		cache:             newLRU(cacheSize, maxCacheWeight),
		flights:           newFlightGroup(),
		metrics:           newMetrics(),
		jobs:              newJobStore(maxJobs, jobTTL),
		mux:               http.NewServeMux(),
		logger:            logger,
		slowReq:           slowReq,
	}
	s.mux.HandleFunc("/v1/analyze", s.handleAnalyze)
	s.mux.HandleFunc("/v1/sweep", s.handleSweep)
	s.mux.HandleFunc("/v1/simsweep", s.handleSimSweep)
	s.mux.HandleFunc("/v1/jobs", s.handleJobs)
	s.mux.HandleFunc("/v1/jobs/", s.handleJobByID)
	s.mux.HandleFunc("/healthz", s.handleHealthz)
	s.mux.HandleFunc("/metrics", s.handleMetrics)
	return s, nil
}

// Handler returns the root HTTP handler: the API mux wrapped in the
// observability middleware (trace ingest/propagation, latency
// histograms, per-request and slow-request logs).
func (s *Server) Handler() http.Handler { return s.instrument(s.mux) }

// instrument wraps next with the per-request observability envelope:
// it ingests (or mints) the W3C traceparent, opens the root "request"
// span, echoes the traceparent back so clients can correlate, and —
// once the handler returns — feeds the request-duration and
// per-stage histograms and emits the request log (Warn with the full
// span tree past the slow threshold, Debug otherwise).
func (s *Server) instrument(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		tr := obs.NewTrace(r.Header.Get("traceparent"))
		ctx := obs.ContextWithTrace(r.Context(), tr)
		root, ctx := obs.StartSpan(ctx, "request")
		w.Header().Set("traceparent", tr.Traceparent(root))
		endpoint := normalizeEndpoint(r.URL.Path)

		next.ServeHTTP(w, r.WithContext(ctx))

		root.End()
		total := tr.Elapsed()
		s.metrics.observeRequest(endpoint, total.Seconds())
		s.metrics.observeStages(tr.Stages(), "request")

		if s.slowReq > 0 && total >= s.slowReq {
			s.logger.LogAttrs(ctx, slog.LevelWarn, "slow request",
				slog.String("endpoint", endpoint),
				slog.String("method", r.Method),
				slog.Duration("duration", total),
				slog.String("spans", tr.SpanTree()))
		} else {
			s.logger.LogAttrs(ctx, slog.LevelDebug, "request",
				slog.String("endpoint", endpoint),
				slog.String("method", r.Method),
				slog.Duration("duration", total))
		}
	})
}

// normalizeEndpoint maps a request path to its histogram label,
// collapsing per-job paths so IDs cannot explode the label set.
func normalizeEndpoint(path string) string {
	switch path {
	case "/v1/analyze", "/v1/sweep", "/v1/simsweep", "/v1/jobs", "/healthz", "/metrics":
		return path
	}
	if strings.HasPrefix(path, "/v1/jobs/") {
		return "/v1/jobs/{id}"
	}
	return "other"
}

// TimingsDTO is the opt-in per-request timing breakdown attached to
// responses when the request sets "timings": true. StagesMS aggregates
// span durations by stage; with a parallel pool the build/solve stages
// sum lane CPU time, so with workers=1 the stages partition the wall
// clock. TotalMS is the trace's elapsed time when the response was
// assembled (encoding and write happen after, so the request-duration
// histogram observation is slightly larger).
type TimingsDTO struct {
	TraceID     string             `json:"trace_id"`
	TotalMS     float64            `json:"total_ms"`
	StagesMS    map[string]float64 `json:"stages_ms"`
	StageCounts map[string]int     `json:"stage_counts,omitempty"`
}

// timingsFromTrace snapshots tr into a wire DTO; nil for a nil trace.
func timingsFromTrace(tr *obs.Trace) *TimingsDTO {
	if tr == nil {
		return nil
	}
	dto := &TimingsDTO{
		TraceID:     tr.TraceID(),
		TotalMS:     float64(tr.Elapsed()) / float64(time.Millisecond),
		StagesMS:    make(map[string]float64),
		StageCounts: make(map[string]int),
	}
	for stage, st := range tr.Stages() {
		// The root stages ("request" on the sync path, "job" on the async
		// one) span everything else; keeping them out lets stages_ms sum
		// to roughly total_ms.
		if stage == "request" || stage == "job" {
			continue
		}
		dto.StagesMS[stage] = float64(st.Duration) / float64(time.Millisecond)
		dto.StageCounts[stage] = st.Count
	}
	return dto
}

// CellRequest is the /v1/analyze request body: one model cell. The
// parameter fields c..nu belong to the default targeted-attack family;
// other families read their own parameters from the same body (see
// Model).
type CellRequest struct {
	C            int     `json:"c"`
	Delta        int     `json:"delta"`
	K            int     `json:"k"`
	Mu           float64 `json:"mu"`
	D            float64 `json:"d"`
	Nu           float64 `json:"nu"`
	Distribution string  `json:"distribution,omitempty"` // "delta" (default) or "beta"
	Sojourns     int     `json:"sojourns,omitempty"`     // default 1
	// Solver overrides the server's backend for this request (one of
	// matrix.SolverKinds; "" keeps the server default).
	Solver string `json:"solver,omitempty"`
	// Tol overrides the iterative solver's residual tolerance for this
	// request (0 keeps the server default). It folds into the canonical
	// cache key, so requests at different tolerances never share results.
	Tol float64 `json:"tol,omitempty"`
	// MaxIter overrides the iterative solver's iteration cap (0 keeps
	// the server default); part of the cache key like Tol.
	MaxIter int `json:"max_iter,omitempty"`
	// Workers overrides the evaluation pool width for this request (0
	// keeps the server pool). Results are bit-identical for any width,
	// so Workers deliberately stays out of the cache key.
	Workers int `json:"workers,omitempty"`
	// Model selects the registered model family ("" means
	// "targeted-attack", the paper model). Unknown names are a client
	// error listing the registered families.
	Model string `json:"model,omitempty"`
	// Timings asks for a per-stage timing breakdown in the response;
	// timings never enter the cache (a cached reply carries the current
	// request's parse/cache stages, not the original evaluation's).
	Timings bool `json:"timings,omitempty"`
}

// SweepRequest is the /v1/sweep request body: one axis expression per
// parameter (list "0.1,0.2" or range "0.5:0.9:0.1" syntax).
type SweepRequest struct {
	C            string `json:"c"`
	Delta        string `json:"delta"`
	K            string `json:"k"`
	Mu           string `json:"mu"`
	D            string `json:"d"`
	Nu           string `json:"nu"`
	Distribution string `json:"distribution,omitempty"`
	Sojourns     int    `json:"sojourns,omitempty"`
	// Solver, Tol, MaxIter and Workers override the server's backend,
	// tolerances and pool width for this request, as in CellRequest.
	Solver  string  `json:"solver,omitempty"`
	Tol     float64 `json:"tol,omitempty"`
	MaxIter int     `json:"max_iter,omitempty"`
	Workers int     `json:"workers,omitempty"`
	// Model selects the registered model family, as in CellRequest;
	// other families declare their own axis fields in the same body.
	Model string `json:"model,omitempty"`
	// Timings asks for a per-stage timing breakdown, as in CellRequest.
	Timings bool `json:"timings,omitempty"`
}

// AnalysisDTO is the wire form of a core.Analysis.
type AnalysisDTO struct {
	ExpectedSafeTime     float64            `json:"expected_safe_time"`
	ExpectedPollutedTime float64            `json:"expected_polluted_time"`
	SafeSojourns         []float64          `json:"safe_sojourns"`
	PollutedSojourns     []float64          `json:"polluted_sojourns"`
	Absorption           map[string]float64 `json:"absorption"`
	PollutionProbability float64            `json:"pollution_probability"`
}

// AnalyzeResponse is the /v1/analyze response body.
type AnalyzeResponse struct {
	Params   ParamsDTO   `json:"params"`
	States   int         `json:"states"`
	Solver   string      `json:"solver"`
	Analysis AnalysisDTO `json:"analysis"`
	// Cached reports the response was served from the LRU cache; Shared
	// that it piggybacked on an identical concurrent evaluation
	// (singleflight follower) without computing or hitting the cache.
	Cached bool `json:"cached"`
	Shared bool `json:"shared,omitempty"`
	// Timings is the opt-in per-stage breakdown (see TimingsDTO); it is
	// attached per response, never cached.
	Timings *TimingsDTO `json:"timings,omitempty"`
}

// ParamsDTO is the wire form of core.Params plus the analysis options.
type ParamsDTO struct {
	C            int     `json:"c"`
	Delta        int     `json:"delta"`
	K            int     `json:"k"`
	Mu           float64 `json:"mu"`
	D            float64 `json:"d"`
	Nu           float64 `json:"nu"`
	Distribution string  `json:"distribution"`
	Sojourns     int     `json:"sojourns"`
}

// SweepCellDTO is one cell of a /v1/sweep response.
type SweepCellDTO struct {
	Index      int         `json:"index"`
	Params     ParamsDTO   `json:"params"`
	States     int         `json:"states"`
	Transient  int         `json:"transient"`
	Rule1Fires int         `json:"rule1_fires"`
	Shared     bool        `json:"shared"`
	Iterations int64       `json:"iterations,omitempty"`
	Analysis   AnalysisDTO `json:"analysis"`
}

// SweepResponse is the /v1/sweep response body.
type SweepResponse struct {
	Cells     []SweepCellDTO `json:"cells"`
	Groups    int            `json:"groups"`
	Evaluated int            `json:"evaluated"`
	// Iterations totals the evaluation's iterative-solver work across
	// all cells (0 for the dense backend and for cache hits of dense
	// evaluations).
	Iterations int64  `json:"iterations,omitempty"`
	Solver     string `json:"solver"`
	Cached     bool   `json:"cached"`
	// Shared reports a singleflight-follower response, as in
	// AnalyzeResponse (per-cell "shared" means ν-dedup, a different
	// notion).
	Shared bool `json:"shared,omitempty"`
	// Timings is the opt-in per-stage breakdown, attached per response
	// and never cached.
	Timings *TimingsDTO `json:"timings,omitempty"`
}

// errorResponse is the JSON error envelope.
type errorResponse struct {
	Error string `json:"error"`
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if !s.requireMethod(w, r, "/healthz", http.MethodGet) {
		return
	}
	s.writeJSON(w, r, "/healthz", http.StatusOK, map[string]string{"status": "ok"})
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if !s.requireMethod(w, r, "/metrics", http.MethodGet) {
		return
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	w.WriteHeader(http.StatusOK)
	s.metrics.write(w)
	s.metrics.request("/metrics", http.StatusOK)
}

// requireMethod enforces one HTTP method per endpoint: anything else is
// a 405 carrying the required Allow header (RFC 9110 §15.5.6).
func (s *Server) requireMethod(w http.ResponseWriter, r *http.Request, endpoint, method string) bool {
	if r.Method == method {
		return true
	}
	w.Header().Set("Allow", method)
	s.writeError(w, r, endpoint, http.StatusMethodNotAllowed, fmt.Errorf("use %s", method))
	return false
}

// readBody drains the request body under the server's size cap. An
// oversized body is the client's error in the 413 sense — distinguish
// http.MaxBytesReader's sentinel from plain read failures (400).
func (s *Server) readBody(w http.ResponseWriter, r *http.Request, endpoint string) ([]byte, bool) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	if err != nil {
		code := http.StatusBadRequest
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			code = http.StatusRequestEntityTooLarge
		}
		s.writeError(w, r, endpoint, code, fmt.Errorf("reading request: %w", err))
		return nil, false
	}
	return body, true
}

// parseDistribution maps the wire name to the model's enum.
func parseDistribution(name string) (core.InitialDistribution, error) {
	switch strings.ToLower(strings.TrimSpace(name)) {
	case "", "delta", "δ":
		return core.DistributionDelta, nil
	case "beta", "β":
		return core.DistributionBeta, nil
	default:
		return 0, fmt.Errorf("unknown distribution %q (want \"delta\" or \"beta\")", name)
	}
}

// requestSolver resolves the per-request solver overrides: zero values
// keep the server's configured backend, tolerance and iteration cap;
// anything else replaces that field after validation. Kind, tol and
// max_iter are all part of the canonical cache key (via the resulting
// SolverConfig), so overridden requests never share cached results with
// differently-configured ones.
func (s *Server) requestSolver(kind string, tol float64, maxIter int) (matrix.SolverConfig, error) {
	sc := s.solver
	kind = strings.ToLower(strings.TrimSpace(kind))
	if kind != "" {
		sc.Kind = kind
		if _, err := sc.Build(); err != nil {
			return sc, fmt.Errorf("solver %q: one of %s required", kind, strings.Join(matrix.SolverKinds(), ", "))
		}
	}
	if tol != 0 {
		if math.IsNaN(tol) || tol < minRequestTol || tol > 0.5 {
			return sc, fmt.Errorf("tol %g: must be in [%g, 0.5]", tol, minRequestTol)
		}
		sc.Tol = tol
	}
	if maxIter != 0 {
		if maxIter < 1 || maxIter > maxRequestIter {
			return sc, fmt.Errorf("max_iter %d: must be in [1, %d]", maxIter, maxRequestIter)
		}
		sc.MaxIter = maxIter
	}
	return sc, nil
}

// requestPool resolves the per-request worker override: 0 keeps the
// server's shared pool, anything else gets a pool of exactly that width
// (pools are a pair of ints — creating one per request is free). The
// evaluators are bit-identical for any pool width, so the override never
// enters a cache key.
func (s *Server) requestPool(workers int) (*engine.Pool, error) {
	if workers == 0 {
		return s.pool, nil
	}
	if workers < 0 || workers > maxRequestWorkers {
		return nil, fmt.Errorf("workers %d: must be in [1, %d]", workers, maxRequestWorkers)
	}
	return engine.New(workers), nil
}

// resolveFamily maps the wire model name to a registered family; the
// empty name selects the default (paper) family. Unknown names are a
// client error listing the registry, mirroring the solver override.
func resolveFamily(name string) (chainmodel.Family, error) {
	name = strings.ToLower(strings.TrimSpace(name))
	fam, ok := chainmodel.Lookup(name)
	if !ok {
		return nil, fmt.Errorf("model %q: one of %s required", name, strings.Join(chainmodel.Names(), ", "))
	}
	return fam, nil
}

// canonicalCellKey is the canonical cache/singleflight key of one cell
// request: strconv formats are exact for float64, so two requests with
// byte-different but value-equal JSON (e.g. 0.50 vs 0.5) share a key.
// The model name leads the key, so no two families can collide.
func canonicalCellKey(p core.Params, dist core.InitialDistribution, sojourns int, solver matrix.SolverConfig) string {
	return fmt.Sprintf("cell|m=%s|C=%d|D=%d|K=%d|mu=%s|d=%s|nu=%s|a=%d|n=%d|s=%s|tol=%s|it=%d",
		chainmodel.DefaultFamily,
		p.C, p.Delta, p.K,
		strconv.FormatFloat(p.Mu, 'x', -1, 64),
		strconv.FormatFloat(p.D, 'x', -1, 64),
		strconv.FormatFloat(p.Nu, 'x', -1, 64),
		int(dist), sojourns, solver.Kind,
		strconv.FormatFloat(solver.Tol, 'x', -1, 64), solver.MaxIter)
}

func (s *Server) handleAnalyze(w http.ResponseWriter, r *http.Request) {
	const endpoint = "/v1/analyze"
	if !s.requireMethod(w, r, endpoint, http.MethodPost) {
		return
	}
	parseSpan, _ := obs.StartSpan(r.Context(), "parse")
	body, ok := s.readBody(w, r, endpoint)
	if !ok {
		parseSpan.End()
		return
	}
	var req CellRequest
	err := json.Unmarshal(body, &req)
	parseSpan.End()
	if err != nil {
		s.writeError(w, r, endpoint, http.StatusBadRequest, fmt.Errorf("decoding request: %w", err))
		return
	}
	fam, err := resolveFamily(req.Model)
	if err != nil {
		s.writeError(w, r, endpoint, http.StatusBadRequest, err)
		return
	}
	if fam.Name() != chainmodel.DefaultFamily {
		// Non-default families go through the model-agnostic path; the
		// family reads its own parameters from the raw body.
		s.handleModelAnalyze(w, r, endpoint, fam, body, req)
		return
	}
	p := core.Params{C: req.C, Delta: req.Delta, K: req.K, Mu: req.Mu, D: req.D, Nu: req.Nu}
	if err := p.Validate(); err != nil {
		s.writeError(w, r, endpoint, http.StatusBadRequest, err)
		return
	}
	if err := s.checkGeometry(p.C, p.Delta); err != nil {
		s.writeError(w, r, endpoint, http.StatusBadRequest, err)
		return
	}
	dist, err := parseDistribution(req.Distribution)
	if err != nil {
		s.writeError(w, r, endpoint, http.StatusBadRequest, err)
		return
	}
	sojourns := req.Sojourns
	if sojourns < 1 {
		sojourns = 1
	}
	if sojourns > s.maxSojourns {
		s.writeError(w, r, endpoint, http.StatusBadRequest,
			fmt.Errorf("sojourns %d exceeds the server limit %d", sojourns, s.maxSojourns))
		return
	}
	solver, err := s.requestSolver(req.Solver, req.Tol, req.MaxIter)
	if err != nil {
		s.writeError(w, r, endpoint, http.StatusBadRequest, err)
		return
	}
	pool, err := s.requestPool(req.Workers)
	if err != nil {
		s.writeError(w, r, endpoint, http.StatusBadRequest, err)
		return
	}
	key := canonicalCellKey(p, dist, sojourns, solver)
	tr := obs.TraceFromContext(r.Context())
	cacheSpan, _ := obs.StartSpan(r.Context(), "cache")
	cached, hit := s.cache.Get(key)
	cacheSpan.End()
	if hit {
		s.metrics.cacheHits.Add(1)
		resp := cached.(AnalyzeResponse)
		resp.Cached = true
		if req.Timings {
			resp.Timings = timingsFromTrace(tr)
		}
		s.writeJSON(w, r, endpoint, http.StatusOK, resp)
		return
	}
	// The cache miss is counted inside the flight, so only the leader —
	// the request that actually evaluates — records one. Followers are
	// neither hits nor misses; they surface in
	// attackd_singleflight_shared_total instead.
	ctx := r.Context()
	val, err, shared := s.flights.Do(key, func() (any, error) {
		s.metrics.cacheMisses.Add(1)
		s.metrics.inflight.Add(1)
		defer s.metrics.inflight.Add(-1)
		s.metrics.evaluation(chainmodel.DefaultFamily)
		// The leader's trace observes the fine build decomposition
		// (space, kernel, matrix) plus the solve; followers only carry
		// their own parse/cache stages.
		buildOpts := []core.BuildOption{core.WithBuildPool(pool)}
		if ltr := obs.TraceFromContext(ctx); ltr != nil {
			buildOpts = append(buildOpts, core.WithObserver(ltr))
		}
		m, err := core.NewWithSolver(p, solver, buildOpts...)
		if err != nil {
			return nil, err
		}
		solveSpan, _ := obs.StartSpan(ctx, "solve")
		a, err := m.AnalyzeNamed(dist, sojourns)
		if err != nil {
			solveSpan.End()
			return nil, err
		}
		solveSpan.SetAttr("backend", a.Solver.Backend)
		solveSpan.SetAttrInt("iterations", a.Solver.Iterations)
		solveSpan.End()
		s.metrics.solve(a.Solver)
		resp := AnalyzeResponse{
			Params:   paramsDTO(p, dist, sojourns),
			States:   m.Space().Size(),
			Solver:   solver.Kind,
			Analysis: analysisDTO(a),
		}
		s.cache.Put(key, resp, analysisWeight(sojourns))
		return resp, nil
	})
	if shared {
		s.metrics.singleflightShared.Add(1)
	}
	if err != nil {
		s.writeError(w, r, endpoint, http.StatusInternalServerError, err)
		return
	}
	resp := val.(AnalyzeResponse)
	resp.Shared = shared
	if req.Timings {
		resp.Timings = timingsFromTrace(tr)
	}
	s.writeJSON(w, r, endpoint, http.StatusOK, resp)
}

func (s *Server) handleSweep(w http.ResponseWriter, r *http.Request) {
	const endpoint = "/v1/sweep"
	if !s.requireMethod(w, r, endpoint, http.MethodPost) {
		return
	}
	parseSpan, _ := obs.StartSpan(r.Context(), "parse")
	body, ok := s.readBody(w, r, endpoint)
	if !ok {
		parseSpan.End()
		return
	}
	ev, err := s.sweepEvaluationFromBody(body)
	parseSpan.End()
	if err != nil {
		s.writeError(w, r, endpoint, http.StatusBadRequest, err)
		return
	}
	s.serveEvaluation(w, r, endpoint, ev, wantsStream(r))
}

// sweepEvaluationFromBody parses, bounds and prepares a /v1/sweep body
// (default or named model family) into a runnable evaluation. Every
// error is the client's.
func (s *Server) sweepEvaluationFromBody(body []byte) (*evaluation, error) {
	var req SweepRequest
	if err := json.Unmarshal(body, &req); err != nil {
		return nil, fmt.Errorf("decoding request: %w", err)
	}
	fam, err := resolveFamily(req.Model)
	if err != nil {
		return nil, err
	}
	solver, err := s.requestSolver(req.Solver, req.Tol, req.MaxIter)
	if err != nil {
		return nil, err
	}
	pool, err := s.requestPool(req.Workers)
	if err != nil {
		return nil, err
	}
	if fam.Name() != chainmodel.DefaultFamily {
		return s.modelSweepEvaluation(fam, body, req, solver, pool)
	}
	plan, err := s.planFromRequest(req)
	if err != nil {
		return nil, err
	}
	ev := s.sweepEvaluation(plan, solver, pool)
	ev.timings = req.Timings
	return ev, nil
}

// sweepEvaluation prepares a default-family grid evaluation: run
// computes (and caches) a SweepResponse, streaming each cell's DTO in
// completion order when onCell is set.
func (s *Server) sweepEvaluation(plan sweep.Plan, solver matrix.SolverConfig, pool *engine.Pool) *evaluation {
	ev := &evaluation{
		kind:   "sweep",
		model:  chainmodel.DefaultFamily,
		key:    canonicalPlanKey(plan, solver),
		cells:  plan.Size(),
		solver: solver.Kind,
	}
	ev.run = func(ctx context.Context, onCell func(any)) (any, error) {
		s.metrics.inflight.Add(1)
		defer s.metrics.inflight.Add(-1)
		s.metrics.evaluation(chainmodel.DefaultFamily)
		var cb func(sweep.CellResult)
		if onCell != nil {
			cb = func(cr sweep.CellResult) { onCell(sweepCellDTO(cr, plan)) }
		}
		// Warm starting is always on: serving-grid lanes chain
		// neighboring cells' solves, and the results stay worker-count
		// independent.
		rs, err := sweep.Evaluate(ctx, plan, sweep.Options{
			Pool:      pool,
			BuildPool: pool,
			Solver:    solver,
			WarmStart: true,
			OnCell:    cb,
		})
		if err != nil {
			return nil, err
		}
		resp := SweepResponse{
			Cells:      make([]SweepCellDTO, len(rs.Cells)),
			Groups:     rs.Groups,
			Evaluated:  rs.Evaluated,
			Iterations: rs.Iterations,
			Solver:     solver.Kind,
		}
		for i, cell := range rs.Cells {
			resp.Cells[i] = sweepCellDTO(cell, plan)
			if !cell.Shared {
				s.metrics.solve(cell.Analysis.Solver)
			}
		}
		s.cache.Put(ev.key, resp, int64(len(rs.Cells))*analysisWeight(plan.Sojourns))
		return resp, nil
	}
	ev.cellsOf = func(val any) []any {
		resp := val.(SweepResponse)
		out := make([]any, len(resp.Cells))
		for i, c := range resp.Cells {
			out[i] = c
		}
		return out
	}
	ev.finish = func(val any, cached, shared bool, tm *TimingsDTO) any {
		resp := val.(SweepResponse)
		resp.Cached, resp.Shared = cached, shared
		resp.Timings = tm
		return resp
	}
	ev.summarize = func(val any, cached, shared bool, tm *TimingsDTO) StreamSummary {
		resp := val.(SweepResponse)
		return StreamSummary{
			Cells:      len(resp.Cells),
			Groups:     resp.Groups,
			Evaluated:  resp.Evaluated,
			Iterations: resp.Iterations,
			Solver:     resp.Solver,
			Cached:     cached,
			Shared:     shared,
			Timings:    tm,
		}
	}
	return ev
}

// sweepCellDTO is the wire form of one evaluated cell. It is shared by
// the buffered response and the NDJSON stream, so a streamed line is
// byte-identical to the same cell in a buffered "cells" array.
func sweepCellDTO(cell sweep.CellResult, plan sweep.Plan) SweepCellDTO {
	return SweepCellDTO{
		Index:      cell.Index,
		Params:     paramsDTO(cell.Params, plan.Dist, plan.Sojourns),
		States:     cell.States,
		Transient:  cell.Transient,
		Rule1Fires: cell.Rule1Fires,
		Shared:     cell.Shared,
		Iterations: cell.Iterations,
		Analysis:   analysisDTO(cell.Analysis),
	}
}

// planFromRequest parses and bounds a sweep request.
func (s *Server) planFromRequest(req SweepRequest) (sweep.Plan, error) {
	var plan sweep.Plan
	var err error
	if plan.C, err = ParseIntsOrDefault(req.C, nil); err != nil {
		return plan, fmt.Errorf("axis c: %w", err)
	}
	if plan.Delta, err = ParseIntsOrDefault(req.Delta, nil); err != nil {
		return plan, fmt.Errorf("axis delta: %w", err)
	}
	if plan.K, err = ParseIntsOrDefault(req.K, nil); err != nil {
		return plan, fmt.Errorf("axis k: %w", err)
	}
	if plan.Mu, err = ParseFloatsOrDefault(req.Mu, nil); err != nil {
		return plan, fmt.Errorf("axis mu: %w", err)
	}
	if plan.D, err = ParseFloatsOrDefault(req.D, nil); err != nil {
		return plan, fmt.Errorf("axis d: %w", err)
	}
	if plan.Nu, err = ParseFloatsOrDefault(req.Nu, []float64{0.1}); err != nil {
		return plan, fmt.Errorf("axis nu: %w", err)
	}
	if plan.Dist, err = parseDistribution(req.Distribution); err != nil {
		return plan, err
	}
	plan.Sojourns = req.Sojourns
	if plan.Sojourns < 1 {
		plan.Sojourns = 1
	}
	if plan.Sojourns > s.maxSojourns {
		return plan, fmt.Errorf("sojourns %d exceeds the server limit %d", plan.Sojourns, s.maxSojourns)
	}
	if n := plan.Size(); n > s.maxCells {
		return plan, fmt.Errorf("grid has %d cells, server limit is %d", n, s.maxCells)
	}
	for _, c := range plan.C {
		for _, delta := range plan.Delta {
			if err := s.checkGeometry(c, delta); err != nil {
				return plan, err
			}
		}
	}
	if err := plan.Validate(); err != nil {
		return plan, err
	}
	return plan, nil
}

// checkGeometry bounds |Ω|. C and ∆ are each capped by the state limit
// first (|Ω| is at least C+1 and at least (∆+1)(∆+2)/2), and the
// closed-form count itself is evaluated in saturating int64 arithmetic —
// on 32-bit platforms the product overflows int long before the
// pre-caps catch it, which used to let absurd geometries wrap around
// the limit.
func (s *Server) checkGeometry(c, delta int) error {
	if c > s.maxStates || delta > s.maxStates {
		return fmt.Errorf("C=%d ∆=%d exceeds the server's %d-state limit", c, delta, s.maxStates)
	}
	if states := stateCount(core.Params{C: c, Delta: delta}); states > int64(s.maxStates) {
		return fmt.Errorf("C=%d ∆=%d has %d states, server limit is %d", c, delta, states, s.maxStates)
	}
	return nil
}

// ParseIntsOrDefault parses an integer axis, with a default for empty
// expressions (nil default makes the axis required).
func ParseIntsOrDefault(expr string, def []int) ([]int, error) {
	if strings.TrimSpace(expr) == "" {
		if def != nil {
			return def, nil
		}
		return nil, fmt.Errorf("axis is required")
	}
	return sweep.ParseInts(expr)
}

// ParseFloatsOrDefault is the float counterpart of ParseIntsOrDefault.
func ParseFloatsOrDefault(expr string, def []float64) ([]float64, error) {
	if strings.TrimSpace(expr) == "" {
		if def != nil {
			return def, nil
		}
		return nil, fmt.Errorf("axis is required")
	}
	return sweep.ParseFloats(expr)
}

// canonicalPlanKey canonicalizes a sweep plan for caching. As in
// canonicalCellKey, the model name leads the key.
func canonicalPlanKey(plan sweep.Plan, solver matrix.SolverConfig) string {
	var b strings.Builder
	b.WriteString("sweep|m=" + chainmodel.DefaultFamily)
	writeInts := func(tag string, vs []int) {
		b.WriteString("|" + tag + "=")
		for i, v := range vs {
			if i > 0 {
				b.WriteByte(',')
			}
			b.WriteString(strconv.Itoa(v))
		}
	}
	writeFloats := func(tag string, vs []float64) {
		b.WriteString("|" + tag + "=")
		for i, v := range vs {
			if i > 0 {
				b.WriteByte(',')
			}
			b.WriteString(strconv.FormatFloat(v, 'x', -1, 64))
		}
	}
	writeInts("C", plan.C)
	writeInts("D", plan.Delta)
	writeInts("K", plan.K)
	writeFloats("mu", plan.Mu)
	writeFloats("d", plan.D)
	writeFloats("nu", plan.Nu)
	fmt.Fprintf(&b, "|a=%d|n=%d|s=%s|tol=%s|it=%d",
		int(plan.Dist), plan.Sojourns, solver.Kind,
		strconv.FormatFloat(solver.Tol, 'x', -1, 64), solver.MaxIter)
	return b.String()
}

// stateCount is |Ω| = (C+1)(∆+1)(∆+2)/2 without enumerating the space,
// computed in int64 and saturating at MaxInt64: the product overflows
// 32-bit int already for C = ∆ ≈ 1600, well inside the default
// 200 000-state limit's pre-caps on 32-bit platforms.
func stateCount(p core.Params) int64 {
	c, d := int64(p.C)+1, int64(p.Delta)+1
	if c < 1 || d < 1 {
		// Degenerate geometry; parameter validation rejects it with a
		// better message than a count could.
		return 0
	}
	// d(d+1)/2 overflows int64 only past d ≈ 4.3e9; the cap below keeps
	// the triangular number itself exact.
	const maxTriangular = 3_037_000_498 // floor(sqrt(MaxInt64)) - 1
	if d > maxTriangular {
		return math.MaxInt64
	}
	tri := d * (d + 1) / 2
	if c > math.MaxInt64/tri {
		return math.MaxInt64
	}
	return c * tri
}

func paramsDTO(p core.Params, dist core.InitialDistribution, sojourns int) ParamsDTO {
	name := "delta"
	if dist == core.DistributionBeta {
		name = "beta"
	}
	if sojourns < 1 {
		sojourns = 1
	}
	return ParamsDTO{
		C: p.C, Delta: p.Delta, K: p.K, Mu: p.Mu, D: p.D, Nu: p.Nu,
		Distribution: name, Sojourns: sojourns,
	}
}

func analysisDTO(a *core.Analysis) AnalysisDTO {
	return AnalysisDTO{
		ExpectedSafeTime:     a.ExpectedSafeTime,
		ExpectedPollutedTime: a.ExpectedPollutedTime,
		SafeSojourns:         a.SafeSojourns,
		PollutedSojourns:     a.PollutedSojourns,
		Absorption:           a.Absorption,
		PollutionProbability: a.PollutionProbability,
	}
}

func (s *Server) writeJSON(w http.ResponseWriter, r *http.Request, endpoint string, code int, v any) {
	encSpan, _ := obs.StartSpan(r.Context(), "encode")
	// Encode before committing the status: an encoding failure (e.g. a
	// non-encodable float) must surface as a 500, not a 200 with a
	// truncated body.
	body, err := json.Marshal(v)
	if err != nil {
		code = http.StatusInternalServerError
		body, _ = json.Marshal(errorResponse{Error: fmt.Sprintf("encoding response: %v", err)})
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	w.Write(append(body, '\n'))
	encSpan.End()
	s.metrics.request(endpoint, code)
}

func (s *Server) writeError(w http.ResponseWriter, r *http.Request, endpoint string, code int, err error) {
	s.writeJSON(w, r, endpoint, code, errorResponse{Error: err.Error()})
}
