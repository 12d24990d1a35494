// Package serve exposes the simulator over HTTP/JSON: POST /v1/run
// executes one workload, POST /v1/sweep streams a policy-sweep grid as
// NDJSON, POST /v1/experiment regenerates a paper table or figure, GET
// /healthz and GET /metrics cover operations. docs/api.md is the full
// endpoint reference; every error is the one JSON envelope of
// errors.go.
//
// Three properties shape the implementation:
//
//   - Determinism makes results content-addressable. Every simulation is
//     a pure function of its canonicalized request (fixed seeds, fixed
//     shard merge order — DESIGN.md §7), so responses live in an LRU
//     cache keyed by a hash of the request and a hit returns the exact
//     bytes of the run that populated it. Scheduling knobs (Workers)
//     are excluded from the key.
//   - Identical concurrent requests coalesce onto one flight: exactly
//     one simulation runs, every waiter gets its bytes. A flight's run
//     context derives from the server's base context and is cancelled
//     when the last waiter disconnects — or when the server shuts down —
//     stopping the simulation at its next workgroup boundary.
//   - Admission is bounded: at most Concurrency simulations run at once
//     and at most MaxQueue flights wait for a slot; beyond that the
//     server sheds load with 429 Too Many Requests (plus a Retry-After
//     hint) instead of queueing without bound. 503 is reserved for the
//     server itself going away mid-request (shutdown).
package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"runtime"
	"strconv"
	"time"

	"intrawarp/internal/compaction"
	"intrawarp/internal/experiments"
	"intrawarp/internal/gpu"
	"intrawarp/internal/obs"
	"intrawarp/internal/stats"
	"intrawarp/internal/workloads"
)

// Config parameterizes a Server. Zero values select the defaults.
type Config struct {
	// CacheEntries bounds the result LRU (default 256).
	CacheEntries int
	// Concurrency bounds simultaneous simulations (default GOMAXPROCS).
	Concurrency int
	// MaxQueue bounds flights waiting for a run slot (default 64).
	MaxQueue int
	// Timeout is the per-request deadline; 0 means none. A request that
	// times out stops waiting (504); the simulation itself stops only
	// when its last waiter is gone.
	Timeout time.Duration
	// MaxBodyBytes bounds request bodies (default 1 MiB).
	MaxBodyBytes int64
	// MaxSweepCells bounds how many cells one /v1/sweep request may
	// expand to (default 8192).
	MaxSweepCells int
	// Logger receives one structured line per request (trace ID, route,
	// cache state, per-stage spans). Nil selects slog.Default().
	Logger *slog.Logger
}

func (c Config) withDefaults() Config {
	if c.CacheEntries <= 0 {
		c.CacheEntries = 256
	}
	if c.Concurrency <= 0 {
		c.Concurrency = runtime.GOMAXPROCS(0)
	}
	if c.MaxQueue <= 0 {
		c.MaxQueue = 64
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 1 << 20
	}
	if c.MaxSweepCells <= 0 {
		c.MaxSweepCells = 8192
	}
	return c
}

// response is one computed API result: the exact bytes every current
// and future client of this content address receives. A sweep group's
// flight returns cells instead: every policy cell's /v1/run body, keyed
// by policy name. It carries them itself rather than relying on the LRU
// cache, which could evict an entry between the flight retiring and a
// waiter reading it.
type response struct {
	status int
	body   []byte
	cells  map[string][]byte
}

// Server is the simulator's HTTP front end. It implements http.Handler;
// call Close on shutdown to cancel in-flight simulations.
type Server struct {
	cfg     Config
	mux     *http.ServeMux
	cache   *cache
	flights *flightGroup
	slots   chan struct{}
	met     metrics
	log     *slog.Logger

	base   context.Context
	cancel context.CancelFunc
}

// New builds a Server.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	base, cancel := context.WithCancel(context.Background())
	s := &Server{
		cfg:    cfg,
		mux:    http.NewServeMux(),
		cache:  newCache(cfg.CacheEntries),
		slots:  make(chan struct{}, cfg.Concurrency),
		log:    cfg.Logger,
		base:   base,
		cancel: cancel,
	}
	if s.log == nil {
		s.log = slog.Default()
	}
	s.met.init()
	s.flights = newFlightGroup(&s.met.errors)
	s.mux.HandleFunc("POST /v1/run", s.handleRun)
	s.mux.HandleFunc("POST /v1/sweep", s.handleSweep)
	s.mux.HandleFunc("POST /v1/experiment", s.handleExperiment)
	s.mux.HandleFunc("GET /v1/workloads", s.handleWorkloads)
	s.mux.HandleFunc("GET /v1/experiments", s.handleExperiments)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	return s
}

func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// Close cancels the server's base context: every in-flight simulation
// stops at its next cancellation point. Call after http.Server.Shutdown
// has stopped accepting new requests.
func (s *Server) Close() { s.cancel() }

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}

func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	s.met.render(w, s.cache.len())
}

func (s *Server) handleWorkloads(w http.ResponseWriter, _ *http.Request) {
	type row struct {
		Name      string `json:"name"`
		Class     string `json:"class"`
		Divergent bool   `json:"divergent"`
		DefaultN  int    `json:"defaultSize"`
	}
	var rows []row
	for _, spec := range workloads.All() {
		rows = append(rows, row{spec.Name, spec.Class, spec.Divergent, spec.DefaultN})
	}
	writeJSON(w, http.StatusOK, rows)
}

func (s *Server) handleExperiments(w http.ResponseWriter, _ *http.Request) {
	type row struct {
		ID    string `json:"id"`
		Title string `json:"title"`
	}
	var rows []row
	for _, e := range experiments.All() {
		rows = append(rows, row{e.ID, e.Title})
	}
	writeJSON(w, http.StatusOK, rows)
}

func (s *Server) handleRun(w http.ResponseWriter, r *http.Request) {
	tr := startTrace(r)
	var req RunRequest
	if !s.decode(w, r, tr, "run", &req) {
		return
	}
	if q := r.URL.Query().Get("timeline"); q == "1" || q == "true" {
		req.Timeline = true
	}
	spec, err := req.normalize()
	if err != nil {
		s.finishError(w, tr, "run", http.StatusBadRequest, err)
		return
	}
	s.serveCached(w, r, tr, "run", req.key(), func(ctx context.Context) (*response, error) {
		return s.executeRun(ctx, &req, spec)
	})
}

func (s *Server) handleExperiment(w http.ResponseWriter, r *http.Request) {
	tr := startTrace(r)
	var req ExperimentRequest
	if !s.decode(w, r, tr, "experiment", &req) {
		return
	}
	if err := req.normalize(); err != nil {
		s.finishError(w, tr, "experiment", http.StatusBadRequest, err)
		return
	}
	s.serveCached(w, r, tr, "experiment", req.key(), func(ctx context.Context) (*response, error) {
		return s.executeExperiment(ctx, &req)
	})
}

// serveCached is the unary request path: the result cache, then a
// flight whose leader re-checks the cache and runs fn in a run slot that
// sheds load. Every exit goes through finish/finishError so each request
// gets its trace headers, latency observation, and structured log line.
func (s *Server) serveCached(w http.ResponseWriter, r *http.Request, tr *requestTrace, route, key string,
	fn func(context.Context) (*response, error)) {
	s.met.requests.Add(1)
	var body []byte
	var hit bool
	tr.stage("cache", func() { body, hit = s.cache.get(key) })
	if hit {
		s.met.cacheHits.Add(1)
		s.finish(w, tr, route, "hit", &response{status: http.StatusOK, body: body})
		return
	}
	s.met.cacheMiss.Add(1)

	ctx := r.Context()
	if s.cfg.Timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, s.cfg.Timeout)
		defer cancel()
	}
	waitStart := time.Now()
	f := s.await(ctx, key, func(runCtx context.Context) (*response, error) {
		// Re-check under the flight: a request that missed the cache
		// just before an identical flight retired lands here after
		// that flight already published its result.
		if body, ok := s.cache.get(key); ok {
			return &response{status: http.StatusOK, body: body}, nil
		}
		resp, err := s.admitted(runCtx, true, fn)
		if err == nil && resp.status == http.StatusOK {
			s.cache.add(key, resp.body)
		}
		return resp, err
	})
	tr.add("wait", time.Since(waitStart))
	if f == nil {
		s.met.cancelled.Add(1)
		s.finishError(w, tr, route, http.StatusGatewayTimeout, ctx.Err())
		return
	}
	// The leader's inner stages are set before done closes; surface them
	// on every coalesced waiter too — they paid the same wait.
	tr.add("queue", f.stages.Queue)
	tr.add("run", f.stages.Run)
	tr.add("encode", f.stages.Encode)
	if f.err != nil {
		s.finishError(w, tr, route, flightStatus(f.err), f.err)
		return
	}
	s.finish(w, tr, route, "miss", f.result)
}

// await joins key's flight, leading it when none is in progress: the
// leader runs fn on its own goroutine, under the flight's run context
// with the flight's stage record attached. await then waits for the
// flight to retire or for ctx to end, whichever comes first, and leaves
// the flight, which cancels it when this was its last waiter. It returns
// the retired flight, or nil when ctx ended first.
func (s *Server) await(ctx context.Context, key string, fn func(context.Context) (*response, error)) *flight {
	f, leader, runCtx := s.flights.join(key, s.base)
	defer s.flights.leave(key, f)
	if leader {
		go s.flights.run(key, f, func() (*response, error) { return fn(withStages(runCtx, &f.stages)) })
	} else {
		s.met.coalesced.Add(1)
	}
	select {
	case <-f.done:
		return f
	case <-ctx.Done():
		return nil
	}
}

// flightStatus is the status a failed flight's waiters get. Cancellation
// reached the flight only because every waiter (or the whole server)
// went away; any waiter still here raced the shutdown and gets a
// retryable 503. Any other failure is a 500.
func flightStatus(err error) int {
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return http.StatusServiceUnavailable
	}
	return http.StatusInternalServerError
}

// finish sends a computed result with the request's trace headers, then
// records its latency and log line.
func (s *Server) finish(w http.ResponseWriter, tr *requestTrace, route, cacheState string, resp *response) {
	w.Header().Set(traceIDHeader, tr.id)
	if st := tr.serverTiming(); st != "" {
		w.Header().Set("Server-Timing", st)
	}
	writeResult(w, resp, cacheState)
	s.met.request.observe(time.Since(tr.start).Seconds())
	s.log.LogAttrs(context.Background(), slog.LevelInfo, "request",
		tr.logAttrs(route, cacheState, resp.status)...)
}

// finishError is finish for the error paths.
func (s *Server) finishError(w http.ResponseWriter, tr *requestTrace, route string, status int, err error) {
	w.Header().Set(traceIDHeader, tr.id)
	if st := tr.serverTiming(); st != "" {
		w.Header().Set("Server-Timing", st)
	}
	writeError(w, status, err)
	s.met.request.observe(time.Since(tr.start).Seconds())
	s.log.LogAttrs(context.Background(), slog.LevelWarn, "request failed",
		append(tr.logAttrs(route, "miss", status), slog.String("error", err.Error()))...)
}

// errQueueFull sheds load once MaxQueue flights are already waiting.
var errQueueFull = errors.New("admission queue full, retry later")

// admitted runs fn in one of the Concurrency run slots, counting in
// queue_depth while it waits for one. With shed set it answers 429
// instead once MaxQueue requests are already waiting.
func (s *Server) admitted(ctx context.Context, shed bool, fn func(context.Context) (*response, error)) (*response, error) {
	if depth := s.met.queueDepth.Add(1); shed && depth > int64(s.cfg.MaxQueue) {
		s.met.queueDepth.Add(-1)
		s.met.rejected.Add(1)
		return &response{status: http.StatusTooManyRequests,
			body: errorBody(http.StatusTooManyRequests, errQueueFull)}, nil
	}
	queueStart := time.Now()
	select {
	case s.slots <- struct{}{}:
		s.met.queueDepth.Add(-1)
		wait := time.Since(queueStart)
		s.met.queueWait.observe(wait.Seconds())
		if rec := stagesFrom(ctx); rec != nil {
			rec.Queue = wait
		}
	case <-ctx.Done():
		s.met.queueDepth.Add(-1)
		s.met.cancelled.Add(1)
		return nil, ctx.Err()
	}
	s.met.inFlight.Add(1)
	defer func() {
		s.met.inFlight.Add(-1)
		<-s.slots
	}()
	s.met.simRuns.Add(1)
	resp, err := fn(ctx)
	if err != nil {
		if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
			s.met.cancelled.Add(1)
		} else {
			s.met.errors.Add(1)
		}
	}
	return resp, err
}

// executeRun performs the simulation a normalized RunRequest describes
// on the spec its normalize returned, and encodes the response.
func (s *Server) executeRun(ctx context.Context, req *RunRequest, spec *workloads.Spec) (*response, error) {
	run, tl, err := s.simulate(ctx, req, spec)
	if err != nil {
		return nil, err
	}
	encStart := time.Now()
	var tlBody json.RawMessage
	if tl != nil {
		if tlBody, err = tl.JSON(); err != nil {
			return nil, err
		}
	}
	body, err := encodeRunPayload(*req, run.Report(), tlBody)
	if err != nil {
		return nil, err
	}
	s.observeEncode(ctx, encStart)
	return &response{status: http.StatusOK, body: body}, nil
}

// simulate is the server's one simulation step, shared by /v1/run
// misses and sweep groups: it runs the execution a normalized RunRequest
// describes on spec and records it in the run histograms. A timeline
// request also returns the recorded timeline.
func (s *Server) simulate(ctx context.Context, req *RunRequest, spec *workloads.Spec) (*stats.Run, *obs.Timeline, error) {
	policy, err := compaction.ParsePolicy(req.Policy)
	if err != nil {
		return nil, nil, err
	}
	cfg := gpu.DefaultConfig().WithPolicy(policy)
	cfg.Mem.DCLinesPerCycle = req.DCLinesPerCycle
	cfg.Mem.PerfectL3 = req.PerfectL3
	cfg.Workers = req.Workers
	var tl *obs.Timeline
	if req.Timeline {
		tl = obs.NewTimeline()
		cfg.EU.Probe = tl.Run(req.Workload + "/" + req.Policy)
		// Responses are content-addressed: run the functional engine on
		// one worker so the recorded event order — and therefore the
		// cached bytes — never depends on worker scheduling.
		cfg.Workers = 1
	}
	runStart := time.Now()
	run, err := workloads.ExecuteCtx(ctx, gpu.New(cfg), spec, workloads.ExecOptions{
		Size:       req.Size,
		Timed:      req.Timed,
		SkipVerify: req.SkipVerify,
	})
	if err != nil {
		return nil, nil, err
	}
	s.observeRun(ctx, runStart, run.SIMDEfficiency(), true)
	return run, tl, nil
}

// encodeRunPayload renders the canonical /v1/run response body. The
// sweep endpoint encodes every cell through the same function, which is
// what makes a streamed sweep cell byte-identical to the corresponding
// single-run response — and lets the two share one content-addressed
// cache entry. The request echoes as key hashes it (RunRequest.echo), so
// a cached body never carries its first caller's Workers.
func encodeRunPayload(req RunRequest, report any, timeline json.RawMessage) ([]byte, error) {
	return json.Marshal(struct {
		Request  RunRequest      `json:"request"`
		Report   any             `json:"report"`
		Timeline json.RawMessage `json:"timeline,omitempty"`
	}{req.echo(), report, timeline})
}

// observeRun records a completed engine run's latency (and, for workload
// runs, its SIMD efficiency) in the histograms and the flight's stage
// record.
func (s *Server) observeRun(ctx context.Context, start time.Time, efficiency float64, withEff bool) {
	d := time.Since(start)
	s.met.runTime.observe(d.Seconds())
	if withEff {
		s.met.efficiency.observe(efficiency)
	}
	if rec := stagesFrom(ctx); rec != nil {
		rec.Run = d
	}
}

// observeEncode records a response-encoding stage.
func (s *Server) observeEncode(ctx context.Context, start time.Time) {
	d := time.Since(start)
	s.met.encode.observe(d.Seconds())
	if rec := stagesFrom(ctx); rec != nil {
		rec.Encode = d
	}
}

// executeExperiment renders one experiment (or the whole suite).
func (s *Server) executeExperiment(ctx context.Context, req *ExperimentRequest) (*response, error) {
	var buf bytes.Buffer
	ectx := &experiments.Context{Out: &buf, Quick: req.Quick, Workers: req.Workers, Ctx: ctx}
	runStart := time.Now()
	var err error
	if req.ID == "all" {
		err = experiments.RunAll(ectx)
	} else {
		err = experiments.Run(req.ID, ectx)
	}
	if err != nil {
		return nil, err
	}
	s.observeRun(ctx, runStart, 0, false)

	encStart := time.Now()
	body, err := json.Marshal(struct {
		Request ExperimentRequest `json:"request"`
		Output  string            `json:"output"`
	}{req.echo(), buf.String()})
	if err != nil {
		return nil, err
	}
	s.observeEncode(ctx, encStart)
	return &response{status: http.StatusOK, body: body}, nil
}

// decode reads the request body into v. A body that does not decode
// gets its 400 through finishError, traced and logged like every other
// exit of route.
func (s *Server) decode(w http.ResponseWriter, r *http.Request, tr *requestTrace, route string, v any) bool {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		s.finishError(w, tr, route, http.StatusBadRequest, fmt.Errorf("invalid request body: %w", err))
		return false
	}
	return true
}

func writeResult(w http.ResponseWriter, resp *response, cacheState string) {
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("X-Cache", cacheState)
	if resp.status == http.StatusTooManyRequests {
		// Load shed, not failure: tell well-behaved clients when to retry.
		w.Header().Set("Retry-After", strconv.Itoa(retryAfterSeconds))
	}
	w.WriteHeader(resp.status)
	w.Write(resp.body)
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	body, err := json.Marshal(v)
	if err != nil {
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	w.Write(body)
}
