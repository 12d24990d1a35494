package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"sync"
	"time"

	"intrawarp/internal/compaction"
	"intrawarp/internal/par"
	"intrawarp/internal/workloads"
)

// POST /v1/sweep: a policy-sweep grid in one request. A request expands
// to a grid of functional run cells and the response is NDJSON, one line
// per cell in completion order:
//
//   - a result line is byte-for-byte the /v1/run response of that cell
//     (an object with "request" and "report"), flushed the moment the
//     cell completes;
//   - a failed cell is an object with "request" and "error" (the same
//     apiError envelope the unary endpoints use);
//   - the final line is {"sweep":{...}} — the tallies plus
//     "complete":true unless the client disconnected mid-stream.
//
// Cells are served from the same content-addressed cache as /v1/run;
// misses are grouped by everything but policy, each group coalesced
// onto one flight that runs the execution a /v1/run miss of its first
// cell runs (simulate). That run's accounting holds every policy's
// cost, and a functional report does not depend on the policy, so its
// one report serves every policy cell. Group flights wait for a run slot
// through the same admission as unary requests, counting in queue_depth,
// but are never shed: a sweep already bounds its own fan-out (at most
// Concurrency groups in flight) and its cells must not be 429-shed one
// by one mid-stream.
// Client disconnection stops the sweep: unscheduled groups never start,
// and an in-flight group whose last waiter left is cancelled at its
// next workgroup boundary without publishing anything to the cache.
func (s *Server) handleSweep(w http.ResponseWriter, r *http.Request) {
	tr := startTrace(r)
	var req SweepRequest
	if !s.decode(w, r, &req) {
		return
	}
	if n := req.size(); n > s.cfg.MaxSweepCells {
		s.finishError(w, tr, "sweep", http.StatusBadRequest,
			fmt.Errorf("sweep expands to %d cells, above the %d-cell limit", n, s.cfg.MaxSweepCells))
		return
	}
	cells, err := req.cells()
	if err != nil {
		s.finishError(w, tr, "sweep", http.StatusBadRequest, err)
		return
	}
	s.met.requests.Add(1)
	s.met.sweeps.Add(1)

	ctx := r.Context()
	if s.cfg.Timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, s.cfg.Timeout)
		defer cancel()
	}

	// The stream commits status 200 before any cell runs; per-cell
	// failures travel in-band as error lines.
	w.Header().Set(traceIDHeader, tr.id)
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.Header().Set("X-Accel-Buffering", "no") // proxies must not buffer the stream
	w.WriteHeader(http.StatusOK)

	st := &sweepStream{w: w, start: tr.start, met: &s.met}
	if f, ok := w.(http.Flusher); ok {
		st.flush = f.Flush
	}
	s.streamSweep(ctx, st, cells)
	sum := st.close(ctx.Err() == nil)

	s.met.request.observe(time.Since(tr.start).Seconds())
	cacheState := "miss"
	if sum.CacheHits == sum.Cells {
		cacheState = "hit"
	}
	s.log.LogAttrs(context.Background(), slog.LevelInfo, "request",
		tr.logAttrs("sweep", cacheState, http.StatusOK)...)
}

// sweepSummary is the stream's trailing {"sweep":...} line.
type sweepSummary struct {
	// Cells is the size of the requested grid.
	Cells int `json:"cells"`
	// CacheHits counts cells served straight from the result cache.
	CacheHits int `json:"cacheHits"`
	// Executions counts the functional executions that served this
	// sweep's cache-missed groups: one per group, so Executions ≪ Cells
	// when a sweep spans many policies.
	Executions int `json:"executions"`
	// Failed counts cells that streamed an error line.
	Failed int `json:"failed"`
	// Complete is true when every cell was either served or failed —
	// false means the client disconnected (or timed out) mid-stream.
	Complete bool `json:"complete"`
}

// sweepStream serializes NDJSON emission from concurrent group workers
// and tallies the trailing summary. Every line is flushed as it is
// written: partial results must reach the client when they complete,
// not when the sweep ends.
type sweepStream struct {
	start time.Time
	met   *metrics
	flush func()

	mu  sync.Mutex
	w   io.Writer
	sum sweepSummary
}

func (st *sweepStream) emitLocked(line []byte) {
	st.w.Write(line)
	io.WriteString(st.w, "\n")
	if st.flush != nil {
		st.flush()
	}
}

// cell streams one served cell: the exact bytes /v1/run returns for it.
func (st *sweepStream) cell(body []byte, cacheHit bool) {
	st.met.sweepCells.Add(1)
	st.met.sweepCell.observe(time.Since(st.start).Seconds())
	st.mu.Lock()
	defer st.mu.Unlock()
	if cacheHit {
		st.sum.CacheHits++
	}
	st.emitLocked(body)
}

// fail streams one failed cell as request + error envelope.
func (st *sweepStream) fail(cell *RunRequest, status int, err error) {
	line, merr := json.Marshal(struct {
		Request *RunRequest `json:"request"`
		Error   apiError    `json:"error"`
	}{cell, apiError{Code: errorCode(status), Message: err.Error()}})
	if merr != nil {
		return
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	st.sum.Failed++
	st.emitLocked(line)
}

// executed tallies one group's execution.
func (st *sweepStream) executed() {
	st.mu.Lock()
	st.sum.Executions++
	st.mu.Unlock()
}

// close streams the summary line and returns the final tallies.
func (st *sweepStream) close(complete bool) sweepSummary {
	st.mu.Lock()
	defer st.mu.Unlock()
	st.sum.Complete = complete
	if line, err := json.Marshal(struct {
		Sweep sweepSummary `json:"sweep"`
	}{st.sum}); err == nil {
		st.emitLocked(line)
	}
	return st.sum
}

// sweepGroup is one group of a sweep: the cache-missed cells (grid
// order) that share everything but policy, and the workload they name.
type sweepGroup struct {
	key   string
	spec  *workloads.Spec
	cells []*RunRequest
}

// streamSweep serves every cell: cache pass first, then the missed
// groups, at most Concurrency at a time.
func (s *Server) streamSweep(ctx context.Context, st *sweepStream, cells []sweepCell) {
	st.sum.Cells = len(cells)

	// Pass 1 — content-addressed cache: any cell computed before, by a
	// /v1/run or an earlier sweep, streams immediately.
	var order []*sweepGroup
	groups := map[string]*sweepGroup{}
	for i := range cells {
		cell := &cells[i].req
		if body, ok := s.cache.get(cell.key()); ok {
			s.met.cacheHits.Add(1)
			st.cell(body, true)
			continue
		}
		s.met.cacheMiss.Add(1)
		k := cell.groupKey()
		g, ok := groups[k]
		if !ok {
			g = &sweepGroup{key: k, spec: cells[i].spec}
			groups[k] = g
			order = append(order, g)
		}
		g.cells = append(g.cells, cell)
	}

	// Pass 2 — evaluate missed groups, each group's cells emitted the
	// moment its flight retires. Once the client is gone, no further
	// group starts.
	par.For(s.cfg.Concurrency, len(order), func(i int) {
		if ctx.Err() == nil {
			s.serveSweepGroup(ctx, st, order[i])
		}
	})
	if len(order) > 0 && ctx.Err() != nil {
		s.met.cancelled.Add(1)
	}
}

// serveSweepGroup serves one group through a flight (shared with any
// concurrent sweep asking for the same group) and streams its cells.
func (s *Server) serveSweepGroup(ctx context.Context, st *sweepStream, g *sweepGroup) {
	f := s.await(ctx, g.key, func(runCtx context.Context) (*response, error) {
		// Re-check under the flight (cf. serveCached): every cell of this
		// group may have been published while the group waited to start.
		cells := make(map[string][]byte, compaction.NumPolicies)
		for _, p := range compaction.Policies {
			body, ok := s.cache.get(g.cell(p).key())
			if !ok {
				return s.admitted(runCtx, false, func(ctx context.Context) (*response, error) {
					return s.executeSweepGroup(ctx, g)
				})
			}
			cells[p.String()] = body
		}
		return &response{status: http.StatusOK, cells: cells}, nil
	})
	switch {
	case f == nil:
		// Client gone or deadline hit: the flight is left (and cancelled
		// if this was its last waiter); emit nothing.
	case f.err != nil:
		for _, cell := range g.cells {
			st.fail(cell, flightStatus(f.err), f.err)
		}
	default:
		if f.stages.Run > 0 {
			// The flight executed (rather than finding every cell already
			// cached on its re-check).
			st.executed()
		}
		for _, cell := range g.cells {
			st.cell(f.result.cells[cell.Policy], false)
		}
	}
}

// executeSweepGroup is a group flight's run: the execution a /v1/run
// miss of the group's first cell runs, then its one report encoded under
// every policy cell's request, exactly as /v1/run encodes it, and
// published to the shared result cache.
func (s *Server) executeSweepGroup(ctx context.Context, g *sweepGroup) (*response, error) {
	run, _, err := s.simulate(ctx, g.cells[0], g.spec)
	if err != nil {
		return nil, err
	}
	s.met.sweepExecutions.Add(1)

	encStart := time.Now()
	report := run.Report()
	cells := make(map[string][]byte, compaction.NumPolicies)
	for _, p := range compaction.Policies {
		cell := g.cell(p)
		body, err := encodeRunPayload(cell, report, nil)
		if err != nil {
			return nil, err
		}
		cells[p.String()] = body
		s.cache.add(cell.key(), body)
	}
	s.observeEncode(ctx, encStart)
	return &response{status: http.StatusOK, cells: cells}, nil
}

// cell is the canonical request of policy p's cell in the group — the
// request whose /v1/run response the cell's stream line is: the group's
// first missed cell under policy p. The group's cells differ only in
// policy, and the memory fields a cell echoes and keys on come from it.
func (g *sweepGroup) cell(p compaction.Policy) RunRequest {
	cell := *g.cells[0]
	cell.Policy = p.String()
	return cell
}
