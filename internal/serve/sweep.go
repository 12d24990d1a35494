package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"sync"
	"time"

	"intrawarp/internal/compaction"
	"intrawarp/internal/experiments"
)

// POST /v1/sweep: the batch face of the trace-once, cost-many sweep
// engine (internal/experiments). A request expands to a grid of
// functional run cells and the response is NDJSON, one line per cell in
// completion order:
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
// onto one flight that performs a single trace-capturing execution
// whose run serves every policy cell. Group flights acquire the same run
// slots as unary requests but bypass the admission queue's depth bound:
// a sweep already bounds its own fan-out (at most Concurrency groups in
// flight) and its cells must not be 429-shed one by one mid-stream.
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
	// sweep's cache-missed groups. Executions ≪ Cells is the trace-once
	// design working.
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

// executed tallies one group's trace-once execution.
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

// sweepGroup is one trace-capture group of a sweep: the cache-missed
// cells (grid order) that share everything but policy.
type sweepGroup struct {
	key   string
	spec  experiments.GroupSpec
	cells []*RunRequest
}

// streamSweep serves every cell: cache pass first, then the missed
// groups on a bounded worker pool.
func (s *Server) streamSweep(ctx context.Context, st *sweepStream, cells []RunRequest) {
	st.sum.Cells = len(cells)

	// Pass 1 — content-addressed cache: any cell computed before, by a
	// /v1/run or an earlier sweep, streams immediately.
	var order []*sweepGroup
	groups := map[string]*sweepGroup{}
	for i := range cells {
		cell := &cells[i]
		if body, ok := s.cache.get(cell.key()); ok {
			s.met.cacheHits.Add(1)
			st.cell(body, true)
			continue
		}
		s.met.cacheMiss.Add(1)
		k := cell.groupKey()
		g, ok := groups[k]
		if !ok {
			g = &sweepGroup{key: k, spec: experiments.GroupSpec{
				Workload:        cell.Workload,
				Width:           cell.SIMDWidth,
				Size:            cell.Size,
				DCLinesPerCycle: cell.DCLinesPerCycle,
				PerfectL3:       cell.PerfectL3,
				SkipVerify:      cell.SkipVerify,
			}}
			groups[k] = g
			order = append(order, g)
		}
		g.cells = append(g.cells, cell)
	}
	if len(order) == 0 {
		return
	}

	// Pass 2 — evaluate missed groups, each group's cells emitted the
	// moment its flight retires.
	workers := s.cfg.Concurrency
	if workers > len(order) {
		workers = len(order)
	}
	jobs := make(chan *sweepGroup)
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for g := range jobs {
				s.serveSweepGroup(ctx, st, g)
			}
		}()
	}
dispatch:
	for _, g := range order {
		select {
		case jobs <- g:
		case <-ctx.Done():
			break dispatch // the remaining groups never start
		}
	}
	close(jobs)
	wg.Wait()
	if ctx.Err() != nil {
		s.met.cancelled.Add(1)
	}
}

// serveSweepGroup coalesces one group onto a flight (shared with any
// concurrent sweep asking for the same group) and streams its cells.
func (s *Server) serveSweepGroup(ctx context.Context, st *sweepStream, g *sweepGroup) {
	f, leader, runCtx := s.flights.join(g.key, s.base)
	if leader {
		go s.flights.run(g.key, f, func() (*response, error) {
			cells, err := s.executeSweepGroup(withStages(runCtx, &f.stages), g.spec)
			f.cells = cells
			return nil, err
		})
	} else {
		s.met.coalesced.Add(1)
	}
	select {
	case <-f.done:
		s.flights.leave(g.key, f)
		if f.err != nil {
			status := http.StatusInternalServerError
			if errors.Is(f.err, context.Canceled) || errors.Is(f.err, context.DeadlineExceeded) {
				status = http.StatusServiceUnavailable
			}
			for _, cell := range g.cells {
				st.fail(cell, status, f.err)
			}
			return
		}
		if f.stages.Run > 0 {
			// The flight executed (rather than finding every cell already
			// cached on its re-check).
			st.executed()
		}
		for _, cell := range g.cells {
			body, ok := f.cells[cell.Policy]
			if !ok {
				st.fail(cell, http.StatusInternalServerError,
					fmt.Errorf("group flight produced no %s cell", cell.Policy))
				continue
			}
			st.cell(body, false)
		}
	case <-ctx.Done():
		// Client gone or deadline hit: leave the flight (cancelling it if
		// we were the last waiter) and emit nothing.
		s.flights.leave(g.key, f)
	}
}

// executeSweepGroup is the group flight's body: one trace-capturing
// functional execution under a run slot (experiments.ExecuteGroup),
// then every policy cell of its run encoded exactly as /v1/run encodes
// it and published to the shared result cache. Unlike admitted() there
// is no queue-depth shedding — the sweep endpoint bounds its own
// concurrency — but slot contention, in-flight accounting, and stage
// attribution are identical.
func (s *Server) executeSweepGroup(ctx context.Context, gs experiments.GroupSpec) (map[string][]byte, error) {
	// Re-check under the flight (cf. serveCached): every cell of this
	// group may have been published while the group waited to start.
	out := make(map[string][]byte, compaction.NumPolicies)
	cached := true
	for _, p := range compaction.Policies {
		body, ok := s.cache.get(groupCell(gs, p).key())
		if !ok {
			cached = false
			break
		}
		out[p.String()] = body
	}
	if cached {
		return out, nil
	}

	queueStart := time.Now()
	select {
	case s.slots <- struct{}{}:
		wait := time.Since(queueStart)
		s.met.queueWait.observe(wait.Seconds())
		if rec := stagesFrom(ctx); rec != nil {
			rec.Queue = wait
		}
	case <-ctx.Done():
		s.met.cancelled.Add(1)
		return nil, ctx.Err()
	}
	s.met.inFlight.Add(1)
	defer func() {
		s.met.inFlight.Add(-1)
		<-s.slots
	}()

	s.met.simRuns.Add(1)
	runStart := time.Now()
	res, err := experiments.ExecuteGroup(ctx, gs)
	if err != nil {
		if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
			s.met.cancelled.Add(1)
		} else {
			s.met.errors.Add(1)
		}
		return nil, err
	}
	s.met.sweepExecutions.Add(1)
	s.observeRun(ctx, runStart, res.Base.SIMDEfficiency(), true)

	encStart := time.Now()
	for _, p := range compaction.Policies {
		cell := groupCell(gs, p)
		body, err := encodeRunPayload(cell, res.Runs[p].Report(), nil)
		if err != nil {
			return nil, err
		}
		out[p.String()] = body
		s.cache.add(cell.key(), body)
	}
	s.observeEncode(ctx, encStart)
	return out, nil
}

// groupCell reconstructs the canonical cell request of one policy in a
// group — the request whose /v1/run response the cell's stream line is.
func groupCell(gs experiments.GroupSpec, p compaction.Policy) *RunRequest {
	return &RunRequest{
		Workload:        gs.Workload,
		Size:            gs.Size,
		SIMDWidth:       gs.Width,
		Policy:          p.String(),
		DCLinesPerCycle: gs.DCLinesPerCycle,
		PerfectL3:       gs.PerfectL3,
		SkipVerify:      gs.SkipVerify,
	}
}
