package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"sort"
	"testing"
	"time"
)

// NDJSON streaming behavior of POST /v1/sweep: per-cell byte identity
// with /v1/run, cache sharing, prompt flushing, and mid-stream
// disconnect semantics.

// readSweep splits an NDJSON sweep stream into result lines, error
// lines, and the trailing summary.
func readSweep(t *testing.T, body io.Reader) (results, errLines [][]byte, sum sweepSummary) {
	t.Helper()
	sc := bufio.NewScanner(body)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	sawSummary := false
	for sc.Scan() {
		line := append([]byte(nil), sc.Bytes()...)
		var probe struct {
			Sweep  *sweepSummary   `json:"sweep"`
			Error  json.RawMessage `json:"error"`
			Report json.RawMessage `json:"report"`
		}
		if err := json.Unmarshal(line, &probe); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", line, err)
		}
		switch {
		case probe.Sweep != nil:
			sum = *probe.Sweep
			sawSummary = true
		case probe.Error != nil:
			errLines = append(errLines, line)
		case probe.Report != nil:
			results = append(results, line)
		default:
			t.Fatalf("unclassifiable sweep line %q", line)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatalf("reading sweep stream: %v", err)
	}
	if !sawSummary {
		t.Fatal("sweep stream ended without a summary line")
	}
	return results, errLines, sum
}

// TestSweepCellsByteIdenticalToRun is the API contract at its core: a
// sweep over two workloads serves full policy grids from two executions
// (trace-once), every streamed cell is byte-for-byte the /v1/run
// response of the request it echoes — including one computed by a fresh
// execution on an independent server — and the cells share the /v1/run
// result cache in both directions.
func TestSweepCellsByteIdenticalToRun(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	body := `{"workloads":["bsearch","urng"],"sizes":[300]}`
	resp, data := post(t, ts, "/v1/sweep", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, data)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("Content-Type = %q, want application/x-ndjson", ct)
	}
	results, errLines, sum := readSweep(t, bytes.NewReader(data))
	if len(errLines) != 0 {
		t.Fatalf("sweep produced %d error lines: %s", len(errLines), errLines[0])
	}
	want := sweepSummary{Cells: 14, CacheHits: 0, Executions: 2, Failed: 0, Complete: true}
	if sum != want {
		t.Errorf("summary = %+v, want %+v", sum, want)
	}
	if len(results) != 14 {
		t.Fatalf("got %d result lines, want 14", len(results))
	}

	// Each cell line must be the exact /v1/run response of its echoed
	// request — and must have populated that request's cache entry.
	var sample json.RawMessage
	for _, line := range results {
		var probe struct {
			Request json.RawMessage `json:"request"`
		}
		if err := json.Unmarshal(line, &probe); err != nil {
			t.Fatal(err)
		}
		if sample == nil {
			sample = probe.Request
		}
		runResp, runData := post(t, ts, "/v1/run", string(probe.Request))
		if runResp.StatusCode != http.StatusOK {
			t.Fatalf("replaying cell request: status %d (%s)", runResp.StatusCode, runData)
		}
		if got := runResp.Header.Get("X-Cache"); got != "hit" {
			t.Errorf("cell request X-Cache = %q, want hit (sweep cells must populate the /v1/run cache)", got)
		}
		if !bytes.Equal(runData, line) {
			t.Errorf("cell bytes differ from /v1/run response\nsweep: %s\nrun:   %s", line, runData)
		}
	}

	// Cross-server: a fresh server executes the sample cell functionally
	// (no trace replay involved) and must produce the same bytes.
	_, ts2 := newTestServer(t, Config{})
	freshResp, freshData := post(t, ts2, "/v1/run", string(sample))
	if freshResp.StatusCode != http.StatusOK {
		t.Fatalf("fresh server status %d: %s", freshResp.StatusCode, freshData)
	}
	if got := freshResp.Header.Get("X-Cache"); got != "miss" {
		t.Fatalf("fresh server X-Cache = %q, want miss", got)
	}
	found := false
	for _, line := range results {
		if bytes.Equal(line, freshData) {
			found = true
			break
		}
	}
	if !found {
		t.Error("no sweep cell matches the freshly executed /v1/run bytes — replayed costs diverge from execution")
	}

	m := scrapeMetrics(t, ts)
	for metric, want := range map[string]int64{
		"sweeps_total": 1, "sweep_cells_total": 14,
		"sweep_executions_total": 2, "simulations_total": 2,
	} {
		if m[metric] != want {
			t.Errorf("%s = %d, want %d", metric, m[metric], want)
		}
	}

	// A repeat sweep is served entirely from the cache: same line set
	// (order may differ — cells stream in completion order), zero new
	// executions.
	resp2, data2 := post(t, ts, "/v1/sweep", body)
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("repeat status %d", resp2.StatusCode)
	}
	results2, _, sum2 := readSweep(t, bytes.NewReader(data2))
	want2 := sweepSummary{Cells: 14, CacheHits: 14, Executions: 0, Failed: 0, Complete: true}
	if sum2 != want2 {
		t.Errorf("repeat summary = %+v, want %+v", sum2, want2)
	}
	sortLines := func(ls [][]byte) []string {
		out := make([]string, len(ls))
		for i, l := range ls {
			out[i] = string(l)
		}
		sort.Strings(out)
		return out
	}
	a, b := sortLines(results), sortLines(results2)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("repeat sweep line set differs at %d:\n%s\n%s", i, a[i], b[i])
		}
	}
}

// TestSweepCellsEchoMemoryFields: a sweep's memory fields change no
// functional result, yet every cell echoes them and the cache keys on
// them. Each cell is then the /v1/run response of its echoed request,
// memory fields included, and a sweep under the default memory
// configuration is a group of its own.
func TestSweepCellsEchoMemoryFields(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, data := post(t, ts, "/v1/sweep", `{"workloads":["bsearch"],"sizes":[300],"dcLinesPerCycle":2,"perfectL3":true}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, data)
	}
	results, errLines, sum := readSweep(t, bytes.NewReader(data))
	if len(errLines) != 0 || len(results) != 7 {
		t.Fatalf("got %d results and %d error lines, want 7 and 0", len(results), len(errLines))
	}
	if want := (sweepSummary{Cells: 7, Executions: 1, Complete: true}); sum != want {
		t.Errorf("summary = %+v, want %+v", sum, want)
	}
	for _, line := range results {
		var cell struct {
			Request json.RawMessage `json:"request"`
		}
		var req RunRequest
		if err := json.Unmarshal(line, &cell); err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(cell.Request, &req); err != nil {
			t.Fatal(err)
		}
		if req.DCLinesPerCycle != 2 || !req.PerfectL3 {
			t.Errorf("cell %s echoes dcLinesPerCycle=%d perfectL3=%v, want 2 and true",
				req.Policy, req.DCLinesPerCycle, req.PerfectL3)
		}
		runResp, runData := post(t, ts, "/v1/run", string(cell.Request))
		if got := runResp.Header.Get("X-Cache"); got != "hit" {
			t.Errorf("cell %s: X-Cache = %q, want hit", req.Policy, got)
		}
		if !bytes.Equal(runData, line) {
			t.Errorf("cell %s bytes differ from /v1/run response\nsweep: %s\nrun:   %s", req.Policy, line, runData)
		}
	}

	_, data = post(t, ts, "/v1/sweep", `{"workloads":["bsearch"],"sizes":[300]}`)
	if _, _, sum := readSweep(t, bytes.NewReader(data)); sum.CacheHits != 0 || sum.Executions != 1 {
		t.Errorf("default-memory sweep: %+v, want 0 cache hits and 1 execution", sum)
	}
}

// TestSweepFlushesPartialResultsAndDisconnectCancels drives the two
// streaming guarantees at once. A single-slot server gets a two-group
// sweep — one tiny group, one multi-second group. The tiny group's seven
// cells must arrive while the big group is still simulating (prompt
// flushing, no whole-sweep buffering). Then the client disconnects:
// the big group's run must be cancelled, and nothing from it may enter
// the cache — a follow-up sweep over the tiny group alone is served
// complete, from cache, with the cache still holding exactly the seven
// complete cells.
func TestSweepFlushesPartialResultsAndDisconnectCancels(t *testing.T) {
	_, ts := newTestServer(t, Config{Concurrency: 1})
	// bsearch at 1e6 simulates functionally for several seconds; at 400
	// it takes milliseconds.
	body := `{"workloads":["bsearch"],"sizes":[400,1000000]}`

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/v1/sweep", bytes.NewBufferString(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}

	// The fast group's cells arrive while the stream is still open.
	br := bufio.NewReader(resp.Body)
	var early [][]byte
	for len(early) < 7 {
		line, err := br.ReadBytes('\n')
		if err != nil {
			t.Fatalf("stream ended after %d lines: %v", len(early), err)
		}
		early = append(early, bytes.TrimSuffix(line, []byte("\n")))
	}
	for _, line := range early {
		var probe struct {
			Report json.RawMessage `json:"report"`
		}
		if err := json.Unmarshal(line, &probe); err != nil || probe.Report == nil {
			t.Fatalf("early line is not a result: %q", line)
		}
	}
	// Flush-promptness proof: seven results are in hand while the big
	// group still holds the only run slot.
	m := waitMetrics(t, ts, 10*time.Second, func(m map[string]int64) bool { return m["in_flight"] == 1 })
	if m["sweep_cells_total"] != 7 {
		t.Errorf("sweep_cells_total = %d while big group in flight, want 7", m["sweep_cells_total"])
	}

	// Disconnect mid-stream: the big group's run must stop.
	cancel()
	waitMetrics(t, ts, 5*time.Second, func(m map[string]int64) bool { return m["in_flight"] == 0 })
	m = waitMetrics(t, ts, 2*time.Second, func(m map[string]int64) bool { return m["cancelled_total"] > 0 })

	// No cache poisoning: only the seven completed cells are cached, and
	// a follow-up sweep over the fast group is complete without a single
	// new execution.
	if m["cache_entries"] != 7 {
		t.Errorf("cache holds %d entries after disconnect, want 7 (the completed group only)", m["cache_entries"])
	}
	resp2, data2 := post(t, ts, "/v1/sweep", `{"workloads":["bsearch"],"sizes":[400]}`)
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("follow-up status %d", resp2.StatusCode)
	}
	results2, errLines2, sum2 := readSweep(t, bytes.NewReader(data2))
	if len(errLines2) != 0 {
		t.Fatalf("follow-up sweep errored: %s", errLines2[0])
	}
	want := sweepSummary{Cells: 7, CacheHits: 7, Executions: 0, Failed: 0, Complete: true}
	if sum2 != want {
		t.Errorf("follow-up summary = %+v, want %+v", sum2, want)
	}
	sorted := func(ls [][]byte) []string {
		out := make([]string, len(ls))
		for i, l := range ls {
			out[i] = string(l)
		}
		sort.Strings(out)
		return out
	}
	a, b := sorted(early), sorted(results2)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("cached cell bytes differ from the originally streamed ones at %d", i)
		}
	}
}

// TestSweepCorpusRangeOverHTTP sweeps a generated-corpus range through
// the API: the range expands to one cell column per kernel under its
// canonical single-kernel name, each cell populates the /v1/run cache
// for that name, and a malformed corpus name is rejected up front.
func TestSweepCorpusRangeOverHTTP(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, data := post(t, ts, "/v1/sweep",
		`{"workloads":["kgen:branchy:7:0-2"],"policies":["scc"]}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, data)
	}
	results, errLines, sum := readSweep(t, bytes.NewReader(data))
	if len(errLines) != 0 {
		t.Fatalf("error line: %s", errLines[0])
	}
	if sum.Cells != 2 || sum.Executions != 2 || !sum.Complete {
		t.Errorf("summary = %+v, want 2 cells from 2 executions, complete", sum)
	}
	seen := map[string]bool{}
	for _, line := range results {
		var probe struct {
			Request json.RawMessage `json:"request"`
		}
		if err := json.Unmarshal(line, &probe); err != nil {
			t.Fatal(err)
		}
		var req struct {
			Workload string `json:"workload"`
		}
		if err := json.Unmarshal(probe.Request, &req); err != nil {
			t.Fatal(err)
		}
		seen[req.Workload] = true
		// The cell's echoed request is a plain /v1/run request for the
		// single-kernel name; it must already be cached and byte-identical.
		runResp, runData := post(t, ts, "/v1/run", string(probe.Request))
		if runResp.StatusCode != http.StatusOK {
			t.Fatalf("replaying corpus cell: status %d (%s)", runResp.StatusCode, runData)
		}
		if got := runResp.Header.Get("X-Cache"); got != "hit" {
			t.Errorf("corpus cell X-Cache = %q, want hit", got)
		}
		if !bytes.Equal(runData, line) {
			t.Errorf("corpus cell bytes differ from /v1/run response\nsweep: %s\nrun:   %s", line, runData)
		}
	}
	if !seen["kgen:branchy:7:0"] || !seen["kgen:branchy:7:1"] {
		t.Errorf("range did not expand to canonical single names: %v", seen)
	}

	badResp, badData := post(t, ts, "/v1/sweep", `{"workloads":["kgen:bogus:1:0"]}`)
	if badResp.StatusCode != http.StatusBadRequest {
		t.Errorf("malformed corpus name: status %d (%s), want 400", badResp.StatusCode, badData)
	}
}

// TestSweepWidthAxisOverHTTP sweeps a width-parameterizable kernel
// across SIMD widths through the API and checks each cell ran at its
// width — the simdWidth axis threading end to end.
func TestSweepWidthAxisOverHTTP(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, data := post(t, ts, "/v1/sweep",
		`{"workloads":["bsearch"],"simdWidths":[8,16],"policies":["scc"],"sizes":[300]}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, data)
	}
	results, errLines, sum := readSweep(t, bytes.NewReader(data))
	if len(errLines) != 0 {
		t.Fatalf("error line: %s", errLines[0])
	}
	if sum.Cells != 2 || sum.Executions != 2 || !sum.Complete {
		t.Errorf("summary = %+v, want 2 cells from 2 executions, complete", sum)
	}
	widths := map[int]bool{}
	for _, line := range results {
		var probe struct {
			Request struct {
				SIMDWidth int `json:"simdWidth"`
			} `json:"request"`
			Report struct {
				Width int `json:"simdWidth"`
			} `json:"report"`
		}
		if err := json.Unmarshal(line, &probe); err != nil {
			t.Fatal(err)
		}
		if probe.Report.Width != probe.Request.SIMDWidth {
			t.Errorf("cell requested SIMD%d but report says SIMD%d", probe.Request.SIMDWidth, probe.Report.Width)
		}
		widths[probe.Request.SIMDWidth] = true
	}
	if !widths[8] || !widths[16] {
		t.Errorf("width axis not covered: %v", widths)
	}
}

// TestSweepGroupsAdmittedNotShed holds the single run slot with a slow
// /v1/run and starts a sweep behind it. The waiting group counts in
// queue_depth, as a unary flight does, so a further distinct /v1/run
// finds the one-deep queue full and is shed with 429; the group itself
// is never shed, and once the slot frees it streams every cell.
func TestSweepGroupsAdmittedNotShed(t *testing.T) {
	_, ts := newTestServer(t, Config{Concurrency: 1, MaxQueue: 1})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	held := make(chan struct{})
	go func() {
		defer close(held)
		req, _ := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/v1/run",
			bytes.NewBufferString(`{"workload":"bsearch","timed":true,"size":600000}`))
		req.Header.Set("Content-Type", "application/json")
		if resp, err := http.DefaultClient.Do(req); err == nil {
			resp.Body.Close()
		}
	}()
	waitMetrics(t, ts, 5*time.Second, func(m map[string]int64) bool { return m["in_flight"] == 1 })

	swept := make(chan *http.Response, 1)
	go func() {
		resp, err := http.Post(ts.URL+"/v1/sweep", "application/json",
			bytes.NewBufferString(`{"workloads":["bsearch"],"sizes":[300]}`))
		if err != nil {
			resp = nil
		}
		swept <- resp
	}()
	waitMetrics(t, ts, 5*time.Second, func(m map[string]int64) bool {
		return m["in_flight"] == 1 && m["queue_depth"] == 1
	})
	resp, data := post(t, ts, "/v1/run", `{"workload":"bsearch","timed":true,"size":600001}`)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status = %d (%s), want 429 behind the waiting sweep group", resp.StatusCode, data)
	}

	cancel() // release the slot
	<-held
	sresp := <-swept
	if sresp == nil {
		t.Fatal("POST /v1/sweep failed")
	}
	defer sresp.Body.Close()
	results, errLines, sum := readSweep(t, sresp.Body)
	if len(errLines) != 0 {
		t.Fatalf("sweep streamed error lines: %s", errLines)
	}
	if len(results) != 7 || !sum.Complete || sum.Executions != 1 {
		t.Fatalf("sweep streamed %d result lines, summary %+v; want 7 cells from 1 execution", len(results), sum)
	}
	if m := scrapeMetrics(t, ts); m["rejected_total"] != 1 || m["queue_depth"] != 0 {
		t.Errorf("rejected_total = %d, queue_depth = %d; want 1 and 0", m["rejected_total"], m["queue_depth"])
	}
}
