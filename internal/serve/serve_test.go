package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"regexp"
	"runtime"
	"strconv"
	"sync"
	"testing"
	"time"
)

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	api := New(cfg)
	ts := httptest.NewServer(api)
	t.Cleanup(func() {
		ts.Close()
		api.Close()
	})
	return api, ts
}

func post(t *testing.T, ts *httptest.Server, path, body string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(ts.URL+path, "application/json", bytes.NewBufferString(body))
	if err != nil {
		t.Fatalf("POST %s: %v", path, err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("reading %s response: %v", path, err)
	}
	return resp, data
}

var metricRE = regexp.MustCompile(`(?m)^simd_serve_(\w+) (\d+)$`)

func scrapeMetrics(t *testing.T, ts *httptest.Server) map[string]int64 {
	t.Helper()
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatalf("GET /metrics: %v", err)
	}
	defer resp.Body.Close()
	data, _ := io.ReadAll(resp.Body)
	out := map[string]int64{}
	for _, m := range metricRE.FindAllStringSubmatch(string(data), -1) {
		v, err := strconv.ParseInt(m[2], 10, 64)
		if err != nil {
			t.Fatalf("metric %s: %v", m[1], err)
		}
		out[m[1]] = v
	}
	return out
}

// waitMetrics polls until cond holds or the deadline passes.
func waitMetrics(t *testing.T, ts *httptest.Server, d time.Duration, cond func(map[string]int64) bool) map[string]int64 {
	t.Helper()
	deadline := time.Now().Add(d)
	for {
		m := scrapeMetrics(t, ts)
		if cond(m) {
			return m
		}
		if time.Now().After(deadline) {
			t.Fatalf("metrics condition not reached within %v: %v", d, m)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestRunCacheByteIdenticalAndFaster exercises the acceptance criterion
// directly: a repeated identical request must come back from the cache
// byte-identical and at least 10x faster than the simulation.
func TestRunCacheByteIdenticalAndFaster(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	// Timed bsearch at this size simulates for a few hundred
	// milliseconds; the cache hit is a map lookup.
	body := `{"workload":"bsearch","timed":true,"size":30000}`

	start := time.Now()
	resp1, data1 := post(t, ts, "/v1/run", body)
	missDur := time.Since(start)
	if resp1.StatusCode != http.StatusOK {
		t.Fatalf("miss status %d: %s", resp1.StatusCode, data1)
	}
	if got := resp1.Header.Get("X-Cache"); got != "miss" {
		t.Fatalf("first request X-Cache = %q, want miss", got)
	}

	start = time.Now()
	resp2, data2 := post(t, ts, "/v1/run", body)
	hitDur := time.Since(start)
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("hit status %d", resp2.StatusCode)
	}
	if got := resp2.Header.Get("X-Cache"); got != "hit" {
		t.Fatalf("second request X-Cache = %q, want hit", got)
	}
	if !bytes.Equal(data1, data2) {
		t.Fatal("cache hit is not byte-identical to the original response")
	}
	if hitDur*10 > missDur {
		t.Errorf("cache hit took %v vs %v miss — less than the required 10x speedup", hitDur, missDur)
	}
	var parsed struct {
		Report struct {
			Kernel string `json:"kernel"`
			Timed  *struct {
				TotalCycles int64 `json:"totalCycles"`
			} `json:"timed"`
		} `json:"report"`
	}
	if err := json.Unmarshal(data1, &parsed); err != nil {
		t.Fatalf("response is not valid JSON: %v", err)
	}
	if parsed.Report.Kernel != "bsearch" || parsed.Report.Timed == nil || parsed.Report.Timed.TotalCycles <= 0 {
		t.Fatalf("implausible report: %s", data1)
	}
}

// TestEquivalentRequestsShareOneCacheEntry checks canonicalization:
// spellings that normalize to the same simulation hit the same entry,
// and the worker knob never splits the key.
func TestEquivalentRequestsShareOneCacheEntry(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, data1 := post(t, ts, "/v1/run", `{"workload":"bsearch","policy":"ivb"}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, data1)
	}
	for _, body := range []string{
		`{"workload":"bsearch"}`,                            // defaults spelled implicitly
		`{"workload":"bsearch","size":0,"policy":"ivb"}`,    // defaults spelled explicitly
		`{"workload":"bsearch","workers":3,"policy":"ivb"}`, // scheduling knob
	} {
		resp, data := post(t, ts, "/v1/run", body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d", body, resp.StatusCode)
		}
		if got := resp.Header.Get("X-Cache"); got != "hit" {
			t.Errorf("%s: X-Cache = %q, want hit", body, got)
		}
		if !bytes.Equal(data1, data) {
			t.Errorf("%s: response differs from canonical form", body)
		}
	}
}

// TestConcurrentIdenticalRequestsRunOnce fires identical requests at
// once and requires exactly one simulation: the flight group coalesces
// everything in flight, the cache covers stragglers.
func TestConcurrentIdenticalRequestsRunOnce(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	body := `{"workload":"bsearch","timed":true,"size":60000}`

	const clients = 8
	var wg sync.WaitGroup
	responses := make([][]byte, clients)
	statuses := make([]int, clients)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := http.Post(ts.URL+"/v1/run", "application/json", bytes.NewBufferString(body))
			if err != nil {
				return
			}
			defer resp.Body.Close()
			responses[i], _ = io.ReadAll(resp.Body)
			statuses[i] = resp.StatusCode
		}(i)
	}
	wg.Wait()

	for i := 0; i < clients; i++ {
		if statuses[i] != http.StatusOK {
			t.Fatalf("client %d: status %d (%s)", i, statuses[i], responses[i])
		}
		if !bytes.Equal(responses[0], responses[i]) {
			t.Fatalf("client %d received different bytes", i)
		}
	}
	m := scrapeMetrics(t, ts)
	if m["simulations_total"] != 1 {
		t.Errorf("simulations_total = %d, want exactly 1 for %d identical requests",
			m["simulations_total"], clients)
	}
	if m["requests_total"] != clients {
		t.Errorf("requests_total = %d, want %d", m["requests_total"], clients)
	}
}

// TestClientCancellationStopsRun starts a multi-second simulation,
// drops the only client, and requires the server to abandon the run
// long before it could have finished.
func TestClientCancellationStopsRun(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	// Timed bsearch at this size runs for seconds — far longer than the
	// drain deadline below, so reaching in_flight=0 proves cancellation.
	body := `{"workload":"bsearch","timed":true,"size":400000}`

	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/v1/run", bytes.NewBufferString(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	errc := make(chan error, 1)
	go func() {
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			resp.Body.Close()
		}
		errc <- err
	}()

	waitMetrics(t, ts, 5*time.Second, func(m map[string]int64) bool { return m["in_flight"] == 1 })
	cancel()
	if err := <-errc; err == nil {
		t.Fatal("cancelled request returned a response")
	}
	m := waitMetrics(t, ts, 2*time.Second, func(m map[string]int64) bool { return m["in_flight"] == 0 })
	if m["cancelled_total"] == 0 {
		t.Error("cancellation not recorded in metrics")
	}
}

// TestShutdownCancelsInflightRuns requires Server.Close to stop
// simulations that still have waiting clients: the waiter gets a
// retryable 503 instead of blocking behind a doomed run.
func TestShutdownCancelsInflightRuns(t *testing.T) {
	api, ts := newTestServer(t, Config{})
	body := `{"workload":"bsearch","timed":true,"size":400001}`

	type result struct {
		status int
		err    error
	}
	resc := make(chan result, 1)
	go func() {
		resp, err := http.Post(ts.URL+"/v1/run", "application/json", bytes.NewBufferString(body))
		if err != nil {
			resc <- result{err: err}
			return
		}
		defer resp.Body.Close()
		io.ReadAll(resp.Body)
		resc <- result{status: resp.StatusCode}
	}()

	waitMetrics(t, ts, 5*time.Second, func(m map[string]int64) bool { return m["in_flight"] == 1 })
	api.Close()
	select {
	case r := <-resc:
		if r.err != nil {
			t.Fatalf("request error: %v", r.err)
		}
		if r.status != http.StatusServiceUnavailable {
			t.Fatalf("status after shutdown = %d, want 503", r.status)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("request still blocked 2s after shutdown — run not cancelled")
	}
	waitMetrics(t, ts, 2*time.Second, func(m map[string]int64) bool { return m["in_flight"] == 0 })
}

// TestRequestTimeout gives the server a tiny deadline: the waiter times
// out with 504 and, being the only client, takes the run down with it.
func TestRequestTimeout(t *testing.T) {
	_, ts := newTestServer(t, Config{Timeout: 50 * time.Millisecond})
	resp, data := post(t, ts, "/v1/run", `{"workload":"bsearch","timed":true,"size":400002}`)
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status = %d (%s), want 504", resp.StatusCode, data)
	}
	waitMetrics(t, ts, 2*time.Second, func(m map[string]int64) bool { return m["in_flight"] == 0 })
}

// TestAdmissionQueueSheds fills the single run slot and the single
// queue slot, then requires the third distinct request to be rejected
// with 429 Too Many Requests (and a Retry-After hint) instead of
// queueing without bound.
func TestAdmissionQueueSheds(t *testing.T) {
	_, ts := newTestServer(t, Config{Concurrency: 1, MaxQueue: 1})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			body := fmt.Sprintf(`{"workload":"bsearch","timed":true,"size":%d}`, 500000+i)
			req, _ := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/v1/run", bytes.NewBufferString(body))
			req.Header.Set("Content-Type", "application/json")
			resp, err := http.DefaultClient.Do(req)
			if err == nil {
				resp.Body.Close()
			}
		}(i)
	}
	waitMetrics(t, ts, 5*time.Second, func(m map[string]int64) bool {
		return m["in_flight"] == 1 && m["queue_depth"] == 1
	})

	resp, data := post(t, ts, "/v1/run", `{"workload":"bsearch","timed":true,"size":500002}`)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status = %d (%s), want 429 from full queue", resp.StatusCode, data)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 response lacks a Retry-After hint")
	}
	m := scrapeMetrics(t, ts)
	if m["rejected_total"] == 0 {
		t.Error("rejection not recorded in metrics")
	}

	cancel() // release the two held runs
	wg.Wait()
	waitMetrics(t, ts, 2*time.Second, func(m map[string]int64) bool {
		return m["in_flight"] == 0 && m["queue_depth"] == 0
	})
}

// TestExperimentEndpoint renders a cheap experiment and requires the
// repeat to be a byte-identical cache hit.
func TestExperimentEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp1, data1 := post(t, ts, "/v1/experiment", `{"id":"table3"}`)
	if resp1.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp1.StatusCode, data1)
	}
	var parsed struct {
		Output string `json:"output"`
	}
	if err := json.Unmarshal(data1, &parsed); err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains([]byte(parsed.Output), []byte("parameter")) {
		t.Fatalf("table3 output missing expected content: %q", parsed.Output)
	}
	resp2, data2 := post(t, ts, "/v1/experiment", `{"id":"table3"}`)
	if got := resp2.Header.Get("X-Cache"); got != "hit" {
		t.Fatalf("repeat X-Cache = %q, want hit", got)
	}
	if !bytes.Equal(data1, data2) {
		t.Fatal("experiment cache hit not byte-identical")
	}
}

func TestValidation(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	cases := []struct {
		path, body string
	}{
		{"/v1/run", `{"workload":"no-such-workload"}`},
		{"/v1/run", `{}`},
		{"/v1/run", `{"workload":"bsearch","policy":"warp-shuffle"}`},
		{"/v1/run", `{"workload":"bsearch","dcLinesPerCycle":-1}`},
		{"/v1/run", `{"workload":"bsearch","simdWidth":7}`},
		{"/v1/run", `{"workload":"bfs","simdWidth":8}`}, // bfs has no width variants
		{"/v1/run", `{"workload":"bsearch","bogus":true}`},
		{"/v1/run", `not json`},
		{"/v1/sweep", `{}`},
		{"/v1/sweep", `{"workloads":["no-such-workload"]}`},
		{"/v1/sweep", `{"workloads":["bsearch"],"policies":["warp-shuffle"]}`},
		{"/v1/sweep", `{"workloads":["bsearch"],"simdWidths":[7]}`},
		{"/v1/experiment", `{"id":"no-such-experiment"}`},
		{"/v1/experiment", `{}`},
	}
	for _, c := range cases {
		resp, data := post(t, ts, c.path, c.body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s %s: status %d (%s), want 400", c.path, c.body, resp.StatusCode, data)
		}
		var e struct {
			Error struct {
				Code    string `json:"code"`
				Message string `json:"message"`
			} `json:"error"`
		}
		if err := json.Unmarshal(data, &e); err != nil || e.Error.Code != "invalid_request" || e.Error.Message == "" {
			t.Errorf("%s %s: error body %q is not the invalid_request envelope", c.path, c.body, data)
		}
	}
	m := scrapeMetrics(t, ts)
	if m["simulations_total"] != 0 {
		t.Errorf("invalid requests triggered %d simulations", m["simulations_total"])
	}
}

func TestListingAndHealthEndpoints(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: %v %v", err, resp)
	}
	resp.Body.Close()

	for _, path := range []string{"/v1/workloads", "/v1/experiments"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		data, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		var rows []map[string]any
		if err := json.Unmarshal(data, &rows); err != nil || len(rows) == 0 {
			t.Fatalf("GET %s: bad listing %q: %v", path, data, err)
		}
	}
}

func TestCacheLRUEviction(t *testing.T) {
	c := newCache(2)
	c.add("a", []byte("1"))
	c.add("b", []byte("2"))
	if _, ok := c.get("a"); !ok {
		t.Fatal("a evicted early")
	}
	c.add("c", []byte("3")) // evicts b: a was touched more recently
	if _, ok := c.get("b"); ok {
		t.Fatal("b not evicted")
	}
	for _, k := range []string{"a", "c"} {
		if _, ok := c.get(k); !ok {
			t.Fatalf("%s missing", k)
		}
	}
	if c.len() != 2 {
		t.Fatalf("len = %d", c.len())
	}
}

func TestRequestKeyNormalization(t *testing.T) {
	a := RunRequest{Workload: "bsearch"}
	b := RunRequest{Workload: "bsearch", Policy: "ivybridge", Workers: 7}
	for _, r := range []*RunRequest{&a, &b} {
		if _, err := r.normalize(); err != nil {
			t.Fatal(err)
		}
	}
	if a.key() != b.key() {
		t.Error("equivalent run requests produced different keys")
	}
	c := RunRequest{Workload: "bsearch", Timed: true}
	if _, err := c.normalize(); err != nil {
		t.Fatal(err)
	}
	if c.key() == a.key() {
		t.Error("timed and functional requests share a key")
	}
	e1 := ExperimentRequest{ID: "fig10", Quick: true, Workers: 2}
	e2 := ExperimentRequest{ID: "fig10", Quick: true}
	if e1.key() != e2.key() {
		t.Error("worker count leaked into the experiment key")
	}
	if (ExperimentRequest{ID: "fig10"}).key() == e2.key() {
		t.Error("quick flag missing from the experiment key")
	}
}

// TestNormalizeClampsWorkers pins the worker knob of both unary
// endpoints to [0, GOMAXPROCS]: a request cannot size the host's worker
// pools, and the thread contexts and scratchpads each worker holds,
// past its processors.
func TestNormalizeClampsWorkers(t *testing.T) {
	procs := runtime.GOMAXPROCS(0)
	for _, tc := range []struct{ in, want int }{
		{-3, 0}, {0, 0}, {1, 1}, {procs, procs}, {procs + 1, procs}, {4096, procs},
	} {
		run := RunRequest{Workload: "bsearch", Workers: tc.in}
		exp := ExperimentRequest{ID: "table3", Workers: tc.in}
		if _, err := run.normalize(); err != nil {
			t.Fatal(err)
		}
		if err := exp.normalize(); err != nil {
			t.Fatal(err)
		}
		if run.Workers != tc.want || exp.Workers != tc.want {
			t.Errorf("workers %d normalized to %d (run) and %d (experiment), want %d",
				tc.in, run.Workers, exp.Workers, tc.want)
		}
	}
}

// TestCachedBodyOmitsWorkers pins that the worker knob never reaches the
// result bytes: a request that sets workers, and the cache hit a later
// request without it gets, both answer with the bytes a fresh server
// computes for the request without workers, on /v1/run and
// /v1/experiment alike.
func TestCachedBodyOmitsWorkers(t *testing.T) {
	for _, tc := range []struct{ path, with, without string }{
		{"/v1/run", `{"workload":"bsearch","workers":3}`, `{"workload":"bsearch"}`},
		{"/v1/experiment", `{"id":"table3","workers":3}`, `{"id":"table3"}`},
	} {
		_, ts := newTestServer(t, Config{})
		_, first := post(t, ts, tc.path, tc.with)
		resp, hit := post(t, ts, tc.path, tc.without)
		if resp.StatusCode != http.StatusOK || resp.Header.Get("X-Cache") != "hit" {
			t.Fatalf("%s: status %d, X-Cache %q, want a 200 hit: %s",
				tc.path, resp.StatusCode, resp.Header.Get("X-Cache"), hit)
		}
		_, fresh := newTestServer(t, Config{})
		_, want := post(t, fresh, tc.path, tc.without)
		if !bytes.Equal(first, want) || !bytes.Equal(hit, want) {
			t.Errorf("%s: bytes depend on the first caller's workers\nfirst: %.200s\nhit:   %.200s\nfresh: %.200s",
				tc.path, first, hit, want)
		}
	}
}
