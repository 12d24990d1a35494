package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"
)

// Error-path behavior of the HTTP front end: timeouts mid-run, cancelled
// clients sharing a flight, and the determinism guarantee the result
// cache rests on. The happy paths live in serve_test.go.

// TestErrorEnvelopeEveryPath drives every error path of the API —
// validation, the sweep cell limit, queue shedding, per-request
// deadline, and server shutdown — and requires each to answer with its
// HTTP status and the one versioned envelope
// {"error":{"code","message","retryAfter"}}.
func TestErrorEnvelopeEveryPath(t *testing.T) {
	cases := []struct {
		name       string
		status     int
		code       string
		retryAfter bool
		run        func(t *testing.T) (*http.Response, []byte)
	}{
		{
			name: "malformed body", status: http.StatusBadRequest, code: "invalid_request",
			run: func(t *testing.T) (*http.Response, []byte) {
				_, ts := newTestServer(t, Config{})
				return post(t, ts, "/v1/run", `not json`)
			},
		},
		{
			name: "unknown workload", status: http.StatusBadRequest, code: "invalid_request",
			run: func(t *testing.T) (*http.Response, []byte) {
				_, ts := newTestServer(t, Config{})
				return post(t, ts, "/v1/run", `{"workload":"no-such"}`)
			},
		},
		{
			name: "unknown experiment", status: http.StatusBadRequest, code: "invalid_request",
			run: func(t *testing.T) (*http.Response, []byte) {
				_, ts := newTestServer(t, Config{})
				return post(t, ts, "/v1/experiment", `{"id":"no-such"}`)
			},
		},
		{
			name: "sweep invalid axis", status: http.StatusBadRequest, code: "invalid_request",
			run: func(t *testing.T) (*http.Response, []byte) {
				_, ts := newTestServer(t, Config{})
				return post(t, ts, "/v1/sweep", `{"workloads":["bsearch"],"policies":["warp-shuffle"]}`)
			},
		},
		{
			name: "sweep over cell limit", status: http.StatusBadRequest, code: "invalid_request",
			run: func(t *testing.T) (*http.Response, []byte) {
				_, ts := newTestServer(t, Config{MaxSweepCells: 3})
				return post(t, ts, "/v1/sweep", `{"workloads":["bsearch"]}`) // expands to 7 cells
			},
		},
		{
			name: "sweep over a billion-kernel range", status: http.StatusBadRequest, code: "invalid_request",
			run: func(t *testing.T) (*http.Response, []byte) {
				_, ts := newTestServer(t, Config{})
				var before, after runtime.MemStats
				runtime.ReadMemStats(&before)
				resp, data := post(t, ts, "/v1/sweep", `{"workloads":["kgen:mixed:1:0-1000000000"],"policies":["scc"]}`)
				runtime.ReadMemStats(&after)
				if n := after.TotalAlloc - before.TotalAlloc; n >= 1<<20 {
					t.Errorf("refusing the sweep allocated %d bytes, want under 1 MB", n)
				}
				return resp, data
			},
		},
		{
			name: "queue full", status: http.StatusTooManyRequests, code: "queue_full", retryAfter: true,
			run: func(t *testing.T) (*http.Response, []byte) {
				_, ts := newTestServer(t, Config{Concurrency: 1, MaxQueue: 1})
				ctx, cancel := context.WithCancel(context.Background())
				defer cancel()
				var wg sync.WaitGroup
				defer wg.Wait()
				for i := 0; i < 2; i++ {
					wg.Add(1)
					go func(i int) {
						defer wg.Done()
						body := fmt.Sprintf(`{"workload":"bsearch","timed":true,"size":%d}`, 700000+i)
						req, _ := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/v1/run", bytes.NewBufferString(body))
						req.Header.Set("Content-Type", "application/json")
						if resp, err := http.DefaultClient.Do(req); err == nil {
							resp.Body.Close()
						}
					}(i)
				}
				waitMetrics(t, ts, 5*time.Second, func(m map[string]int64) bool {
					return m["in_flight"] == 1 && m["queue_depth"] == 1
				})
				resp, data := post(t, ts, "/v1/run", `{"workload":"bsearch","timed":true,"size":700002}`)
				cancel()
				return resp, data
			},
		},
		{
			name: "deadline exceeded", status: http.StatusGatewayTimeout, code: "deadline_exceeded",
			run: func(t *testing.T) (*http.Response, []byte) {
				_, ts := newTestServer(t, Config{Timeout: 50 * time.Millisecond})
				return post(t, ts, "/v1/run", `{"workload":"bsearch","timed":true,"size":700003}`)
			},
		},
		{
			name: "shutdown", status: http.StatusServiceUnavailable, code: "shutting_down",
			run: func(t *testing.T) (*http.Response, []byte) {
				api, ts := newTestServer(t, Config{})
				type result struct {
					resp *http.Response
					data []byte
				}
				resc := make(chan result, 1)
				go func() {
					resp, err := http.Post(ts.URL+"/v1/run", "application/json",
						bytes.NewBufferString(`{"workload":"bsearch","timed":true,"size":700004}`))
					if err != nil {
						resc <- result{}
						return
					}
					defer resp.Body.Close()
					data, _ := io.ReadAll(resp.Body)
					resc <- result{resp, data}
				}()
				waitMetrics(t, ts, 5*time.Second, func(m map[string]int64) bool { return m["in_flight"] == 1 })
				api.Close()
				r := <-resc
				if r.resp == nil {
					t.Fatal("shutdown request failed at the transport level")
				}
				return r.resp, r.data
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, data := tc.run(t)
			if resp.StatusCode != tc.status {
				t.Fatalf("status = %d (%s), want %d", resp.StatusCode, data, tc.status)
			}
			var e struct {
				Error struct {
					Code       string `json:"code"`
					Message    string `json:"message"`
					RetryAfter int    `json:"retryAfter"`
				} `json:"error"`
			}
			if err := json.Unmarshal(data, &e); err != nil {
				t.Fatalf("body %q is not the JSON envelope: %v", data, err)
			}
			if e.Error.Code != tc.code {
				t.Errorf("error.code = %q, want %q", e.Error.Code, tc.code)
			}
			if e.Error.Message == "" {
				t.Error("error.message is empty")
			}
			if tc.retryAfter {
				if e.Error.RetryAfter < 1 {
					t.Errorf("error.retryAfter = %d, want >= 1", e.Error.RetryAfter)
				}
				if resp.Header.Get("Retry-After") == "" {
					t.Error("Retry-After header missing on queue_full")
				}
			} else if e.Error.RetryAfter != 0 {
				t.Errorf("error.retryAfter = %d on a non-shedding error", e.Error.RetryAfter)
			}
		})
	}
}

// TestDeadlineExceededMidRunDoesNotPoisonCache hits the per-request
// deadline while a simulation is executing, then requires (a) a 504 for
// the client, (b) no entry in the result cache for the doomed run —
// cancelled simulations must never publish partial results — and (c) the
// server remaining fully usable for an unrelated request afterwards.
func TestDeadlineExceededMidRunDoesNotPoisonCache(t *testing.T) {
	// 1s: the doomed run below takes many seconds, so the deadline still
	// fires mid-simulation every time, while the small functional
	// follow-up fits comfortably even under -race with the statsguard
	// tag (whose per-record goroutine-id resolution makes tight
	// deadlines flaky).
	_, ts := newTestServer(t, Config{Timeout: time.Second})

	// Long enough that the deadline fires mid-simulation, every time.
	resp, data := post(t, ts, "/v1/run", `{"workload":"bsearch","timed":true,"size":600000}`)
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status = %d (%s), want 504", resp.StatusCode, data)
	}
	m := waitMetrics(t, ts, 2*time.Second, func(m map[string]int64) bool { return m["in_flight"] == 0 })
	if m["cache_entries"] != 0 {
		t.Fatalf("cache holds %d entries after a timed-out run; a cancelled run must not be cached", m["cache_entries"])
	}

	// The server is still healthy: a request that fits the deadline
	// completes and is cached.
	resp, data = post(t, ts, "/v1/run", `{"workload":"bsearch","size":200}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("follow-up status = %d (%s), want 200", resp.StatusCode, data)
	}
	m = scrapeMetrics(t, ts)
	if m["cache_entries"] != 1 {
		t.Errorf("cache holds %d entries after one successful run, want 1", m["cache_entries"])
	}
}

// TestUnrunnableSizeIsAnErrorNotACrash sends sizes a workload cannot run
// at — dct8 at 17 over /v1/run (its check once read past its input and
// killed the process) and fwht at 3 over /v1/sweep: both answer with the
// error envelope, nothing is cached, and the server keeps serving.
func TestUnrunnableSizeIsAnErrorNotACrash(t *testing.T) {
	api, ts := newTestServer(t, Config{})
	resp, data := post(t, ts, "/v1/run", `{"workload":"dct8","size":17}`)
	var e errorEnvelope
	if err := json.Unmarshal(data, &e); err != nil {
		t.Fatalf("body %q is not the JSON envelope: %v", data, err)
	}
	if resp.StatusCode != http.StatusInternalServerError || e.Error.Code != "internal" ||
		!strings.Contains(e.Error.Message, "multiple of") {
		t.Errorf("dct8 at size 17: status %d, envelope %+v; want 500 with the size error", resp.StatusCode, e.Error)
	}
	req := RunRequest{Workload: "dct8", Size: 17}
	if err := req.normalize(); err != nil {
		t.Fatal(err)
	}
	if _, ok := api.cache.get(req.key()); ok {
		t.Error("the failed run was cached")
	}

	resp, data = post(t, ts, "/v1/sweep", `{"workloads":["fwht"],"sizes":[3]}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("sweep status %d: %s", resp.StatusCode, data)
	}
	results, errLines, sum := readSweep(t, bytes.NewReader(data))
	if len(results) != 0 || len(errLines) != 7 || sum.Failed != 7 {
		t.Errorf("fwht at size 3: %d results, %d error lines, summary %+v; want 7 failed cells", len(results), len(errLines), sum)
	}
	if m := scrapeMetrics(t, ts); m["cache_entries"] != 0 {
		t.Errorf("cache holds %d entries after two failed requests, want 0", m["cache_entries"])
	}

	health, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatalf("GET /healthz: %v", err)
	}
	health.Body.Close()
	if health.StatusCode != http.StatusOK {
		t.Errorf("/healthz status %d after the failed requests, want 200", health.StatusCode)
	}
}

// TestFlightPanicBecomesError runs a flight whose computation panics: the
// waiter sees the panic as the flight's error, the flight retires, and
// the next request for the key leads a fresh flight.
func TestFlightPanicBecomesError(t *testing.T) {
	g := newFlightGroup()
	f, leader, _ := g.join("k", context.Background())
	if !leader {
		t.Fatal("first join did not lead")
	}
	go g.run("k", f, func() (*response, error) { panic("engine bug") })
	<-f.done
	g.leave("k", f)
	if f.result != nil || f.err == nil || !strings.Contains(f.err.Error(), "engine bug") {
		t.Errorf("panicked flight: result %v, err %v; want no result and the panic as the error", f.result, f.err)
	}
	f2, leader, _ := g.join("k", context.Background())
	if !leader {
		t.Error("the panicked flight did not retire: a later join coalesced onto it")
	}
	g.leave("k", f2)
}

// TestCancelledWaiterDoesNotAbortSharedFlight coalesces two clients onto
// one simulation and disconnects one of them mid-run: the survivor must
// still receive the full 200 result from the single shared run — a
// flight dies with its *last* waiter, not its first.
func TestCancelledWaiterDoesNotAbortSharedFlight(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	// A few hundred milliseconds of simulated work: long enough to
	// cancel mid-run, short enough to keep the test quick.
	body := `{"workload":"bsearch","timed":true,"size":60001}`

	ctx, cancel := context.WithCancel(context.Background())
	quitterErr := make(chan error, 1)
	go func() {
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/v1/run", bytes.NewBufferString(body))
		if err != nil {
			quitterErr <- err
			return
		}
		req.Header.Set("Content-Type", "application/json")
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			resp.Body.Close()
		}
		quitterErr <- err
	}()

	waitMetrics(t, ts, 5*time.Second, func(m map[string]int64) bool { return m["in_flight"] == 1 })

	type result struct {
		status int
		body   []byte
	}
	survivor := make(chan result, 1)
	go func() {
		resp, err := http.Post(ts.URL+"/v1/run", "application/json", bytes.NewBufferString(body))
		if err != nil {
			survivor <- result{}
			return
		}
		defer resp.Body.Close()
		data, _ := io.ReadAll(resp.Body)
		survivor <- result{status: resp.StatusCode, body: data}
	}()

	// The second client must join the same flight, not start a run.
	waitMetrics(t, ts, 5*time.Second, func(m map[string]int64) bool { return m["coalesced_total"] == 1 })
	cancel()
	if err := <-quitterErr; err == nil {
		t.Fatal("cancelled client received a response")
	}

	r := <-survivor
	if r.status != http.StatusOK {
		t.Fatalf("surviving waiter got status %d (%s), want 200", r.status, r.body)
	}
	m := scrapeMetrics(t, ts)
	if m["simulations_total"] != 1 {
		t.Errorf("simulations_total = %d, want 1 — the survivor must reuse the quitter's run", m["simulations_total"])
	}
}

// TestCacheHitsByteIdenticalAcrossServers pins the content-addressing
// guarantee end to end: a fresh server given the same request computes
// byte-identical output (determinism across processes), and concurrent
// cache hits on the original server all return exactly those bytes.
func TestCacheHitsByteIdenticalAcrossServers(t *testing.T) {
	body := `{"workload":"nw","timed":true,"policy":"scc","size":48}`

	_, ts1 := newTestServer(t, Config{})
	resp, fresh1 := post(t, ts1, "/v1/run", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("server 1 status %d: %s", resp.StatusCode, fresh1)
	}

	_, ts2 := newTestServer(t, Config{})
	resp, fresh2 := post(t, ts2, "/v1/run", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("server 2 status %d: %s", resp.StatusCode, fresh2)
	}
	if !bytes.Equal(fresh1, fresh2) {
		t.Fatal("two servers computed different bytes for the same request; the cache key promises determinism")
	}

	const clients = 8
	var wg sync.WaitGroup
	hits := make([][]byte, clients)
	states := make([]string, clients)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := http.Post(ts1.URL+"/v1/run", "application/json", bytes.NewBufferString(body))
			if err != nil {
				return
			}
			defer resp.Body.Close()
			hits[i], _ = io.ReadAll(resp.Body)
			states[i] = resp.Header.Get("X-Cache")
		}(i)
	}
	wg.Wait()
	for i := 0; i < clients; i++ {
		if states[i] != "hit" {
			t.Errorf("client %d: X-Cache = %q, want hit", i, states[i])
		}
		if !bytes.Equal(hits[i], fresh1) {
			t.Errorf("client %d: cached bytes differ from the fresh run", i)
		}
	}
}
