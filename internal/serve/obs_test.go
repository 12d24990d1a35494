package serve

import (
	"bytes"
	"encoding/json"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"
)

func scrapeText(t *testing.T, ts *httptest.Server) string {
	t.Helper()
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatalf("GET /metrics: %v", err)
	}
	defer resp.Body.Close()
	data, _ := io.ReadAll(resp.Body)
	return string(data)
}

// TestMetricsPromlintConsistency parses the whole /metrics exposition and
// enforces the promlint rules the old GC metrics violated: every series
// has a TYPE, counters (and only counters) end in _total, and histogram
// series are complete and cumulative.
func TestMetricsPromlintConsistency(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	post(t, ts, "/v1/run", `{"workload":"bsearch"}`) // populate histograms
	text := scrapeText(t, ts)

	types := map[string]string{} // metric family → declared type
	samples := map[string]bool{} // family of every sample line (histogram suffixes stripped)
	for _, line := range strings.Split(text, "\n") {
		if line == "" || strings.HasPrefix(line, "# HELP") {
			continue
		}
		if strings.HasPrefix(line, "# TYPE ") {
			fields := strings.Fields(line)
			if len(fields) != 4 {
				t.Fatalf("malformed TYPE line: %q", line)
			}
			if _, dup := types[fields[2]]; dup {
				t.Errorf("duplicate TYPE for %s", fields[2])
			}
			types[fields[2]] = fields[3]
			continue
		}
		if strings.HasPrefix(line, "#") {
			continue
		}
		name := line
		if i := strings.IndexAny(name, "{ "); i >= 0 {
			name = name[:i]
		}
		base := name
		for _, suffix := range []string{"_bucket", "_sum", "_count"} {
			family := strings.TrimSuffix(name, suffix)
			if family != name && types[family] == "histogram" {
				base = family
			}
		}
		samples[base] = true
	}
	if len(types) == 0 || len(samples) == 0 {
		t.Fatalf("parsed no metrics from:\n%s", text)
	}
	for family := range samples {
		typ, ok := types[family]
		if !ok {
			t.Errorf("series %s has no TYPE declaration", family)
			continue
		}
		total := strings.HasSuffix(family, "_total")
		switch typ {
		case "counter":
			if !total {
				t.Errorf("counter %s must end in _total", family)
			}
		case "gauge", "histogram":
			if total {
				t.Errorf("%s %s must not end in _total", typ, family)
			}
		default:
			t.Errorf("series %s has unknown type %q", family, typ)
		}
	}
	// The two series the satellite fixes must now be counters.
	for _, family := range []string{"simd_serve_go_gc_runs_total", "simd_serve_go_gc_pause_seconds_total"} {
		if types[family] != "counter" {
			t.Errorf("%s TYPE = %q, want counter", family, types[family])
		}
	}
	if strings.Contains(text, "go_gc_pause_ns_total") {
		t.Error("nanosecond GC pause metric still exposed; should be seconds")
	}
}

// TestMetricsHistogramsWellFormed checks the hand-rolled histograms emit
// cumulative buckets capped by +Inf == _count.
func TestMetricsHistogramsWellFormed(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	post(t, ts, "/v1/run", `{"workload":"bsearch"}`)
	text := scrapeText(t, ts)

	for _, family := range []string{
		"simd_serve_queue_wait_seconds", "simd_serve_run_seconds",
		"simd_serve_encode_seconds", "simd_serve_request_seconds",
		"simd_serve_run_simd_efficiency",
	} {
		var last, inf, count int64
		inf = -1
		for _, line := range strings.Split(text, "\n") {
			switch {
			case strings.HasPrefix(line, family+"_bucket"):
				v, err := strconv.ParseInt(line[strings.LastIndex(line, " ")+1:], 10, 64)
				if err != nil {
					t.Fatalf("%s: %v", line, err)
				}
				if v < last {
					t.Errorf("%s: buckets not cumulative (%d after %d)", family, v, last)
				}
				last = v
				if strings.Contains(line, `le="+Inf"`) {
					inf = v
				}
			case strings.HasPrefix(line, family+"_count"):
				count, _ = strconv.ParseInt(line[strings.LastIndex(line, " ")+1:], 10, 64)
			}
		}
		if inf < 0 {
			t.Errorf("%s: no +Inf bucket", family)
			continue
		}
		if inf != count {
			t.Errorf("%s: +Inf bucket %d != count %d", family, inf, count)
		}
	}

	// One executed simulation must have observed each stage histogram.
	for _, family := range []string{"simd_serve_run_seconds_count", "simd_serve_queue_wait_seconds_count", "simd_serve_run_simd_efficiency_count"} {
		found := false
		for _, line := range strings.Split(text, "\n") {
			if strings.HasPrefix(line, family+" ") && !strings.HasSuffix(line, " 0") {
				found = true
			}
		}
		if !found {
			t.Errorf("%s is zero after an executed run", family)
		}
	}
}

// TestBuildInfoAndUptime covers the build_info/uptime satellite.
func TestBuildInfoAndUptime(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	text := scrapeText(t, ts)
	if !strings.Contains(text, `simd_serve_build_info{version="`) ||
		!strings.Contains(text, `goversion="go`) {
		t.Errorf("build_info series missing or unlabelled:\n%s", text)
	}
	if !strings.Contains(text, "simd_serve_uptime_seconds") {
		t.Error("uptime gauge missing")
	}
}

// TestTraceIDAndSpans checks every response carries a trace ID and the
// per-stage spans surface in Server-Timing and the structured log.
func TestTraceIDAndSpans(t *testing.T) {
	var logBuf bytes.Buffer
	logMu := &syncWriter{w: &logBuf}
	api := New(Config{Logger: slog.New(slog.NewJSONHandler(logMu, nil))})
	ts := httptest.NewServer(api)
	t.Cleanup(func() { ts.Close(); api.Close() })

	resp, _ := post(t, ts, "/v1/run", `{"workload":"bsearch"}`)
	id := resp.Header.Get("X-Trace-Id")
	if len(id) != 16 {
		t.Fatalf("miss response X-Trace-Id = %q, want 16 hex chars", id)
	}
	timing := resp.Header.Get("Server-Timing")
	for _, stage := range []string{"cache", "wait", "queue", "run", "encode"} {
		if !strings.Contains(timing, stage+";dur=") {
			t.Errorf("Server-Timing %q missing stage %s", timing, stage)
		}
	}

	// Cache hit: still traced, new ID, no leader stages.
	resp2, _ := post(t, ts, "/v1/run", `{"workload":"bsearch"}`)
	id2 := resp2.Header.Get("X-Trace-Id")
	if len(id2) != 16 || id2 == id {
		t.Fatalf("hit response X-Trace-Id = %q (first was %q)", id2, id)
	}
	if st := resp2.Header.Get("Server-Timing"); !strings.Contains(st, "cache;dur=") {
		t.Errorf("hit Server-Timing = %q, want a cache span", st)
	}

	// An incoming trace ID is honored.
	req, _ := http.NewRequest("POST", ts.URL+"/v1/run", strings.NewReader(`{"workload":"bsearch"}`))
	req.Header.Set("X-Trace-Id", "caller-supplied-id")
	req.Header.Set("Content-Type", "application/json")
	resp3, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp3.Body.Close()
	if got := resp3.Header.Get("X-Trace-Id"); got != "caller-supplied-id" {
		t.Fatalf("supplied trace ID not echoed: %q", got)
	}

	logs := logMu.String()
	for _, frag := range []string{`"trace_id":"` + id + `"`, `"route":"run"`, `"cache":"miss"`, `"span_run"`, `"span_queue"`} {
		if !strings.Contains(logs, frag) {
			t.Errorf("structured log missing %s:\n%s", frag, logs)
		}
	}
}

// TestRequestLogKeys pins every request exit's structured log line: its
// keys, route, cache state and status. Each exit also echoes X-Trace-Id
// and makes one request_seconds observation. Bodies that fail to decode
// take the exit every other 400 takes, with the same envelope.
func TestRequestLogKeys(t *testing.T) {
	var logBuf bytes.Buffer
	logMu := &syncWriter{w: &logBuf}
	api := New(Config{Logger: slog.New(slog.NewJSONHandler(logMu, nil)), MaxSweepCells: 3})
	ts := httptest.NewServer(api)
	t.Cleanup(func() { ts.Close(); api.Close() })
	observed := func() int64 {
		var n int64
		for i := range api.met.request.counts {
			n += api.met.request.counts[i].Load()
		}
		return n
	}

	base := []string{"cache", "level", "msg", "route", "status", "time", "total", "trace_id"}
	with := func(keys ...string) []string { return append(append([]string(nil), base...), keys...) }
	failed := with("error")
	cases := []struct {
		name, path, body string
		status           int
		route, cache     string
		keys             []string
		decodeErr        bool // the envelope names the body, not its content
	}{
		{"run miss", "/v1/run", `{"workload":"bsearch","size":300}`, 200, "run", "miss",
			with("span_cache", "span_wait", "span_queue", "span_run", "span_encode"), false},
		{"run hit", "/v1/run", `{"workload":"bsearch","size":300}`, 200, "run", "hit", with("span_cache"), false},
		{"sweep", "/v1/sweep", `{"workloads":["bsearch"],"policies":["scc"],"sizes":[200]}`, 200, "sweep", "miss", base, false},
		{"run malformed", "/v1/run", `not json`, 400, "run", "miss", failed, true},
		{"run unknown field", "/v1/run", `{"workload":"bsearch","nope":1}`, 400, "run", "miss", failed, true},
		{"run unknown workload", "/v1/run", `{"workload":"nope"}`, 400, "run", "miss", failed, false},
		{"experiment malformed", "/v1/experiment", `{`, 400, "experiment", "miss", failed, true},
		{"experiment unknown field", "/v1/experiment", `{"id":"fig3","nope":1}`, 400, "experiment", "miss", failed, true},
		{"experiment unknown id", "/v1/experiment", `{"id":"nope"}`, 400, "experiment", "miss", failed, false},
		{"sweep malformed", "/v1/sweep", `[]`, 400, "sweep", "miss", failed, true},
		{"sweep unknown field", "/v1/sweep", `{"workloads":["bsearch"],"nope":1}`, 400, "sweep", "miss", failed, true},
		{"sweep invalid axis", "/v1/sweep", `{"workloads":["bsearch"],"policies":["warp-shuffle"]}`, 400, "sweep", "miss", failed, false},
		{"sweep over cell limit", "/v1/sweep", `{"workloads":["bsearch"]}`, 400, "sweep", "miss", failed, false},
	}
	for i, tc := range cases {
		id := "log-keys-" + strconv.Itoa(i)
		before := observed()
		req, _ := http.NewRequest(http.MethodPost, ts.URL+tc.path, strings.NewReader(tc.body))
		req.Header.Set(traceIDHeader, id)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != tc.status {
			t.Errorf("%s: status %d (%s), want %d", tc.name, resp.StatusCode, body, tc.status)
		}
		if got := resp.Header.Get(traceIDHeader); got != id {
			t.Errorf("%s: X-Trace-Id = %q, want %q", tc.name, got, id)
		}
		if n := observed() - before; n != 1 {
			t.Errorf("%s: %d request_seconds observations, want 1", tc.name, n)
		}
		if tc.decodeErr && !bytes.Contains(body, []byte(`"invalid_request","message":"invalid request body: `)) {
			t.Errorf("%s: body %s, want the invalid request body envelope", tc.name, body)
		}

		var line map[string]any
		for _, l := range strings.Split(logMu.String(), "\n") {
			var m map[string]any
			if json.Unmarshal([]byte(l), &m) == nil && m["trace_id"] == id {
				line = m
			}
		}
		if line == nil {
			t.Errorf("%s: no log line with trace_id %s", tc.name, id)
			continue
		}
		keys := make([]string, 0, len(line))
		for k := range line {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		want := append([]string(nil), tc.keys...)
		sort.Strings(want)
		if strings.Join(keys, ",") != strings.Join(want, ",") {
			t.Errorf("%s: log keys %v, want %v", tc.name, keys, want)
		}
		if line["route"] != tc.route || line["cache"] != tc.cache || line["status"] != float64(tc.status) {
			t.Errorf("%s: logged route %v, cache %v, status %v; want %s, %s, %d",
				tc.name, line["route"], line["cache"], line["status"], tc.route, tc.cache, tc.status)
		}
	}
}

// TestRunPayloadGolden pins the JSON encoding of the run result payload:
// the Fig. 3-style breakdown (stall shares, energy proxy, lane
// histograms with empty-mask counts) clients consume without re-running
// locally. The workload simulation is deterministic, so the serialized
// report is stable byte-for-byte; the golden fragments below track the
// schema rather than the full body to stay readable.
func TestRunPayloadGolden(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, data := post(t, ts, "/v1/run", `{"workload":"bsearch","timed":true,"size":2000,"policy":"scc"}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, data)
	}
	var payload struct {
		Report struct {
			Efficiency float64 `json:"simdEfficiency"`
			Histogram  map[string]struct {
				Buckets []int64 `json:"buckets"`
				Empty   int64   `json:"empty"`
				Total   int64   `json:"total"`
			} `json:"activeLaneHistogram"`
			Timed struct {
				EnergyProxy  float64            `json:"energyProxy"`
				StallWindows map[string]int64   `json:"stallWindows"`
				StallShares  map[string]float64 `json:"stallShares"`
			} `json:"timed"`
		} `json:"report"`
	}
	if err := json.Unmarshal(data, &payload); err != nil {
		t.Fatalf("payload: %v", err)
	}
	rep := &payload.Report
	if rep.Efficiency <= 0 || rep.Efficiency > 1 {
		t.Errorf("simdEfficiency = %v", rep.Efficiency)
	}
	if rep.Timed.EnergyProxy <= 0 {
		t.Errorf("energyProxy = %v", rep.Timed.EnergyProxy)
	}
	var shares float64
	for _, k := range []string{"issued", "idle", "memory", "scoreboard", "pipe", "frontend"} {
		s, ok := rep.Timed.StallShares[k]
		if !ok {
			t.Fatalf("stallShares missing %q: %v", k, rep.Timed.StallShares)
		}
		shares += s
		if _, ok := rep.Timed.StallWindows[k]; !ok {
			t.Fatalf("stallWindows missing %q", k)
		}
	}
	if shares < 0.999 || shares > 1.001 {
		t.Errorf("stall shares sum to %v, want 1", shares)
	}
	if len(rep.Histogram) == 0 {
		t.Fatal("activeLaneHistogram empty")
	}
	for w, h := range rep.Histogram {
		var sum int64
		for _, b := range h.Buckets {
			sum += b
		}
		if sum+h.Empty != h.Total {
			t.Errorf("width %s: buckets %d + empty %d != total %d", w, sum, h.Empty, h.Total)
		}
	}

	// Same request, same bytes: the payload encoding is deterministic.
	_, data2 := post(t, ts, "/v1/run", `{"workload":"bsearch","timed":true,"size":2000,"policy":"scc","workers":3}`)
	if !bytes.Equal(data, data2) {
		t.Fatal("payload encoding is not deterministic across equivalent requests")
	}
}

// TestTimelineOption covers ?timeline=1 and the request-body spelling:
// the response embeds a valid Chrome-trace document, the option is part
// of the cache key, and repeated requests are byte-identical.
func TestTimelineOption(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, data := post(t, ts, "/v1/run?timeline=1", `{"workload":"bsearch","size":2000}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, data)
	}
	var payload struct {
		Timeline struct {
			TraceEvents     []map[string]any `json:"traceEvents"`
			DisplayTimeUnit string           `json:"displayTimeUnit"`
		} `json:"timeline"`
	}
	if err := json.Unmarshal(data, &payload); err != nil {
		t.Fatalf("payload: %v", err)
	}
	if len(payload.Timeline.TraceEvents) == 0 {
		t.Fatal("timeline response has no trace events")
	}
	for _, e := range payload.Timeline.TraceEvents {
		for _, k := range []string{"name", "ph", "pid", "tid", "ts"} {
			if _, ok := e[k]; !ok {
				t.Fatalf("trace event missing %q: %v", k, e)
			}
		}
	}

	// Body spelling hits the same cache entry as the query parameter.
	resp2, data2 := post(t, ts, "/v1/run", `{"workload":"bsearch","size":2000,"timeline":true}`)
	if got := resp2.Header.Get("X-Cache"); got != "hit" {
		t.Fatalf("timeline body spelling X-Cache = %q, want hit", got)
	}
	if !bytes.Equal(data, data2) {
		t.Fatal("timeline responses not byte-identical")
	}

	// Without the option: distinct cache entry, no timeline key.
	_, plain := post(t, ts, "/v1/run", `{"workload":"bsearch","size":2000}`)
	if bytes.Contains(plain, []byte(`"timeline"`)) {
		t.Fatal("plain response unexpectedly contains a timeline")
	}
}

// syncWriter serializes concurrent slog writes from handler goroutines.
type syncWriter struct {
	mu sync.Mutex
	w  *bytes.Buffer
}

func (s *syncWriter) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.w.Write(p)
}

func (s *syncWriter) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.w.String()
}
