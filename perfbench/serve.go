package main

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"math"
	"math/rand"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"intrawarp/internal/compaction"
	"intrawarp/internal/experiments"
	"intrawarp/internal/gpu"
	"intrawarp/internal/kgen"
	"intrawarp/internal/serve"
	"intrawarp/internal/workloads"
)

// The serve workload: an in-process serve.Server with simd-serve's
// defaults behind a real loopback net/http listener, driven in a closed
// loop by two keep-alive clients that share one seeded request
// sequence. The run is cut into rounds; latency is classed by the
// X-Cache response header, and each figure is the median over rounds of
// the round's figure.
const (
	clients = 2
	// Shares of the request mix, per mille: repeats of the hot set, the
	// rest first-time /v1/run requests except sweepPerMille sweeps. They
	// are an assumption, not measured traffic (NOTES.md, "The serve
	// mix"): at these shares hits and first-time requests take about
	// equal shares of the clients' time.
	hotPerMille   = 955
	sweepPerMille = 10
	// suiteEvery: one first-time /v1/run request in suiteEvery names a
	// suite workload at its quick size; the others name kgen kernels.
	suiteEvery = 20
	// roundLength is the length of one measured round.
	roundLength = 2 * time.Second
	// warmIndex is the corpus index of the set-up sweep's kernel. The
	// request sequence numbers its first-time kernels from 0 and would
	// need days at the measured rates to reach it.
	warmIndex = math.MaxInt32
)

// hotWorkloads × hotPolicies at quick sizes, plus docExample, is the
// popular /v1/run set.
var (
	hotWorkloads = []string{"bfs", "bsearch", "particlefilter", "kmeans", "nw", "hotspot", "lavamd", "urng"}
	hotPolicies  = []compaction.Policy{compaction.SCC, compaction.BCC}
	// docExample is the /v1/run request docs/serve.md shows first: a
	// timed run.
	docExample = serve.RunRequest{Workload: "bsearch", Timed: true, Policy: "scc"}
)

type reqKind uint8

const (
	kindHot reqKind = iota
	kindSuite
	kindKgen
	kindSweep
)

// planned is one entry of the request sequence.
type planned struct {
	kind reqKind
	arg  uint32 // hot index, suite index, or kgen profile/policy draw
}

// plan is the seeded request sequence. Entries are drawn on demand, in
// order, under one lock, so entry i is the same for a seed whichever
// client sends it and a run can send any number of requests.
// First-time names embed i, so no two entries name the same kgen kernel.
type plan struct {
	seed  uint64
	hot   []string
	suite []string // first-time suite bodies, in seeded order

	mu        sync.Mutex
	rng       *rand.Rand
	next      int
	suiteUsed int
}

func runBody(workload string, size int, p compaction.Policy) string {
	b, _ := json.Marshal(serve.RunRequest{Workload: workload, Size: size, Policy: p.String()})
	return string(b)
}

func newPlan(seed uint64) (*plan, error) {
	doc, err := json.Marshal(docExample)
	if err != nil {
		return nil, err
	}
	pl := &plan{seed: seed, hot: []string{string(doc)}}
	hot := map[string]bool{}
	for _, w := range hotWorkloads {
		spec, err := workloads.ByName(w)
		if err != nil {
			return nil, err
		}
		for _, p := range hotPolicies {
			body := runBody(w, workloads.QuickSize(spec), p)
			pl.hot = append(pl.hot, body)
			hot[body] = true
		}
	}
	for _, spec := range workloads.All() {
		for _, p := range compaction.Policies {
			if body := runBody(spec.Name, workloads.QuickSize(spec), p); !hot[body] {
				pl.suite = append(pl.suite, body)
			}
		}
	}
	pl.rng = rand.New(rand.NewSource(int64(seed)))
	pl.rng.Shuffle(len(pl.suite), func(i, j int) { pl.suite[i], pl.suite[j] = pl.suite[j], pl.suite[i] })
	return pl, nil
}

// take draws the next entry of the sequence and returns its index.
// Safe for concurrent use.
func (pl *plan) take() (int, planned) {
	pl.mu.Lock()
	defer pl.mu.Unlock()
	i := pl.next
	pl.next++
	u := pl.rng.Intn(1000)
	e := planned{arg: uint32(pl.rng.Int31())}
	switch {
	case u < hotPerMille:
		e.kind = kindHot
		e.arg %= uint32(len(pl.hot))
	case u < 1000-sweepPerMille:
		e.kind = kindKgen
		if pl.rng.Intn(suiteEvery) == 0 && pl.suiteUsed < len(pl.suite) {
			e.kind, e.arg = kindSuite, uint32(pl.suiteUsed)
			pl.suiteUsed++
		}
	default:
		e.kind = kindSweep
	}
	return i, e
}

// request renders entry i as a path and body.
func (pl *plan) request(i int, e planned) (string, string) {
	switch e.kind {
	case kindHot:
		return "/v1/run", pl.hot[e.arg]
	case kindSuite:
		return "/v1/run", pl.suite[e.arg]
	case kindKgen:
		profile := kgen.Profiles[e.arg%uint32(len(kgen.Profiles))]
		p := compaction.Policies[(e.arg/8)%uint32(compaction.NumPolicies)]
		return "/v1/run", runBody(kgen.Name(profile, pl.seed, i), 0, p)
	default:
		profile := kgen.Profiles[e.arg%uint32(len(kgen.Profiles))]
		b, _ := json.Marshal(serve.SweepRequest{Workloads: []string{kgen.Name(profile, pl.seed, i)}})
		return "/v1/sweep", string(b)
	}
}

// serveInstance is one running server, its listener and its clients.
type serveInstance struct {
	api    *serve.Server
	hs     *http.Server
	served chan error
	client *http.Client
	url    string
	plan   *plan
	// known maps each hot request body to the bytes of the miss that
	// filled it; it is written only during set-up.
	known map[string][]byte
}

func setupServe(ctx context.Context, b *bench) (instance, error) {
	pl, err := newPlan(b.opt.seed)
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	s := &serveInstance{
		api: serve.New(serve.Config{
			// simd-serve's defaults, with the per-request log line still
			// formatted but discarded.
			CacheEntries: 256,
			MaxQueue:     64,
			Logger:       slog.New(slog.NewTextHandler(io.Discard, nil)),
		}),
		served: make(chan error, 1),
		client: &http.Client{Transport: &http.Transport{
			MaxIdleConnsPerHost: clients,
			MaxConnsPerHost:     clients,
			DisableCompression:  true,
		}},
		url:   "http://" + ln.Addr().String(),
		plan:  pl,
		known: map[string][]byte{},
	}
	s.hs = &http.Server{Handler: s.api, ReadHeaderTimeout: 10 * time.Second}
	go func() { s.served <- s.hs.Serve(ln) }()

	// Warm-up: fill the hot set (each body a miss, then a hit with the
	// same bytes) and run one sweep so the replay LUTs exist.
	for _, body := range pl.hot {
		for _, want := range []string{"miss", "hit"} {
			r := s.post(ctx, "/v1/run", body)
			err := r.err
			switch {
			case err != nil:
			case r.cache != want:
				err = fmt.Errorf("warm-up %s: X-Cache %q, want %q", body, r.cache, want)
			case want == "miss":
				s.known[body] = r.body
				err = b.checkRun(label("hot", body), sha256.Sum256(r.body))
			case !bytes.Equal(r.body, s.known[body]):
				err = fmt.Errorf("warm-up %s: hit bytes differ from the miss", body)
			}
			b.op(err)
			if err != nil {
				s.close()
				return nil, err
			}
		}
	}
	warm, _ := json.Marshal(serve.SweepRequest{Workloads: []string{kgen.Name("mixed", b.opt.seed, warmIndex)}})
	if r := s.sweep(ctx, string(warm)); r.err != nil {
		b.op(r.err)
		s.close()
		return nil, r.err
	}
	b.op(nil)
	return s, nil
}

func (s *serveInstance) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_ = s.hs.Shutdown(ctx) // a timeout leaves Close below to stop the flights
	s.api.Close()
	if err := <-s.served; err != nil && !errors.Is(err, http.ErrServerClosed) {
		fmt.Println("# serve: listener:", err)
	}
	s.client.CloseIdleConnections()
}

// reply is one completed request as the client saw it.
type reply struct {
	err       error
	cache     string
	body      []byte
	timing    string        // Server-Timing header
	firstLine time.Duration // sweeps: until the first NDJSON line
	cells     int
}

func (s *serveInstance) post(ctx context.Context, path, body string) reply {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, s.url+path, strings.NewReader(body))
	if err != nil {
		return reply{err: err}
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := s.client.Do(req)
	if err != nil {
		return reply{err: fmt.Errorf("POST %s: %w", path, err)}
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return reply{err: fmt.Errorf("POST %s: read body: %w", path, err)}
	}
	if resp.StatusCode != http.StatusOK {
		return reply{err: fmt.Errorf("POST %s %s: status %d: %s", path, body, resp.StatusCode, data)}
	}
	return reply{cache: resp.Header.Get("X-Cache"), body: data, timing: resp.Header.Get("Server-Timing")}
}

// sweep posts a /v1/sweep request and reads its NDJSON stream to the
// trailing summary line, which must report a complete, failure-free
// sweep of every cell.
func (s *serveInstance) sweep(ctx context.Context, body string) reply {
	start := time.Now()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, s.url+"/v1/sweep", strings.NewReader(body))
	if err != nil {
		return reply{err: err}
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := s.client.Do(req)
	if err != nil {
		return reply{err: fmt.Errorf("POST /v1/sweep: %w", err)}
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		data, _ := io.ReadAll(resp.Body)
		return reply{err: fmt.Errorf("POST /v1/sweep %s: status %d: %s", body, resp.StatusCode, data)}
	}
	br := bufio.NewReader(resp.Body)
	var r reply
	var last []byte
	for {
		line, err := br.ReadBytes('\n')
		if len(line) > 0 {
			if r.firstLine == 0 {
				r.firstLine = time.Since(start)
			}
			last = line
			r.cells++
		}
		if err == io.EOF {
			break
		}
		if err != nil {
			return reply{err: fmt.Errorf("POST /v1/sweep: read stream: %w", err)}
		}
	}
	var summary struct {
		Sweep *struct {
			Cells    int  `json:"cells"`
			Failed   int  `json:"failed"`
			Complete bool `json:"complete"`
		} `json:"sweep"`
	}
	if err := json.Unmarshal(last, &summary); err != nil || summary.Sweep == nil {
		return reply{err: fmt.Errorf("POST /v1/sweep %s: no summary line", body)}
	}
	r.cells-- // the summary line
	if sw := summary.Sweep; !sw.Complete || sw.Failed != 0 || sw.Cells != compaction.NumPolicies || r.cells != sw.Cells {
		return reply{err: fmt.Errorf("POST /v1/sweep %s: summary %+v after %d cell lines", body, *sw, r.cells)}
	}
	return r
}

// sampleClass classes a completed request.
type sampleClass uint8

const (
	classHit sampleClass = iota
	classMiss
	classSweep
)

// sample is one completed request.
type sample struct {
	class     sampleClass
	body      string
	latency   time.Duration
	firstLine time.Duration
	timing    map[string]float64 // Server-Timing spans in ms (traced phases)
}

// parseServerTiming reads "name;dur=ms, ..." into a map.
func parseServerTiming(h string) map[string]float64 {
	out := map[string]float64{}
	for _, part := range strings.Split(h, ",") {
		name, dur, ok := strings.Cut(strings.TrimSpace(part), ";dur=")
		if !ok {
			continue
		}
		if v, err := strconv.ParseFloat(dur, 64); err == nil {
			out[name] += v
		}
	}
	return out
}

// drive runs one client's closed loop until the deadline: each request
// is sent only after the previous reply is complete.
func (s *serveInstance) drive(ctx context.Context, b *bench, deadline time.Time, rec *recorder, log *roundLog) {
	for time.Now().Before(deadline) {
		i, e := s.plan.take()
		path, body := s.plan.request(i, e)
		name := "serve.POST /v1/run"
		if e.kind == kindSweep {
			name = "serve.POST /v1/sweep"
		}
		start := time.Now()
		root := rec.begin(name, -1, int64(i))
		var r reply
		if e.kind == kindSweep {
			r = s.sweep(ctx, body)
		} else {
			r = s.post(ctx, path, body)
		}
		lat := time.Since(start)
		rec.end(root)
		err := r.err
		smp := sample{body: body, latency: lat, firstLine: r.firstLine}
		switch {
		case err != nil:
		case e.kind == kindSweep:
			smp.class = classSweep
		case r.cache == "hit":
			smp.class = classHit
			if ref, ok := s.known[body]; !ok {
				err = fmt.Errorf("%s: cache hit with no miss that filled it", body)
			} else if !bytes.Equal(ref, r.body) {
				err = fmt.Errorf("%s: hit bytes differ from the miss that filled the entry", body)
			}
		case r.cache == "miss":
			smp.class = classMiss
			if ref, ok := s.known[body]; ok && !bytes.Equal(ref, r.body) {
				err = fmt.Errorf("%s: refilled entry differs from its first miss", body)
			}
		default:
			err = fmt.Errorf("%s: X-Cache %q", body, r.cache)
		}
		b.op(err)
		if err != nil {
			continue
		}
		if rec != nil && e.kind != kindSweep {
			smp.timing = parseServerTiming(r.timing)
			layoutServerTiming(rec, root, int64(i), smp.timing)
		}
		log.add(smp)
	}
}

// layoutServerTiming adds the server's own stage spans inside the
// client's request span. The header carries durations only, so the
// stages are laid out in the order the server runs them: the cache
// lookup first, then the wait for the flight, which holds the leader's
// queue, run and encode stages.
func layoutServerTiming(rec *recorder, root int, op int64, st map[string]float64) {
	if root < 0 {
		return
	}
	at := rec.spans[root].Start
	dur := func(name string) time.Duration { return time.Duration(st[name] * float64(time.Millisecond)) }
	c := dur("cache")
	rec.add("serve.cache", root, op, at, at+c)
	if _, ok := st["wait"]; !ok {
		return
	}
	w := rec.add("serve.wait", root, op, at+c, at+c+dur("wait"))
	inner := at + c
	for _, name := range []string{"queue", "run", "encode"} {
		rec.add("serve."+name, w, op, inner, inner+dur(name))
		inner += dur(name)
	}
}

// phase runs both clients for the given length, logging their samples,
// and returns the time until both have their last reply: each client
// completes the request it started before the deadline.
func (s *serveInstance) phase(ctx context.Context, b *bench, length time.Duration, lanes []*recorder, log *roundLog) time.Duration {
	start := time.Now()
	deadline := start.Add(length)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			s.drive(ctx, b, deadline, lanes[c], log)
		}(c)
	}
	wg.Wait()
	return time.Since(start)
}

// reservoirSize bounds the latencies a round keeps per class.
const reservoirSize = 4096

// reservoir is a uniform random sample of at most reservoirSize values
// of a stream (Algorithm R), the stream's length and its sum.
type reservoir struct {
	n    int
	sum  float64
	vals []float64
}

func (r *reservoir) add(v float64, rng *rand.Rand) {
	r.n++
	r.sum += v
	if len(r.vals) < reservoirSize {
		r.vals = append(r.vals, v)
	} else if j := rng.Intn(r.n); j < reservoirSize {
		r.vals[j] = v
	}
}

// roundLog collects one round's samples: a request count and a
// reservoir of latencies per class, so the client's memory — part of
// the process's peak RSS — stays fixed however many requests the server
// completes. keepAll also keeps every sample, for the traced run's
// per-layer figures. Safe for concurrent use.
type roundLog struct {
	mu      sync.Mutex
	rng     *rand.Rand
	classes [classSweep + 1]reservoir
	keepAll bool
	all     []sample
}

func newRoundLog(keepAll bool) *roundLog {
	return &roundLog{rng: rand.New(rand.NewSource(1)), keepAll: keepAll}
}

func (l *roundLog) add(smp sample) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.classes[smp.class].add(ms(smp.latency), l.rng)
	if l.keepAll {
		l.all = append(l.all, smp)
	}
}

// count is the number of requests logged.
func (l *roundLog) count() int {
	n := 0
	for _, c := range l.classes {
		n += c.n
	}
	return n
}

// roundStats is the figures of one round, latencies in ms.
type roundStats struct {
	reqPerS                          float64
	hitP50, hitP90, missP50, missP90 float64
	sweepP50                         float64
	hits, misses, sweeps             int
	busyMS                           [classSweep + 1]float64 // client time per class
}

// summarize computes the round's figures; the requests were completed
// in the given time.
func (l *roundLog) summarize(d time.Duration) roundStats {
	hit, miss, sweep := l.classes[classHit], l.classes[classMiss], l.classes[classSweep]
	return roundStats{
		reqPerS: float64(hit.n+miss.n+sweep.n) / d.Seconds(),
		hitP50:  quantile(hit.vals, 0.5), hitP90: quantile(hit.vals, 0.9),
		missP50: quantile(miss.vals, 0.5), missP90: quantile(miss.vals, 0.9),
		sweepP50: quantile(sweep.vals, 0.5),
		hits:     hit.n, misses: miss.n, sweeps: sweep.n,
		busyMS: [classSweep + 1]float64{hit.sum, miss.sum, sweep.sum},
	}
}

// medianOf is the median over rounds of one figure, skipping rounds
// without samples of its class.
func medianOf(rounds []roundStats, f func(roundStats) float64) float64 {
	var xs []float64
	for _, r := range rounds {
		if v := f(r); v == v { // not NaN
			xs = append(xs, v)
		}
	}
	return median(xs)
}

// measure runs the rounds back to back. A round's request rate counts only
// the time the VM ran: its wall time scaled by one minus the round's
// steal share (see stealShare), as the two clients and the server keep
// both CPUs busy. Latencies are as the clients saw them.
func (s *serveInstance) measure(ctx context.Context, b *bench) error {
	n := int(b.opt.seconds / roundLength)
	if n < 1 {
		n = 1
	}
	length := b.opt.seconds / time.Duration(n)
	rounds := make([]roundStats, n)
	steal := make([]float64, n)
	var wallMS float64
	for k := range rounds {
		log := newRoundLog(false)
		ticks := readCPUTicks()
		wall := s.phase(ctx, b, length, make([]*recorder, clients), log)
		steal[k] = stealShare(ticks, readCPUTicks())
		rounds[k] = log.summarize(time.Duration(float64(wall) * (1 - steal[k])))
		wallMS += ms(wall)
	}
	var hits, misses, sweeps int
	var busy [classSweep + 1]float64
	for _, r := range rounds {
		hits, misses, sweeps = hits+r.hits, misses+r.misses, sweeps+r.sweeps
		for c, v := range r.busyMS {
			busy[c] += v / (clients * wallMS)
		}
	}
	b.infof("serve rounds %d of %s; samples: hit %d, miss %d, sweep %d (per round about %d, %d, %d)",
		n, length, hits, misses, sweeps, hits/n, misses/n, sweeps/n)
	b.infof("clients' time waiting on hits %.2f, misses %.2f, sweeps %.2f", busy[classHit], busy[classMiss], busy[classSweep])
	b.infof("steal share per round %.3f", steal)
	b.infof("latency medians over rounds: hit p50 %.4g ms, p90 %.4g ms; miss p50 %.4g ms, p90 %.4g ms; sweep p50 %.4g ms",
		medianOf(rounds, func(r roundStats) float64 { return r.hitP50 }),
		medianOf(rounds, func(r roundStats) float64 { return r.hitP90 }),
		medianOf(rounds, func(r roundStats) float64 { return r.missP50 }),
		medianOf(rounds, func(r roundStats) float64 { return r.missP90 }),
		medianOf(rounds, func(r roundStats) float64 { return r.sweepP50 }))
	b.put("throughput_per_s", "1/s", medianOf(rounds, func(r roundStats) float64 { return r.reqPerS }))
	return nil
}

// scrapeCounters reads the server's /metrics counters.
func (s *serveInstance) scrapeCounters(ctx context.Context) (map[string]float64, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, s.url+"/metrics", nil)
	if err != nil {
		return nil, err
	}
	resp, err := s.client.Do(req)
	if err != nil {
		return nil, fmt.Errorf("GET /metrics: %w", err)
	}
	defer resp.Body.Close()
	out := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		name, val, ok := strings.Cut(sc.Text(), " ")
		if !ok || strings.HasPrefix(name, "#") || !strings.HasPrefix(name, "simd_serve_") {
			continue
		}
		if v, err := strconv.ParseFloat(val, 64); err == nil {
			out[strings.TrimPrefix(name, "simd_serve_")] = v
		}
	}
	return out, sc.Err()
}

func (s *serveInstance) traced(ctx context.Context, b *bench) error {
	lanes := []*recorder{b.lane("client 1"), b.lane("client 2")}
	untracedLanes := make([]*recorder, clients)
	before, err := s.scrapeCounters(ctx)
	if err != nil {
		return err
	}
	rt0 := readRuntime()
	start := time.Now()
	var tracedSamples []sample
	var plainRates, tracedRates []float64
	var requests int
	// Untraced and traced phases alternate, so the tracing overhead is
	// measured under the same conditions as the layers.
	for len(tracedRates) < 1 || time.Since(start) < b.opt.seconds {
		plain := newRoundLog(false)
		d := s.phase(ctx, b, roundLength, untracedLanes, plain)
		plainRates = append(plainRates, float64(plain.count())/d.Seconds())
		traced := newRoundLog(true)
		d = s.phase(ctx, b, roundLength, lanes, traced)
		tracedRates = append(tracedRates, float64(traced.count())/d.Seconds())
		tracedSamples = append(tracedSamples, traced.all...)
		requests += plain.count() + traced.count()
	}
	rt := rt0.to(readRuntime(), time.Since(start))
	after, err := s.scrapeCounters(ctx)
	if err != nil {
		return err
	}
	b.putRuntime(rt)
	b.put("bench.trace_overhead_pct", "%", 100*(median(plainRates)/median(tracedRates)-1))

	stage := map[string][]float64{}
	var httpMS, firstLine []float64
	var hits, runs float64
	var missBodies []string
	for _, smp := range tracedSamples {
		switch smp.class {
		case classSweep:
			firstLine = append(firstLine, ms(smp.firstLine))
			continue
		case classHit:
			hits++
			total := 0.0
			for _, v := range smp.timing {
				total += v
			}
			httpMS = append(httpMS, ms(smp.latency)-total)
		case classMiss:
			missBodies = append(missBodies, smp.body)
		}
		runs++
		cls := "hit"
		if smp.class == classMiss {
			cls = "miss"
		}
		for name, v := range smp.timing {
			stage[name+"_ms."+cls] = append(stage[name+"_ms."+cls], v)
		}
	}
	delta := func(name string) float64 { return after[name] - before[name] }
	sweeps := delta("sweeps_total")
	if sweeps == 0 {
		return errors.New("traced serve run sent no sweep")
	}
	b.infof("Server-Timing medians: cache %.4g ms on hits, %.4g ms on misses; on misses wait %.4g, queue %.4g, run %.4g, encode %.4g ms",
		median(stage["cache_ms.hit"]), median(stage["cache_ms.miss"]), median(stage["wait_ms.miss"]),
		median(stage["queue_ms.miss"]), median(stage["run_ms.miss"]), median(stage["encode_ms.miss"]))
	b.infof("hits: client latency beyond Server-Timing %.4g ms; hit ratio %.4f; sweep first line %.4g ms",
		median(httpMS), hits/runs, median(firstLine))
	b.infof("counters: coalesced %g, rejected %g, errors %g; per sweep %g executions, %g replays; %.4g KB allocated per request",
		delta("coalesced_total"), delta("rejected_total"), delta("errors_total"),
		delta("sweep_executions_total")/sweeps, delta("sweep_replays_total")/sweeps,
		float64(rt.allocBytes)/1024/float64(requests))

	kernels, err := s.replayMisses(ctx, b, b.lane("misses"), missBodies)
	if err != nil {
		return err
	}
	return b.probeLayers(ctx, b.lane("layer probes"), new(int64), kernels)
}

// maxReplicas bounds the misses the traced run replays in-process.
const maxReplicas = 16

// replayMisses is the server's executeRun for the first distinct misses
// of the traced phases, made in this process through execTraced so that
// the layers under a miss are timed: ResolveSpec, gpu.New with the
// request's policy, then the launch loop with the request's size and
// engine. It reports the launch-loop layers and returns the kernels the
// layer probes then run: the hot workloads at their quick sizes, the
// replayed misses' kernels and the set-up sweep's corpus kernel.
func (s *serveInstance) replayMisses(ctx context.Context, b *bench, rec *recorder, bodies []string) ([]experiments.GroupSpec, error) {
	ts := tallies{}
	var kernels []experiments.GroupSpec
	seen := map[experiments.GroupSpec]bool{}
	addKernel := func(gs experiments.GroupSpec) {
		if !seen[gs] {
			seen[gs] = true
			kernels = append(kernels, gs)
		}
	}
	for _, w := range hotWorkloads {
		spec, err := workloads.ByName(w)
		if err != nil {
			return nil, err
		}
		addKernel(experiments.GroupSpec{Workload: w, Size: workloads.QuickSize(spec)})
	}
	replayed := map[string]bool{}
	for i, body := range bodies {
		if len(replayed) == maxReplicas {
			break
		}
		if replayed[body] {
			continue
		}
		replayed[body] = true
		var req serve.RunRequest
		if err := json.Unmarshal([]byte(body), &req); err != nil {
			return nil, fmt.Errorf("miss %s: %w", body, err)
		}
		op := int64(i)
		root := rec.begin("serve.executeRun", -1, op)
		var spec *workloads.Spec
		var err error
		timeCall(rec, root, op, ts, "experiments.ResolveSpec", "experiments.resolve", func() {
			spec, err = experiments.ResolveSpec(req.Workload, req.SIMDWidth)
		})
		var policy compaction.Policy
		if err == nil {
			policy, err = compaction.ParsePolicy(req.Policy)
		}
		if err == nil {
			g := newGPU(rec, root, op, ts, gpu.DefaultConfig().WithPolicy(policy))
			_, err = execTraced(ctx, rec, root, op, ts, "gpu.engine", g, spec,
				workloads.ExecOptions{Size: req.Size, Timed: req.Timed})
		}
		rec.end(root)
		b.op(err)
		addKernel(experiments.GroupSpec{Workload: req.Workload, Width: req.SIMDWidth, Size: req.Size})
	}
	if len(replayed) == 0 {
		return nil, errors.New("traced serve run saw no miss")
	}
	b.putExecLayers(ts, "gpu.engine")
	addKernel(experiments.GroupSpec{Workload: kgen.Name("mixed", b.opt.seed, warmIndex)})
	return kernels, nil
}
