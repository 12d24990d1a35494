package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"math/rand"
	"os"
	"strings"
	"testing"
	"time"

	"intrawarp/internal/experiments"
	"intrawarp/internal/kgen"
	"intrawarp/internal/workloads"
)

// TestMain lets the test binary stand in for the benchmark program when
// a run starts child processes of itself (see bench.child).
func TestMain(m *testing.M) {
	if os.Getenv(childEnv) == "1" {
		os.Exit(run(context.Background(), os.Args[1:], os.Stdout, os.Stderr))
	}
	os.Exit(m.Run())
}

func TestQuantile(t *testing.T) {
	xs := []float64{4, 1, 3, 2}
	if got := median(xs); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
	if got := quantile(xs, 0.9); math.Abs(got-3.7) > 1e-12 {
		t.Errorf("p90 = %v, want 3.7", got)
	}
	if xs[0] != 4 {
		t.Error("quantile reordered its input")
	}
	if !math.IsNaN(median(nil)) {
		t.Error("median of nothing is not NaN")
	}
}

func TestSelfTimes(t *testing.T) {
	r := newRecorder(time.Now(), 1, "lane")
	ms := time.Millisecond
	root := r.add("root", -1, 1, 0, 10*ms)
	r.add("a", root, 1, 1*ms, 3*ms)
	r.add("b", root, 1, 2*ms, 5*ms)  // overlaps a: the union counts once
	r.add("c", root, 1, 7*ms, 12*ms) // clipped to the parent
	got := map[string]layerTime{}
	for _, lt := range selfTimes([]*recorder{r}) {
		got[lt.Name] = lt
	}
	if got["root"].Self != 3*ms {
		t.Errorf("root self = %v, want 3ms", got["root"].Self)
	}
	if got["b"].Self != 3*ms || got["b"].Calls != 1 {
		t.Errorf("b = %+v", got["b"])
	}
}

func TestNilRecorderRecordsNothing(t *testing.T) {
	var r *recorder
	id := r.begin("x", -1, 0)
	r.end(id)
	if id != -1 || r.add("y", -1, 0, 0, 1) != -1 {
		t.Error("nil recorder returned a span index")
	}
}

func TestChromeTrace(t *testing.T) {
	base := time.Now()
	a, b := newRecorder(base, 1, "one"), newRecorder(base, 2, "two")
	for i := 0; i < 3; i++ {
		s := a.begin("outer", -1, int64(i))
		a.end(a.begin("inner", s, int64(i)))
		a.end(s)
	}
	b.add("late", -1, 9, 5*time.Millisecond, 6*time.Millisecond)
	b.add("early", -1, 8, time.Millisecond, 2*time.Millisecond)
	var buf bytes.Buffer
	if err := writeChromeTrace(&buf, "test", []*recorder{a, b}); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string   `json:"name"`
			Ph   string   `json:"ph"`
			TS   *float64 `json:"ts"`
			Dur  *float64 `json:"dur"`
			TID  int      `json:"tid"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("not JSON: %v", err)
	}
	last := map[int]float64{}
	data := false
	for i, e := range doc.TraceEvents {
		if e.TS == nil {
			t.Fatalf("event %d has no ts", i)
		}
		if e.Ph == "M" {
			if data {
				t.Fatalf("metadata event %d after data events", i)
			}
			continue
		}
		data = true
		if e.Ph != "X" || e.Dur == nil || *e.Dur < 0 {
			t.Fatalf("event %d: %+v", i, e)
		}
		if *e.TS < last[e.TID] {
			t.Fatalf("event %d: ts goes backwards on track %d", i, e.TID)
		}
		last[e.TID] = *e.TS
	}
	if n := len(doc.TraceEvents); n != 3+6+2 {
		t.Errorf("%d events, want 11", n)
	}
}

func TestParseServerTiming(t *testing.T) {
	got := parseServerTiming("cache;dur=0.012, wait;dur=5.100, run;dur=4.9, bogus")
	want := map[string]float64{"cache": 0.012, "wait": 5.1, "run": 4.9}
	if len(got) != len(want) {
		t.Fatalf("got %v", got)
	}
	for k, v := range want {
		if got[k] != v {
			t.Errorf("%s = %v, want %v", k, got[k], v)
		}
	}
}

func TestRoundLog(t *testing.T) {
	log := newRoundLog(false)
	for i := 0; i < 40; i++ {
		log.add(sample{class: sampleClass(i % 2), latency: time.Duration(i+1) * time.Millisecond})
	}
	r := log.summarize(4 * time.Second)
	if log.count() != 40 || log.all != nil || r.hits != 20 || r.misses != 20 || r.sweeps != 0 {
		t.Fatalf("%d samples, %d kept, %+v", log.count(), len(log.all), r)
	}
	if r.reqPerS != 10 || r.hitP50 != 20 || r.missP50 != 21 {
		t.Errorf("round %+v", r)
	}
	rounds := []roundStats{r, {sweepP50: 3}}
	if got := medianOf(rounds, func(r roundStats) float64 { return r.sweepP50 }); got != 3 {
		t.Errorf("sweep median over rounds with samples = %v, want 3", got)
	}
}

func TestStealShare(t *testing.T) {
	stat := "cpu  100 5 20 800 10 1 2 12 0 0\ncpu0 50 2 10 400 5 0 1 6 0 0\n"
	a, err := parseCPUTicks(stat)
	if err != nil || a.steal != 12 || a.busy != 140 {
		t.Fatalf("parsed %+v, %v", a, err)
	}
	if _, err := parseCPUTicks("intr 1 2 3"); err == nil {
		t.Error("a line that is not the cpu line parsed")
	}
	b := cpuTicks{steal: a.steal + 10, busy: a.busy + 200}
	if got := stealShare(a, b); got != 0.05 {
		t.Errorf("steal share %v, want 0.05", got)
	}
	if got := stealShare(b, b); got != 0 {
		t.Errorf("steal share over no busy ticks %v", got)
	}
	if readCPUTicks().busy == 0 {
		t.Error("no ticks read from /proc/stat")
	}
}

func TestReservoirStaysBounded(t *testing.T) {
	var r reservoir
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 10*reservoirSize; i++ {
		r.add(float64(i), rng)
	}
	if r.n != 10*reservoirSize || len(r.vals) != reservoirSize {
		t.Fatalf("n %d, kept %d", r.n, len(r.vals))
	}
	// A uniform sample of 0..N-1 has its median near N/2.
	if m := median(r.vals); math.Abs(m/float64(r.n)-0.5) > 0.05 {
		t.Errorf("median %v of a uniform sample of [0, %d)", m, r.n)
	}
}

func TestReferences(t *testing.T) {
	r := newReferences()
	a, b := fingerprint{1}, fingerprint{2}
	if !r.check("k", a) || !r.check("k", a) || r.check("k", b) {
		t.Error("check does not pin the first fingerprint")
	}
	d := r.digest()
	r2 := newReferences()
	r2.check("k", a)
	if r2.digest() != d || len(d) != 16 {
		t.Errorf("digest %q not reproducible", d)
	}
}

func TestPlanIsSeededAndFirstTimeNamesAreUnique(t *testing.T) {
	p1, err := newPlan(7)
	if err != nil {
		t.Fatal(err)
	}
	p2, _ := newPlan(7)
	p3, _ := newPlan(8)
	same, kinds := true, map[reqKind]int{}
	seen := map[string]bool{}
	for n := 0; n < 20000; n++ {
		i, e1 := p1.take()
		j, e2 := p2.take()
		k, e3 := p3.take()
		if i != n || j != n || k != n {
			t.Fatalf("entry %d taken as %d, %d, %d", n, i, j, k)
		}
		path1, body1 := p1.request(i, e1)
		path2, body2 := p2.request(j, e2)
		_, body3 := p3.request(k, e3)
		if path1 != path2 || body1 != body2 {
			t.Fatalf("entry %d differs for one seed", i)
		}
		same = same && body1 == body3
		kinds[e1.kind]++
		if e1.kind != kindHot {
			if seen[body1] {
				t.Fatalf("first-time request %s repeats", body1)
			}
			seen[body1] = true
		}
	}
	if same {
		t.Error("seeds 7 and 8 give the same sequence")
	}
	if h := kinds[kindHot]; h < 18800 || h > 19400 {
		t.Errorf("%d hot of 20000", h)
	}
	if kinds[kindSuite] == 0 || kinds[kindKgen] == 0 || kinds[kindSweep] == 0 {
		t.Errorf("kinds %v", kinds)
	}
	if p1.hot[0] != `{"workload":"bsearch","timed":true,"policy":"scc"}` {
		t.Errorf("hot set does not start with the documented example: %s", p1.hot[0])
	}
}

func TestParseFlags(t *testing.T) {
	var errw bytes.Buffer
	for _, args := range [][]string{
		{"--workload", "nope"},
		{"--workload", "timed", "--trace", "2"},
		{"--workload", "timed", "--seconds", "0"},
		{"--workload", "timed", "extra"},
		{"--workload", "timed", "--phase", "measure"},
		{"--workload", "timed", "--windows", "{"},
	} {
		if _, err := parseFlags(args, &errw); err == nil {
			t.Errorf("%q accepted", args)
		}
	}
	opt, err := parseFlags([]string{"--workload", "serve", "--seed", "3", "--seconds", "1.5", "--trace", "1"}, &errw)
	if err != nil || opt.seed != 3 || opt.seconds != 1500*time.Millisecond || !opt.trace {
		t.Errorf("got %+v, %v", opt, err)
	}
	if code := run(context.Background(), []string{"--workload", "nope"}, &errw, &errw); code != 2 {
		t.Errorf("exit code %d for a bad workload", code)
	}
}

// TestManifestMatchesDeclaredMetrics reads BENCHMARK.json: its
// workloads are the program's, and its metrics are exactly the ones the
// program checks every run reports, in the same units.
func TestManifestMatchesDeclaredMetrics(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloadSetups) {
		t.Errorf("BENCHMARK.json names %d workloads, the program has %d", len(spec.Workloads), len(workloadSetups))
	}
	for _, w := range spec.Workloads {
		if _, ok := workloadSetups[w.Name]; !ok {
			t.Errorf("BENCHMARK.json names unknown workload %q", w.Name)
		}
	}
	for _, c := range []struct {
		kind     string
		manifest []struct{ Name, Unit string }
		declared map[string]string
	}{{"end_to_end", spec.EndToEnd, endToEnd}, {"per_layer", spec.PerLayer, perLayer}} {
		got := map[string]string{}
		for _, m := range c.manifest {
			got[m.Name] = m.Unit
		}
		if len(got) != len(c.manifest) || len(got) != len(c.declared) {
			t.Errorf("%s: BENCHMARK.json declares %d metrics (%d distinct), the program %d",
				c.kind, len(c.manifest), len(got), len(c.declared))
		}
		for name, unit := range c.declared {
			if got[name] != unit {
				t.Errorf("%s: %s is %q in BENCHMARK.json, %q in the program", c.kind, name, got[name], unit)
			}
		}
	}
}

func newTestBench(workload string, trace bool) (*bench, *bytes.Buffer) {
	var out bytes.Buffer
	opt := options{workload: workload, seed: 1, seconds: time.Nanosecond, trace: trace, spanDir: os.TempDir()}
	return newBench(opt, &out, &out), &out
}

// tinyTimed is the timed workload shrunk to one small kernel per set.
func tinyTimed(t *testing.T) *timedInstance {
	t.Helper()
	bfs, err := workloads.ByName("bfs")
	if err != nil {
		t.Fatal(err)
	}
	k, err := experiments.ResolveSpec(kgen.Name("loopy", 1, 3), 0)
	if err != nil {
		t.Fatal(err)
	}
	return &timedInstance{sets: []*kernelSet{
		{name: "membound", kernels: []timedKernel{{spec: bfs, size: 64}}},
		{name: "computebound", kernels: []timedKernel{{spec: k}}},
	}}
}

// tinyFunctional is the functional workload shrunk to small grids.
func tinyFunctional(t *testing.T) *functionalInstance {
	t.Helper()
	div, err := newGrid("divergent", experiments.SweepWorkloads("bsearch", kgen.Name("mixed", 1, 0)), experiments.SweepSizes(64))
	if err != nil {
		t.Fatal(err)
	}
	wid, err := newGrid("widths", experiments.SweepWorkloads("urng"), experiments.SweepWidths(8, 16), experiments.SweepSizes(64))
	if err != nil {
		t.Fatal(err)
	}
	var plain []*workloads.Spec
	for _, name := range []string{"bsearch", "vecadd"} {
		s, err := workloads.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		plain = append(plain, s)
	}
	return &functionalInstance{grids: []*grid{div, wid}, plain: plain}
}

// TestTracedReplicasMatchAndReport runs each shrunk simulator workload
// untraced, then traced on the same bench: the traced replicas of
// ExecuteCtx and ExecuteGroup must reproduce the untraced statistics
// byte for byte, and each mode must report exactly its declared metrics.
func TestTracedReplicasMatchAndReport(t *testing.T) {
	ctx := context.Background()
	for name, inst := range map[string]instance{"timed": tinyTimed(t), "functional": tinyFunctional(t)} {
		t.Run(name, func(t *testing.T) {
			b, out := newTestBench(name, true)
			if err := inst.measure(ctx, b); err != nil {
				t.Fatal(err)
			}
			// execute, not measure, reports these two.
			b.put("setup_s", "s", 1)
			b.put("peak_rss_mb", "MB", 1)
			if err := b.checkReported(endToEnd); err != nil {
				t.Error(err)
			}
			b.metrics = map[string]metric{}
			if err := inst.traced(ctx, b); err != nil {
				t.Fatal(err)
			}
			if f := b.failed.Load(); f != 0 {
				t.Fatalf("%d failed operations:\n%s", f, out)
			}
			if err := b.checkReported(perLayer); err != nil {
				t.Error(err)
			}
			if len(b.lanes) != 1 || len(b.lanes[0].spans) == 0 {
				t.Error("traced run recorded no spans")
			}
		})
	}
}

// TestServeEndToEnd runs the serve workload through run: set-up rounds,
// a short measured loop, and the result line.
func TestServeEndToEnd(t *testing.T) {
	for _, trace := range []string{"0", "1"} {
		var out, errw bytes.Buffer
		dir := t.TempDir()
		code := run(context.Background(), []string{"--workload", "serve", "--seed", "5", "--seconds", "0.5",
			"--trace", trace, "--spans", dir}, &out, &errw)
		if code != 0 {
			t.Fatalf("trace %s: exit %d: %s", trace, code, errw.String())
		}
		lines := strings.Split(strings.TrimSpace(out.String()), "\n")
		var res result
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
			t.Fatalf("last line is not a result: %v", err)
		}
		if !res.Correct || res.Failed != 0 || res.Attempted < 10 {
			t.Fatalf("trace %s: %+v\n%s", trace, res, errw.String())
		}
		declared := endToEnd
		if trace == "1" {
			declared = perLayer
			if _, err := os.Stat(dir + "/serve-seed5.json"); err != nil {
				t.Error(err)
			}
		}
		b := &bench{opt: options{workload: "serve"}, metrics: res.Metrics}
		if err := b.checkReported(declared); err != nil {
			t.Error(err)
		}
	}
}

// TestWindowSelection chooses a memory-bound window twice for one seed
// and once for another: the window is a pure function of the seed, stays
// within its instruction budget, and no candidate run fails.
func TestWindowSelection(t *testing.T) {
	ctx := context.Background()
	choose := func(seed uint64) string {
		b, out := newTestBench("timed", false)
		b.opt.seed = seed
		names, err := memoryWindow.choose(ctx, b)
		if err != nil {
			t.Fatal(err)
		}
		if f := b.failed.Load(); f != 0 || len(names) == 0 {
			t.Fatalf("window %v, %d failed candidate runs:\n%s", names, f, out)
		}
		return strings.Join(names, ",")
	}
	a, again, other := choose(1), choose(1), choose(2)
	if a != again {
		t.Errorf("seed 1 gave %s, then %s", a, again)
	}
	if a == other {
		t.Errorf("seeds 1 and 2 gave the same window %s", a)
	}
}
