package experiments

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"os"
	"os/exec"
	"reflect"
	"runtime"
	"runtime/debug"
	"slices"
	"strings"
	"testing"

	"intrawarp/internal/compaction"
	"intrawarp/internal/eu"
	"intrawarp/internal/gpu"
	"intrawarp/internal/kgen"
	"intrawarp/internal/obs"
	"intrawarp/internal/stats"
	"intrawarp/internal/trace"
	"intrawarp/internal/workloads"
)

// sweepSet is the test grid's workload axis: a single-launch divergent
// kernel, a multi-launch workload (BFS re-launches until the frontier
// drains), and a second single-launch one.
var sweepSet = []string{"bfs", "bsearch", "urng"}

// freshRun is the pre-replay path: one full functional execution of the
// workload under the given policy's machine configuration.
func freshRun(t testing.TB, name string, p compaction.Policy, size, workers int) *stats.Run {
	t.Helper()
	spec, err := workloads.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	cfg := gpu.DefaultConfig().WithPolicy(p).WithWorkers(workers)
	run, err := workloads.ExecuteCtx(context.Background(), gpu.New(cfg), spec, workloads.ExecOptions{Size: size})
	if err != nil {
		t.Fatal(err)
	}
	return run
}

// TestSweepSingleExecutionPerWorkload is the trace-once guarantee: a
// full seven-policy sweep performs exactly as many functional launches as
// executing each workload once, plus one trace replay per group that
// checks the capture — the policy axis costs no further work.
func TestSweepSingleExecutionPerWorkload(t *testing.T) {
	// Baseline: one execution per workload, counting launches (BFS
	// launches several times per execution, so launch counts — not
	// execution counts — are the comparable quantity).
	base := &obs.Counts{}
	for _, name := range sweepSet {
		spec, err := workloads.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		cfg := gpu.DefaultConfig()
		cfg.EU.Probe = base
		// A visitor runs on one worker, matching the sweep's
		// trace-capture executions.
		noop := func(int, int, eu.ExecResult) {}
		_, err = workloads.ExecuteCtx(context.Background(), gpu.New(cfg), spec,
			workloads.ExecOptions{Size: workloads.QuickSize(spec), Visit: noop})
		if err != nil {
			t.Fatal(err)
		}
	}

	counts := &obs.Counts{}
	ctx := obs.ContextWithProbes(context.Background(), func(string) obs.Probe { return counts })
	sw, err := NewSweep(SweepWorkloads(sweepSet...), SweepQuick(), SweepWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	out, err := sw.Run(ctx)
	if err != nil {
		t.Fatal(err)
	}

	if got, want := counts.Launches("functional"), base.Launches("functional"); got != want {
		t.Errorf("sweep performed %d functional launches, want %d (one execution per workload)", got, want)
	}
	if got, want := counts.Launches("trace-replay"), len(sweepSet); got != want {
		t.Errorf("sweep performed %d trace replays, want %d (one capture check per group)", got, want)
	}
	if out.Executions != len(sweepSet) {
		t.Errorf("outcome reports %d executions, want %d", out.Executions, len(sweepSet))
	}
	if want := len(sweepSet) * compaction.NumPolicies; len(out.Results) != want {
		t.Errorf("got %d cells, want %d", len(out.Results), want)
	}
}

// TestSweepReplayMatchesFreshExecution is the cost-many guarantee: every
// cell's replayed report is byte-identical to the report of a fresh
// functional execution under that cell's policy.
func TestSweepReplayMatchesFreshExecution(t *testing.T) {
	sw, err := NewSweep(SweepWorkloads(sweepSet...), SweepQuick())
	if err != nil {
		t.Fatal(err)
	}
	out, err := sw.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	for _, res := range out.Results {
		spec, err := workloads.ByName(res.Cell.Workload)
		if err != nil {
			t.Fatal(err)
		}
		fresh := freshRun(t, res.Cell.Workload, res.Cell.Policy, workloads.QuickSize(spec), 0)
		got, err := json.Marshal(res.Run.Report())
		if err != nil {
			t.Fatal(err)
		}
		want, err := json.Marshal(fresh.Report())
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s/%s: replayed report != fresh execution report\nreplay: %s\nfresh:  %s",
				res.Cell.Workload, res.Cell.Policy, got, want)
		}
		if !res.Run.MaskCountsEqual(fresh) {
			t.Errorf("%s/%s: replayed mask counts diverge from fresh execution", res.Cell.Workload, res.Cell.Policy)
		}
	}
}

// TestSweepOracleVerify runs a sweep with per-record oracle checking of
// every captured trace enabled.
func TestSweepOracleVerify(t *testing.T) {
	sw, err := NewSweep(SweepWorkloads("bsearch"), SweepQuick(), SweepVerify())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sw.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
}

// TestSweepWidthAxis sweeps a width-parameterizable kernel across SIMD
// widths and checks each cell ran at its width.
func TestSweepWidthAxis(t *testing.T) {
	sw, err := NewSweep(
		SweepWorkloads("bsearch"),
		SweepWidths(8, 16, 32),
		SweepPolicies(compaction.IvyBridge, compaction.SCC),
		SweepQuick(),
	)
	if err != nil {
		t.Fatal(err)
	}
	out, err := sw.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Results) != 6 {
		t.Fatalf("got %d cells, want 6", len(out.Results))
	}
	for _, res := range out.Results {
		if res.Run.Width != res.Cell.Width {
			t.Errorf("cell width %d ran at SIMD%d", res.Cell.Width, res.Run.Width)
		}
	}
	if out.Executions != 3 {
		t.Errorf("width sweep performed %d executions, want 3 (one per width)", out.Executions)
	}
}

// TestSweepCorpusRange feeds a generated-corpus range plus a registered
// workload through one sweep: the range expands to one column per
// kernel, every corpus trace passes the per-record oracle check
// (SweepVerify), and the whole grid is byte-identical across two runs —
// generation determinism holding through the sweep path.
func TestSweepCorpusRange(t *testing.T) {
	const seed = 20130624
	rng := kgen.RangeName("mixed", seed, 0, 3)
	build := func() *Sweep {
		sw, err := NewSweep(
			SweepWorkloads(rng, "bsearch"),
			SweepPolicies(compaction.IvyBridge, compaction.SCC),
			SweepQuick(),
			SweepVerify(),
		)
		if err != nil {
			t.Fatal(err)
		}
		return sw
	}
	sw := build()
	wantNames := []string{
		kgen.Name("mixed", seed, 0),
		kgen.Name("mixed", seed, 1),
		kgen.Name("mixed", seed, 2),
		"bsearch",
	}
	cells := sw.Cells()
	if len(cells) != len(wantNames)*2 {
		t.Fatalf("got %d cells, want %d", len(cells), len(wantNames)*2)
	}
	for i, c := range cells {
		if want := wantNames[i/2]; c.Workload != want {
			t.Errorf("cell %d workload = %q, want %q", i, c.Workload, want)
		}
	}
	out, err := sw.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if out.Executions != len(wantNames) {
		t.Errorf("sweep performed %d executions, want %d (one per workload)", out.Executions, len(wantNames))
	}
	snapshot := func(o *SweepOutcome) []byte {
		var buf bytes.Buffer
		for _, r := range o.Results {
			b, err := json.Marshal(r.Run.Report())
			if err != nil {
				t.Fatal(err)
			}
			buf.Write(b)
			buf.WriteByte('\n')
		}
		return buf.Bytes()
	}
	out2, err := build().Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(snapshot(out), snapshot(out2)) {
		t.Error("two corpus sweeps over the same range are not byte-identical")
	}
}

// TestResolveSpecCorpus covers corpus names through ResolveSpec: native
// resolution, the SIMD-width override, and the rejected spellings.
func TestResolveSpecCorpus(t *testing.T) {
	name := kgen.Name("branchy", 99, 1)
	spec, err := ResolveSpec(name, 8)
	if err != nil {
		t.Fatal(err)
	}
	run, err := workloads.ExecuteCtx(context.Background(), gpu.New(gpu.DefaultConfig()), spec, workloads.ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if run.Width != 8 {
		t.Errorf("width-overridden corpus kernel ran at SIMD%d, want SIMD8", run.Width)
	}
	if _, err := ResolveSpec(name, 0); err != nil {
		t.Errorf("native corpus resolution failed: %v", err)
	}
	if _, err := ResolveSpec(name, 1); err == nil {
		t.Error("ResolveSpec accepted SIMD1 for a corpus kernel")
	}
	if _, err := ExpandWorkloads("kgen:nope:1:0-3"); err == nil {
		t.Error("ExpandWorkloads accepted an unknown profile")
	}
	if _, err := ExpandWorkloads("kgen:mixed:1:3-1"); err == nil {
		t.Error("ExpandWorkloads accepted an inverted range")
	}
}

// TestSweepOptionValidation covers the constructor's error paths.
func TestSweepOptionValidation(t *testing.T) {
	cases := []struct {
		name string
		opts []SweepOption
	}{
		{"no workloads", nil},
		{"unknown workload", []SweepOption{SweepWorkloads("nope")}},
		{"bad width", []SweepOption{SweepWorkloads("bsearch"), SweepWidths(7)}},
		{"negative size", []SweepOption{SweepWorkloads("bsearch"), SweepSizes(-1)}},
		{"out-of-range policy", []SweepOption{SweepWorkloads("bsearch"), SweepPolicies(compaction.Policy(compaction.NumPolicies))}},
	}
	for _, tc := range cases {
		if _, err := NewSweep(tc.opts...); err == nil {
			t.Errorf("%s: NewSweep succeeded, want error", tc.name)
		}
	}
	// A width axis on a workload without width variants fails at run time
	// with the workload named.
	sw, err := NewSweep(SweepWorkloads("bfs"), SweepWidths(8))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sw.Run(context.Background()); err == nil {
		t.Error("width sweep of a fixed-width workload succeeded, want error")
	}
}

// TestCheckCaptureRejectsAlteredTrace feeds ExecuteGroup's capture check
// the group's own records, then the same records with one mask bit
// flipped and with one record dropped: only the faithful capture passes.
func TestCheckCaptureRejectsAlteredTrace(t *testing.T) {
	spec, err := workloads.ByName("bsearch")
	if err != nil {
		t.Fatal(err)
	}
	res, err := ExecuteGroup(context.Background(), GroupSpec{Workload: "bsearch", Size: workloads.QuickSize(spec)})
	if err != nil {
		t.Fatal(err)
	}
	if err := checkCapture(res.Base, res.Records, nil); err != nil {
		t.Fatalf("faithful capture rejected: %v", err)
	}
	flipped := append([]trace.Record(nil), res.Records...)
	flipped[len(flipped)/2].Mask ^= 1
	for name, recs := range map[string][]trace.Record{
		"one mask bit flipped": flipped,
		"one record dropped":   res.Records[1:],
	} {
		err := checkCapture(res.Base, recs, nil)
		if err == nil || !strings.Contains(err.Error(), "diverges") {
			t.Errorf("%s: checkCapture = %v, want the diverges error", name, err)
		}
	}
}

// TestSweepReusedBufferMatchesFreshGroups runs a verified grid on one
// worker, so every group captures into the buffer the first and largest
// group (particlefilter at SIMD8) grew. Every cell must equal its fresh
// ExecuteGroup run, and the record tally the fresh groups' counts.
func TestSweepReusedBufferMatchesFreshGroups(t *testing.T) {
	sw, err := NewSweep(SweepWorkloads("particlefilter", "bsearch", "urng"), SweepWidths(8, 16),
		SweepVerify(), SweepWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	out, err := sw.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	fresh := map[GroupSpec]*GroupResult{}
	var records, largest int64
	for _, c := range sw.Cells() {
		gs := GroupSpec{Workload: c.Workload, Width: c.Width, Size: c.Size}
		if fresh[gs] != nil {
			continue
		}
		res, err := ExecuteGroup(context.Background(), gs)
		if err != nil {
			t.Fatal(err)
		}
		fresh[gs] = res
		n := int64(len(res.Records))
		if records == 0 {
			largest = n
		} else if n >= largest {
			t.Fatalf("group %+v has %d records, not fewer than the first group's %d", gs, n, largest)
		}
		records += n
	}
	if out.Records != records {
		t.Errorf("sweep tallied %d records, want the fresh groups' %d", out.Records, records)
	}
	for _, r := range out.Results {
		want := fresh[GroupSpec{Workload: r.Cell.Workload, Width: r.Cell.Width, Size: r.Cell.Size}].Runs[r.Cell.Policy]
		if !reflect.DeepEqual(r.Run, want) {
			t.Errorf("%s@%d/%s: sweep cell %+v, fresh group run %+v", r.Cell.Workload, r.Cell.Width, r.Cell.Policy, r.Run, want)
		}
	}
}

// cancelAfterWorkgroup cancels a run once its first workgroup retires,
// so the run fails at the next workgroup with records captured.
type cancelAfterWorkgroup struct {
	obs.NullProbe
	cancel context.CancelFunc
}

func (p cancelAfterWorkgroup) WorkgroupRetired(int, int64) { p.cancel() }

// TestFailedGroupLeavesCleanBuffer fails a group after it has captured
// records, then runs another group through the same collector: that
// group's capture check must pass and its records equal a fresh
// ExecuteGroup's.
func TestFailedGroupLeavesCleanBuffer(t *testing.T) {
	col := &trace.Collector{}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	ctx = obs.ContextWithProbes(ctx, func(string) obs.Probe { return cancelAfterWorkgroup{cancel: cancel} })
	if _, _, err := captureGroup(ctx, GroupSpec{Workload: "particlefilter"}, col); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled group returned %v, want context.Canceled", err)
	}
	if len(col.Records) == 0 {
		t.Fatal("the cancelled group captured no records, so the buffer is not exercised")
	}

	next := GroupSpec{Workload: "bsearch", Size: 300}
	if _, _, err := captureGroup(context.Background(), next, col); err != nil {
		t.Fatalf("group after a failed one: %v", err)
	}
	fresh, err := ExecuteGroup(context.Background(), next)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(col.Records, fresh.Records) {
		t.Errorf("reused buffer holds %d records, a fresh group %d (or they differ)", len(col.Records), len(fresh.Records))
	}
}

// sweepHeapChild marks the child process of TestSweepHeapBounded.
const sweepHeapChild = "INTRAWARP_SWEEP_HEAP_CHILD"

// sweepHeapGrowthLimit bounds the heap a one-worker, single-policy sweep
// over 512 corpus kernels may add. On linux/amd64 such a sweep grows
// HeapSys by 0 or 4 MB (one step of the runtime's heap growth); a sweep
// that kept every group's trace and kernel until the grid ended grew it
// by 24 MB.
const sweepHeapGrowthLimit = 8 << 20

// TestSweepHeapBounded holds a sweep's memory to its worker's largest
// group plus its cells: a one-worker, single-policy sweep over 512
// corpus kernels may grow the heap by only a few MB. It measures in a
// child process, where no other test's heap counts and the GC runs at
// a low percent, so the heap tracks the live data closely.
func TestSweepHeapBounded(t *testing.T) {
	if os.Getenv(sweepHeapChild) == "" {
		cmd := exec.Command(os.Args[0], "-test.run=^TestSweepHeapBounded$", "-test.count=1", "-test.v")
		cmd.Env = append(os.Environ(), sweepHeapChild+"=1")
		out, err := cmd.CombinedOutput()
		t.Logf("child:\n%s", out)
		if err != nil {
			t.Fatalf("child process: %v", err)
		}
		return
	}
	debug.SetGCPercent(10)
	sw, err := NewSweep(SweepWorkloads(kgen.RangeName("mixed", 1, 0, 512)),
		SweepPolicies(compaction.SCC), SweepWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	out, err := sw.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	grew := int64(after.HeapSys) - int64(before.HeapSys) // it may shrink a little
	t.Logf("%d cells over %d records grew HeapSys by %.2f MB", len(out.Results), out.Records, float64(grew)/(1<<20))
	if grew >= sweepHeapGrowthLimit {
		t.Errorf("sweep grew HeapSys by %d bytes, want under %d", grew, sweepHeapGrowthLimit)
	}
}

// TestSweepDefaults checks the default axes: all seven policies at native
// width and default (here quick) size.
func TestSweepDefaults(t *testing.T) {
	sw, err := NewSweep(SweepWorkloads("bsearch"), SweepQuick())
	if err != nil {
		t.Fatal(err)
	}
	cells := sw.Cells()
	if len(cells) != compaction.NumPolicies {
		t.Fatalf("got %d cells, want %d", len(cells), compaction.NumPolicies)
	}
	for i, p := range compaction.Policies {
		if cells[i].Policy != p {
			t.Errorf("cell %d policy = %s, want %s", i, cells[i].Policy, p)
		}
	}
}

// BenchmarkSweepGridReplay measures the trace-once sweep over a 3
// workload × 7 policy grid; BenchmarkSweepGridExecute is the pre-replay
// path over the same grid (one functional execution per cell). Both run
// serially (Workers 1) so the comparison is engine vs engine, not
// scheduling. Their ratio is the sweep engine's headline speedup.
func BenchmarkSweepGridReplay(b *testing.B) {
	sw, err := NewSweep(SweepWorkloads(sweepSet...), SweepQuick(), SweepWorkers(1))
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sw.Run(context.Background()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSweepCorpusWindow is a one-worker, single-policy sweep over
// a 64-kernel corpus window: its B/op gates what a sweep keeps per group
// (a reused capture buffer and one run per cell, not every trace).
func BenchmarkSweepCorpusWindow(b *testing.B) {
	sw, err := NewSweep(SweepWorkloads(kgen.RangeName("mixed", 1, 0, 64)),
		SweepPolicies(compaction.SCC), SweepWorkers(1))
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sw.Run(context.Background()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSweepGridExecute(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for _, name := range sweepSet {
			spec, err := workloads.ByName(name)
			if err != nil {
				b.Fatal(err)
			}
			for _, p := range compaction.Policies {
				freshRun(b, name, p, workloads.QuickSize(spec), 1)
			}
		}
	}
}
