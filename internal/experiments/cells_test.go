package experiments

import (
	"context"
	"io"
	"sort"
	"strings"
	"sync"
	"testing"

	"intrawarp/internal/compaction"
	"intrawarp/internal/gpu"
	"intrawarp/internal/obs"
	"intrawarp/internal/workloads"
)

// TestKernelSpecMatchesLaunch pins kernelSpec to the launch it wraps: a
// micro-benchmark cell times exactly what a direct RunCtx of the same
// kernel over a zeroed output buffer in groups of 96 times.
func TestKernelSpecMatchesLaunch(t *testing.T) {
	const n = 512
	k, err := patternKernel(0xF0F0, 8)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []compaction.Policy{compaction.IvyBridge, compaction.SCC} {
		got, err := cell{spec: kernelSpec(k), size: n, timed: true, policy: p}.run(context.Background())
		if err != nil {
			t.Fatalf("%s: %v", p, err)
		}
		g := gpu.New(gpu.DefaultConfig().WithPolicy(p))
		out := g.AllocU32(n, make([]uint32, n))
		want, err := g.RunCtx(context.Background(), gpu.LaunchSpec{Kernel: k, GlobalSize: n, GroupSize: 96, Args: []uint32{out}})
		if err != nil {
			t.Fatalf("%s: %v", p, err)
		}
		if got.TotalCycles != want.TotalCycles || got.EUBusy != want.EUBusy {
			t.Errorf("%s: cell total=%d busy=%d, direct launch total=%d busy=%d",
				p, got.TotalCycles, got.EUBusy, want.TotalCycles, want.EUBusy)
		}
	}
}

// labelRecorder is a probe factory that records the label of every probe
// it makes.
type labelRecorder struct {
	mu     sync.Mutex
	labels []string
}

func (r *labelRecorder) probe(label string) obs.Probe {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.labels = append(r.labels, label)
	return obs.NullProbe{}
}

// TestTimedCellsGetProbes checks that every timed cell of an experiment
// gets one probe from the context's factory, labelled
// "<workload>/<policy>/dc<N>[/pl3]": Fig. 12's workload cells and the
// issue ablation's micro-benchmark cells alike. Functional cells, such as
// the width ablation's, get none.
func TestTimedCellsGetProbes(t *testing.T) {
	var fig12 []string
	for _, s := range workloads.ByClass("rodinia") {
		for _, p := range []string{"ivb", "bcc", "scc"} {
			fig12 = append(fig12, s.Name+"/"+p+"/dc1", s.Name+"/"+p+"/dc2", s.Name+"/"+p+"/dc1/pl3")
		}
	}
	for _, tc := range []struct {
		id   string
		want []string
	}{
		{"fig12", fig12},
		{"ablation-issue", []string{
			"ubench-000f/baseline/dc1", "ubench-000f/scc/dc1",
			"ubench-000f/baseline/dc1", "ubench-000f/scc/dc1",
		}},
		{"ablation-width", nil},
	} {
		rec := &labelRecorder{}
		ctx := obs.ContextWithProbes(context.Background(), rec.probe)
		if err := Run(tc.id, &Context{Out: io.Discard, Quick: true, Workers: 2, Ctx: ctx}); err != nil {
			t.Fatalf("%s: %v", tc.id, err)
		}
		sort.Strings(rec.labels)
		sort.Strings(tc.want)
		if strings.Join(rec.labels, "\n") != strings.Join(tc.want, "\n") {
			t.Errorf("%s: probe labels\n%s\nwant\n%s", tc.id,
				strings.Join(rec.labels, "\n"), strings.Join(tc.want, "\n"))
		}
	}
}

// TestRunCellsLabelsErrors checks that a failing cell's error names the
// cell and that runCells returns no partial runs.
func TestRunCellsLabelsErrors(t *testing.T) {
	ok, err := workloads.ByName("vecadd")
	if err != nil {
		t.Fatal(err)
	}
	bad, err := workloads.ByName("bitonic")
	if err != nil {
		t.Fatal(err)
	}
	runs, err := runCells(context.Background(), 2, []cell{
		{spec: ok, size: 256},
		{spec: bad, size: 100, timed: true, policy: compaction.SCC, dc: 2, pl3: true},
	})
	if err == nil || runs != nil {
		t.Fatalf("runs=%v err=%v, want no runs and an error", runs, err)
	}
	if !strings.HasPrefix(err.Error(), "bitonic/scc/dc2/pl3: ") {
		t.Errorf("error %q does not start with the failing cell's label", err)
	}
}
