package gpu_test

import (
	"bytes"
	"context"
	"encoding/json"
	"testing"

	"intrawarp/internal/gpu"
	"intrawarp/internal/obs"
	"intrawarp/internal/stats"
	"intrawarp/internal/workloads"
)

// launchReports runs every launch of inst on g with the chosen engine,
// checks the results, and returns the launches' reports as JSON.
func launchReports(t *testing.T, g *gpu.GPU, inst *workloads.Instance, timed bool) []byte {
	t.Helper()
	var out []byte
	for iter := 0; ; iter++ {
		ls := inst.Next(iter)
		if ls == nil {
			break
		}
		var run *stats.Run
		var err error
		if timed {
			run, err = g.RunCtx(context.Background(), *ls)
		} else {
			run, err = g.RunFunctionalCtx(context.Background(), *ls, nil)
		}
		if err != nil {
			t.Fatalf("launch %d: %v", iter, err)
		}
		rep, err := json.Marshal(run.Report())
		if err != nil {
			t.Fatal(err)
		}
		out = append(append(out, rep...), '\n')
	}
	if err := inst.Check(); err != nil {
		t.Fatalf("check: %v", err)
	}
	return out
}

// TestReusedGPUMatchesFresh runs one workload instance on one GPU
// functionally, then timed, then functionally again, and compares each
// run's reports with a fresh GPU's. The timed run is the GPU's first, so
// it builds the EUs and the cache arrays after the functional engine has
// used the GPU's thread contexts and scratchpads; the last functional
// run reuses them after the timed core has. The workloads write every
// output word from inputs they never modify, so each run starts from the
// same device memory on both GPUs.
func TestReusedGPUMatchesFresh(t *testing.T) {
	for _, name := range []string{"reduce", "bsearch", "blackscholes", "scan"} {
		spec, err := workloads.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{1, 2} {
			cfg := gpu.DefaultConfig().WithWorkers(workers)
			g := gpu.New(cfg)
			inst, err := spec.Setup(g, spec.DefaultN)
			if err != nil {
				t.Fatal(err)
			}
			for i, timed := range []bool{false, true, false} {
				got := launchReports(t, g, inst, timed)
				fresh := gpu.New(cfg)
				freshInst, err := spec.Setup(fresh, spec.DefaultN)
				if err != nil {
					t.Fatal(err)
				}
				if want := launchReports(t, fresh, freshInst, timed); !bytes.Equal(got, want) {
					t.Fatalf("%s workers=%d run %d (timed %v): reused GPU's reports differ from a fresh GPU's\nreused: %s\nfresh: %s",
						name, workers, i, timed, got, want)
				}
			}
		}
	}
}

// TestDecodeOncePerKernel runs bfs, whose two kernels launch once per
// frontier level, on both engines: each GPU must decode exactly the two
// kernels however many launches run.
func TestDecodeOncePerKernel(t *testing.T) {
	spec, err := workloads.ByName("bfs")
	if err != nil {
		t.Fatal(err)
	}
	for _, timed := range []bool{false, true} {
		counts := &obs.Counts{}
		cfg := gpu.DefaultConfig().WithWorkers(1)
		cfg.EU.Probe = counts
		g := gpu.New(cfg)
		if _, err := workloads.ExecuteCtx(context.Background(), g, spec, workloads.ExecOptions{Timed: timed}); err != nil {
			t.Fatal(err)
		}
		launches := counts.Launches("functional") + counts.Launches("timed")
		if launches <= 2 {
			t.Fatalf("timed %v: bfs made %d launches, want several per kernel", timed, launches)
		}
		if got := gpu.DecodedKernels(g); got != 2 {
			t.Fatalf("timed %v: %d launches decoded %d kernels, want 2", timed, launches, got)
		}
	}
}
