package workloads

import (
	"context"
	"strings"
	"testing"
	"time"

	"intrawarp/internal/compaction"
	"intrawarp/internal/gpu"
)

// testScale gives a reduced problem size per workload so the full suite
// verifies quickly; zero means use the default.
var testScale = map[string]int{
	"vecadd":         512,
	"dotproduct":     512,
	"blackscholes":   256,
	"dct8":           256,
	"mersenne":       256,
	"mvm":            32,
	"matmul":         16,
	"transpose":      32,
	"sobel":          34, // 32x32 interior divides evenly into SIMD16
	"bfs":            256,
	"lavamd":         128,
	"nw":             24,
	"particlefilter": 128,
	"eigenvalue":     64,
	"bsearch":        256,
	"bitonic":        256,
	"hotspot":        32,
}

func rtScale(name string) int { return 144 }

func scaleFor(s *Spec) int {
	if n, ok := testScale[s.Name]; ok {
		return n
	}
	if s.Class == "raytrace" {
		return rtScale(s.Name)
	}
	return 0
}

// Every registered workload must run functionally and pass its host-side
// verification.
func TestAllWorkloadsFunctional(t *testing.T) {
	for _, s := range All() {
		s := s
		t.Run(s.Name, func(t *testing.T) {
			g := gpu.New(gpu.DefaultConfig())
			run, err := ExecuteCtx(context.Background(), g, s, ExecOptions{Size: scaleFor(s)})
			if err != nil {
				t.Fatalf("%v", err)
			}
			if run.Instructions == 0 {
				t.Fatal("no instructions recorded")
			}
			eff := run.SIMDEfficiency()
			if eff <= 0 || eff > 1 {
				t.Fatalf("efficiency %v out of range", eff)
			}
		})
	}
}

// TestAnySizeErrorsNotPanics runs every workload at sizes that are not
// powers of two, not multiples of 8, tiny or past 4096: each must return
// a run or an error and never panic, since a size arrives unchecked from
// the CLI or an HTTP request. Every run is cut at a short deadline (the
// deadline error counts as an error) so the large sizes stay cheap;
// Setup, where the size checks live, always runs in full. mvm, nw and
// sobel allocate n² elements in Setup (0.4–0.8 GB at 4097), so they stop
// at 1000.
func TestAnySizeErrorsNotPanics(t *testing.T) {
	quadratic := map[string]bool{"mvm": true, "nw": true, "sobel": true}
	for _, s := range All() {
		for _, n := range []int{1, 3, 5, 17, 100, 1000, 4097} {
			if n > 1000 && quadratic[s.Name] {
				continue
			}
			func() {
				defer func() {
					if p := recover(); p != nil {
						t.Errorf("%s at size %d panicked: %v", s.Name, n, p)
					}
				}()
				ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
				defer cancel()
				run, err := ExecuteCtx(ctx, gpu.New(gpu.DefaultConfig()), s, ExecOptions{Size: n})
				if (run == nil) == (err == nil) {
					t.Errorf("%s at size %d: run %v with error %v, want exactly one", s.Name, n, run, err)
				}
			}()
		}
	}
}

// TestBitonicRejectsNonPowerOfTwo checks that bitonic refuses, in Setup,
// a size whose partner indices would run past the buffer, even when the
// host check is skipped, while its power-of-two sizes still sort.
func TestBitonicRejectsNonPowerOfTwo(t *testing.T) {
	s, err := ByName("bitonic")
	if err != nil {
		t.Fatal(err)
	}
	_, err = ExecuteCtx(context.Background(), gpu.New(gpu.DefaultConfig()), s,
		ExecOptions{Size: 1000, SkipVerify: true})
	if err == nil || !strings.Contains(err.Error(), "setup") || !strings.Contains(err.Error(), "1000") {
		t.Fatalf("bitonic at 1000: got %v, want a setup error naming the size", err)
	}
	for _, n := range []int{256, 1024} {
		if _, err := ExecuteCtx(context.Background(), gpu.New(gpu.DefaultConfig()), s, ExecOptions{Size: n}); err != nil {
			t.Fatalf("bitonic at %d: %v", n, err)
		}
	}
}

// TestReduceChecksPartialGroup runs reduce at sizes that end in a partial
// workgroup, including one below a single group: the last workgroup's
// sum must land in bounds and be verified, so corrupting it fails Check.
func TestReduceChecksPartialGroup(t *testing.T) {
	s, err := ByName("reduce")
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{17, 100} {
		g := gpu.New(gpu.DefaultConfig())
		inst, err := s.Setup(g, n)
		if err != nil {
			t.Fatal(err)
		}
		ls := inst.Next(0)
		if _, err := g.RunFunctionalCtx(context.Background(), *ls, nil); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if err := inst.Check(); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		last := ls.Args[1] + uint32(4*((n-1)/64))
		g.WriteBufferU32(last, []uint32{g.ReadBufferU32(last, 1)[0] + 1})
		if err := inst.Check(); err == nil {
			t.Fatalf("n=%d: Check accepted a wrong sum for the partial workgroup", n)
		}
	}
}

// The expected coherent/divergent classification (paper Fig. 3) must hold
// at default problem sizes.
func TestClassification(t *testing.T) {
	for _, s := range All() {
		s := s
		t.Run(s.Name, func(t *testing.T) {
			g := gpu.New(gpu.DefaultConfig())
			run, err := ExecuteCtx(context.Background(), g, s, ExecOptions{Size: scaleFor(s)})
			if err != nil {
				t.Fatalf("%v", err)
			}
			if got := run.Divergent(); got != s.Divergent {
				t.Fatalf("divergent = %v (efficiency %.3f), expected %v",
					got, run.SIMDEfficiency(), s.Divergent)
			}
		})
	}
}

// Divergent workloads must show an SCC EU-cycle reduction; coherent ones
// must be (nearly) untouched — the paper's core claim.
func TestCompactionBenefitByClass(t *testing.T) {
	for _, s := range All() {
		s := s
		t.Run(s.Name, func(t *testing.T) {
			g := gpu.New(gpu.DefaultConfig())
			run, err := ExecuteCtx(context.Background(), g, s, ExecOptions{Size: scaleFor(s)})
			if err != nil {
				t.Fatalf("%v", err)
			}
			scc := run.EUCycleReduction(compaction.SCC)
			bcc := run.EUCycleReduction(compaction.BCC)
			if scc < bcc {
				t.Fatalf("SCC reduction (%v) below BCC (%v)", scc, bcc)
			}
			if s.Divergent && scc <= 0.01 {
				t.Fatalf("divergent workload shows no SCC benefit (%.3f)", scc)
			}
			if !s.Divergent && scc > 0.10 {
				t.Fatalf("coherent workload shows implausible SCC benefit (%.3f)", scc)
			}
		})
	}
}

// A timed smoke test across the divergent sim set: stronger policies must
// not increase EU busy cycles.
func TestTimedDivergentSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("timed sweep is slow")
	}
	for _, name := range []string{"bfs", "hotspot", "rt-pr-conf"} {
		s, err := ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		var busy [compaction.NumPolicies]int64
		for _, p := range compaction.Policies {
			g := gpu.New(gpu.DefaultConfig().WithPolicy(p))
			run, err := ExecuteCtx(context.Background(), g, s, ExecOptions{Size: scaleFor(s), Timed: true})
			if err != nil {
				t.Fatalf("%s/%s: %v", name, p, err)
			}
			busy[p] = run.EUBusy
		}
		if !(busy[compaction.SCC] <= busy[compaction.BCC] &&
			busy[compaction.BCC] <= busy[compaction.IvyBridge] &&
			busy[compaction.IvyBridge] <= busy[compaction.Baseline]) {
			t.Fatalf("%s: EU busy ordering violated: %v", name, busy)
		}
		if busy[compaction.SCC] >= busy[compaction.IvyBridge] {
			t.Fatalf("%s: no timed SCC benefit: %v", name, busy)
		}
	}
}

func TestRegistryLookups(t *testing.T) {
	if _, err := ByName("bfs"); err != nil {
		t.Fatal(err)
	}
	if _, err := ByName("nonexistent"); err == nil {
		t.Fatal("unknown workload accepted")
	}
	if len(ByClass("rodinia")) < 4 {
		t.Fatal("rodinia class incomplete")
	}
	div := DivergentSimSet()
	if len(div) < 10 {
		t.Fatalf("divergent sim set too small: %d", len(div))
	}
	for i := 1; i < len(div); i++ {
		if div[i-1].Name >= div[i].Name {
			t.Fatal("divergent set not sorted")
		}
	}
}
