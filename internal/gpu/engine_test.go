package gpu

import (
	"context"
	"encoding/json"
	"errors"
	"strings"
	"testing"

	"intrawarp/internal/isa"
	"intrawarp/internal/kbuild"
	"intrawarp/internal/obs"
	"intrawarp/internal/stats"
)

// stridedKernel builds a memory-bound gather: one distinct cache line
// per lane, so every load misses to DRAM and threads spend most of the
// run parked on SEND completions — the workload shape the event core
// exists for, and the one whose clock jumps can overshoot budgets and
// cancellation watermarks.
func stridedKernel(t *testing.T) *isa.Kernel {
	t.Helper()
	b := kbuild.New("strided", isa.SIMD16)
	stride := b.Vec()
	b.MulU(stride, b.GlobalID(), b.U(64))
	addr := b.Vec()
	b.AddU(addr, stride, b.Arg(0))
	v := b.Vec()
	b.LoadGather(v, addr)
	out := b.Addr(b.Arg(1), b.GlobalID(), 4)
	b.StoreScatter(out, v)
	return b.MustBuild()
}

// stridedSpec allocates buffers on g and returns the launch.
func stridedSpec(t *testing.T, g *GPU, k *isa.Kernel, n int) LaunchSpec {
	t.Helper()
	in := g.Mem.Mem.Alloc(n * 64)
	out := g.AllocU32(n, make([]uint32, n))
	return LaunchSpec{Kernel: k, GlobalSize: n, GroupSize: 64, Args: []uint32{in, out}}
}

// TestEngineParityDirect is the in-package smoke version of the oracle
// parity suite: tick and event cores must report byte-identical
// statistics on a compute-divergent and a memory-bound launch.
func TestEngineParityDirect(t *testing.T) {
	kernels := map[string]func(g *GPU) LaunchSpec{
		"divergent": func(g *GPU) LaunchSpec {
			spec, _, _, _ := launchVecAdd(t, g, divergentKernel(t), 256)
			return spec
		},
		"strided": func(g *GPU) LaunchSpec {
			return stridedSpec(t, g, stridedKernel(t), 512)
		},
	}
	for name, mk := range kernels {
		var want []byte
		for _, eng := range []Engine{EngineTick, EngineEvent} {
			cfg := DefaultConfig()
			cfg.Engine = eng
			g := New(cfg)
			run, err := g.RunCtx(context.Background(), mk(g))
			if err != nil {
				t.Fatalf("%s/%s: %v", name, eng, err)
			}
			got, err := json.Marshal(run)
			if err != nil {
				t.Fatal(err)
			}
			if want == nil {
				want = got
			} else if string(got) != string(want) {
				t.Errorf("%s: engines diverge\n tick:  %s\n event: %s", name, want, got)
			}
		}
	}
}

// TestMaxCyclesOvershoot pins the budget semantics under clock jumps:
// with the budget set to the exact finishing cycle the run succeeds on
// both cores, and any smaller budget — including ones that land in the
// middle of a memory-parked span the event core jumps over — aborts
// both cores with the same error.
func TestMaxCyclesOvershoot(t *testing.T) {
	k := stridedKernel(t)
	const n = 512

	runWith := func(eng Engine, budget int64) (*stats.Run, error) {
		cfg := DefaultConfig()
		cfg.Engine = eng
		cfg.MaxCycles = budget
		g := New(cfg)
		return g.RunCtx(context.Background(), stridedSpec(t, g, k, n))
	}

	// Learn the exact finishing cycle (and require both cores to agree).
	ref, err := runWith(EngineEvent, 0)
	if err != nil {
		t.Fatal(err)
	}
	tickRef, err := runWith(EngineTick, 0)
	if err != nil {
		t.Fatal(err)
	}
	if ref.TotalCycles != tickRef.TotalCycles {
		t.Fatalf("cores disagree on duration: event %d, tick %d", ref.TotalCycles, tickRef.TotalCycles)
	}
	total := ref.TotalCycles
	if total < 1000 {
		t.Fatalf("workload too short (%d cycles) to exercise budget jumps", total)
	}

	for _, eng := range []Engine{EngineTick, EngineEvent} {
		// The exact budget succeeds and reports the same clamped total.
		run, err := runWith(eng, total)
		if err != nil {
			t.Fatalf("%s: budget == duration must succeed: %v", eng, err)
		}
		if run.TotalCycles != total {
			t.Fatalf("%s: reported %d cycles under budget %d", eng, run.TotalCycles, total)
		}
		// Budgets below the duration abort — in particular ones sitting
		// mid-jump for the event core (a DRAM-parked span is ~200 cycles,
		// so total/2 is overwhelmingly likely to split one; total-1 pins
		// the boundary).
		for _, budget := range []int64{total - 1, total / 2} {
			run, err := runWith(eng, budget)
			if err == nil {
				t.Fatalf("%s: budget %d of %d-cycle run did not abort", eng, budget, total)
			}
			if run != nil {
				t.Fatalf("%s: aborted run returned statistics", eng)
			}
			if !strings.Contains(err.Error(), "exceeded") {
				t.Fatalf("%s: unexpected abort error: %v", eng, err)
			}
		}
	}
}

// cancelProbe cancels its context at the first SEND completion and
// tracks the last arbitration-window cycle the engine accounted, so the
// test can bound how far simulation ran past the cancellation point.
type cancelProbe struct {
	obs.NullProbe
	cancel   context.CancelFunc
	cancelAt int64
	last     int64
}

func (p *cancelProbe) SendCompleted(e obs.SendEvent) {
	if p.cancelAt == 0 {
		p.cancelAt = e.Completed
		p.cancel()
	}
}

func (p *cancelProbe) Window(eu int, cycle int64, kind stats.StallKind) {
	if cycle > p.last {
		p.last = cycle
	}
}

// TestRunCtxCancelledTimedMemoryParked extends TestRunCtxCancelledTimed
// to a memory-parked workload under both cores: a cancellation raised
// mid-run (from a SEND-completion probe) must stop the simulation within
// the polling watermark plus one event batch, proving the jump-aware
// poll did not regress cancellation latency.
func TestRunCtxCancelledTimedMemoryParked(t *testing.T) {
	k := stridedKernel(t)
	const n = 4096 // thousands of DRAM lines: runs far past the poll interval

	for _, eng := range []Engine{EngineTick, EngineEvent} {
		ctx, cancel := context.WithCancel(context.Background())
		probe := &cancelProbe{cancel: cancel}
		cfg := DefaultConfig()
		cfg.Engine = eng
		cfg.EU.Probe = probe
		g := New(cfg)
		spec := stridedSpec(t, g, k, n)

		run, err := g.RunCtx(ctx, spec)
		cancel()
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("%s: err = %v, want context.Canceled", eng, err)
		}
		if run != nil {
			t.Fatalf("%s: cancelled run returned partial statistics", eng)
		}
		if probe.cancelAt == 0 {
			t.Fatalf("%s: workload completed before any SEND returned", eng)
		}
		// The poll watermark advances every ctxCheckInterval cycles and a
		// jump can land at most one memory round-trip past it.
		const slack = 2*ctxCheckInterval + 512
		if overshoot := probe.last - probe.cancelAt; overshoot > slack {
			t.Fatalf("%s: simulated %d cycles past cancellation (cancelled at %d, last window %d)",
				eng, overshoot, probe.cancelAt, probe.last)
		}
	}
}

// TestParseEngine pins the flag spellings.
func TestParseEngine(t *testing.T) {
	for in, want := range map[string]Engine{"": EngineEvent, "event": EngineEvent, "tick": EngineTick} {
		got, err := ParseEngine(in)
		if err != nil || got != want {
			t.Fatalf("ParseEngine(%q) = %v, %v", in, got, err)
		}
	}
	if _, err := ParseEngine("warp"); err == nil {
		t.Fatal("ParseEngine accepted an unknown engine")
	}
	if EngineEvent.String() != "event" || EngineTick.String() != "tick" {
		t.Fatal("Engine.String spelling changed")
	}
	var zero Config
	if zero.Engine != EngineEvent {
		t.Fatal("zero-value config must select the event core")
	}
}
