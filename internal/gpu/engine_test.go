package gpu

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
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

// TestEngineDefault pins the event core as the zero-value selection and
// the names the parity subtests use.
func TestEngineDefault(t *testing.T) {
	if EngineEvent.String() != "event" || EngineTick.String() != "tick" {
		t.Fatal("Engine.String spelling changed")
	}
	var zero Config
	if zero.Engine != EngineEvent {
		t.Fatal("zero-value config must select the event core")
	}
}

// wgProbe records the workgroup dispatch and retire events in order.
type wgProbe struct {
	obs.NullProbe
	events []string
}

func (p *wgProbe) WorkgroupDispatched(e obs.WGEvent) {
	p.events = append(p.events, fmt.Sprintf("cycle %d: wg %d to EU %d", e.Cycle, e.WG, e.EU))
}

func (p *wgProbe) WorkgroupRetired(wg int, cycle int64) {
	p.events = append(p.events, fmt.Sprintf("cycle %d: wg %d retired", cycle, wg))
}

// TestWorkgroupSequenceParity runs a barrier kernel with more workgroups
// than thread slots, so dispatch waits on retires and on a retired
// group's store still in flight. The event core retries dispatch and
// scans for barrier releases and retires only after the events that can
// change what they find; its dispatch and retire sequence must still
// match the tick core's, which runs both every cycle, event for event and
// cycle for cycle.
func TestWorkgroupSequenceParity(t *testing.T) {
	const groups, gsize = 64, 32 // 2 threads each; 36 slots hold 18 groups
	k := wgSumKernel(t)
	var want []string
	for _, eng := range []Engine{EngineTick, EngineEvent} {
		probe := &wgProbe{}
		cfg := DefaultConfig()
		cfg.Engine = eng
		cfg.EU.Probe = probe
		g := New(cfg)
		out := g.AllocU32(groups, make([]uint32, groups))
		spec := LaunchSpec{Kernel: k, GlobalSize: groups * gsize, GroupSize: gsize, Args: []uint32{out}}
		if _, err := g.RunCtx(context.Background(), spec); err != nil {
			t.Fatalf("%s: %v", eng, err)
		}
		checkWGSums(t, g, out, groups, gsize)
		if len(probe.events) != 2*groups {
			t.Fatalf("%s: %d workgroup events, want %d", eng, len(probe.events), 2*groups)
		}
		if want == nil {
			want = probe.events
			continue
		}
		for i := range want {
			if probe.events[i] != want[i] {
				t.Fatalf("%s: workgroup event %d is %q, the tick core's %q", eng, i, probe.events[i], want[i])
			}
		}
	}
}

// TestAbortedLaunchLeavesGPUUsable aborts a timed launch mid-run, once on
// its cycle budget and once by cancelling its context, and requires the
// next launch on the same GPU to complete with the right output and to
// leave every thread slot idle and no request in flight: the aborted
// launch's workgroups, thread slots and in-flight requests must not carry
// over.
func TestAbortedLaunchLeavesGPUUsable(t *testing.T) {
	k := vecAddKernel(t, isa.SIMD16)
	next := func(t *testing.T, g *GPU) {
		t.Helper()
		const n = 64 // 500 cycles on a fresh GPU
		g.Cfg.MaxCycles = 100_000
		spec, _, _, c := launchVecAdd(t, g, k, n)
		if _, err := g.RunCtx(context.Background(), spec); err != nil {
			t.Fatalf("launch after the aborted one: %v", err)
		}
		out := g.ReadBufferF32(c, n)
		for i := range out {
			if out[i] != float32(3*i) {
				t.Fatalf("c[%d] = %v, want %v", i, out[i], float32(3*i))
			}
		}
		for _, e := range g.EUs {
			if idle := len(e.IdleSlotsInto(nil)); idle != g.Cfg.EU.ThreadsPerEU {
				t.Fatalf("EU %d: %d of %d thread slots idle after the launch", e.ID, idle, g.Cfg.EU.ThreadsPerEU)
			}
		}
		if g.Mem.InFlight() {
			t.Fatal("memory requests in flight after the launch")
		}
	}
	for _, eng := range []Engine{EngineTick, EngineEvent} {
		t.Run("budget/"+eng.String(), func(t *testing.T) {
			cfg := DefaultConfig()
			cfg.Engine = eng
			cfg.MaxCycles = 300
			g := New(cfg)
			spec, _, _, _ := launchVecAdd(t, g, k, 4096)
			if _, err := g.RunCtx(context.Background(), spec); err == nil || !strings.Contains(err.Error(), "exceeded") {
				t.Fatalf("err = %v, want the cycle budget exceeded", err)
			}
			next(t, g)
		})
		t.Run("cancel/"+eng.String(), func(t *testing.T) {
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			cfg := DefaultConfig()
			cfg.Engine = eng
			cfg.EU.Probe = &cancelProbe{cancel: cancel}
			g := New(cfg)
			spec, _, _, _ := launchVecAdd(t, g, k, 16384)
			if _, err := g.RunCtx(ctx, spec); !errors.Is(err, context.Canceled) {
				t.Fatalf("err = %v, want context.Canceled", err)
			}
			next(t, g)
		})
	}
}
