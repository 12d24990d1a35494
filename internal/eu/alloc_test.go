package eu

import (
	"testing"

	"intrawarp/internal/compaction"
	"intrawarp/internal/isa"
	"intrawarp/internal/mask"
	"intrawarp/internal/stats"
)

// divergentLoopProgram is an ALU-only kernel with a data-dependent loop:
// every thread spins through adds, compares, and selects under a divergent
// execution mask, exercising the compaction cost model, the scoreboard,
// and the writeback machinery on every simulated cycle.
func divergentLoopProgram(iters uint32) isa.Program {
	return isa.Program{
		{Op: isa.OpMov, Width: isa.SIMD16, DType: isa.U32, Dst: isa.GRF(20), Src0: isa.ImmU32(0)},
		{Op: isa.OpLoop, Width: isa.SIMD16},
		{Op: isa.OpAdd, Width: isa.SIMD16, DType: isa.U32, Dst: isa.GRF(20), Src0: isa.GRF(20), Src1: isa.ImmU32(1)},
		{Op: isa.OpMul, Width: isa.SIMD16, DType: isa.U32, Dst: isa.GRF(22), Src0: isa.GRF(20), Src1: isa.ImmU32(3)},
		{Op: isa.OpCmp, Width: isa.SIMD16, DType: isa.U32, Cond: isa.CmpLT, Flag: isa.F0,
			Src0: isa.GRF(20), Src1: isa.ImmU32(iters)},
		{Op: isa.OpSel, Width: isa.SIMD16, DType: isa.U32, Flag: isa.F0,
			Dst: isa.GRF(24), Src0: isa.GRF(22), Src1: isa.GRF(20)},
		{Op: isa.OpWhile, Width: isa.SIMD16, Pred: isa.PredNorm, Flag: isa.F0, JumpTarget: 2},
		{Op: isa.OpHalt, Width: isa.SIMD16},
	}
}

// timedAllocMasks gives every hardware thread a different divergence
// pattern so the fetch counters and the swizzle accounting all stay
// exercised.
var timedAllocMasks = []mask.Mask{0xAAAA, 0x5555, 0xF0F0, 0x137F, 0x8001, 0xFFFF}

// TestTimedExecutionZeroAlloc is the tentpole regression test: once all
// scratch buffers are warm, a full timed simulation of a divergent
// instruction stream must perform zero heap allocations — with the
// observability layer compiled in but disabled.
// Every probe site in the EU is nil-guarded; this test proves the
// disabled fast path builds no event values and boxes no interfaces.
func TestTimedExecutionZeroAlloc(t *testing.T) {
	p := mustDecode(divergentLoopProgram(24))
	e, sys := newTestEU(compaction.SCC)
	if e.probe != nil {
		t.Fatal("test requires the probes-disabled configuration")
	}
	run := stats.NewRun("alloc", 16)

	simulate := func() {
		for ti, th := range e.Threads {
			th.Reset(p, 16, 0xFFFF)
			th.Active = timedAllocMasks[ti%len(timedAllocMasks)]
			th.Stats = run
		}
		e.MarkDirty()
		var cycle int64
		for {
			sys.Tick(cycle)
			e.Tick(cycle)
			if e.Quiet() && !sys.InFlight() {
				return
			}
			if cycle++; cycle > 1_000_000 {
				t.Fatal("EU did not quiesce")
			}
		}
	}

	simulate() // warm up: grows scratch
	if allocs := testing.AllocsPerRun(10, simulate); allocs != 0 {
		t.Fatalf("steady-state timed execution allocates %.1f times per run, want 0", allocs)
	}
}

// BenchmarkEUExecute measures the timed EU loop on the divergent ALU
// kernel: six threads, distinct masks, SCC compaction. The cycle counter
// runs on across iterations, as the EU's pipe and writeback deadlines
// are absolute: restarting it at zero would leave each iteration waiting
// out the previous ones' deadlines, and ns/op would grow with b.N.
func BenchmarkEUExecute(b *testing.B) {
	p := mustDecode(divergentLoopProgram(24))
	e, sys := newTestEU(compaction.SCC)
	run := stats.NewRun("bench", 16)
	var cycle int64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for ti, th := range e.Threads {
			th.Reset(p, 16, 0xFFFF)
			th.Active = timedAllocMasks[ti%len(timedAllocMasks)]
			th.Stats = run
		}
		e.MarkDirty()
		for {
			sys.Tick(cycle)
			e.Tick(cycle)
			if e.Quiet() && !sys.InFlight() {
				break
			}
			cycle++
		}
	}
}

// BenchmarkThreadStep measures the functional interpreter alone on the
// divergent kernel (no timing model).
func BenchmarkThreadStep(b *testing.B) {
	p := mustDecode(divergentLoopProgram(24))
	e, sys := newTestEU(compaction.SCC)
	th := e.Threads[0]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		th.Reset(p, 16, 0xFFFF)
		th.Active = 0xAAAA
		for th.State == ThreadReady {
			th.Step(sys.Mem)
		}
	}
}
