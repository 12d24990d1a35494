package intrawarp

import (
	"context"
	"fmt"
	"io"
	"testing"

	"intrawarp/internal/experiments"
	"intrawarp/internal/gpu"
	"intrawarp/internal/trace"
	"intrawarp/internal/workloads"
)

// One benchmark per paper table/figure: each regenerates the experiment's
// data at reduced (quick) problem sizes, so `go test -bench=.` both times
// the harness and re-derives every reported number. Full-size runs are
// available via `go run ./cmd/simd-bench -all`.

func benchExperiment(b *testing.B, id string) {
	b.Helper()
	b.ReportAllocs()
	ctx := &experiments.Context{Out: io.Discard, Quick: true}
	for i := 0; i < b.N; i++ {
		if err := experiments.Run(id, ctx); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig3 regenerates the SIMD-efficiency classification chart.
func BenchmarkFig3(b *testing.B) { benchExperiment(b, "fig3") }

// BenchmarkFig8 regenerates the Ivy Bridge micro-benchmark inference.
func BenchmarkFig8(b *testing.B) { benchExperiment(b, "fig8") }

// BenchmarkTable2 regenerates the nested-branch benefit split.
func BenchmarkTable2(b *testing.B) { benchExperiment(b, "table2") }

// BenchmarkTable3 prints the machine configuration.
func BenchmarkTable3(b *testing.B) { benchExperiment(b, "table3") }

// BenchmarkFig9 regenerates the utilization breakdown.
func BenchmarkFig9(b *testing.B) { benchExperiment(b, "fig9") }

// BenchmarkFig10 regenerates the EU-cycle reduction chart.
func BenchmarkFig10(b *testing.B) { benchExperiment(b, "fig10") }

// BenchmarkFig11 regenerates the ray-tracing timing study.
func BenchmarkFig11(b *testing.B) { benchExperiment(b, "fig11") }

// BenchmarkFig12 regenerates the Rodinia timing study.
func BenchmarkFig12(b *testing.B) { benchExperiment(b, "fig12") }

// BenchmarkTable4 regenerates the benefit summary.
func BenchmarkTable4(b *testing.B) { benchExperiment(b, "table4") }

// BenchmarkRFArea evaluates the register-file area model (§4.3).
func BenchmarkRFArea(b *testing.B) { benchExperiment(b, "rfarea") }

// BenchmarkAblationDtype measures the datatype-width ablation.
func BenchmarkAblationDtype(b *testing.B) { benchExperiment(b, "ablation-dtype") }

// BenchmarkAblationSwizzle measures the SCC scheduler comparison.
func BenchmarkAblationSwizzle(b *testing.B) { benchExperiment(b, "ablation-swizzle") }

// BenchmarkAblationIssue measures the issue-bandwidth ablation.
func BenchmarkAblationIssue(b *testing.B) { benchExperiment(b, "ablation-issue") }

// BenchmarkInterwarp runs the intra- vs inter-warp compaction comparison.
func BenchmarkInterwarp(b *testing.B) { benchExperiment(b, "interwarp") }

// BenchmarkEnergy runs the dynamic-energy proxy comparison.
func BenchmarkEnergy(b *testing.B) { benchExperiment(b, "energy") }

// BenchmarkAblationWidth runs the SIMD-width sweep.
func BenchmarkAblationWidth(b *testing.B) { benchExperiment(b, "ablation-width") }

// BenchmarkAblationFrontend runs the jump-penalty sweep.
func BenchmarkAblationFrontend(b *testing.B) { benchExperiment(b, "ablation-frontend") }

// BenchmarkStalls runs the arbitration-window attribution.
func BenchmarkStalls(b *testing.B) { benchExperiment(b, "stalls") }

// --- Core micro-benchmarks ------------------------------------------------

// BenchmarkSCCSchedule measures the Fig. 6 control algorithm itself.
func BenchmarkSCCSchedule(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		ComputeSchedule(Mask(uint32(i)&0xFFFF)|1, 16, 4)
	}
}

// BenchmarkPolicyCycles measures the per-instruction cycle-cost model.
func BenchmarkPolicyCycles(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = SCC.Cycles(Mask(uint32(i)&0xFFFF), 16, 4)
	}
}

// BenchmarkSimulatorThroughput measures timed-simulation speed on a
// divergent kernel (reported as ns/op for one full particlefilter run).
func BenchmarkSimulatorThroughput(b *testing.B) {
	w, err := workloads.ByName("particlefilter")
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		g := gpu.New(gpu.DefaultConfig().WithPolicy(SCC))
		if _, err := workloads.ExecuteCtx(context.Background(), g, w, workloads.ExecOptions{Size: 128, Timed: true}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTimedSIMD16Divergent measures the timed simulation of a
// divergent SIMD16 workload with simulator construction excluded from the
// timer, so ns/op and allocs/op reflect the simulation itself (workload
// setup plus the cycle loop) rather than GPU construction. Runs the
// default event core; BenchmarkTimedSIMD16DivergentTick is its twin.
func BenchmarkTimedSIMD16Divergent(b *testing.B) {
	benchTimed(b, "particlefilter", 128, gpu.EngineEvent)
}

// benchTimed runs one timed launch per iteration on the given engine
// with simulator construction excluded from the timer.
func benchTimed(b *testing.B, workload string, size int, eng gpu.Engine) {
	b.Helper()
	w, err := workloads.ByName(workload)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		cfg := gpu.DefaultConfig().WithPolicy(SCC)
		cfg.Engine = eng
		g := gpu.New(cfg)
		b.StartTimer()
		if _, err := workloads.ExecuteCtx(context.Background(), g, w, workloads.ExecOptions{Size: size, Timed: true}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTimedSIMD16DivergentTick is the tick-core twin of
// BenchmarkTimedSIMD16Divergent: on this compute-bound divergent
// workload nearly every cycle has an imminent wakeup, so the event
// core's jump machinery is pure overhead and the pair bounds its cost
// (cmd/benchjson reports the tick/event ratio).
func BenchmarkTimedSIMD16DivergentTick(b *testing.B) {
	benchTimed(b, "particlefilter", 128, gpu.EngineTick)
}

// BenchmarkTimedMemoryBound measures the event core on a BFS frontier
// expansion whose gather/scatter traffic parks threads on DRAM for
// hundreds of cycles at a time — the workload shape the event calendar
// exists for. Compare against BenchmarkTimedMemoryBoundTick for the
// skip-to-next-wakeup speedup (≥3x).
func BenchmarkTimedMemoryBound(b *testing.B) {
	benchTimed(b, "bfs", 2048, gpu.EngineEvent)
}

// BenchmarkTimedMemoryBoundTick is the tick-core twin of
// BenchmarkTimedMemoryBound.
func BenchmarkTimedMemoryBoundTick(b *testing.B) {
	benchTimed(b, "bfs", 2048, gpu.EngineTick)
}

// BenchmarkFunctionalThroughput measures functional-model speed.
func BenchmarkFunctionalThroughput(b *testing.B) {
	w, err := workloads.ByName("bsearch")
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		g := gpu.New(gpu.DefaultConfig())
		if _, err := workloads.ExecuteCtx(context.Background(), g, w, workloads.ExecOptions{Size: 256}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkParallelSweep measures wall-clock scaling of the parallel
// experiment engine on a multi-workload policy sweep (the Fig. 11/12-style
// workload × policy × bandwidth cell grid). Sub-benchmarks fix the worker
// count; near-linear scaling shows as workers=4 running at a fraction of
// workers=1 ns/op. Run with:
//
//	go test -bench BenchmarkParallelSweep -benchtime 2x
func BenchmarkParallelSweep(b *testing.B) {
	sweep := func(workers int) error {
		ctx := &experiments.Context{Out: io.Discard, Quick: true, Workers: workers}
		for _, id := range []string{"fig11", "fig12"} {
			if err := experiments.Run(id, ctx); err != nil {
				return err
			}
		}
		return nil
	}
	for _, workers := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := sweep(workers); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkParallelFunctional measures workgroup-sharding scaling of the
// parallel functional engine on one large launch.
func BenchmarkParallelFunctional(b *testing.B) {
	w, err := workloads.ByName("bsearch")
	if err != nil {
		b.Fatal(err)
	}
	for _, workers := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				g := gpu.New(gpu.DefaultConfig().WithWorkers(workers))
				if _, err := workloads.ExecuteCtx(context.Background(), g, w, workloads.ExecOptions{Size: 8192}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkTraceAnalyze measures trace replay speed.
func BenchmarkTraceAnalyze(b *testing.B) {
	p := trace.SynthByName("bulletphysics")
	recs := p.Generate()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		trace.Analyze(p.Name, &trace.SliceSource{Records: recs})
	}
}
