package main

import (
	"context"
	"fmt"
	"time"

	"intrawarp/internal/compaction"
	"intrawarp/internal/eu"
	"intrawarp/internal/experiments"
	"intrawarp/internal/isa"
	"intrawarp/internal/kgen"
	"intrawarp/internal/stats"
	"intrawarp/internal/trace"
)

// Every workload reports every per-layer metric, each measured on the
// workload's own kernels and calls. The launch-loop layers come from
// the execTraced calls of its traced operations (putExecLayers). The
// capture, replay and accounting layers come from probeLayers, which
// runs experiments.ExecuteGroup once over each of the workload's kernels
// and times the per-instruction calls over the masks each one captured.

// putExecLayers reports the launch-loop layers from the tallies of
// execTraced calls: gpu.New, Spec.Setup, the engine calls charged to the
// named tallies (pooled), stats.Merge and Instance.Check.
func (b *bench) putExecLayers(ts tallies, engines ...string) {
	var eng tally
	for _, name := range engines {
		t := ts.get(name)
		eng.calls += t.calls
		eng.d += t.d
		eng.allocs += t.allocs
		eng.instr += t.instr
	}
	b.put("gpu.ns_per_instr", "ns", eng.nsPer(eng.instr))
	b.put("gpu.allocs_per_run", "count", eng.allocsPerCall())
	b.put("gpu.new_ms", "ms", ts.get("gpu.new").perCall(time.Millisecond))
	b.put("workloads.setup_ms", "ms", ts.get("workloads.setup").perCall(time.Millisecond))
	b.put("workloads.check_ms", "ms", ts.get("workloads.check").perCall(time.Millisecond))
	b.put("stats.merge_us", "us", ts.get("stats.merge").perCall(time.Microsecond))
}

// probeLayers runs each kernel through experiments.ExecuteGroup once,
// checks every policy's statistics against the reference of its grid
// cell, and reports per call: experiments.ResolveSpec of the corpus
// kernels (kgen generation), ExecuteGroup with its heap allocation
// volume, and — over each group's captured masks —
// (*stats.Run).RecordInstr (what the engines call per executed
// instruction), compaction.CostAll (its seven-policy cost loop),
// mask.Mask.ActiveQuads, compaction.ScheduleFor (the SCC lookup the
// timed EU makes per divergent instruction), (*trace.Collector).Visit
// (what a capturing run calls per instruction) and trace.ReplayObserved
// under each policy. Capture is timed directly because the difference
// between a capturing and a plain serial run of the same kernel is
// smaller than the VM's run-to-run noise.
func (b *bench) probeLayers(ctx context.Context, rec *recorder, op *int64, kernels []experiments.GroupSpec) error {
	ts := tallies{}
	var resolved int
	for _, gs := range kernels {
		*op++
		if kgen.IsName(gs.Workload) {
			var err error
			timeCall(rec, -1, *op, ts, "experiments.ResolveSpec", "kgen.resolve", func() {
				_, err = experiments.ResolveSpec(gs.Workload, gs.Width)
			})
			if err != nil {
				return err
			}
			resolved++
		}
		var res *experiments.GroupResult
		var err error
		timeCall(rec, -1, *op, ts, "experiments.ExecuteGroup", "group", func() {
			res, err = experiments.ExecuteGroup(ctx, gs)
		})
		if err != nil {
			b.op(fmt.Errorf("group %s: %w", gs.Workload, err))
			continue
		}
		for _, p := range compaction.Policies {
			b.checkStats(cellKey(gs.Workload, gs.Width, gs.Size, p), res.Runs[p])
		}
		maskProbes(rec, *op, ts, res)
	}
	if resolved == 0 {
		return fmt.Errorf("no corpus kernel among the %d probed", len(kernels))
	}
	group := ts.get("group")
	if group.calls == 0 {
		return fmt.Errorf("every probed group failed")
	}
	b.put("kgen.resolve_ms", "ms", ts.get("kgen.resolve").perCall(time.Millisecond))
	b.put("experiments.group_ms", "ms", group.perCall(time.Millisecond))
	b.put("experiments.group_alloc_mb", "MB", float64(group.bytes)/1e6/float64(group.calls))
	for _, m := range []struct{ key, metric string }{
		{"stats.RecordInstr", "stats.record_instr_ns"},
		{"compaction.CostAll", "compaction.cost_all_ns"},
		{"mask.ActiveQuads", "mask.active_quads_ns"},
		{"compaction.ScheduleFor", "compaction.schedule_for_ns"},
		{"trace.Collector.Visit", "trace.capture_ns_per_instr"},
		{"trace.ReplayObserved", "trace.replay_ns_per_record"},
	} {
		t := ts.get(m.key)
		b.put(m.metric, "ns", t.nsPer(t.instr))
	}
	b.infof("layer probes over %d kernels, %d captured masks", group.calls, ts.get("stats.RecordInstr").instr)
	return nil
}

// maskProbes times the per-instruction calls over one group's captured
// masks, each loop inside a span, and charges each loop's host time and
// mask count to the tally of the call it times.
func maskProbes(rec *recorder, op int64, ts tallies, res *experiments.GroupResult) {
	recs := res.Records
	if len(recs) == 0 {
		return
	}
	probe := func(name string, n int, fn func()) {
		s := rec.begin(name, -1, op)
		start := time.Now()
		fn()
		t := ts.get(name)
		t.calls++
		t.d += time.Since(start)
		t.instr += int64(n)
		rec.end(s)
	}
	run := stats.NewRun("probe", 0)
	probe("stats.RecordInstr", len(recs), func() {
		for _, r := range recs {
			run.RecordInstr(int(r.Width), int(r.Group), r.Mask)
		}
	})
	probe("compaction.CostAll", len(recs), func() {
		for _, r := range recs {
			c := compaction.CostAll(r.Mask, int(r.Width), int(r.Group))
			sink += c[0]
		}
	})
	probe("mask.ActiveQuads", len(recs), func() {
		for _, r := range recs {
			sink += r.Mask.ActiveQuads(int(r.Width), int(r.Group))
		}
	})
	probe("compaction.ScheduleFor", len(recs), func() {
		for _, r := range recs {
			sink += compaction.ScheduleFor(r.Mask, int(r.Width), int(r.Group)).Swizzles()
		}
	})
	col := &trace.Collector{}
	probe("trace.Collector.Visit", len(recs), func() {
		for _, r := range recs {
			col.Visit(0, 0, eu.ExecResult{Mask: r.Mask, Width: int(r.Width), Group: int(r.Group), Pipe: isa.Pipe(r.Pipe)})
		}
	})
	probe("trace.ReplayObserved", len(recs)*len(compaction.Policies), func() {
		for _, p := range compaction.Policies {
			sink += int(trace.ReplayObserved(res.Base.Name, p.String(), res.Base.Width, recs, nil).Instructions)
		}
	})
}
