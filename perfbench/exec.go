package main

import (
	"context"
	"fmt"
	"time"

	"intrawarp/internal/gpu"
	"intrawarp/internal/stats"
	"intrawarp/internal/workloads"
)

// tally accumulates the calls into one layer made by traced code: call
// count, host time, heap allocations, and the simulated work (cycles
// and instructions) the calls performed.
type tally struct {
	calls  int64
	d      time.Duration
	allocs uint64
	bytes  uint64
	cycles int64
	instr  int64
}

func (t *tally) add(d time.Duration, rd runtimeDelta) {
	t.calls++
	t.d += d
	t.allocs += rd.allocObjects
	t.bytes += rd.allocBytes
}

// perCall is the mean host time per call in the given unit.
func (t *tally) perCall(unit time.Duration) float64 {
	if t.calls == 0 {
		return 0
	}
	return float64(t.d) / float64(unit) / float64(t.calls)
}

// nsPer is host nanoseconds per unit of simulated work n.
func (t *tally) nsPer(n int64) float64 {
	if n == 0 {
		return 0
	}
	return float64(t.d.Nanoseconds()) / float64(n)
}

// allocsPerCall is the mean number of heap allocations per call.
func (t *tally) allocsPerCall() float64 {
	if t.calls == 0 {
		return 0
	}
	return float64(t.allocs) / float64(t.calls)
}

// tallies is a set of layer tallies keyed by name.
type tallies map[string]*tally

func (ts tallies) get(name string) *tally {
	t := ts[name]
	if t == nil {
		t = &tally{}
		ts[name] = t
	}
	return t
}

// timeCall runs fn inside a span and charges its host time and
// allocations to the named tally.
func timeCall(rec *recorder, parent int, op int64, ts tallies, span, key string, fn func()) {
	s := rec.begin(span, parent, op)
	before := readRuntime()
	start := time.Now()
	fn()
	d := time.Since(start)
	ts.get(key).add(d, before.to(readRuntime(), d))
	rec.end(s)
}

// execTraced is workloads.ExecuteCtx with every layer call it makes
// timed and recorded as a child span of parent: Spec.Setup, each
// launch's engine call (gpu.RunCtx or gpu.RunFunctionalCtx, charged to
// the tally named engine), the per-launch stats.Merge and
// Instance.Check. It makes the same calls in the same order, so its
// statistics are byte-identical to ExecuteCtx's — which the callers
// check against the untraced passes.
func execTraced(ctx context.Context, rec *recorder, parent int, op int64, ts tallies, engine string,
	g *gpu.GPU, spec *workloads.Spec, opts workloads.ExecOptions) (*stats.Run, error) {
	n := opts.Size
	if n <= 0 {
		n = spec.DefaultN
	}
	var inst *workloads.Instance
	var err error
	timeCall(rec, parent, op, ts, "workloads.Setup", "workloads.setup", func() { inst, err = spec.Setup(g, n) })
	if err != nil {
		return nil, fmt.Errorf("workloads: %s setup: %w", spec.Name, err)
	}
	var agg *stats.Run
	for iter := 0; ; iter++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		ls := inst.Next(iter)
		if ls == nil {
			break
		}
		var r *stats.Run
		if opts.Timed {
			timeCall(rec, parent, op, ts, "gpu.RunCtx", engine, func() { r, err = g.RunCtx(ctx, *ls) })
		} else {
			timeCall(rec, parent, op, ts, "gpu.RunFunctionalCtx", engine, func() { r, err = g.RunFunctionalCtx(ctx, *ls, opts.Visit) })
		}
		if err != nil {
			return nil, fmt.Errorf("workloads: %s launch %d: %w", spec.Name, iter, err)
		}
		t := ts.get(engine)
		t.cycles += r.TotalCycles
		t.instr += r.Instructions
		if agg == nil {
			agg = stats.NewRun(spec.Name, r.Width)
			agg.TimedPolicy = r.TimedPolicy
		}
		timeCall(rec, parent, op, ts, "stats.Merge", "stats.merge", func() { agg.Merge(r) })
		if iter > 100000 {
			return nil, fmt.Errorf("workloads: %s: runaway launch loop", spec.Name)
		}
	}
	if agg == nil {
		return nil, fmt.Errorf("workloads: %s produced no launches", spec.Name)
	}
	agg.Mem = g.Mem.Stats
	agg.L3HitRate = g.Mem.L3.HitRate()
	if inst.Check != nil && !opts.SkipVerify {
		timeCall(rec, parent, op, ts, "workloads.Check", "workloads.check", func() { err = inst.Check() })
		if err != nil {
			return nil, fmt.Errorf("workloads: %s verification: %w", spec.Name, err)
		}
	}
	return agg, nil
}

// newGPU is gpu.New inside a span, charged to the gpu.new tally.
func newGPU(rec *recorder, parent int, op int64, ts tallies, cfg gpu.Config) *gpu.GPU {
	var g *gpu.GPU
	timeCall(rec, parent, op, ts, "gpu.New", "gpu.new", func() { g = gpu.New(cfg) })
	return g
}
