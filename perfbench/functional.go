package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"time"

	"intrawarp/internal/compaction"
	"intrawarp/internal/experiments"
	"intrawarp/internal/gpu"
	"intrawarp/internal/kgen"
	"intrawarp/internal/stats"
	"intrawarp/internal/trace"
	"intrawarp/internal/workloads"
)

// The functional workload: (a) two trace-once policy grids through
// experiments.Sweep on one worker, and (b) plain functional runs of
// every registered workload on the default worker pool. Each round runs
// both parts; each part's rate is the median of its per-round rates.
const (
	// mixedWindow is the seeded kgen:mixed window added to grid 1.
	mixedWindow = 8
)

// widthWorkloads are the width-parameterizable workloads of grid 2.
var (
	widthWorkloads = []string{"bsearch", "particlefilter", "kmeans", "urng"}
	gridWidths     = []int{8, 16, 32}
)

// grid is one policy sweep and its trace-capture groups in grid order.
type grid struct {
	name   string
	sweep  *experiments.Sweep
	groups []experiments.GroupSpec
}

func newGrid(name string, opts ...experiments.SweepOption) (*grid, error) {
	opts = append(opts, experiments.SweepPolicies(compaction.Policies[:]...), experiments.SweepWorkers(1))
	sw, err := experiments.NewSweep(opts...)
	if err != nil {
		return nil, err
	}
	g := &grid{name: name, sweep: sw}
	seen := map[experiments.GroupSpec]bool{}
	for _, c := range sw.Cells() {
		gs := experiments.GroupSpec{Workload: c.Workload, Width: c.Width, Size: c.Size}
		if !seen[gs] {
			seen[gs] = true
			g.groups = append(g.groups, gs)
		}
	}
	return g, nil
}

type functionalInstance struct {
	grids []*grid
	plain []*workloads.Spec
}

func setupFunctional(ctx context.Context, b *bench) (instance, error) {
	names := []string{}
	for _, s := range workloads.DivergentSimSet() {
		names = append(names, s.Name)
	}
	f := &functionalInstance{plain: workloads.All()}
	for i := 0; i < mixedWindow; i++ {
		name := kgen.Name("mixed", b.opt.seed, i)
		if _, err := experiments.ResolveSpec(name, 0); err != nil {
			return nil, err
		}
		names = append(names, name)
	}
	divergent, err := newGrid("divergent", experiments.SweepWorkloads(names...))
	if err != nil {
		return nil, err
	}
	widths, err := newGrid("widths", experiments.SweepWorkloads(widthWorkloads...), experiments.SweepWidths(gridWidths...))
	if err != nil {
		return nil, err
	}
	f.grids = []*grid{divergent, widths}
	// Warm-up pass: fills the replay LUTs and the SCC schedule cache and
	// pins every cell's reference statistics.
	f.gridPass(ctx, b)
	return f, nil
}

func (f *functionalInstance) close() {}

// cellKey names one grid cell's reference statistics.
func cellKey(workload string, width, size int, p compaction.Policy) string {
	return label("grid", workload, width, size, p)
}

// checkStats accounts one simulated result against the first pass's.
func (b *bench) checkStats(key string, r *stats.Run) error {
	fp, err := fingerprintRun(r)
	if err == nil {
		err = b.checkRun(key, fp)
	}
	b.op(err)
	return err
}

// gridTotals is one pass over the grids: the cells delivered, the
// simulated instructions whose cost they deliver (a kernel's
// instructions once per policy), and the host CPU time spent inside
// Sweep.Run (the grids run on one worker, so CPU time is their serial
// cost; see cpuTime).
type gridTotals struct {
	cells int
	instr int64
	cpu   time.Duration
}

// gridPass runs every grid through Sweep.Run.
func (f *functionalInstance) gridPass(ctx context.Context, b *bench) gridTotals {
	var tot gridTotals
	for _, g := range f.grids {
		start := cpuTime()
		out, err := g.sweep.Run(ctx)
		tot.cpu += cpuTime() - start
		if err != nil {
			for range g.sweep.Cells() {
				b.op(fmt.Errorf("grid %s: %w", g.name, err))
			}
			continue
		}
		for _, r := range out.Results {
			if b.checkStats(cellKey(r.Cell.Workload, r.Cell.Width, r.Cell.Size, r.Cell.Policy), r.Run) == nil {
				tot.cells++
				tot.instr += r.Run.Instructions
			}
		}
	}
	return tot
}

// plainResult is one part (b) pass.
type plainResult struct {
	instr int64
	// wall is the runs' wall time scaled by one minus the pass's steal
	// share (see stealShare); cpu is their CPU time, all threads.
	wall, cpu time.Duration
	runs      []*stats.Run // nil entries for failed runs
}

// plainPass runs every registered workload at its default size on the
// default worker pool. It is timed in wall time, so a worker left idle
// (serialised shards, an unbalanced split, a lock) shows as a slower
// pass; CPU time would not show it.
func (f *functionalInstance) plainPass(ctx context.Context, b *bench) plainResult {
	res := plainResult{runs: make([]*stats.Run, len(f.plain))}
	ticks := readCPUTicks()
	for i, spec := range f.plain {
		start, cpu := time.Now(), cpuTime()
		r, err := workloads.ExecuteCtx(ctx, gpu.New(gpu.DefaultConfig()), spec, workloads.ExecOptions{})
		res.wall += time.Since(start)
		res.cpu += cpuTime() - cpu
		if err != nil {
			b.op(err)
			continue
		}
		if b.checkStats(label("plain", spec.Name), r) == nil {
			res.instr += r.Instructions
			res.runs[i] = r
		}
	}
	res.wall = time.Duration(float64(res.wall) * (1 - stealShare(ticks, readCPUTicks())))
	return res
}

// measure runs rounds of both parts. throughput_per_s is the geometric
// mean of the parts' median rates in simulated instructions per second,
// so each part weighs the same: part (a) counts the instructions whose
// cost its cells deliver, per CPU second, part (b) the instructions it
// executes, per second of wall time less steal.
func (f *functionalInstance) measure(ctx context.Context, b *bench) error {
	var gridRates, cellRates, instrRates, cpuRates []float64
	ticks := readCPUTicks()
	start := time.Now()
	for len(gridRates) < 2 || time.Since(start) < b.opt.seconds {
		g := f.gridPass(ctx, b)
		gridRates = append(gridRates, float64(g.instr)/g.cpu.Seconds())
		cellRates = append(cellRates, float64(g.cells)/g.cpu.Seconds())
		p := f.plainPass(ctx, b)
		instrRates = append(instrRates, float64(p.instr)/p.wall.Seconds())
		cpuRates = append(cpuRates, float64(p.instr)/p.cpu.Seconds())
	}
	b.infof("functional rounds %d, steal share %.3f", len(gridRates), stealShare(ticks, readCPUTicks()))
	b.infof("part (a) median %.4g cells/s, %.4g instr/s; instr/s per round %.4g", median(cellRates), median(gridRates), gridRates)
	b.infof("part (b) instr/s per round, wall time less steal %.4g", instrRates)
	b.infof("part (b) instr/s per round, CPU time (informational) %.4g", cpuRates)
	b.put("throughput_per_s", "1/s", math.Sqrt(median(gridRates)*median(instrRates)))
	return nil
}

// groupTraced is experiments.ExecuteGroup with every layer call
// recorded: the capturing functional execution through execTraced, then
// one trace.ReplayObserved per policy, each checked against the
// capturing run exactly as ExecuteGroup checks it.
func (f *functionalInstance) groupTraced(ctx context.Context, b *bench, rec *recorder, ts tallies,
	gs experiments.GroupSpec, op int64) error {
	root := rec.begin("sweep.group", -1, op)
	defer rec.end(root)
	var spec *workloads.Spec
	var err error
	timeCall(rec, root, op, ts, "experiments.ResolveSpec", "experiments.resolve", func() {
		spec, err = experiments.ResolveSpec(gs.Workload, gs.Width)
	})
	if err != nil {
		return err
	}
	g := newGPU(rec, root, op, ts, gpu.DefaultConfig())
	col := &trace.Collector{}
	base, err := execTraced(ctx, rec, root, op, ts, "gpu.functional.w1", g, spec,
		workloads.ExecOptions{Size: gs.Size, Visit: col.Visit})
	if err != nil {
		return err
	}
	for _, p := range compaction.Policies {
		var rep *stats.Run
		timeCall(rec, root, op, ts, "trace.ReplayObserved", "trace.replay", func() {
			rep = trace.ReplayObserved(base.Name, p.String(), base.Width, col.Records, nil)
		})
		if !rep.MaskCountsEqual(base) {
			b.op(fmt.Errorf("%s/%s: replayed accounting diverges from the capturing execution", spec.Name, p))
			continue
		}
		rep.Name, rep.Width = base.Name, base.Width
		rep.Sends, rep.SendLines = base.Sends, base.SendLines
		rep.Barriers = base.Barriers
		rep.Mem, rep.L3HitRate = base.Mem, base.L3HitRate
		rep.TimedPolicy = p
		b.checkStats(cellKey(gs.Workload, gs.Width, gs.Size, p), rep)
	}
	return nil
}

// gridPassTraced is gridPass through groupTraced. It returns the host
// CPU time.
func (f *functionalInstance) gridPassTraced(ctx context.Context, b *bench, rec *recorder, ts tallies, op *int64) time.Duration {
	start := cpuTime()
	for _, g := range f.grids {
		for _, gs := range g.groups {
			*op++
			if err := f.groupTraced(ctx, b, rec, ts, gs, *op); err != nil {
				for range compaction.Policies {
					b.op(fmt.Errorf("group %s: %w", gs.Workload, err))
				}
			}
		}
	}
	return cpuTime() - start
}

// plainPassTraced is plainPass through execTraced.
func (f *functionalInstance) plainPassTraced(ctx context.Context, b *bench, rec *recorder, ts tallies, op *int64) time.Duration {
	var host time.Duration
	for _, spec := range f.plain {
		*op++
		start := cpuTime()
		root := rec.begin("functional.run", -1, *op)
		g := newGPU(rec, root, *op, ts, gpu.DefaultConfig())
		r, err := execTraced(ctx, rec, root, *op, ts, "gpu.functional.w2", g, spec, workloads.ExecOptions{})
		rec.end(root)
		host += cpuTime() - start
		if err != nil {
			b.op(err)
			continue
		}
		b.checkStats(label("plain", spec.Name), r)
	}
	return host
}

func (f *functionalInstance) traced(ctx context.Context, b *bench) error {
	rec := b.lane("functional")
	ts := tallies{}
	var plainRounds, tracedRounds []float64
	var op int64
	before := readRuntime()
	start := time.Now()
	// Untraced and traced rounds alternate, so the tracing overhead is
	// measured under the same conditions as the layers.
	for len(tracedRounds) < 2 || time.Since(start) < b.opt.seconds {
		g := f.gridPass(ctx, b)
		p := f.plainPass(ctx, b)
		plainRounds = append(plainRounds, (g.cpu + p.cpu).Seconds())

		gridHost := f.gridPassTraced(ctx, b, rec, ts, &op)
		plainHost := f.plainPassTraced(ctx, b, rec, ts, &op)
		tracedRounds = append(tracedRounds, (gridHost + plainHost).Seconds())
	}
	b.putRuntime(before.to(readRuntime(), time.Since(start)))
	b.put("bench.trace_overhead_pct", "%", 100*(median(tracedRounds)/median(plainRounds)-1))
	b.putExecLayers(ts, "gpu.functional.w1", "gpu.functional.w2")
	for _, w := range []string{"w1", "w2"} {
		t := ts.get("gpu.functional." + w)
		b.infof("RunFunctionalCtx %s: %.4g ns per instruction, %.4g allocations per run", w, t.nsPer(t.instr), t.allocsPerCall())
	}
	if err := f.efficiencyProbe(ctx, b); err != nil {
		return err
	}
	var kernels []experiments.GroupSpec
	for _, g := range f.grids {
		kernels = append(kernels, g.groups...)
	}
	return b.probeLayers(ctx, rec, &op, kernels)
}

// efficiencyProbe prints the SIMD efficiency of the divergent and the
// coherent workloads of part (b): the share of lanes with partial masks
// that accounting changes depend on.
func (f *functionalInstance) efficiencyProbe(ctx context.Context, b *bench) error {
	p := f.plainPass(ctx, b)
	var active, total [2]int64
	for i, r := range p.runs {
		if r == nil {
			continue
		}
		k := 0
		if f.plain[i].Divergent {
			k = 1
		}
		active[k] += r.ActiveLanes
		total[k] += r.TotalLanes
	}
	if total[0] == 0 || total[1] == 0 {
		return errors.New("efficiency probe: a workload class executed no lanes")
	}
	b.infof("SIMD efficiency: coherent %.4f, divergent %.4f; part (b) simulates %d instructions",
		float64(active[0])/float64(total[0]), float64(active[1])/float64(total[1]), p.instr)
	return nil
}
