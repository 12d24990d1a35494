package main

import (
	"context"
	"fmt"
	"math"
	"strings"
	"time"

	"intrawarp/internal/compaction"
	"intrawarp/internal/experiments"
	"intrawarp/internal/gpu"
	"intrawarp/internal/kgen"
	"intrawarp/internal/stats"
	"intrawarp/internal/workloads"
)

// The timed workload: cycle-level runs on the default event core, one
// run at a time, each kernel under all seven policies in a fixed
// rotation. Rounds alternate between the two kernel sets, and each
// set's throughput is the median of its per-round rates.
const (
	// bfsSize parks threads on DRAM: the calendar's best case.
	bfsSize = 2048
	// particleFilterSize keeps the compute-bound set's fixed kernel
	// dominant over its seeded window: the calendar's worst case (a
	// wakeup every cycle).
	particleFilterSize = 512
	// maxCandidates bounds the corpus indices tried to fill a window.
	maxCandidates = 512
)

// window says which seeded corpus kernels join a timed set: in index
// order, each kernel with at least minThreads hardware threads whose SCC
// run executes at least minInstr instructions, no more than the budget
// left, at between minCPI and maxCPI cycles per instruction, until less
// than minInstr of the instruction budget is left. Corpus kernels span
// three orders of magnitude in length and a factor of twenty in CPI, and
// a set's rate in cycles/s follows its CPI; the budget and the CPI band
// keep the window's share of its set's work and its effect on the set's
// rate about the same for every seed, and minInstr keeps engine time
// above a run's set-up cost. minThreads skips, without running them,
// kernels too narrow to reach the CPI band: below 8 threads no loopy
// kernel issues more than one instruction per cycle.
type window struct {
	profile        string
	budget         int64 // instructions per policy
	minInstr       int64
	minCPI, maxCPI float64
	minThreads     int
}

var (
	memoryWindow = window{profile: "memory", budget: 8000, minInstr: 1000, minCPI: 1.5, maxCPI: 4.5}
	loopyWindow  = window{profile: "loopy", budget: 16000, minInstr: 2000, minCPI: 0.55, maxCPI: 1, minThreads: 8}
)

// timedKernel is one kernel of a timed set at its benchmark size.
type timedKernel struct {
	spec *workloads.Spec
	size int
}

// kernelSet is one of the two timed kernel sets.
type kernelSet struct {
	name    string
	kernels []timedKernel
}

type timedInstance struct {
	sets []*kernelSet
}

// sccRun is one timed run under SCC, the warm-up of the schedule cache;
// maxCycles > 0 aborts it past that many cycles.
func sccRun(ctx context.Context, k timedKernel, maxCycles int64) (*stats.Run, error) {
	cfg := gpu.DefaultConfig().WithPolicy(compaction.SCC)
	cfg.MaxCycles = maxCycles
	return workloads.ExecuteCtx(ctx, gpu.New(cfg), k.spec, workloads.ExecOptions{Size: k.size, Timed: true})
}

// timedSets are the two timed kernel sets: a fixed suite kernel and a
// seeded window each.
var timedSets = []struct {
	name, fixed string
	size        int
	win         window
}{
	{"membound", "bfs", bfsSize, memoryWindow},
	{"computebound", "particlefilter", particleFilterSize, loopyWindow},
}

// chooseWindows picks each timed set's window from the seeded corpus.
// It runs once per run, in a process of its own and outside setup_s:
// trying candidates is the benchmark choosing its inputs, and how many a
// seed needs varies tenfold. In the measuring process, the schedules the
// candidates' runs leave in the SCC schedule cache would make its memory
// follow the seed.
func chooseWindows(ctx context.Context, b *bench) error {
	b.windows = map[string][]string{}
	for _, ts := range timedSets {
		names, err := ts.win.choose(ctx, b)
		if err != nil {
			return fmt.Errorf("%s window: %w", ts.name, err)
		}
		b.windows[ts.name] = names
	}
	return nil
}

// choose returns the corpus kernels the window admits for the run's seed.
func (win window) choose(ctx context.Context, b *bench) ([]string, error) {
	var names []string
	left := win.budget
	for i := 0; i < maxCandidates && left >= win.minInstr; i++ {
		p, err := kgen.Derive(win.profile, b.opt.seed, i)
		if err != nil {
			return nil, err
		}
		if int(p.Groups)*int(p.TPG) < win.minThreads {
			continue
		}
		name := kgen.Name(win.profile, b.opt.seed, i)
		spec, err := experiments.ResolveSpec(name, 0)
		if err != nil {
			return nil, err
		}
		r, err := sccRun(ctx, timedKernel{spec: spec}, int64(float64(left)*win.maxCPI))
		aborted := err != nil && strings.Contains(err.Error(), "exceeded") // gpu's cycle-budget abort
		if !aborted {
			b.op(err) // any other error is a failed run: a set-up or output check
		}
		if err != nil || !win.admits(r, left) {
			continue
		}
		names = append(names, name)
		left -= r.Instructions
	}
	if left > win.budget/2 {
		return nil, fmt.Errorf("the first %d kgen:%s kernels fill only %d of %d instructions",
			maxCandidates, win.profile, win.budget-left, win.budget)
	}
	return names, nil
}

// admits reports whether a candidate's SCC run fits the window with
// left instructions of its budget unspent.
func (win window) admits(r *stats.Run, left int64) bool {
	cpi := float64(r.TotalCycles) / float64(r.Instructions)
	return r.Instructions >= win.minInstr && r.Instructions <= left && cpi >= win.minCPI && cpi <= win.maxCPI
}

// setupTimed resolves both sets' kernels and warms up with one SCC run
// of each, which fills the SCC schedule cache and pins the SCC runs'
// statistics.
func setupTimed(ctx context.Context, b *bench) (instance, error) {
	t := &timedInstance{}
	for _, ts := range timedSets {
		spec, err := workloads.ByName(ts.fixed)
		if err != nil {
			return nil, err
		}
		set := &kernelSet{name: ts.name, kernels: []timedKernel{{spec: spec, size: ts.size}}}
		for _, name := range b.windows[ts.name] {
			ks, err := experiments.ResolveSpec(name, 0)
			if err != nil {
				return nil, err
			}
			set.kernels = append(set.kernels, timedKernel{spec: ks})
		}
		for _, k := range set.kernels {
			r, err := sccRun(ctx, k, 0)
			if !b.checkTimed(set.name, k, compaction.SCC, r, err) {
				return nil, fmt.Errorf("%s: the SCC warm-up run failed its checks", k.spec.Name)
			}
		}
		t.sets = append(t.sets, set)
	}
	return t, nil
}

func (t *timedInstance) close() {}

// passTotals is the simulated work and host CPU time of one pass over a
// kernel set.
type passTotals struct {
	cycles, instr int64
	cpu           time.Duration
	sendLines     int64
	l3HitSum      float64
	runs          int
}

func (p *passTotals) addRun(r *stats.Run) {
	p.cycles += r.TotalCycles
	p.instr += r.Instructions
	p.sendLines += r.SendLines
	p.l3HitSum += r.L3HitRate
	p.runs++
}

// checkTimed accounts one timed run: its error, or its statistics
// against the first pass's.
func (b *bench) checkTimed(set string, k timedKernel, p compaction.Policy, r *stats.Run, err error) bool {
	if err == nil {
		var fp fingerprint
		if fp, err = fingerprintRun(r); err == nil {
			err = b.checkRun(label("timed", set, k.spec.Name, k.size, p), fp)
		}
	}
	b.op(err)
	return err == nil
}

// pass runs every kernel of the set under every policy: gpu.New, then
// workloads.ExecuteCtx with Timed set.
func (t *timedInstance) pass(ctx context.Context, b *bench, set *kernelSet) passTotals {
	var tot passTotals
	for _, k := range set.kernels {
		for _, p := range compaction.Policies {
			start := cpuTime()
			g := gpu.New(gpu.DefaultConfig().WithPolicy(p))
			r, err := workloads.ExecuteCtx(ctx, g, k.spec, workloads.ExecOptions{Size: k.size, Timed: true})
			tot.cpu += cpuTime() - start
			if b.checkTimed(set.name, k, p, r, err) {
				tot.addRun(r)
			}
		}
	}
	return tot
}

// passTraced is pass with every layer call recorded: the same calls in
// the same order, through execTraced.
func (t *timedInstance) passTraced(ctx context.Context, b *bench, rec *recorder, ts tallies, set *kernelSet, op *int64) passTotals {
	var tot passTotals
	for _, k := range set.kernels {
		for _, p := range compaction.Policies {
			*op++
			start := cpuTime()
			root := rec.begin("timed.run", -1, *op)
			g := newGPU(rec, root, *op, ts, gpu.DefaultConfig().WithPolicy(p))
			r, err := execTraced(ctx, rec, root, *op, ts, "gpu.RunCtx."+set.name, g, k.spec,
				workloads.ExecOptions{Size: k.size, Timed: true})
			rec.end(root)
			tot.cpu += cpuTime() - start
			if b.checkTimed(set.name, k, p, r, err) {
				tot.addRun(r)
			}
		}
	}
	return tot
}

// measure alternates passes over the two sets. throughput_per_s is the
// geometric mean of the sets' median rates in simulated cycles per CPU
// second, so each set weighs the same: the memory-bound set runs about
// ten times as many cycles per second as the compute-bound one, and a
// pooled rate would hide a change to the compute-bound set.
func (t *timedInstance) measure(ctx context.Context, b *bench) error {
	rates := map[string][]float64{}
	ticks := readCPUTicks()
	start := time.Now()
	for i := 0; i < 2*len(t.sets) || time.Since(start) < b.opt.seconds; i++ {
		set := t.sets[i%len(t.sets)]
		tot := t.pass(ctx, b, set)
		rates[set.name] = append(rates[set.name], float64(tot.cycles)/tot.cpu.Seconds())
	}
	b.infof("steal share %.3f", stealShare(ticks, readCPUTicks()))
	logRate := 0.0
	for _, set := range t.sets {
		names := make([]string, len(set.kernels))
		for i, k := range set.kernels {
			names[i] = k.spec.Name
		}
		m := median(rates[set.name])
		b.infof("%s %v: %d rounds, median %.4g cycles/s, rounds %.4g", set.name, names, len(rates[set.name]), m, rates[set.name])
		logRate += math.Log(m) / float64(len(t.sets))
	}
	b.put("throughput_per_s", "1/s", math.Exp(logRate))
	return nil
}

func (t *timedInstance) traced(ctx context.Context, b *bench) error {
	rec := b.lane("timed")
	ts := tallies{}
	plain := map[string][]float64{}
	traced := map[string][]float64{}
	totals := map[string]passTotals{}
	var op int64
	before := readRuntime()
	start := time.Now()
	// Untraced and traced rounds alternate, so the tracing overhead is
	// measured under the same conditions as the layers.
	for i := 0; i < 4*len(t.sets) || time.Since(start) < b.opt.seconds; i++ {
		set := t.sets[(i/2)%len(t.sets)]
		if i%2 == 0 {
			tot := t.pass(ctx, b, set)
			plain[set.name] = append(plain[set.name], tot.cpu.Seconds())
			continue
		}
		tot := t.passTraced(ctx, b, rec, ts, set, &op)
		traced[set.name] = append(traced[set.name], tot.cpu.Seconds())
		totals[set.name] = tot
	}
	b.putRuntime(before.to(readRuntime(), time.Since(start)))

	var plainSum, tracedSum float64
	var engines []string
	var kernels []experiments.GroupSpec
	for _, set := range t.sets {
		plainSum += median(plain[set.name])
		tracedSum += median(traced[set.name])
		engine := "gpu.RunCtx." + set.name
		engines = append(engines, engine)
		run := ts.get(engine)
		tot := totals[set.name]
		b.infof("%s: RunCtx %.4g ns per simulated cycle, %.4g ns per instruction, %.4g allocations per run; a pass simulates %d cycles, %d instructions, %d send lines, mean L3 hit rate %.4f",
			set.name, run.nsPer(run.cycles), run.nsPer(run.instr), run.allocsPerCall(),
			tot.cycles, tot.instr, tot.sendLines, tot.l3HitSum/float64(tot.runs))
		for _, k := range set.kernels {
			kernels = append(kernels, experiments.GroupSpec{Workload: k.spec.Name, Size: k.size})
		}
	}
	b.put("bench.trace_overhead_pct", "%", 100*(tracedSum/plainSum-1))
	b.putExecLayers(ts, engines...)
	return b.probeLayers(ctx, rec, &op, kernels)
}
