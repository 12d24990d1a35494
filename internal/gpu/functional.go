package gpu

import (
	"context"
	"fmt"

	"intrawarp/internal/eu"
	"intrawarp/internal/isa"
	"intrawarp/internal/memory"
	"intrawarp/internal/obs"
	"intrawarp/internal/par"
	"intrawarp/internal/stats"
)

// InstrVisitor observes every functionally executed instruction; used by
// the trace writer to capture execution masks (the paper's trace-based
// methodology, §5.1). wg and thread identify the workgroup and the
// EU-thread within it.
type InstrVisitor func(wg, thread int, res eu.ExecResult)

// runWorkgroup functionally executes one workgroup to completion on a
// detached pool of thread contexts, accumulating into run. Threads are
// interleaved one instruction at a time, which resolves barriers and
// keeps intra-workgroup atomics deterministic. slm is the pool's
// scratchpad, cleared here before the workgroup starts, or nil when the
// program uses no SLM.
//
// A non-nil probe receives per-instruction obs events. The functional
// engine has no clock; instruction indices stand in for cycles, offset by
// stepBase so each worker's event stream is monotonic across its
// workgroups.
// The executed step count is returned for that accumulation.
func (g *GPU) runWorkgroup(pool []*eu.Thread, slm *memory.SLM, spec *LaunchSpec, prog *eu.Program, wg int,
	run *stats.Run, visit InstrVisitor, probe obs.Probe, stepBase int64) (int64, error) {
	const maxSteps = 1 << 32
	if slm != nil {
		slm.Clear()
	}
	for t := range pool {
		initThread(pool[t], spec, prog, wg, t, slm, run)
	}
	// The functional engine has no EUs; fold workgroups onto the
	// configured EU count so timelines keep a familiar track layout.
	pseudoEU := wg % g.Cfg.NumEUs
	if probe != nil {
		probe.WorkgroupDispatched(obs.WGEvent{EU: pseudoEU, WG: wg, Cycle: stepBase, Threads: len(pool)})
	}
	var steps int64
	for {
		progressed := false
		for ti, th := range pool {
			if th.State != eu.ThreadReady {
				continue
			}
			res := th.Step(g.Mem.Mem)
			if visit != nil {
				visit(wg, ti, *res)
			}
			if probe != nil {
				ts := stepBase + steps
				probe.InstrIssued(obs.IssueEvent{
					EU: pseudoEU, Thread: ti, Cycle: ts, Start: ts, Cycles: 1,
					Op: res.Instr.Op.String(), Pipe: uint8(res.Pipe),
					Active: res.Mask.Trunc(res.Width).PopCount(), Width: res.Width,
				})
			}
			steps++
			progressed = true
		}
		// Barrier release: every live thread parked.
		atBar, done := 0, 0
		for _, th := range pool {
			switch th.State {
			case eu.ThreadBarrier:
				atBar++
			case eu.ThreadDone:
				done++
			}
		}
		if atBar > 0 && atBar+done == len(pool) {
			for _, th := range pool {
				if th.State == eu.ThreadBarrier {
					th.State = eu.ThreadReady
				}
			}
			progressed = true
		}
		if done == len(pool) {
			if probe != nil {
				probe.WorkgroupRetired(wg, stepBase+steps)
			}
			return steps, nil
		}
		if !progressed {
			return steps, fmt.Errorf("gpu: kernel %s: functional deadlock in workgroup %d", spec.Kernel.Name, wg)
		}
		if steps > maxSteps {
			return steps, fmt.Errorf("gpu: kernel %s: functional run exceeded %d steps", spec.Kernel.Name, int64(maxSteps))
		}
	}
}

// RunFunctionalCtx executes the launch on the functional model only: no
// pipeline or memory timing, just architectural execution with statistics
// and what-if compaction accounting. This is the fast path used for trace
// collection and EU-cycle-only experiments (Figs. 3, 9, 10).
//
// Workgroups are independent (the NDRange model forbids cross-workgroup
// synchronization within a launch), so they are claimed in order by a
// pool of Config.Workers goroutines (default runtime.GOMAXPROCS), never
// more than there are workgroups. A lone worker accumulates straight into
// the returned run. Above one worker each accumulates into a private
// stats.Run shard, merged afterwards; every shard field is an integer
// sum, so the merge yields statistics bit-identical to one worker's (see
// DESIGN.md §7), and device memory runs in shared mode for the duration
// (per-word atomics make idempotent overlapping writes and
// cross-workgroup atomics well-defined). A non-nil visit runs on one
// worker: trace capture needs the record stream in workgroup order.
//
// ctx is checked at workgroup granularity, so when it is cancelled every
// in-flight workgroup finishes, no further workgroup starts, and
// ctx.Err() is returned. Which workgroups completed before the cut is
// scheduling-dependent, but the error is not: a cancelled run never
// returns partial statistics. A worker stops at its first failing
// workgroup, and the lowest-indexed failure is the error returned.
func (g *GPU) RunFunctionalCtx(ctx context.Context, spec LaunchSpec, visit InstrVisitor) (*stats.Run, error) {
	threadsPerWG, numWGs, err := spec.validate(g.Cfg)
	if err != nil {
		return nil, err
	}
	prog, err := g.program(spec.Kernel)
	if err != nil {
		return nil, err
	}
	run := stats.NewRun(spec.Kernel.Name, spec.Kernel.Width.Lanes())

	workers := 1
	if visit == nil {
		workers = min(par.Workers(g.Cfg.Workers), numWGs)
	}
	ws := make([]functionalWorker, workers)
	for w := range ws {
		ws[w] = functionalWorker{run: run, pool: g.threads(w, threadsPerWG)}
		if workers > 1 {
			ws[w].run = stats.NewRun(spec.Kernel.Name, spec.Kernel.Width.Lanes())
		}
		if prog.UsesSLM() {
			ws[w].slm = g.takeSLM()
			defer g.putSLM(ws[w].slm)
		}
	}
	probe := g.Cfg.EU.Probe
	if probe != nil {
		probe.LaunchBegin(obs.LaunchEvent{
			Engine: "functional", Kernel: spec.Kernel.Name,
			Policy: g.Cfg.EU.Policy.String(), Width: spec.Kernel.Width.Lanes(),
		})
	}
	if workers > 1 {
		g.Mem.Mem.SetShared(true)
		defer g.Mem.Mem.SetShared(false)
	}
	par.ForWorker(workers, numWGs, func(w, wg int) {
		wk := &ws[w]
		if wk.err != nil {
			return
		}
		// A worker's instruction indices run on across its workgroups;
		// a probe attached above one worker must be safe for concurrent
		// use (obs.Timeline is) and orders events by timestamp at export.
		if wk.err = ctx.Err(); wk.err == nil {
			var n int64
			n, wk.err = g.runWorkgroup(wk.pool, wk.slm, &spec, prog, wg, wk.run, visit, probe, wk.steps)
			wk.steps += n
		}
		wk.last = wg
		wk.run.Release()
	})

	var steps int64
	var first *functionalWorker
	for w := range ws {
		wk := &ws[w]
		if wk.err != nil && (first == nil || wk.last < first.last) {
			first = wk
		}
		steps += wk.steps
		if workers > 1 {
			run.Merge(wk.run)
		}
	}
	if first != nil {
		return nil, first.err
	}
	run.Flush()
	if probe != nil {
		probe.LaunchEnd(steps)
	}
	return run, nil
}

// functionalWorker is one functional worker's state across the
// workgroups it claims: its thread contexts, scratchpad and statistics,
// the instructions it has stepped, and its first failure.
type functionalWorker struct {
	run   *stats.Run
	pool  []*eu.Thread
	slm   *memory.SLM
	steps int64
	err   error
	last  int // the last workgroup it ran: the failing one once err is set
}

// threads returns functional worker w's first n thread contexts, growing
// the GPU's pool for that worker as needed.
func (g *GPU) threads(w, n int) []*eu.Thread {
	for len(g.pools) <= w {
		g.pools = append(g.pools, nil)
	}
	for len(g.pools[w]) < n {
		g.pools[w] = append(g.pools[w], &eu.Thread{})
	}
	return g.pools[w][:n]
}

// ReadBufferU32 copies count words from device memory starting at addr —
// a host-side convenience for examples and tests.
func (g *GPU) ReadBufferU32(addr uint32, count int) []uint32 {
	out := make([]uint32, count)
	for i := range out {
		out[i] = g.Mem.Mem.ReadU32(addr + uint32(i*4))
	}
	return out
}

// WriteBufferU32 copies words into device memory starting at addr.
func (g *GPU) WriteBufferU32(addr uint32, data []uint32) {
	for i, v := range data {
		g.Mem.Mem.WriteU32(addr+uint32(i*4), v)
	}
}

// AllocU32 allocates a device buffer of count words and optionally
// initializes it; it returns the base address.
func (g *GPU) AllocU32(count int, init []uint32) uint32 {
	addr := g.Mem.Mem.Alloc(count * 4)
	if init != nil {
		if len(init) > count {
			panic(fmt.Sprintf("gpu: init data (%d) exceeds buffer (%d)", len(init), count))
		}
		g.WriteBufferU32(addr, init)
	}
	return addr
}

// AllocF32 allocates and optionally initializes a float32 device buffer.
func (g *GPU) AllocF32(count int, init []float32) uint32 {
	words := make([]uint32, len(init))
	for i, v := range init {
		words[i] = isa.F32ToBits(v)
	}
	addr := g.Mem.Mem.Alloc(count * 4)
	if init != nil {
		g.WriteBufferU32(addr, words)
	}
	return addr
}

// ReadBufferF32 copies count floats from device memory starting at addr.
func (g *GPU) ReadBufferF32(addr uint32, count int) []float32 {
	out := make([]float32, count)
	for i := range out {
		out[i] = isa.F32FromBits(g.Mem.Mem.ReadU32(addr + uint32(i*4)))
	}
	return out
}
