// Package gpu assembles the full compute cluster of the studied
// architecture (paper Fig. 1): several EUs behind a shared data cluster,
// a thread dispatcher that walks workgroups onto free hardware-thread
// slots, shared-local-memory allocation per workgroup, and workgroup
// barrier coordination. It provides both a cycle-level timed run and a
// fast functional-only run (the paper's trace-collection mode).
package gpu

import (
	"context"
	"encoding/binary"
	"fmt"

	"intrawarp/internal/compaction"
	"intrawarp/internal/eu"
	"intrawarp/internal/isa"
	"intrawarp/internal/mask"
	"intrawarp/internal/memory"
	"intrawarp/internal/obs"
	"intrawarp/internal/stats"
)

// Engine selects the timed-run core.
type Engine uint8

const (
	// EngineEvent is the event-driven core (the default): the cycle
	// counter jumps straight to the next scheduled wakeup — memory
	// completion, writeback, pipe-free, front-end refill, dispatch retry
	// — and skipped arbitration windows are accounted in bulk. Produces
	// statistics bit-identical to EngineTick (DESIGN.md §13).
	EngineEvent Engine = iota
	// EngineTick is the original tick-every-cycle core, kept as the
	// reference the parity tests and the Tick benchmarks diff the event
	// core against.
	EngineTick
)

// String names the engine, as the parity tests' subtests do.
func (e Engine) String() string {
	if e == EngineTick {
		return "tick"
	}
	return "event"
}

// Config describes the whole GPU.
type Config struct {
	NumEUs int
	EU     eu.Config
	Mem    memory.Config

	// Engine selects the timed-run core; the zero value is the
	// event-driven core. Functional runs ignore it.
	Engine Engine

	// MaxCycles aborts a timed run that exceeds this budget (simulator
	// hang guard). Zero means the default of 1e9.
	MaxCycles int64

	// Workers bounds the host worker pool of the functional engine:
	// RunFunctional shards a launch's workgroups across this many
	// goroutines. Values below 1 select runtime.GOMAXPROCS(0); 1 forces
	// serial execution. Parallel runs produce statistics bit-identical to
	// serial ones (shard fields are order-free integer sums). The timed
	// cycle-level Run is inherently serial — workgroups contend for EUs
	// and memory cycle by cycle — and ignores this knob; sweeps
	// parallelize across whole timed runs instead (internal/experiments).
	Workers int
}

// DefaultConfig returns the paper's Table 3 machine: 6 EUs × 6 threads,
// DC1 memory system, with the Ivy Bridge compaction policy.
func DefaultConfig() Config {
	return Config{NumEUs: 6, EU: eu.DefaultConfig(), Mem: memory.DefaultConfig()}
}

// WithPolicy returns a copy of the config running the given compaction
// policy.
func (c Config) WithPolicy(p compaction.Policy) Config {
	c.EU.Policy = p
	return c
}

// WithWorkers returns a copy of the config with the functional engine's
// worker-pool bound set (see the Workers field).
func (c Config) WithWorkers(k int) Config {
	c.Workers = k
	return c
}

// LaunchSpec describes one kernel launch (OpenCL NDRange). A launch is
// 1-dimensional unless GlobalSizeY > 1: then GlobalSize/GroupSize are the
// X extents, GlobalSizeY/GroupSizeY the Y extents, lanes cover consecutive
// X positions of one row, and the per-lane Y ids appear at eu.IDRegY.
type LaunchSpec struct {
	// Kernel is the program to run. A GPU decodes each kernel once, on
	// its first launch, and keeps the decoded program for later launches
	// of the same *isa.Kernel, so a kernel must not change after its
	// first launch on a GPU.
	Kernel      *isa.Kernel
	GlobalSize  int      // total work-items (X extent for 2-D launches)
	GroupSize   int      // work-items per workgroup (X extent for 2-D)
	GlobalSizeY int      // Y extent; 0 or 1 selects a 1-D launch
	GroupSizeY  int      // workgroup Y extent (2-D launches; default 1)
	Args        []uint32 // scalar arguments, loaded at eu.ArgBase
}

// is2D reports whether the launch uses the 2-dimensional NDRange.
func (s *LaunchSpec) is2D() bool { return s.GlobalSizeY > 1 }

// groupSizeY returns the normalized workgroup Y extent.
func (s *LaunchSpec) groupSizeY() int {
	if s.GroupSizeY < 1 {
		return 1
	}
	return s.GroupSizeY
}

// wgGridX returns the number of workgroups along X.
func (s *LaunchSpec) wgGridX() int {
	return (s.GlobalSize + s.GroupSize - 1) / s.GroupSize
}

func (s *LaunchSpec) validate(cfg Config) (threadsPerWG, numWGs int, err error) {
	if s.Kernel == nil {
		return 0, 0, fmt.Errorf("gpu: nil kernel")
	}
	if err := s.Kernel.Validate(); err != nil {
		return 0, 0, err
	}
	if s.GlobalSize <= 0 || s.GroupSize <= 0 {
		return 0, 0, fmt.Errorf("gpu: kernel %s: bad NDRange %d/%d", s.Kernel.Name, s.GlobalSize, s.GroupSize)
	}
	width := s.Kernel.Width.Lanes()
	xThreads := (s.GroupSize + width - 1) / width
	threadsPerWG = xThreads
	numWGs = (s.GlobalSize + s.GroupSize - 1) / s.GroupSize
	if s.is2D() {
		// The Y-id payload registers (r3..r4) only exist below SIMD32.
		if width > 16 {
			return 0, 0, fmt.Errorf("gpu: kernel %s: 2-D launches support SIMD8/SIMD16 only", s.Kernel.Name)
		}
		threadsPerWG = xThreads * s.groupSizeY()
		numWGs = s.wgGridX() * ((s.GlobalSizeY + s.groupSizeY() - 1) / s.groupSizeY())
	}
	if threadsPerWG > cfg.EU.ThreadsPerEU {
		return 0, 0, fmt.Errorf("gpu: kernel %s: workgroup needs %d threads, EU has %d",
			s.Kernel.Name, threadsPerWG, cfg.EU.ThreadsPerEU)
	}
	if len(s.Args) > (eu.FirstFree-eu.ArgBase)*8 {
		return 0, 0, fmt.Errorf("gpu: kernel %s: too many arguments (%d)", s.Kernel.Name, len(s.Args))
	}
	return threadsPerWG, numWGs, nil
}

// workgroup tracks one in-flight thread block.
type workgroup struct {
	id      int
	slm     *memory.SLM
	members []*eu.Thread
}

// GPU is the compute cluster. New builds only the memory system's
// headers and its first page of device memory; everything else is built
// when a run first needs it and then kept for the GPU's later launches,
// so a GPU runs one launch at a time.
type GPU struct {
	Cfg Config
	Mem *memory.System
	// EUs is nil until the first timed run builds it (see buildTimed).
	EUs []*eu.EU

	// progs holds the decoded program of every kernel launched on the
	// GPU, so each is decoded once (see LaunchSpec.Kernel).
	progs map[*isa.Kernel]*eu.Program

	// Timed-run scratch, reused across cycles and launches: retired
	// workgroup records, the live-workgroup list, and the dispatch
	// free-slot buffer. Allocating any of these per workgroup or — worse
	// — iterating a map per cycle dominated the timed-loop profile
	// before they were pooled. A launch that aborts leaves its live
	// workgroups in live; the next timed launch retires them first.
	wgPool []*workgroup
	live   []*workgroup
	slots  []int

	// slmPool holds idle 64KB scratchpads for both engines: a timed
	// workgroup or a functional worker takes one while its program uses
	// SLM and returns it when done.
	slmPool []*memory.SLM

	// pools[w] is functional worker w's thread-context pool, grown to
	// the largest workgroup launched so far.
	pools [][]*eu.Thread
}

// getWorkgroup reuses or creates a workgroup record, with a zeroed SLM
// when the launch's program uses one.
func (g *GPU) getWorkgroup(id int, slm bool) *workgroup {
	var wg *workgroup
	if n := len(g.wgPool); n > 0 {
		wg = g.wgPool[n-1]
		g.wgPool[n-1] = nil
		g.wgPool = g.wgPool[:n-1]
		wg.id = id
	} else {
		wg = &workgroup{id: id}
	}
	if slm {
		wg.slm = g.takeSLM()
	}
	return wg
}

// takeSLM returns a zeroed scratchpad of the configured geometry,
// reusing a pooled one when there is one.
func (g *GPU) takeSLM() *memory.SLM {
	n := len(g.slmPool)
	if n == 0 {
		return memory.NewSLM(g.Cfg.Mem.SLMBytes, g.Cfg.Mem.SLMBanks)
	}
	s := g.slmPool[n-1]
	g.slmPool[n-1] = nil
	g.slmPool = g.slmPool[:n-1]
	s.Clear()
	return s
}

// putSLM returns a scratchpad to the pool.
func (g *GPU) putSLM(s *memory.SLM) {
	g.slmPool = append(g.slmPool, s)
}

// putWorkgroup returns a retired workgroup and its scratchpad to the
// pools. Member contexts go back to ThreadIdle here — and only here —
// so dispatch can never reuse a slot whose workgroup is still live.
func (g *GPU) putWorkgroup(wg *workgroup) {
	if wg.slm != nil {
		g.putSLM(wg.slm)
		wg.slm = nil
	}
	for i := range wg.members {
		wg.members[i].State = eu.ThreadIdle
		wg.members[i] = nil
	}
	wg.members = wg.members[:0]
	g.wgPool = append(g.wgPool, wg)
}

// New builds a GPU for the given configuration. It builds no EUs and no
// cache arrays: a functional run never uses them, and the first timed run
// builds them.
func New(cfg Config) *GPU {
	if cfg.MaxCycles == 0 {
		cfg.MaxCycles = 1_000_000_000
	}
	return &GPU{Cfg: cfg, Mem: memory.NewSystem(cfg.Mem)}
}

// buildTimed builds what only the timed core uses, on the GPU's first
// timed run: the EUs. The caches build their arrays on their first
// access, which only the timed core makes.
func (g *GPU) buildTimed() {
	if g.EUs != nil {
		return
	}
	g.EUs = make([]*eu.EU, g.Cfg.NumEUs)
	for i := range g.EUs {
		g.EUs[i] = eu.New(i, g.Cfg.EU, g.Mem)
	}
}

// beginTimed readies the EUs and the memory system for a timed launch.
// A launch that aborted (cycle budget or cancellation) left workgroups
// live, threads in their slots and requests in flight: its workgroups
// return to the pools with idle members, and the EUs and the memory
// system drop the rest. After a completed launch there is nothing to
// drop. Cache contents stay warm.
func (g *GPU) beginTimed() {
	for i, wg := range g.live {
		g.putWorkgroup(wg)
		g.live[i] = nil
	}
	g.live = g.live[:0]
	for _, e := range g.EUs {
		e.BeginLaunch()
	}
	g.Mem.BeginLaunch()
}

// program returns the kernel's decoded program, decoding it on the
// kernel's first launch on this GPU.
func (g *GPU) program(k *isa.Kernel) (*eu.Program, error) {
	if p, ok := g.progs[k]; ok {
		return p, nil
	}
	p, err := eu.Decode(k)
	if err != nil {
		return nil, err
	}
	if g.progs == nil {
		g.progs = make(map[*isa.Kernel]*eu.Program)
	}
	g.progs[k] = p
	return p, nil
}

// initThread prepares a hardware thread's payload registers for dispatch
// (the layout documented in package eu). prog is the launch's decoded
// program and wg the flat workgroup index.
func initThread(th *eu.Thread, spec *LaunchSpec, prog *eu.Program, wg, tIdx int, slm *memory.SLM, run *stats.Run) {
	width := spec.Kernel.Width.Lanes()

	var dm mask.Mask
	var xIDs, yIDs [32]uint32
	wx, wy := wg, 0
	if spec.is2D() {
		wx, wy = wg%spec.wgGridX(), wg/spec.wgGridX()
		xThreads := (spec.GroupSize + width - 1) / width
		tx, ty := tIdx%xThreads, tIdx/xThreads
		y := wy*spec.groupSizeY() + ty
		for lane := 0; lane < width; lane++ {
			localX := tx*width + lane
			x := wx*spec.GroupSize + localX
			xIDs[lane], yIDs[lane] = uint32(x), uint32(y)
			if x < spec.GlobalSize && localX < spec.GroupSize && y < spec.GlobalSizeY {
				dm = dm.SetLane(lane)
			}
		}
	} else {
		base := wg*spec.GroupSize + tIdx*width
		for lane := 0; lane < width; lane++ {
			local := tIdx*width + lane
			xIDs[lane] = uint32(base + lane)
			if base+lane < spec.GlobalSize && local < spec.GroupSize {
				dm = dm.SetLane(lane)
			}
		}
	}
	th.Reset(prog, width, dm)
	th.Workgroup = wg
	th.SLM = slm
	th.Stats = run

	// r0 scalar payload.
	totalItems := spec.GlobalSize
	if spec.is2D() {
		totalItems *= spec.GlobalSizeY
	}
	th.GRF.WriteU32(eu.PayloadReg*32+eu.R0GroupID, uint32(wg))
	th.GRF.WriteU32(eu.PayloadReg*32+eu.R0LocalTID, uint32(tIdx))
	th.GRF.WriteU32(eu.PayloadReg*32+eu.R0GroupSize, uint32(spec.GroupSize*spec.groupSizeY()))
	th.GRF.WriteU32(eu.PayloadReg*32+eu.R0GlobalSize, uint32(totalItems))
	th.GRF.WriteU32(eu.PayloadReg*32+eu.R0SIMDWidth, uint32(width))
	th.GRF.WriteU32(eu.PayloadReg*32+eu.R0GroupIDX, uint32(wx))
	th.GRF.WriteU32(eu.PayloadReg*32+eu.R0GroupIDY, uint32(wy))
	th.GRF.WriteU32(eu.PayloadReg*32+eu.R0GlobalSizeX, uint32(spec.GlobalSize))

	// r1.. X ids and (2-D only) r3.. Y ids, one u32 per lane.
	var buf [4]byte
	for lane := 0; lane < width; lane++ {
		binary.LittleEndian.PutUint32(buf[:], xIDs[lane])
		th.GRF.WriteBytes(eu.IDReg*32+lane*4, buf[:])
	}
	if spec.is2D() {
		for lane := 0; lane < width; lane++ {
			binary.LittleEndian.PutUint32(buf[:], yIDs[lane])
			th.GRF.WriteBytes(eu.IDRegY*32+lane*4, buf[:])
		}
	}

	// r5..: scalar kernel arguments.
	for i, a := range spec.Args {
		th.GRF.WriteU32(eu.ArgBase*32+i*4, a)
	}
}

// nextLanding returns the cycle the event core lands at after now: the
// earliest wakeup of any EU or of the memory system, or now+1 when one
// is imminent or stale (an EU marked dirty after its last tick). With
// no wakeup at all, no event can ever fire again: that is the state the
// tick core spins in until its budget runs out, so it returns the
// first cycle past the budget.
func (g *GPU) nextLanding(now int64) int64 {
	best := g.Mem.NextEvent(now)
	for _, e := range g.EUs {
		if best <= now+1 {
			break
		}
		best = min(best, e.NextWakeup())
	}
	switch {
	case best <= now+1:
		return now + 1
	case best == eu.NoWakeup: // memory.NoEvent is the same sentinel
		return g.Cfg.MaxCycles + 1
	}
	return best
}

// ctxCheckInterval gates how often the timed loop polls for
// cancellation: at the first event batch at least 4096 simulated cycles
// after the previous poll — far finer than a workgroup lifetime, at
// negligible cost, and jump-aware (a clock jump past the watermark
// polls at the landing rather than waiting for an exact multiple).
const ctxCheckInterval = 1 << 12

// RunCtx executes a timed, cycle-level simulation of the launch and
// returns the collected statistics. When ctx is cancelled or its deadline
// passes, the simulation stops within a few thousand simulated cycles
// (well under one workgroup's lifetime) and ctx.Err() is returned.
func (g *GPU) RunCtx(ctx context.Context, spec LaunchSpec) (*stats.Run, error) {
	threadsPerWG, numWGs, err := spec.validate(g.Cfg)
	if err != nil {
		return nil, err
	}
	prog, err := g.program(spec.Kernel)
	if err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if g.Cfg.EU.ThreadsPerEU > eu.MaxThreads {
		return nil, fmt.Errorf("gpu: %d threads per EU, the timed core holds at most %d", g.Cfg.EU.ThreadsPerEU, eu.MaxThreads)
	}
	g.buildTimed()
	g.beginTimed()
	done := ctx.Done()
	run := stats.NewRun(spec.Kernel.Name, spec.Kernel.Width.Lanes())
	run.TimedPolicy = g.Cfg.EU.Policy
	probe := g.Cfg.EU.Probe
	if probe != nil {
		probe.LaunchBegin(obs.LaunchEvent{
			Engine: "timed", Kernel: spec.Kernel.Name,
			Policy: g.Cfg.EU.Policy.String(), Width: spec.Kernel.Width.Lanes(),
		})
	}

	nextWG := 0
	live := g.live
	var cycle int64
	nextCtxCheck := int64(ctxCheckInterval)
	tick := g.Cfg.Engine == EngineTick
	// The event core retries dispatch only after a workgroup retired or a
	// memory completion freed a slot, and scans the live workgroups only
	// after a thread parked or halted: no other event changes what those
	// passes find. The tick core runs both every cycle.
	retryDispatch, scanLive := true, false

	// Each iteration simulates one cycle; the cores differ in what they
	// touch there and in how the clock advances afterwards. The tick core
	// ticks every EU and steps to cycle+1. The event core ticks only the
	// EUs that are due, each of which first accounts in bulk the windows
	// it was left untouched, and jumps to the earliest wakeup of any EU
	// or the memory system. Conservative wakeups make early landings
	// harmless (they degenerate to per-cycle stepping), so the two cores
	// visit the same state-changing cycles and produce bit-identical
	// statistics.
	for {
		g.Mem.Tick(cycle)
		var sig eu.Signal
		for _, e := range g.EUs {
			if tick || e.NextWakeup() <= cycle {
				e.Tick(cycle)
			}
			sig |= e.TakeSignals()
		}
		retryDispatch = retryDispatch || tick || sig&eu.SignalSlotFreed != 0
		scanLive = tick || sig&eu.SignalParked != 0

		// Dispatch: place whole workgroups onto EUs with enough free slots.
		for retryDispatch && nextWG < numWGs {
			placed := false
			for _, e := range g.EUs {
				g.slots = e.IdleSlotsInto(g.slots)
				if len(g.slots) < threadsPerWG {
					continue
				}
				wg := g.getWorkgroup(nextWG, prog.UsesSLM())
				for t := 0; t < threadsPerWG; t++ {
					th := e.Threads[g.slots[t]]
					initThread(th, &spec, prog, nextWG, t, wg.slm, run)
					wg.members = append(wg.members, th)
				}
				e.MarkDirty()
				if probe != nil {
					probe.WorkgroupDispatched(obs.WGEvent{EU: e.ID, WG: nextWG, Cycle: cycle, Threads: threadsPerWG})
				}
				live = append(live, wg)
				nextWG++
				placed = true
				break
			}
			retryDispatch = placed
		}

		// Barrier release: when every member of a workgroup is parked.
		// Retired workgroups swap-remove from the live list (order is
		// irrelevant) and return to the pools. Releases and retires
		// mutate thread state behind the EUs' backs, so their EUs are
		// marked dirty; a retire additionally frees dispatch slots, which
		// the tick core would fill next cycle — the event core lands at
		// cycle+1 to retry dispatch there.
		for i := 0; scanLive && i < len(live); {
			wg := live[i]
			atBar, done := 0, 0
			for _, th := range wg.members {
				switch th.State {
				case eu.ThreadBarrier:
					atBar++
				case eu.ThreadDone:
					done++
				}
			}
			if atBar > 0 && atBar+done == len(wg.members) {
				for _, th := range wg.members {
					if th.State == eu.ThreadBarrier {
						th.State = eu.ThreadReady
						g.EUs[th.ID/g.Cfg.EU.ThreadsPerEU].MarkDirty()
					}
				}
			}
			if done == len(wg.members) {
				live[i] = live[len(live)-1]
				live[len(live)-1] = nil
				live = live[:len(live)-1]
				if probe != nil {
					probe.WorkgroupRetired(wg.id, cycle)
				}
				g.putWorkgroup(wg)
				retryDispatch = true
				continue
			}
			i++
		}

		// Termination.
		if nextWG >= numWGs && len(live) == 0 && !g.Mem.InFlight() {
			quiet := true
			for _, e := range g.EUs {
				if !e.Quiet() {
					quiet = false
					break
				}
			}
			if quiet {
				break
			}
		}

		next := cycle + 1
		if !tick && !(retryDispatch && nextWG < numWGs) {
			next = g.nextLanding(cycle)
		}
		// An over-budget run returns no statistics. The tick core errors
		// in exactly the same cases: termination happens only at
		// state-changing cycles, which both cores visit.
		if next > g.Cfg.MaxCycles {
			g.live = live
			return nil, fmt.Errorf("gpu: kernel %s exceeded %d cycles", spec.Kernel.Name, g.Cfg.MaxCycles)
		}
		cycle = next
		if done != nil && cycle >= nextCtxCheck {
			nextCtxCheck = cycle + ctxCheckInterval
			select {
			case <-done:
				g.live = live
				return nil, ctx.Err()
			default:
			}
		}
	}

	// EUs left untouched up to the last cycle account its windows now.
	for _, e := range g.EUs {
		e.SkipWindows(cycle + 1)
	}
	g.live = live // empty: hands the grown backing array to the next launch
	if probe != nil {
		probe.LaunchEnd(cycle)
	}
	run.TotalCycles = cycle
	for _, e := range g.EUs {
		run.EUBusy += e.Busy
		for k := range e.Windows {
			run.Windows[k] += e.Windows[k]
		}
	}
	run.Mem = g.Mem.Stats
	run.L3HitRate = g.Mem.L3.HitRate()
	run.Flush()
	return run, nil
}
