package eu

import (
	"intrawarp/internal/compaction"
	"intrawarp/internal/isa"
	"intrawarp/internal/mask"
	"intrawarp/internal/memory"
	"intrawarp/internal/obs"
	"intrawarp/internal/stats"
)

// Config holds per-EU pipeline parameters (paper §2.2 and Table 3).
type Config struct {
	ThreadsPerEU  int
	PipeDepth     int // cycles from end of execution to writeback
	IssueInterval int // arbitration period: 2 = "two instructions every two cycles"
	IssueWidth    int // instructions issued per arbitration pass
	Policy        compaction.Policy

	// JumpPenalty models the front-end refetch cost: a thread whose IP
	// moved non-sequentially (taken IF/ELSE jump, loop back-edge, BREAK)
	// cannot issue again for this many cycles while its instruction queue
	// refills. Zero (the default) assumes a perfect front end.
	JumpPenalty int

	// Probe receives instrumentation events (issues, stall windows,
	// compaction decisions, SEND completions). Nil — the default — keeps
	// the timed loop on its zero-allocation fast path: every probe site
	// is one untaken branch.
	Probe obs.Probe
}

// DefaultConfig returns the Table 3 EU configuration.
func DefaultConfig() Config {
	return Config{ThreadsPerEU: 6, PipeDepth: 4, IssueInterval: 2, IssueWidth: 2, Policy: compaction.IvyBridge}
}

// span is a pending-writeback byte range in the GRF.
type span struct {
	lo, hi int // [lo, hi)
}

func (s span) overlaps(o span) bool { return s.lo < o.hi && o.lo < s.hi }

// wbEvent clears scoreboard state when an instruction's results become
// architecturally visible.
type wbEvent struct {
	at     int64
	thread int
	dst    span
	hasDst bool
	flag   int // -1 = none
}

// EU is one execution unit: hardware threads plus the dual-issue timing
// model.
type EU struct {
	ID      int
	Cfg     Config
	Threads []*Thread

	mem *memory.System

	pipeFree [2]int64 // next accept cycle for FPU and EM pipes
	sendFree int64

	sb          [][]span  // per-thread pending GRF writes
	flagBusy    [][2]int  // per-thread pending flag writers
	wb          []wbEvent // scheduled writebacks (small; scanned linearly)
	wbMin       int64     // earliest due writeback (sentinel when wb empty)
	outstanding []int     // per-thread in-flight memory loads

	readyAt []int64 // per-thread front-end refill deadline (jump penalty)

	nextArb int
	Busy    int64 // execution-pipe occupancy cycles (the paper's "EU cycles")

	// compFree recycles SEND completion records so the global-memory path
	// allocates no closure per request.
	compFree []*sendComp

	// Windows attributes every arbitration window to an outcome
	// (stats.StallKind): issued, idle, or the dominant stall reason.
	Windows [stats.NumStallKinds]int64

	// needEval is set whenever EU-visible state changed in a way that is
	// not captured by an absolute-time threshold (writeback fired, SEND
	// completed, GPU dispatched or released threads, instructions issued):
	// the next arbitration window must then be evaluated exactly rather
	// than predicted by NextWakeup's threshold scan. lastKind is the
	// outcome of the most recent evaluated window; while needEval is
	// false no state change can alter the outcome, so skipped windows all
	// repeat lastKind (see SkipWindows).
	needEval bool
	lastKind stats.StallKind

	// wakeCache memoizes the last NextWakeup result while needEval is
	// false: with no state change the threshold scan is a pure function
	// of EU state, so the cached value stays valid until it expires
	// (cache ≤ now) or any needEval-setting event clears it. This makes
	// re-arming the calendar O(1) per parked EU per landing.
	wakeCache int64

	// probe mirrors Cfg.Probe; nil disables instrumentation.
	probe obs.Probe
}

// New creates an EU with idle threads attached to the given memory system.
func New(id int, cfg Config, mem *memory.System) *EU {
	e := &EU{ID: id, Cfg: cfg, mem: mem, wbMin: noWB, needEval: true, probe: cfg.Probe}
	e.Threads = make([]*Thread, cfg.ThreadsPerEU)
	e.sb = make([][]span, cfg.ThreadsPerEU)
	e.flagBusy = make([][2]int, cfg.ThreadsPerEU)
	e.outstanding = make([]int, cfg.ThreadsPerEU)
	e.readyAt = make([]int64, cfg.ThreadsPerEU)
	for i := range e.Threads {
		e.Threads[i] = &Thread{ID: id*cfg.ThreadsPerEU + i, State: ThreadIdle}
	}
	return e
}

// depsClear checks the per-thread scoreboard: no pending write overlaps
// this instruction's sources or destination, and any consumed or produced
// flag has no in-flight writer. The spans and flags come from decode.
func (e *EU) depsClear(ti int, d *decoded) bool {
	sb, fb := e.sb[ti], e.flagBusy[ti]
	// Nothing pending for this thread: every check below passes.
	if len(sb) == 0 && fb[0] == 0 && fb[1] == 0 {
		return true
	}
	for _, p := range sb {
		for _, s := range d.reads[:d.nreads] {
			if p.overlaps(s) {
				return false
			}
		}
		if d.hasWAW && p.overlaps(d.waw) {
			return false
		}
	}
	return !(d.flags&1 != 0 && fb[0] > 0 || d.flags&2 != 0 && fb[1] > 0)
}

// Tick advances the EU by one cycle: writebacks first, then (on
// arbitration cycles) issue of up to IssueWidth instructions from distinct
// ready threads.
func (e *EU) Tick(now int64) {
	e.fireWritebacks(now)

	if e.Cfg.IssueInterval > 1 && now%int64(e.Cfg.IssueInterval) != 0 {
		return
	}
	n := len(e.Threads)
	issued := 0
	sawFrontend, sawMemory, sawScoreboard, sawPipe := false, false, false, false
	for i := 0; i < n && issued < e.Cfg.IssueWidth; i++ {
		// Rotating priority: each pass starts one thread further on.
		ti := e.nextArb + i
		if ti >= n {
			ti -= n
		}
		th := e.Threads[ti]
		if th.State != ThreadReady {
			continue
		}
		if e.readyAt[ti] > now {
			sawFrontend = true
			continue
		}
		d := th.next()
		if !e.depsClear(ti, d) {
			if e.outstanding[ti] > 0 {
				sawMemory = true
			} else {
				sawScoreboard = true
			}
			continue
		}
		pipe := d.pipe
		switch pipe {
		case isa.PipeFPU, isa.PipeEM:
			// The pipe must be able to start this instruction within the
			// current issue window; compressed (shorter) instructions can
			// therefore issue back-to-back, which is exactly how cycle
			// compression raises front-end demand (§4.3).
			if e.pipeFree[pipe] > now+int64(e.Cfg.IssueInterval)-1 {
				sawPipe = true
				continue
			}
		case isa.PipeSend:
			if e.sendFree > now {
				sawPipe = true
				continue
			}
		}
		e.issue(ti, now)
		issued++
	}
	var kind stats.StallKind
	switch {
	case issued > 0:
		kind = stats.WinIssued
	case sawMemory:
		kind = stats.WinMemory
	case sawScoreboard:
		kind = stats.WinScoreboard
	case sawPipe:
		kind = stats.WinPipe
	case sawFrontend:
		kind = stats.WinFrontend
	default:
		kind = stats.WinIdle
	}
	e.Windows[kind]++
	if e.probe != nil {
		e.probe.Window(e.ID, now, kind)
	}
	e.nextArb = (e.nextArb + 1) % n
	// An issued window mutates scoreboards, pipes and thread states, so
	// the next window needs an exact evaluation. A no-issue window scans
	// every ready thread without side effects: its outcome repeats until
	// a time threshold passes or an external event sets needEval again.
	e.lastKind = kind
	e.needEval = issued > 0
	if issued > 0 {
		e.wakeCache = 0
	}
}

// issue functionally executes the thread's next instruction and models its
// timing: pipe occupancy shaped by the compaction policy, scoreboard
// reservation of the destination, and memory-request dispatch for SENDs.
func (e *EU) issue(ti int, now int64) {
	th := e.Threads[ti]
	d := th.next()
	in := d.in
	ipBefore := th.IP
	res := th.Step(e.mem.Mem)
	if e.Cfg.JumpPenalty > 0 && th.State == ThreadReady && th.IP != ipBefore+1 {
		// Non-sequential fetch: the thread's instruction queue refills.
		e.readyAt[ti] = now + int64(e.Cfg.JumpPenalty)
	}

	switch res.Pipe {
	case isa.PipeFPU, isa.PipeEM:
		cycles := int64(e.Cfg.Policy.Cycles(res.Mask, res.Width, res.Group))
		start := now
		if e.pipeFree[res.Pipe] > start {
			start = e.pipeFree[res.Pipe]
		}
		e.pipeFree[res.Pipe] = start + cycles
		e.Busy += cycles

		// Energy proxies (paper §4.1/§4.3): lane slots clocked, operand
		// quad fetches performed vs suppressed, and SCC crossbar traffic.
		if th.Stats != nil {
			th.Stats.LaneCycles += cycles * int64(res.Group)
			done, saved := e.Cfg.Policy.GroupFetchCounts(res.Mask, res.Width, res.Group)
			ops := d.fetchOps
			th.Stats.QuadFetches += int64(done * ops)
			if saved > 0 {
				th.Stats.OperandFetchesSaved += int64(saved * ops)
			}
			if e.Cfg.Policy == compaction.SCC {
				th.Stats.CrossbarOps += int64(compaction.ScheduleFor(res.Mask, res.Width, res.Group).Swizzles() * ops)
			}
		}

		if e.probe != nil {
			e.probe.InstrIssued(obs.IssueEvent{
				EU: e.ID, Thread: ti, Cycle: now, Start: start, Cycles: cycles,
				Op: in.Op.String(), Pipe: uint8(res.Pipe),
				Active: res.Mask.Trunc(res.Width).PopCount(), Width: res.Width,
			})
			full := mask.QuadCount(res.Width, res.Group)
			swz := 0
			if e.Cfg.Policy == compaction.SCC {
				swz = compaction.ScheduleFor(res.Mask, res.Width, res.Group).Swizzles()
			}
			e.probe.CompactionDecision(obs.CompactionEvent{
				EU: e.ID, Thread: ti, Cycle: now, Policy: e.Cfg.Policy.String(),
				Mask: uint32(res.Mask.Trunc(res.Width)), Width: res.Width, Group: res.Group,
				Cycles: cycles, QuadsDone: int(cycles), QuadsSkipped: full - int(cycles), Swizzles: swz,
			})
			e.emitQuads(ti, res, start)
		}

		ev := wbEvent{at: start + int64(e.Cfg.PipeDepth) + cycles, thread: ti, flag: d.setFlag}
		if d.hasResv {
			ev.dst, ev.hasDst = d.resv, true
			e.sb[ti] = append(e.sb[ti], d.resv)
		}
		if d.setFlag >= 0 {
			e.flagBusy[ti][d.setFlag]++
		}
		if ev.hasDst || ev.flag >= 0 {
			e.addWB(ev)
		}

	case isa.PipeSend:
		e.sendFree = now + 1
		switch {
		case res.IsBarrier:
			// Thread parked; the GPU releases the workgroup.
			if e.probe != nil {
				e.probe.InstrIssued(obs.IssueEvent{
					EU: e.ID, Thread: ti, Cycle: now, Start: now, Cycles: 1,
					Op: in.Op.String(), Pipe: uint8(res.Pipe),
					Active: res.Mask.Trunc(res.Width).PopCount(), Width: res.Width,
				})
			}
		case res.Instr.Send.IsSLM() || (res.Instr.Send == isa.SendNone && res.Instr.Op == isa.OpFence):
			ready := now + 1
			if len(res.SLMOffsets) > 0 {
				ready = e.mem.SLMReady(th.SLM, res.SLMOffsets, now)
			}
			if e.probe != nil {
				e.probe.InstrIssued(obs.IssueEvent{
					EU: e.ID, Thread: ti, Cycle: now, Start: now, Cycles: ready - now,
					Op: in.Op.String(), Pipe: uint8(res.Pipe),
					Active: res.Mask.Trunc(res.Width).PopCount(), Width: res.Width,
				})
			}
			e.scheduleSendWB(ti, d, ready)
		default:
			// Global memory: enqueue the coalesced lines; the destination
			// stays reserved until the data cluster returns the data.
			c := e.getComp(ti)
			if d.hasResv {
				e.sb[ti] = append(e.sb[ti], d.resv)
				c.dst, c.hasDst = d.resv, true
			}
			if e.probe != nil {
				e.probe.InstrIssued(obs.IssueEvent{
					EU: e.ID, Thread: ti, Cycle: now, Start: now, Cycles: 1,
					Op: in.Op.String(), Pipe: uint8(res.Pipe),
					Active: res.Mask.Trunc(res.Width).PopCount(), Width: res.Width,
				})
				c.issued, c.lines = now, len(res.Lines)
			}
			// Stores consume data-cluster bandwidth but retire immediately
			// from the thread's perspective (no destination to clear).
			e.outstanding[ti]++
			e.mem.RequestLines(res.Lines, now, c)
		}
	}
}

// emitQuads reports the per-cycle lane schedule of one compressed ALU
// instruction (obs.QuadEvent per execution cycle). It mirrors the cycle
// accounting of Policy.Cycles so the emitted schedule length equals the
// charged occupancy. Only called with a probe attached; allocates nothing
// except under SCC, where the crossbar schedule is materialized.
func (e *EU) emitQuads(ti int, res *ExecResult, start int64) {
	m := res.Mask.Trunc(res.Width)
	n := mask.QuadCount(res.Width, res.Group)
	idx := 0
	emit := func(lanes uint32) {
		e.probe.QuadScheduled(obs.QuadEvent{EU: e.ID, Thread: ti, Cycle: start + int64(idx), Index: idx, Lanes: lanes})
		idx++
	}
	quad := func(q int) uint32 { return uint32(m.Quad(q, res.Group)) << uint(q*res.Group) }
	switch e.Cfg.Policy {
	case compaction.SCC:
		s := compaction.ScheduleFor(m, res.Width, res.Group)
		for _, cyc := range s.Cycles {
			var lanes uint32
			for _, a := range cyc {
				if a.Enabled {
					lanes |= 1 << uint(int(a.Quad)*res.Group+int(a.SrcLane))
				}
			}
			emit(lanes)
		}
	case compaction.BCC:
		for q := 0; q < n; q++ {
			if lanes := quad(q); lanes != 0 {
				emit(lanes)
			}
		}
	case compaction.Melding:
		// Full quads issue alone; partial quads pair up with each other,
		// the pair sharing one issue slot with the melded branch twin.
		var pending uint32
		has := false
		for q := 0; q < n; q++ {
			lanes := res.Group
			if rem := res.Width - q*res.Group; rem < lanes {
				lanes = rem
			}
			qm := m.Quad(q, res.Group)
			if qm == 0 {
				continue
			}
			if qm == mask.Full(lanes) {
				emit(quad(q))
				continue
			}
			if has {
				emit(pending | quad(q))
				pending, has = 0, false
			} else {
				pending, has = quad(q), true
			}
		}
		if has {
			emit(pending) // odd partial quad out: a slot of its own
		}
	case compaction.Resize:
		// Every quad of every issued sub-warp, dead quads included; whole
		// dead sub-warps are never issued.
		eff := compaction.EffectiveSubWarp(res.Group, compaction.DefaultSubWarpWidth)
		for s := 0; s < res.Width; s += eff {
			lanes := eff
			if rem := res.Width - s; rem < lanes {
				lanes = rem
			}
			if (m>>uint(s))&mask.Full(lanes) == 0 {
				continue
			}
			q0 := s / res.Group
			for q := q0; q < q0+mask.QuadCount(lanes, res.Group); q++ {
				emit(quad(q))
			}
		}
	case compaction.IvyBridge:
		lo, hi := 0, n
		if res.Width == 16 && n >= 2 {
			// The inferred SIMD16 half-off optimization (paper §5.2).
			if m.UpperHalfOff(res.Width) {
				hi = n / 2
			} else if m.LowerHalfOff(res.Width) {
				lo = n / 2
			}
		}
		for q := lo; q < hi; q++ {
			emit(quad(q))
		}
	default:
		for q := 0; q < n; q++ {
			emit(quad(q))
		}
	}
	if idx == 0 {
		emit(0) // an empty mask still occupies one issue slot
	}
}

// sendComp is the completion record of one global-memory SEND. It
// implements memory.Done; instances are recycled through EU.compFree so
// steady-state SEND traffic allocates nothing. With a probe attached,
// issued and lines carry the request's dispatch context to the
// SendCompleted event.
type sendComp struct {
	e      *EU
	ti     int
	dst    span
	hasDst bool
	issued int64
	lines  int
}

// LinesReady implements memory.Done: it releases the load destination (if
// any), retires the outstanding request, and returns itself to the pool.
func (c *sendComp) LinesReady(ready int64) {
	if c.hasDst {
		c.e.clearSpan(c.ti, c.dst)
	}
	c.e.outstanding[c.ti]--
	c.e.needEval = true
	c.e.wakeCache = 0
	c.hasDst = false
	if c.e.probe != nil {
		c.e.probe.SendCompleted(obs.SendEvent{EU: c.e.ID, Thread: c.ti, Issued: c.issued, Completed: ready, Lines: c.lines})
	}
	c.e.compFree = append(c.e.compFree, c)
}

func (e *EU) getComp(ti int) *sendComp {
	if n := len(e.compFree); n > 0 {
		c := e.compFree[n-1]
		e.compFree[n-1] = nil
		e.compFree = e.compFree[:n-1]
		c.ti = ti
		return c
	}
	return &sendComp{e: e, ti: ti}
}

// scheduleSendWB reserves and later clears the destination of an SLM load.
func (e *EU) scheduleSendWB(ti int, d *decoded, ready int64) {
	if d.hasResv {
		e.sb[ti] = append(e.sb[ti], d.resv)
		e.addWB(wbEvent{at: ready, thread: ti, dst: d.resv, hasDst: true, flag: -1})
	}
}

// noWB is the wbMin sentinel meaning no writeback is scheduled.
const noWB = int64(^uint64(0) >> 1)

func (e *EU) addWB(ev wbEvent) {
	e.wb = append(e.wb, ev)
	if ev.at < e.wbMin {
		e.wbMin = ev.at
	}
}

func (e *EU) clearSpan(ti int, s span) {
	list := e.sb[ti]
	for i := range list {
		if list[i] == s {
			list[i] = list[len(list)-1]
			e.sb[ti] = list[:len(list)-1]
			return
		}
	}
}

func (e *EU) fireWritebacks(now int64) {
	// The earliest-due watermark skips the scan on the many cycles where
	// nothing can retire yet.
	if now < e.wbMin {
		return
	}
	min := noWB
	for i := 0; i < len(e.wb); {
		ev := e.wb[i]
		if ev.at > now {
			if ev.at < min {
				min = ev.at
			}
			i++
			continue
		}
		if ev.hasDst {
			e.clearSpan(ev.thread, ev.dst)
		}
		if ev.flag >= 0 {
			e.flagBusy[ev.thread][ev.flag]--
		}
		e.wb[i] = e.wb[len(e.wb)-1]
		e.wb = e.wb[:len(e.wb)-1]
		e.needEval = true
		e.wakeCache = 0
	}
	e.wbMin = min
}

// BeginLaunch clears per-launch statistics and absolute-time state. The
// GPU calls it at the start of every timed launch: the cycle counter
// restarts at zero per launch, so pipe/front-end deadlines from a
// previous launch would otherwise stall the new one, and the busy/stall
// counters must cover exactly one launch — multi-launch workloads merge
// per-launch runs, which double-counts anything cumulative. (Caught by
// the differential verification harness; see DESIGN.md §10.)
func (e *EU) BeginLaunch() {
	e.Busy = 0
	e.Windows = [stats.NumStallKinds]int64{}
	e.pipeFree = [2]int64{}
	e.sendFree = 0
	for i := range e.readyAt {
		e.readyAt[i] = 0
	}
	e.needEval = true
	e.wakeCache = 0
	e.lastKind = stats.WinIdle
}

// MarkDirty tells the EU that external code (the GPU's dispatch or
// barrier-release passes) mutated thread state it cannot observe, so the
// next arbitration window must be evaluated exactly.
func (e *EU) MarkDirty() {
	e.needEval = true
	e.wakeCache = 0
}

// NoWakeup is returned by NextWakeup when the EU needs no future tick:
// nothing will change until an external event (memory completion,
// dispatch, barrier release) marks it dirty.
const NoWakeup = int64(^uint64(0) >> 1)

// nextArbCycle returns the first arbitration cycle strictly after now.
func (e *EU) nextArbCycle(now int64) int64 {
	if i := int64(e.Cfg.IssueInterval); i > 1 {
		return (now/i + 1) * i
	}
	return now + 1
}

// alignArb rounds x up to the next arbitration cycle (multiple of the
// issue interval). A wakeup at a non-arbitration cycle would evaluate
// nothing, so every issue-relevant threshold must be aligned up.
func alignArb(x, interval int64) int64 {
	if interval > 1 {
		return (x + interval - 1) / interval * interval
	}
	return x
}

// NextWakeup returns the next cycle at which ticking this EU could do
// anything, assuming Tick(now) has already run and no external event
// intervenes. It is conservative: waking earlier than necessary is
// always safe (the tick degenerates to a no-op window), waking later
// would lose parity with the per-cycle engine.
//
// If state changed since the last evaluated window (needEval), the next
// arbitration cycle must be evaluated exactly. Otherwise the last
// window's outcome repeats until some absolute-time threshold passes:
// a writeback retires (wbMin — raw, because writebacks fire on every
// cycle and the termination check must see the EU go quiet at the exact
// cycle), a stalled front end refills (readyAt), or — when some thread
// is ready now — a pipe frees up. Thresholds already in the past are
// skipped: any unblocking at or before now was visible to the window
// just evaluated.
func (e *EU) NextWakeup(now int64) int64 {
	w := e.wbMin
	if e.needEval {
		if a := e.nextArbCycle(now); a < w {
			w = a
		}
		return w
	}
	if c := e.wakeCache; c > now {
		return c
	}
	i := int64(e.Cfg.IssueInterval)
	anyReady := false
	for ti, th := range e.Threads {
		if th.State != ThreadReady {
			continue
		}
		if r := e.readyAt[ti]; r > now {
			if a := alignArb(r, i); a < w {
				w = a
			}
			continue
		}
		anyReady = true
	}
	if anyReady {
		// A ready thread blocked on an execution pipe can issue in the
		// first window that starts at or after pipeFree-IssueInterval+1
		// (the pipe must accept within the window); one blocked on the
		// SEND pipe at or after sendFree.
		for _, pf := range e.pipeFree {
			if t := pf - i + 1; t > now {
				if a := alignArb(t, i); a < w {
					w = a
				}
			}
		}
		if t := e.sendFree; t > now {
			if a := alignArb(t, i); a < w {
				w = a
			}
		}
	}
	e.wakeCache = w
	return w
}

// SkipWindows accounts the arbitration windows in the open interval
// (from, to) in bulk, as the event core jumps the clock from cycle
// `from` to cycle `to`. Every skipped window repeats the outcome of the
// last evaluated window: the jump happens only when NextWakeup proves no
// state change can occur before `to`, and a no-issue window's outcome
// depends only on thread states and time thresholds that are constant
// across the span. The rotating arbiter still advances once per window.
func (e *EU) SkipWindows(from, to int64) {
	i := int64(e.Cfg.IssueInterval)
	if i < 1 {
		i = 1
	}
	firstArb := alignArb(from+1, i)
	if firstArb >= to {
		return
	}
	k := (to - 1 - firstArb) / i
	k++
	e.Windows[e.lastKind] += k
	if e.probe != nil {
		for s := firstArb; s < to; s += i {
			e.probe.Window(e.ID, s, e.lastKind)
		}
	}
	e.nextArb = int((int64(e.nextArb) + k) % int64(len(e.Threads)))
}

// Quiet reports whether the EU has no runnable work and nothing in flight:
// used by the GPU's termination check.
func (e *EU) Quiet() bool {
	for i, th := range e.Threads {
		if th.State == ThreadReady || th.State == ThreadBarrier {
			return false
		}
		if e.outstanding[i] > 0 {
			return false
		}
	}
	return len(e.wb) == 0
}

// IdleSlotsInto appends the workgroup-dispatchable thread-context
// indices to dst[:0], reusing its storage. It excludes ThreadDone
// contexts: a done thread can still belong to a live workgroup, and
// re-dispatching its slot would alias the old group's membership onto
// the new threads — the old group's barrier bookkeeping would then
// release the new group's threads before all of them arrived. The GPU
// marks contexts idle when their whole workgroup retires.
func (e *EU) IdleSlotsInto(dst []int) []int {
	dst = dst[:0]
	for i, th := range e.Threads {
		if th.State == ThreadIdle && e.outstanding[i] == 0 {
			dst = append(dst, i)
		}
	}
	return dst
}
