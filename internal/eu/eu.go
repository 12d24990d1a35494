package eu

import (
	"fmt"
	"math/bits"

	"intrawarp/internal/compaction"
	"intrawarp/internal/isa"
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

	// Probe receives instrumentation events (issues, stall windows, SEND
	// completions). Nil — the default — keeps the timed loop on its
	// zero-allocation fast path: every probe site is one untaken branch.
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

	// arb is the arbitration period (IssueInterval, at least 1), and
	// arbMask is arb-1 when arb is a power of two, else -1: alignArb
	// then rounds with a mask instead of a division.
	arb, arbMask int64

	// ready holds one bit per ThreadReady thread, so arbitration and
	// NextWakeup visit only threads that can issue. issue clears a
	// thread's bit when it parks or halts; threads made ready outside
	// the EU (dispatch, barrier release) set rescan through MarkDirty,
	// and the next arbitration window rebuilds the mask from the thread
	// states.
	ready  uint64
	rescan bool

	// last is the last cycle the EU has accounted, by a tick or by
	// SkipWindows: Tick catches up the windows between it and the ticked
	// cycle, so a caller may leave an EU that is not due untouched for
	// any number of cycles.
	last int64

	// signals collects what changed here that the GPU's dispatch and
	// barrier passes read (see TakeSignals).
	signals Signal

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
	// of EU state, so the cached value stays valid until it expires (at
	// or before the last window) or any needEval-setting event clears
	// it. This makes the GPU's due check and clock advance O(1) per
	// parked EU per landing.
	wakeCache int64

	// probe mirrors Cfg.Probe; nil disables instrumentation.
	probe obs.Probe
}

// MaxThreads is the most hardware threads an EU holds: one bit each of
// the ready mask.
const MaxThreads = 64

// New creates an EU with idle threads attached to the given memory
// system. It panics when cfg asks for more than MaxThreads threads.
func New(id int, cfg Config, mem *memory.System) *EU {
	if cfg.ThreadsPerEU > MaxThreads {
		panic(fmt.Sprintf("eu: %d threads per EU, at most %d", cfg.ThreadsPerEU, MaxThreads))
	}
	e := &EU{ID: id, Cfg: cfg, mem: mem, wbMin: noWB, needEval: true, rescan: true, last: -1, probe: cfg.Probe}
	e.arb, e.arbMask = max(int64(cfg.IssueInterval), 1), -1
	if e.arb&(e.arb-1) == 0 {
		e.arbMask = e.arb - 1
	}
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

// Tick advances the EU to cycle now: it accounts the arbitration windows
// skipped since the last accounted cycle, fires due writebacks, then (on
// arbitration cycles) issues up to IssueWidth instructions from distinct
// ready threads.
func (e *EU) Tick(now int64) {
	if now > e.last+1 {
		e.SkipWindows(now)
	}
	e.last = now
	e.fireWritebacks(now)

	if e.alignArb(now) != now {
		return
	}
	if e.rescan {
		e.scanReady()
	}
	n := len(e.Threads)
	issued := 0
	sawFrontend, sawMemory, sawScoreboard, sawPipe := false, false, false, false
	// Rotating priority: each pass starts one thread further on. Rotating
	// the ready mask right by nextArb puts that thread at bit 0, so the
	// ready threads come out in the same order a scan of every slot
	// would visit them.
	r := uint(e.nextArb)
	rot := (e.ready>>r | e.ready<<(uint(n)-r)) & (1<<uint(n) - 1)
	for ; rot != 0 && issued < e.Cfg.IssueWidth; rot &= rot - 1 {
		ti := e.nextArb + bits.TrailingZeros64(rot)
		if ti >= n {
			ti -= n
		}
		th := e.Threads[ti]
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
	if e.nextArb++; e.nextArb == n {
		e.nextArb = 0
	}
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
	if th.State != ThreadReady {
		// Parked at a barrier or halted: only the GPU can change the
		// thread's workgroup state now.
		e.ready &^= 1 << uint(ti)
		e.signals |= SignalParked
	} else if e.Cfg.JumpPenalty > 0 && th.IP != ipBefore+1 {
		// Non-sequential fetch: the thread's instruction queue refills.
		e.readyAt[ti] = now + int64(e.Cfg.JumpPenalty)
	}

	// The issue event's pipe occupancy: one cycle from now unless the
	// pipe's branch below sets it.
	start, cycles := now, int64(1)
	switch res.Pipe {
	case isa.PipeFPU, isa.PipeEM:
		cycles = int64(e.Cfg.Policy.Cycles(res.Mask, res.Width, res.Group))
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
				th.Stats.CrossbarOps += int64(compaction.SwizzleCount(res.Mask, res.Width, res.Group) * ops)
			}
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
		case res.Instr.Send.IsSLM() || (res.Instr.Send == isa.SendNone && res.Instr.Op == isa.OpFence):
			ready := now + 1
			if len(res.SLMOffsets) > 0 {
				ready = e.mem.SLMReady(th.SLM, res.SLMOffsets, now)
			}
			cycles = ready - now
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
				c.issued, c.lines = now, len(res.Lines)
			}
			// Stores consume data-cluster bandwidth but retire immediately
			// from the thread's perspective (no destination to clear).
			e.outstanding[ti]++
			e.mem.RequestLines(res.Lines, now, c)
		}
	}
	if e.probe != nil {
		e.probe.InstrIssued(obs.IssueEvent{
			EU: e.ID, Thread: ti, Cycle: now, Start: start, Cycles: cycles,
			Op: in.Op.String(), Pipe: uint8(res.Pipe),
			Active: res.Mask.Trunc(res.Width).PopCount(), Width: res.Width,
		})
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
	if c.e.outstanding[c.ti] == 0 && c.e.Threads[c.ti].State == ThreadIdle {
		c.e.signals |= SignalSlotFreed
	}
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
// the differential verification harness; see DESIGN.md §10.) It also
// drops what a launch aborted mid-run leaves behind: scoreboard
// reservations, flag writers, scheduled writebacks and outstanding
// memory requests. A completed launch leaves all of these empty.
func (e *EU) BeginLaunch() {
	e.Busy = 0
	e.Windows = [stats.NumStallKinds]int64{}
	e.pipeFree = [2]int64{}
	e.sendFree = 0
	for i := range e.Threads {
		e.readyAt[i] = 0
		e.sb[i] = e.sb[i][:0]
		e.flagBusy[i] = [2]int{}
		e.outstanding[i] = 0
	}
	e.wb = e.wb[:0]
	e.wbMin = noWB
	e.needEval = true
	e.wakeCache = 0
	e.lastKind = stats.WinIdle
	e.rescan = true
	e.last = -1
	e.signals = 0
}

// MarkDirty tells the EU that external code (the GPU's dispatch or
// barrier-release passes, or a test installing threads) mutated thread
// state it cannot observe: the next arbitration window is evaluated
// exactly, and first rebuilds the ready mask from the thread states.
func (e *EU) MarkDirty() {
	e.needEval = true
	e.wakeCache = 0
	e.rescan = true
}

// scanReady rebuilds the ready mask from the thread states.
func (e *EU) scanReady() {
	e.ready = 0
	for i, th := range e.Threads {
		if th.State == ThreadReady {
			e.ready |= 1 << uint(i)
		}
	}
	e.rescan = false
}

// Signal is a set of changes an EU reports to the GPU, whose dispatch
// and barrier passes rescan only after one (see TakeSignals).
type Signal uint8

const (
	// SignalParked: a thread parked at a barrier or halted, so its
	// workgroup may now release its barrier or retire.
	SignalParked Signal = 1 << iota
	// SignalSlotFreed: a memory completion left an idle thread slot with
	// nothing outstanding, so a workgroup may now fit on the EU.
	SignalSlotFreed
)

// TakeSignals returns the signals raised since the last call and clears
// them.
func (e *EU) TakeSignals() Signal {
	s := e.signals
	e.signals = 0
	return s
}

// NoWakeup is returned by NextWakeup when the EU needs no future tick:
// nothing will change until an external event (memory completion,
// dispatch, barrier release) marks it dirty.
const NoWakeup = int64(^uint64(0) >> 1)

// nextArbCycle returns the first arbitration cycle strictly after now.
func (e *EU) nextArbCycle(now int64) int64 { return e.alignArb(now + 1) }

// alignArb rounds x ≥ 0 up to the next arbitration cycle (multiple of
// the issue interval). A wakeup at a non-arbitration cycle would
// evaluate nothing, so every issue-relevant threshold must be aligned up.
func (e *EU) alignArb(x int64) int64 {
	if m := e.arbMask; m >= 0 {
		return (x + m) &^ m
	}
	return (x + e.arb - 1) / e.arb * e.arb
}

// NextWakeup returns the next cycle at which ticking this EU could do
// anything, given its last accounted cycle and no external event in
// between. Before that cycle the EU is not due: a tick would only
// repeat its last window's outcome, so the EU may be left untouched and
// its next Tick accounts the windows it skipped. It is conservative:
// waking earlier than necessary is always safe (the tick degenerates to
// a no-op window), waking later would lose parity with the per-cycle
// engine. The answer can lie at or before the current cycle when an
// external event (MarkDirty) came after the EU's last tick: the EU is
// then due at once.
//
// If state changed since the last evaluated window (needEval), the next
// arbitration cycle must be evaluated exactly. Otherwise the last
// window's outcome repeats until some absolute-time threshold passes:
// a writeback retires (wbMin — raw, because writebacks fire on every
// cycle and the termination check must see the EU go quiet at the exact
// cycle), a stalled front end refills (readyAt), or — when some thread
// is ready now — a pipe frees up. Thresholds at or before the last
// arbitration cycle are skipped: that window saw them.
func (e *EU) NextWakeup() int64 {
	w := e.wbMin
	next := e.nextArbCycle(e.last)
	if e.needEval {
		return min(w, next)
	}
	// The last window: the tick at e.last evaluated or repeated it.
	from := next - e.arb
	if c := e.wakeCache; c > from {
		return c
	}
	anyReady := false
	for m := e.ready; m != 0; m &= m - 1 {
		ti := bits.TrailingZeros64(m)
		if r := e.readyAt[ti]; r > from {
			w = min(w, e.alignArb(r))
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
			if t := pf - int64(e.Cfg.IssueInterval) + 1; t > from {
				w = min(w, e.alignArb(t))
			}
		}
		if t := e.sendFree; t > from {
			w = min(w, e.alignArb(t))
		}
	}
	e.wakeCache = w
	return w
}

// SkipWindows accounts in bulk the arbitration windows after the EU's
// last accounted cycle and before cycle to, and makes to-1 the last
// accounted cycle. Tick calls it to catch up the cycles the EU was left
// untouched, and the GPU at launch end. Every skipped window repeats
// the outcome of the last evaluated window: an EU is left untouched
// only while it is not due, and a no-issue window's outcome depends
// only on thread states and time thresholds that are constant until
// then. The rotating arbiter still advances once per window.
func (e *EU) SkipWindows(to int64) {
	from := e.last
	if to-1 > e.last {
		e.last = to - 1
	}
	firstArb := e.nextArbCycle(from)
	if firstArb >= to {
		return
	}
	k := (to-1-firstArb)/e.arb + 1
	e.Windows[e.lastKind] += k
	if e.probe != nil {
		for s := firstArb; s < to; s += e.arb {
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
