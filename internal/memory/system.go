package memory

// Config holds the memory-system parameters of paper Table 3.
type Config struct {
	SLMBytes   int
	SLMLatency int
	SLMBanks   int

	L3Bytes   int
	L3Ways    int
	L3Banks   int
	L3Latency int

	LLCBytes   int
	LLCWays    int
	LLCBanks   int
	LLCLatency int

	DRAMLatency       int
	DRAMIssueInterval int // min cycles between DRAM line transfers (bandwidth)

	// DCLinesPerCycle is the peak data-cluster throughput between the EUs
	// and the L3, in cache lines per cycle: 1 for the paper's DC1
	// configuration (today's GPUs), 2 for DC2 (future GPUs).
	DCLinesPerCycle int

	// PerfectL3 makes every L3 access hit (paper Fig. 12 "PL3" bars).
	PerfectL3 bool
}

// DefaultConfig returns the Table 3 configuration with DC1 bandwidth.
func DefaultConfig() Config {
	return Config{
		SLMBytes: 64 << 10, SLMLatency: 5, SLMBanks: 16,
		L3Bytes: 128 << 10, L3Ways: 64, L3Banks: 4, L3Latency: 7,
		LLCBytes: 2 << 20, LLCWays: 16, LLCBanks: 8, LLCLatency: 10,
		DRAMLatency: 200, DRAMIssueInterval: 4,
		DCLinesPerCycle: 1,
	}
}

// Stats aggregates memory-system activity for one simulation.
type Stats struct {
	LinesRequested int64 // line requests entering the data cluster
	SLMAccesses    int64
	SLMConflicts   int64 // extra serialized SLM cycles beyond the first
	DRAMLines      int64
}

// Done receives the completion of a group of line requests. Passing a
// pointer implementation avoids the per-request closure allocation a
// func-typed callback would force on the hot SEND path; DoneFunc adapts a
// plain function where allocation does not matter.
type Done interface {
	LinesReady(ready int64)
}

// DoneFunc adapts a function to the Done interface.
type DoneFunc func(ready int64)

// LinesReady implements Done.
func (f DoneFunc) LinesReady(ready int64) { f(ready) }

type lineReq struct {
	line  uint32
	group *reqGroup
}

type reqGroup struct {
	remaining int
	latest    int64
	done      Done
}

type completion struct {
	at    int64
	group *reqGroup
}

// completionHeap is a hand-rolled min-heap ordered by completion cycle.
// container/heap would box every completion into an interface on Push;
// this runs on the per-SEND path, so the heap operates on the concrete
// type directly.
type completionHeap []completion

func (h *completionHeap) push(c completion) {
	*h = append(*h, c)
	s := *h
	i := len(s) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if s[parent].at <= s[i].at {
			break
		}
		s[parent], s[i] = s[i], s[parent]
		i = parent
	}
}

func (h *completionHeap) pop() completion {
	s := *h
	top := s[0]
	n := len(s) - 1
	s[0] = s[n]
	s = s[:n]
	*h = s
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		min := i
		if l < n && s[l].at < s[min].at {
			min = l
		}
		if r < n && s[r].at < s[min].at {
			min = r
		}
		if min == i {
			break
		}
		s[i], s[min] = s[min], s[i]
		i = min
	}
	return top
}

// System is the timed global-memory path: the data-cluster queue feeding
// L3 → LLC → DRAM, plus the functional backing store.
type System struct {
	Cfg Config
	Mem *Flat
	L3  *Cache
	LLC *Cache

	// queue is the data-cluster admission queue with an explicit head
	// index: dequeuing advances qHead and the buffer is rewound when it
	// drains, so steady-state traffic reuses one backing array instead of
	// marching a reslice across ever-new allocations.
	queue    []lineReq
	qHead    int
	pending  completionHeap
	dramFree int64

	// free recycles reqGroup objects between requests so the steady-state
	// SEND path does not allocate.
	free []*reqGroup

	// lastTick is the internal data-cluster clock: the last cycle Tick has
	// fully processed. It lets Tick(now) catch up over a jumped span cycle
	// by cycle — admissions still happen at their exact internal cycles,
	// so an event-driven caller that skips idle cycles observes the same
	// queue drain as one that ticks every cycle. -1 means no cycle has
	// been processed yet (see BeginLaunch).
	lastTick int64

	Stats Stats
}

// NewSystem builds the memory system for the given configuration. It
// allocates only the first page of the backing store: Alloc grows the
// store, and each cache builds its arrays on its first access, which
// only a timed run makes.
func NewSystem(cfg Config) *System {
	s := &System{
		Cfg:      cfg,
		Mem:      NewFlat(pageBytes),
		L3:       NewCache("L3", cfg.L3Bytes, cfg.L3Ways, cfg.L3Banks, cfg.L3Latency),
		LLC:      NewCache("LLC", cfg.LLCBytes, cfg.LLCWays, cfg.LLCBanks, cfg.LLCLatency),
		lastTick: -1,
	}
	s.L3.SetPerfect(cfg.PerfectL3)
	return s
}

// BeginLaunch readies the data cluster for a launch whose cycle counter
// restarts at zero. The GPU calls it at the start of every timed run. It
// rewinds the internal tick clock: without that, Tick(0) of a second
// launch would be treated as an already-processed cycle and the data
// cluster would never admit the new launch's requests. It also drops the
// requests a launch aborted mid-run left queued or pending; a completed
// launch leaves none. Cache and DRAM bandwidth state deliberately
// persist across launches.
func (s *System) BeginLaunch() {
	s.lastTick = -1
	clear(s.queue)
	s.queue, s.qHead = s.queue[:0], 0
	clear(s.pending)
	s.pending = s.pending[:0]
}

// RequestLines enqueues a SEND's coalesced line requests into the data
// cluster. done.LinesReady is invoked (during a later Tick) with the cycle
// at which the last line's data is available. An empty request completes
// immediately on the next Tick. The lines slice is not retained — callers
// may reuse it after the call returns.
func (s *System) RequestLines(lines []uint32, now int64, done Done) {
	var g *reqGroup
	if n := len(s.free); n > 0 {
		g = s.free[n-1]
		s.free[n-1] = nil
		s.free = s.free[:n-1]
		*g = reqGroup{remaining: len(lines), latest: now, done: done}
	} else {
		g = &reqGroup{remaining: len(lines), latest: now, done: done}
	}
	if len(lines) == 0 {
		s.pending.push(completion{at: now, group: g})
		return
	}
	s.Stats.LinesRequested += int64(len(lines))
	for _, l := range lines {
		s.queue = append(s.queue, lineReq{line: l, group: g})
	}
}

// QueueLen reports the number of line requests waiting for data-cluster
// slots (testing and back-pressure hook).
func (s *System) QueueLen() int { return len(s.queue) - s.qHead }

// InFlight reports whether any request is queued or pending completion.
func (s *System) InFlight() bool { return s.QueueLen() > 0 || len(s.pending) > 0 }

// Tick advances the data cluster to cycle now, catching up over any
// cycles skipped since the previous Tick. Each elapsed cycle admits up
// to DCLinesPerCycle line requests into the cache hierarchy at that
// cycle's exact timestamp — so bank serialization and DRAM bandwidth
// behave identically whether the caller ticks every cycle or jumps —
// and completions due at or before now are fired. Calling Tick twice
// with the same cycle is a no-op the second time.
func (s *System) Tick(now int64) {
	if now <= s.lastTick {
		return
	}
	from := s.lastTick + 1
	s.lastTick = now
	// Per-cycle admission only matters while the queue is non-empty; an
	// event-driven caller guarantees (via NextEvent) that jumps never
	// span cycles where admissions would occur, so this loop runs at most
	// once per admitted line plus once for the landing cycle.
	for c := from; c <= now && s.qHead < len(s.queue); c++ {
		s.admit(c)
	}
	for len(s.pending) > 0 && s.pending[0].at <= now {
		c := s.pending.pop()
		if c.group.remaining == 0 {
			if c.group.done != nil {
				c.group.done.LinesReady(c.at)
			}
			c.group.done = nil
			s.free = append(s.free, c.group)
		}
	}
}

// admit moves up to DCLinesPerCycle line requests from the admission
// queue into the cache hierarchy at cycle c.
func (s *System) admit(c int64) {
	bw := s.Cfg.DCLinesPerCycle
	if bw < 1 {
		bw = 1
	}
	for i := 0; i < bw && s.qHead < len(s.queue); i++ {
		r := s.queue[s.qHead]
		s.queue[s.qHead] = lineReq{}
		s.qHead++
		if s.qHead == len(s.queue) {
			s.queue = s.queue[:0]
			s.qHead = 0
		}
		ready := s.lookup(r.line, c)
		if ready > r.group.latest {
			r.group.latest = ready
		}
		r.group.remaining--
		if r.group.remaining == 0 {
			s.pending.push(completion{at: r.group.latest, group: r.group})
		}
	}
}

// NoEvent is returned by NextEvent when the memory system has nothing
// scheduled.
const NoEvent = int64(^uint64(0) >> 1)

// NextEvent returns a lower bound on the next cycle at which the memory
// system could fire a completion, given that Tick(now) has already run.
// It is conservative (never later than the true next completion): an
// event-driven caller may safely jump the clock to the returned cycle.
//
// With a non-empty admission queue the earliest possible completion is
// the next admission's L3 hit: a line admitted at cycle c has
// ready >= c + L3Latency (Cache.Access never returns earlier than
// start + latency), so now+1+L3Latency bounds it. A pending completion
// fires at its scheduled cycle, clamped to now+1 because a zero-line
// request enqueued during the current cycle's EU ticks (after Tick(now)
// already ran) fires on the next Tick, exactly as in the per-cycle
// engine.
func (s *System) NextEvent(now int64) int64 {
	next := NoEvent
	if s.qHead < len(s.queue) {
		next = now + 1 + int64(s.Cfg.L3Latency)
	}
	if len(s.pending) > 0 {
		at := s.pending[0].at
		if at <= now {
			at = now + 1
		}
		if at < next {
			next = at
		}
	}
	return next
}

// lookup walks the hierarchy for one line and returns its data-ready cycle.
func (s *System) lookup(line uint32, now int64) int64 {
	hit3, r3 := s.L3.Access(line, now)
	if hit3 {
		return r3
	}
	hitL, rL := s.LLC.Access(line, r3)
	if hitL {
		s.L3.Fill(line)
		return rL
	}
	start := rL
	if s.dramFree > start {
		start = s.dramFree
	}
	s.dramFree = start + int64(s.Cfg.DRAMIssueInterval)
	ready := start + int64(s.Cfg.DRAMLatency)
	s.Stats.DRAMLines++
	s.LLC.Fill(line)
	s.L3.Fill(line)
	return ready
}

// SLMReady computes the completion cycle of an SLM access given the
// per-lane word offsets, applying bank-conflict serialization, and records
// the access in the stats.
func (s *System) SLMReady(slm *SLM, offsets []uint32, now int64) int64 {
	conflicts := slm.ConflictCycles(offsets)
	if conflicts < 1 {
		conflicts = 1
	}
	s.Stats.SLMAccesses++
	s.Stats.SLMConflicts += int64(conflicts - 1)
	return now + int64(s.Cfg.SLMLatency) + int64(conflicts-1)
}
