package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"sync"

	"intrawarp/internal/stats"
)

// effWindowCycles is the bucket width of the SIMD-efficiency counter
// track: enabled/available lanes are accumulated per bucket and emitted
// as one counter sample at the bucket's start cycle.
const effWindowCycles = 64

// Track slot offsets within one EU's tid block (see euTID).
const (
	trackFPU   = 0
	trackEM    = 1
	trackMem   = 2
	trackStall = 3
	trackPerEU = 4
)

// Reserved tids above the EU blocks.
const (
	tidWorkgroups = 1 << 20
	tidCounters   = 1<<20 + 1
)

// euTID maps an EU and track slot to a stable Chrome-trace thread id.
func euTID(eu, slot int) int { return eu*trackPerEU + slot }

// tev is one Chrome-trace event (the JSON object Perfetto and
// chrome://tracing consume). Slices are ph "X" (ts+dur), counters ph
// "C", instants ph "i", async spans ph "b"/"e", metadata ph "M".
type tev struct {
	Name  string `json:"name"`
	Cat   string `json:"cat,omitempty"`
	Ph    string `json:"ph"`
	TS    int64  `json:"ts"`
	Dur   int64  `json:"dur,omitempty"`
	PID   int    `json:"pid"`
	TID   int    `json:"tid"`
	ID    int    `json:"id,omitempty"`
	Scope string `json:"s,omitempty"`
	Args  any    `json:"args,omitempty"`
}

// Timeline records probe events from one or more engine runs into a
// Chrome-trace/Perfetto JSON document: one process per run (workload ×
// policy), one track per EU pipe, slices for issue/stall/memory
// intervals, and counter tracks for SIMD efficiency and workgroup
// occupancy. Open the output at https://ui.perfetto.dev or
// chrome://tracing (see docs/observability.md).
//
// A Timeline is safe for concurrent use: each Run hands out an
// independent recorder, and recorders lock themselves, so sweep cells
// running on a worker pool can all feed one Timeline.
type Timeline struct {
	mu      sync.Mutex
	runs    []*TimelineRun
	nextPID int
}

// NewTimeline creates an empty timeline.
func NewTimeline() *Timeline { return &Timeline{nextPID: 1} }

// Run opens one recorded engine run under the given display label and
// returns its Probe. Attach the result to exactly one engine (multiple
// sequential launches on that engine concatenate onto one time axis).
func (t *Timeline) Run(label string) *TimelineRun {
	t.mu.Lock()
	defer t.mu.Unlock()
	r := &TimelineRun{
		tl:    t,
		pid:   t.nextPID,
		label: label,
		eff:   map[int64][2]int64{},
	}
	t.nextPID++
	t.runs = append(t.runs, r)
	return r
}

// stallState merges consecutive arbitration windows of one outcome into
// a single slice per EU.
type stallState struct {
	kind    stats.StallKind
	start   int64
	last    int64
	windows int64
	open    bool
}

// TimelineRun records one engine run's events. It implements Probe.
type TimelineRun struct {
	tl    *Timeline
	pid   int
	label string

	mu        sync.Mutex
	events    []tev
	meta      LaunchEvent
	launches  int
	cycleBase int64
	lastCycle int64

	stalls []stallState // indexed by EU
	eus    map[int]bool // EUs whose track metadata has been emitted

	eff       map[int64][2]int64 // efficiency bucket → {active, total}
	occupancy int
	sendID    int
}

var _ Probe = (*TimelineRun)(nil)

// push appends one event (caller holds r.mu).
func (r *TimelineRun) push(e tev) {
	e.PID = r.pid
	r.events = append(r.events, e)
}

// euTracks lazily emits thread-name metadata for an EU's track block
// (caller holds r.mu).
func (r *TimelineRun) euTracks(eu int) {
	if r.eus == nil {
		r.eus = map[int]bool{}
	}
	if r.eus[eu] {
		return
	}
	r.eus[eu] = true
	names := [trackPerEU]string{"fpu", "em", "mem", "stall"}
	for slot, n := range names {
		r.push(tev{Name: "thread_name", Ph: "M", TID: euTID(eu, slot),
			Args: map[string]string{"name": fmt.Sprintf("EU%d %s", eu, n)}})
	}
}

// LaunchBegin implements Probe.
func (r *TimelineRun) LaunchBegin(e LaunchEvent) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.launches == 0 {
		r.meta = e
		name := r.label
		if name == "" {
			name = fmt.Sprintf("%s/%s/%s", e.Engine, e.Kernel, e.Policy)
		}
		r.push(tev{Name: "process_name", Ph: "M",
			Args: map[string]string{"name": name}})
		r.push(tev{Name: "thread_name", Ph: "M", TID: tidWorkgroups,
			Args: map[string]string{"name": "workgroups"}})
	}
	r.launches++
	r.push(tev{Name: fmt.Sprintf("launch %d: %s (%s, SIMD%d)", r.launches, e.Kernel, e.Engine, e.Width),
		Ph: "i", Scope: "p", TS: r.cycleBase, TID: tidWorkgroups})
}

// LaunchEnd implements Probe.
func (r *TimelineRun) LaunchEnd(cycles int64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for eu := range r.stalls {
		r.flushStall(eu)
	}
	r.flushEfficiency()
	r.cycleBase += cycles
	if cycles == 0 { // cycle-less engine: keep launches apart by index
		r.cycleBase = r.lastCycle + 1
	}
}

// InstrIssued implements Probe.
func (r *TimelineRun) InstrIssued(e IssueEvent) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.euTracks(e.EU)
	slot := trackFPU
	switch e.Pipe {
	case 1:
		slot = trackEM
	case 2:
		slot = trackMem
	}
	dur := e.Cycles
	if dur < 1 {
		dur = 1
	}
	ts := r.cycleBase + e.Start
	if ts > r.lastCycle {
		r.lastCycle = ts
	}
	r.push(tev{Name: e.Op, Ph: "X", TS: ts, Dur: dur, TID: euTID(e.EU, slot),
		Args: issueArgs{Thread: e.Thread, Active: e.Active, Width: e.Width}})
	if e.Width > 0 {
		b := (r.cycleBase + e.Cycle) / effWindowCycles
		acc := r.eff[b]
		acc[0] += int64(e.Active)
		acc[1] += int64(e.Width)
		r.eff[b] = acc
	}
}

type issueArgs struct {
	Thread int `json:"thread"`
	Active int `json:"active"`
	Width  int `json:"width"`
}

// SendCompleted implements Probe: each SEND becomes an async span from
// issue to data return on the EU's mem track (async spans tolerate the
// overlap of multiple in-flight SENDs).
func (r *TimelineRun) SendCompleted(e SendEvent) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.euTracks(e.EU)
	r.sendID++
	id := r.sendID
	tid := euTID(e.EU, trackMem)
	end := r.cycleBase + e.Completed
	if end > r.lastCycle {
		r.lastCycle = end
	}
	r.push(tev{Name: "send", Cat: "mem", Ph: "b", TS: r.cycleBase + e.Issued, TID: tid, ID: id,
		Args: sendArgs{Thread: e.Thread, Lines: e.Lines}})
	r.push(tev{Name: "send", Cat: "mem", Ph: "e", TS: end, TID: tid, ID: id})
}

type sendArgs struct {
	Thread int `json:"thread"`
	Lines  int `json:"lines"`
}

// Window implements Probe: consecutive windows of one outcome merge
// into a single stall slice; issued windows close any open stall.
func (r *TimelineRun) Window(eu int, cycle int64, kind stats.StallKind) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for eu >= len(r.stalls) {
		r.stalls = append(r.stalls, stallState{})
	}
	s := &r.stalls[eu]
	if s.open && s.kind == kind {
		s.last = cycle
		s.windows++
		return
	}
	r.flushStall(eu)
	if kind == stats.WinIssued {
		return
	}
	*s = stallState{kind: kind, start: cycle, last: cycle, windows: 1, open: true}
}

// flushStall emits the open stall slice of one EU (caller holds r.mu).
func (r *TimelineRun) flushStall(eu int) {
	s := &r.stalls[eu]
	if !s.open {
		return
	}
	r.euTracks(eu)
	dur := s.last - s.start + 1
	ts := r.cycleBase + s.start
	if end := ts + dur; end > r.lastCycle {
		r.lastCycle = end
	}
	r.push(tev{Name: s.kind.String(), Cat: "stall", Ph: "X", TS: ts, Dur: dur,
		TID: euTID(eu, trackStall), Args: stallArgs{Windows: s.windows}})
	s.open = false
}

type stallArgs struct {
	Windows int64 `json:"windows"`
}

// flushEfficiency emits the SIMD-efficiency counter samples accumulated
// since the last flush (caller holds r.mu).
func (r *TimelineRun) flushEfficiency() {
	if len(r.eff) == 0 {
		return
	}
	buckets := make([]int64, 0, len(r.eff))
	for b := range r.eff {
		buckets = append(buckets, b)
	}
	sort.Slice(buckets, func(i, j int) bool { return buckets[i] < buckets[j] })
	for _, b := range buckets {
		acc := r.eff[b]
		if acc[1] == 0 {
			continue
		}
		r.push(tev{Name: "SIMD efficiency", Ph: "C", TS: b * effWindowCycles, TID: tidCounters,
			Args: map[string]float64{"efficiency": float64(acc[0]) / float64(acc[1])}})
	}
	r.eff = map[int64][2]int64{}
}

// WorkgroupDispatched implements Probe.
func (r *TimelineRun) WorkgroupDispatched(e WGEvent) {
	r.mu.Lock()
	defer r.mu.Unlock()
	ts := r.cycleBase + e.Cycle
	r.occupancy++
	r.push(tev{Name: fmt.Sprintf("wg %d → EU%d", e.WG, e.EU), Ph: "i", Scope: "t",
		TS: ts, TID: tidWorkgroups, Args: wgArgs{Threads: e.Threads}})
	r.push(tev{Name: "occupancy", Ph: "C", TS: ts, TID: tidCounters,
		Args: map[string]int{"workgroups": r.occupancy}})
}

type wgArgs struct {
	Threads int `json:"threads"`
}

// WorkgroupRetired implements Probe.
func (r *TimelineRun) WorkgroupRetired(wg int, cycle int64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	ts := r.cycleBase + cycle
	r.occupancy--
	r.push(tev{Name: fmt.Sprintf("wg %d retired", wg), Ph: "i", Scope: "t",
		TS: ts, TID: tidWorkgroups})
	r.push(tev{Name: "occupancy", Ph: "C", TS: ts, TID: tidCounters,
		Args: map[string]int{"workgroups": r.occupancy}})
}

// traceDoc is the Chrome-trace JSON envelope.
type traceDoc struct {
	TraceEvents     []tev  `json:"traceEvents"`
	DisplayTimeUnit string `json:"displayTimeUnit"`
}

// snapshot collects every run's events, ordered for well-formedness:
// metadata first, then by (pid, tid, ts) so each track's slice stream
// has monotonically non-decreasing timestamps.
func (t *Timeline) snapshot() []tev {
	t.mu.Lock()
	defer t.mu.Unlock()
	var all []tev
	for _, r := range t.runs {
		r.mu.Lock()
		for eu := range r.stalls {
			r.flushStall(eu)
		}
		r.flushEfficiency()
		all = append(all, r.events...)
		r.mu.Unlock()
	}
	sort.SliceStable(all, func(i, j int) bool {
		a, b := all[i], all[j]
		am, bm := a.Ph == "M", b.Ph == "M"
		if am != bm {
			return am
		}
		if a.PID != b.PID {
			return a.PID < b.PID
		}
		if a.TID != b.TID {
			return a.TID < b.TID
		}
		return a.TS < b.TS
	})
	return all
}

// WriteJSON renders the timeline as Chrome-trace JSON. The document
// loads in Perfetto and chrome://tracing; timestamps are simulated
// cycles presented as microseconds (the trace format's native unit).
func (t *Timeline) WriteJSON(w io.Writer) error {
	events := t.snapshot()
	if events == nil {
		events = []tev{}
	}
	enc := json.NewEncoder(w)
	return enc.Encode(traceDoc{TraceEvents: events, DisplayTimeUnit: "ms"})
}

// JSON returns the rendered timeline document.
func (t *Timeline) JSON() ([]byte, error) {
	var buf bytes.Buffer
	if err := t.WriteJSON(&buf); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}
