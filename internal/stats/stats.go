// Package stats collects the measurements the paper's evaluation reports:
// SIMD efficiency (Fig. 3), active-lane utilization breakdowns (Fig. 9),
// what-if EU-cycle totals per compaction policy (Fig. 10, Table 2, Table
// 4), and timed-run quantities — total cycles, EU busy cycles, and
// data-cluster throughput (Figs. 11, 12).
package stats

import (
	"fmt"
	"math/bits"
	"sort"
	"strings"

	"intrawarp/internal/compaction"
	"intrawarp/internal/mask"
	"intrawarp/internal/memory"
)

// Quartiles is the number of active-lane buckets per SIMD width in the
// utilization breakdown (paper Fig. 9 uses quarters: 1–4, 5–8, 9–12,
// 13–16 of 16).
const Quartiles = 4

// WidthHist is the active-lane histogram for one SIMD width.
type WidthHist struct {
	Width   int
	Buckets [Quartiles]int64 // bucket q counts instructions with active lanes in (q*W/4, (q+1)*W/4]
	Empty   int64            // instructions issued with an all-zero mask
}

// Total returns the number of recorded instructions for this width.
func (h *WidthHist) Total() int64 {
	t := h.Empty
	for _, b := range h.Buckets {
		t += b
	}
	return t
}

// Run accumulates statistics for one kernel execution (or one trace).
type Run struct {
	Name  string
	Width int // kernel's dominant SIMD width

	Instructions int64 // dynamically executed instructions
	ActiveLanes  int64 // sum of execution-mask popcounts
	TotalLanes   int64 // sum of instruction widths

	// PolicyCycles is the what-if sum of execution-pipe cycles per
	// compaction policy, accumulated per instruction from its final
	// execution mask. A single functional run yields all seven totals.
	PolicyCycles [compaction.NumPolicies]int64

	// Hist maps SIMD width to its utilization histogram.
	Hist map[int]*WidthHist

	// Timed-run quantities (valid after a timed simulation).
	TimedPolicy compaction.Policy
	TotalCycles int64 // wall-clock cycles from launch to last thread retire
	EUBusy      int64 // execution-pipe occupancy cycles actually spent

	// Memory behaviour.
	Sends     int64 // SEND instructions to global memory
	SendLines int64 // coalesced line requests (memory divergence numerator)
	Mem       memory.Stats
	L3HitRate float64

	// OperandFetchesSaved counts quad operand fetches suppressed by the
	// timed policy (the paper's BCC energy-saving proxy, §4.3).
	OperandFetchesSaved int64

	// Dynamic-energy proxies (arbitrary units) accumulated by the timed
	// model, quantifying the paper's qualitative §4.3 discussion:
	// LaneCycles counts ALU lane slots clocked (execution cycles × lanes
	// per cycle), QuadFetches counts 128-bit GRF operand accesses
	// actually performed, and CrossbarOps counts operands routed through
	// the SCC swizzle crossbars.
	LaneCycles  int64
	QuadFetches int64
	CrossbarOps int64

	// Barriers counts workgroup barrier instructions executed.
	Barriers int64

	// Stall attribution: per arbitration window across all EUs of the
	// timed run, why nothing issued (or that something did). Indexed by
	// StallKind.
	Windows [NumStallKinds]int64

	// pending counts recorded instructions by signature (width, group,
	// truncated mask) until Flush costs each distinct one. held is the
	// signature of the latest run of identical RecordInstr calls and
	// heldN its length, not yet added to pending: consecutive repeats,
	// most calls on real kernels, count without a table access.
	pending sigTable
	held    uint64
	heldN   int64

	// guard asserts single-writer ownership of the accumulator when the
	// `statsguard` build tag is set; it compiles to nothing otherwise.
	// Shards of a parallel run are each owned by exactly one goroutine
	// until merged.
	guard writerGuard
}

// StallKind classifies an EU arbitration window of a timed run.
type StallKind int

// Arbitration window outcomes.
const (
	WinIssued     StallKind = iota // at least one instruction issued
	WinIdle                        // no resident thread had work (or all at barrier)
	WinMemory                      // ready thread blocked on an outstanding memory load
	WinScoreboard                  // ready thread blocked on an in-flight ALU result
	WinPipe                        // ready thread blocked on execution-pipe occupancy
	WinFrontend                    // ready thread refilling its instruction queue
	NumStallKinds
)

// String names the stall kind.
func (k StallKind) String() string {
	switch k {
	case WinIssued:
		return "issued"
	case WinIdle:
		return "idle"
	case WinMemory:
		return "memory"
	case WinScoreboard:
		return "scoreboard"
	case WinPipe:
		return "pipe"
	case WinFrontend:
		return "frontend"
	}
	return "unknown"
}

// WindowShare returns the fraction of arbitration windows with the given
// outcome.
func (r *Run) WindowShare(k StallKind) float64 {
	var tot int64
	for _, v := range r.Windows {
		tot += v
	}
	if tot == 0 {
		return 0
	}
	return float64(r.Windows[k]) / float64(tot)
}

// Energy-proxy weights: a 128-bit register-file access costs about twice
// an ALU lane-cycle; a crossbar traversal is a small fraction of one.
const (
	EnergyWeightLaneCycle = 1.0
	EnergyWeightFetch     = 2.0
	EnergyWeightCrossbar  = 0.2
)

// EnergyProxy returns the weighted dynamic-energy estimate of the timed
// run in arbitrary units.
func (r *Run) EnergyProxy() float64 {
	return EnergyWeightLaneCycle*float64(r.LaneCycles) +
		EnergyWeightFetch*float64(r.QuadFetches) +
		EnergyWeightCrossbar*float64(r.CrossbarOps)
}

// NewRun creates an empty statistics accumulator.
func NewRun(name string, width int) *Run {
	return &Run{Name: name, Width: width, Hist: make(map[int]*WidthHist)}
}

// MaxPending is the number of distinct signatures a Run counts before it
// costs them. No captured workload trace comes near it (the largest
// launch group has under 2,000), so an engine run is costed once, at
// Flush; a trace of arbitrary SIMD32 masks still accumulates in bounded
// memory.
const MaxPending = 1 << 12

// RecordInstr accounts one executed instruction with the given width,
// element group size, and final execution mask. It only counts the
// instruction's signature; Flush derives the efficiency counters, the
// utilization histogram, and the per-policy cycle totals from the counts.
func (r *Run) RecordInstr(width, group int, m mask.Mask) {
	r.guard.assertOwner()
	sig := uint64(uint16(width))<<48 | uint64(uint16(group))<<32 | uint64(m.Trunc(width))
	if sig == r.held && r.heldN > 0 {
		r.heldN++
		return
	}
	r.fold()
	r.held, r.heldN = sig, 1
}

// fold adds the held repeat count into the signature table. A table
// that reaches MaxPending distinct signatures is costed and emptied.
func (r *Run) fold() {
	if r.heldN == 0 {
		return
	}
	r.pending.add(r.held, r.heldN)
	r.held, r.heldN = 0, 0
	if r.pending.used >= MaxPending {
		// Keep the grown table: a stream this varied is likely to refill it.
		r.cost()
		r.pending.reset()
	}
}

// Flush costs every pending signature once and adds its count times the
// result into Instructions, ActiveLanes, TotalLanes, Hist and
// PolicyCycles, then drops the signature table and the held count, so
// a flushed run holds no accounting state. Every function that hands a
// Run to its caller flushes it first; Flush on a run with nothing
// pending does nothing.
func (r *Run) Flush() {
	if r.pending.slots == nil && r.heldN == 0 {
		return
	}
	r.guard.assertOwner()
	r.fold()
	r.cost()
	r.pending = sigTable{}
}

// sigTable counts instructions by signature in open addressing: a
// power-of-two slice of slots, each signature's probe starting at the
// top bits of its multiplicative hash and stepping linearly, the slice
// doubled rather than let signatures fill more than half of it. A slot
// with a zero count is empty; every stored count is at least one. The
// zero value is an empty table.
type sigTable struct {
	slots []sigSlot
	used  int  // slots holding a signature
	shift uint // 64 - log2(len(slots))
}

type sigSlot struct {
	sig uint64
	n   int64
}

const (
	// sigHash is the multiplier of the slot hash: 2^64 divided by the
	// golden ratio, which spreads the packed signatures' low mask bits
	// into the top bits the index takes.
	sigHash = 0x9E3779B97F4A7C15
	// minSigSlots is the first table's size. A table holds a few dozen
	// signatures on average (25 per flush over plain functional runs,
	// 80 over sweep groups), so a small first table costs a short run
	// little and grows two or three times for an average one.
	minSigSlots = 16
)

// add adds n (at least one) to sig's count. A new signature that would
// fill more than half the table doubles it first, so a table holding
// MaxPending signatures has 2×MaxPending slots.
func (t *sigTable) add(sig uint64, n int64) {
	if t.slots == nil {
		t.grow()
	}
	s := t.slot(sig)
	if s.n == 0 {
		if 2*(t.used+1) > len(t.slots) {
			t.grow()
			s = t.slot(sig)
		}
		s.sig = sig
		t.used++
	}
	s.n += n
}

// slot returns the slot holding sig, or the empty slot where sig goes.
// The table always has an empty slot, so the probe ends.
func (t *sigTable) slot(sig uint64) *sigSlot {
	last := len(t.slots) - 1
	for i := int(sig * sigHash >> t.shift); ; i = (i + 1) & last {
		if s := &t.slots[i]; s.n == 0 || s.sig == sig {
			return s
		}
	}
}

// grow doubles the table, or makes the first one, and moves every
// signature to its slot in the new one.
func (t *sigTable) grow() {
	old := t.slots
	t.slots = make([]sigSlot, max(2*len(old), minSigSlots))
	t.shift = uint(64 - bits.TrailingZeros(uint(len(t.slots))))
	for _, s := range old {
		if s.n != 0 {
			*t.slot(s.sig) = s
		}
	}
}

// reset empties the table and keeps its slots.
func (t *sigTable) reset() {
	clear(t.slots)
	t.used = 0
}

// cost folds the pending signature counts into the exported counters.
func (r *Run) cost() {
	for _, s := range r.pending.slots {
		if s.n == 0 {
			continue
		}
		sig, n := s.sig, s.n
		width, group, m := int(sig>>48), int(uint16(sig>>32)), mask.Mask(sig)
		pop := m.PopCount()
		r.Instructions += n
		r.ActiveLanes += n * int64(pop)
		r.TotalLanes += n * int64(width)

		h := r.Hist[width]
		if h == nil {
			h = &WidthHist{Width: width}
			r.Hist[width] = h
		}
		if pop == 0 {
			h.Empty += n
		} else {
			q := (pop*Quartiles - 1) / width // 0..3
			if q >= Quartiles {
				q = Quartiles - 1
			}
			h.Buckets[q] += n
		}

		costs := compaction.CostAll(m, width, group)
		for p := range r.PolicyCycles {
			r.PolicyCycles[p] += n * int64(costs[p])
		}
	}
}

// MaskCountsEqual reports whether two flushed runs accumulated identical
// mask-derived statistics: instruction and lane counts, every policy's
// cycle total, and the full utilization histogram. The sweep engine
// asserts it once per group, between one replay of the captured trace
// and the execution that captured it; memory-side and timed quantities
// are deliberately excluded, since a mask trace cannot re-derive them.
func (r *Run) MaskCountsEqual(o *Run) bool {
	if r.Instructions != o.Instructions || r.ActiveLanes != o.ActiveLanes || r.TotalLanes != o.TotalLanes {
		return false
	}
	if r.PolicyCycles != o.PolicyCycles {
		return false
	}
	if len(r.Hist) != len(o.Hist) {
		return false
	}
	for w, h := range r.Hist {
		oh := o.Hist[w]
		if oh == nil || h.Empty != oh.Empty || h.Buckets != oh.Buckets {
			return false
		}
	}
	return true
}

// RecordSend accounts one global-memory SEND with its coalesced line count.
func (r *Run) RecordSend(lines int) {
	r.guard.assertOwner()
	r.Sends++
	r.SendLines += int64(lines)
}

// SIMDEfficiency returns enabled lanes / available lanes over the run
// (paper Fig. 3). 1.0 means fully coherent.
func (r *Run) SIMDEfficiency() float64 {
	if r.TotalLanes == 0 {
		return 1
	}
	return float64(r.ActiveLanes) / float64(r.TotalLanes)
}

// CoherenceThreshold is the SIMD-efficiency cut between coherent and
// divergent applications (paper §3, §5.3: 95%).
const CoherenceThreshold = 0.95

// Divergent reports whether the run is classified as a divergent
// application.
func (r *Run) Divergent() bool { return r.SIMDEfficiency() < CoherenceThreshold }

// EUCycleReduction returns the fractional EU-cycle reduction of policy p
// relative to the IvyBridge baseline — the paper reports all BCC/SCC
// benefits over and above the existing Ivy Bridge optimization (§5.2).
func (r *Run) EUCycleReduction(p compaction.Policy) float64 {
	return compaction.Reduction(r.PolicyCycles[compaction.IvyBridge], r.PolicyCycles[p])
}

// LinesPerSend returns the average memory divergence: distinct cache lines
// per global SEND.
func (r *Run) LinesPerSend() float64 {
	if r.Sends == 0 {
		return 0
	}
	return float64(r.SendLines) / float64(r.Sends)
}

// DCDemand returns the data-cluster throughput demand in lines per cycle
// over the timed run (paper Fig. 11 secondary axis).
func (r *Run) DCDemand() float64 {
	if r.TotalCycles == 0 {
		return 0
	}
	return float64(r.Mem.LinesRequested) / float64(r.TotalCycles)
}

// Merge flushes other and adds every additive counter of it into r —
// instruction-level counters, energy proxies, stall windows, and the
// timed-run totals (TotalCycles, EUBusy). It is the reduction step of
// the parallel engine: because every field is an integer sum, merging
// per-worker shards in any order is bit-identical to a serial
// accumulation regardless of how workgroups were scheduled. Non-additive
// fields (Name, Width, TimedPolicy, Mem, L3HitRate) are left untouched;
// callers set them on the destination.
func (r *Run) Merge(other *Run) {
	r.guard.assertOwner()
	other.Flush()
	r.Instructions += other.Instructions
	r.ActiveLanes += other.ActiveLanes
	r.TotalLanes += other.TotalLanes
	for p := range r.PolicyCycles {
		r.PolicyCycles[p] += other.PolicyCycles[p]
	}
	for w, h := range other.Hist {
		dst := r.Hist[w]
		if dst == nil {
			dst = &WidthHist{Width: w}
			r.Hist[w] = dst
		}
		dst.Empty += h.Empty
		for i := range h.Buckets {
			dst.Buckets[i] += h.Buckets[i]
		}
	}
	r.Sends += other.Sends
	r.SendLines += other.SendLines
	r.Barriers += other.Barriers
	r.OperandFetchesSaved += other.OperandFetchesSaved
	r.LaneCycles += other.LaneCycles
	r.QuadFetches += other.QuadFetches
	r.CrossbarOps += other.CrossbarOps
	for k := range r.Windows {
		r.Windows[k] += other.Windows[k]
	}
	r.TotalCycles += other.TotalCycles
	r.EUBusy += other.EUBusy
}

// Release ends the current goroutine's write ownership of r (statsguard
// builds only; a no-op otherwise). The parallel engine calls it when a
// worker hands a finished shard to the merger.
func (r *Run) Release() { r.guard.release() }

// Summary renders a human-readable report of the run.
func (r *Run) Summary() string {
	var b strings.Builder
	fmt.Fprintf(&b, "kernel %s (SIMD%d)\n", r.Name, r.Width)
	fmt.Fprintf(&b, "  instructions      %d\n", r.Instructions)
	fmt.Fprintf(&b, "  SIMD efficiency   %.3f (%s)\n", r.SIMDEfficiency(), map[bool]string{true: "divergent", false: "coherent"}[r.Divergent()])
	fmt.Fprintf(&b, "  EU cycles         base=%d ivb=%d bcc=%d scc=%d meld=%d resize=%d its=%d\n",
		r.PolicyCycles[compaction.Baseline], r.PolicyCycles[compaction.IvyBridge],
		r.PolicyCycles[compaction.BCC], r.PolicyCycles[compaction.SCC],
		r.PolicyCycles[compaction.Melding], r.PolicyCycles[compaction.Resize],
		r.PolicyCycles[compaction.ITS])
	fmt.Fprintf(&b, "  reduction vs ivb  bcc=%.1f%% scc=%.1f%% meld=%.1f%% resize=%.1f%%\n",
		100*r.EUCycleReduction(compaction.BCC), 100*r.EUCycleReduction(compaction.SCC),
		100*r.EUCycleReduction(compaction.Melding), 100*r.EUCycleReduction(compaction.Resize))
	if r.TotalCycles > 0 {
		fmt.Fprintf(&b, "  timed (%s)        total=%d cycles, EU busy=%d\n", r.TimedPolicy, r.TotalCycles, r.EUBusy)
		fmt.Fprintf(&b, "  data cluster      %.3f lines/cycle demand\n", r.DCDemand())
	}
	if r.Sends > 0 {
		fmt.Fprintf(&b, "  memory divergence %.2f lines/send over %d sends\n", r.LinesPerSend(), r.Sends)
	}
	widths := make([]int, 0, len(r.Hist))
	for w := range r.Hist {
		widths = append(widths, w)
	}
	sort.Ints(widths)
	for _, w := range widths {
		h := r.Hist[w]
		fmt.Fprintf(&b, "  SIMD%d lanes hist  ", w)
		for q := 0; q < Quartiles; q++ {
			lo := q*w/Quartiles + 1
			hi := (q + 1) * w / Quartiles
			fmt.Fprintf(&b, "%d-%d:%d ", lo, hi, h.Buckets[q])
		}
		if h.Empty > 0 {
			fmt.Fprintf(&b, "empty:%d", h.Empty)
		}
		b.WriteByte('\n')
	}
	return b.String()
}
