package compaction

import (
	"fmt"
	"math/bits"
	"strings"

	"intrawarp/internal/mask"
)

// LaneAssign describes what one ALU lane position executes during one
// compressed cycle: the source execution group (quad) and the source lane
// position within that group. When SrcLane differs from the ALU lane the
// 4×4 crossbar of paper Fig. 5(c) swizzles the operand; the writeback stage
// applies the inverse permutation.
type LaneAssign struct {
	Enabled bool
	Quad    int8 // source execution group index
	SrcLane int8 // source lane position within the group
}

// CycleSetting is the crossbar and lane-enable configuration for one
// compressed execution cycle: one assignment per ALU lane position.
type CycleSetting []LaneAssign

// Swizzled reports whether ALU lane n sources from a different lane
// position (i.e. the crossbar is active for that lane).
func (c CycleSetting) Swizzled(n int) bool {
	return c[n].Enabled && int(c[n].SrcLane) != n
}

// Schedule is a complete SCC execution plan for one instruction: the
// sequence of per-cycle crossbar settings computed by the control logic of
// paper Fig. 6.
type Schedule struct {
	Width  int
	Group  int
	Mask   mask.Mask
	Cycles []CycleSetting
	// BCCOnly is set when the active-quad count already equals the optimal
	// cycle count, so empty-quad skipping suffices and no lane is swizzled
	// ("skip empty quads, BCC-like. Done" in the paper's pseudo-code).
	BCCOnly bool

	// swizzles is the crossbar-slot count, tallied during construction.
	swizzles int
}

// Swizzles returns the number of (cycle, lane) slots whose operand is
// routed through the crossbar from a different lane position, tallied
// at construction. It always equals SwizzleCount of the schedule's mask.
func (s *Schedule) Swizzles() int { return s.swizzles }

// String renders the schedule for debugging, one line per cycle.
func (s *Schedule) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "scc mask=%#x width=%d group=%d cycles=%d bccOnly=%v\n",
		uint32(s.Mask), s.Width, s.Group, len(s.Cycles), s.BCCOnly)
	for c, cyc := range s.Cycles {
		fmt.Fprintf(&b, "  cycle %d:", c)
		for n, a := range cyc {
			if !a.Enabled {
				fmt.Fprintf(&b, " L%d:off", n)
				continue
			}
			if int(a.SrcLane) == n {
				fmt.Fprintf(&b, " L%d:Q%d", n, a.Quad)
			} else {
				fmt.Fprintf(&b, " L%d:Q%d.L%d*", n, a.Quad, a.SrcLane)
			}
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// SwizzleCount returns, without building the schedule, the number of
// operands the Fig. 6 algorithm routes through the crossbar for this
// mask. Each ALU lane position n serves its own queue unswizzled at most
// once per cycle, and its queue holds the enabled lanes at positions
// n, n+group, n+2·group, …, so the swizzled remainder is
//
//	popcount − Σ_n min(popcount(m & stride<<n), optimalCycles)
//
// with one bit of stride at every multiple of group: one popcount per
// ALU lane position. It equals ComputeSchedule's Swizzles for every mask
// (property-tested), and the timed EU charges it as each SCC
// instruction's crossbar traffic.
func SwizzleCount(m mask.Mask, width, group int) int {
	v := uint32(m.Trunc(width))
	pop := bits.OnesCount32(v)
	if group == 4 {
		// The 32-bit datatypes' group, unrolled: the four lane
		// positions' popcounts are independent of each other.
		opt := (pop + 3) / 4
		return pop - min(bits.OnesCount32(v&0x11111111), opt) -
			min(bits.OnesCount32(v&0x22222222), opt) -
			min(bits.OnesCount32(v&0x44444444), opt) -
			min(bits.OnesCount32(v&0x88888888), opt)
	}
	opt := (pop + group - 1) / group
	var stride uint32
	for i := 0; i < 32; i += group {
		stride |= 1 << uint(i)
	}
	swizzled := pop
	for n := 0; n < group; n++ {
		swizzled -= min(bits.OnesCount32(v&(stride<<uint(n))), opt)
	}
	return swizzled
}

// ComputeSchedule runs the SCC control algorithm of paper Fig. 6 for an
// execution mask of the given width and element group size, returning the
// per-cycle crossbar settings. The schedule always has
// max(1, ceil(popcount/group)) cycles; an all-zero mask yields a single
// cycle with every lane disabled.
//
// The algorithm keeps, for each ALU lane position n, a queue of the quads
// in which lane n is active. The optimal cycle count is
// ceil(popcount/group). Lanes with queue length above the optimal count
// have "surplus" elements that must be swizzled into other lane positions;
// lanes whose queue runs dry before the last cycle have free slots to
// receive them. An element stays in its own lane position whenever it
// can, minimizing crossbar activity.
func ComputeSchedule(m mask.Mask, width, group int) *Schedule {
	s := new(Schedule)
	s.build(m, width, group)
	return s
}

// ScheduleFor is ComputeSchedule under the name perfbench/layers.go
// times; nothing else calls it.
func ScheduleFor(m mask.Mask, width, group int) *Schedule { return ComputeSchedule(m, width, group) }

// maxLanes bounds the algorithm's stack arrays. A Mask holds 32 lanes, so
// no instruction has more than 32 execution groups or more than 32 lanes
// per group.
const maxLanes = 32

// build is ComputeSchedule's body. It stays a separate function so that
// ComputeSchedule is small enough to inline, and a caller that drops the
// schedule keeps it on the stack. The algorithm's working state
// (per-lane quad queues, surplus counters) lives on the stack too.
func (s *Schedule) build(m mask.Mask, width, group int) {
	if group < 1 || group > maxLanes {
		panic(fmt.Sprintf("compaction: group size %d out of range [1,%d]", group, maxLanes))
	}
	m = m.Trunc(width)
	quads := mask.QuadCount(width, group)
	opt := m.OptimalCycles(width, group)
	nCycles := opt
	if nCycles == 0 {
		// Empty mask: one dead issue cycle, all lanes off.
		nCycles = 1
	}

	s.Width, s.Group, s.Mask = width, group, m
	lanes := make([]LaneAssign, nCycles*group)
	s.Cycles = make([]CycleSetting, nCycles)
	for c := range s.Cycles {
		s.Cycles[c] = lanes[c*group : (c+1)*group]
	}
	if opt == 0 {
		return
	}

	// Phase 1 of Fig. 6: per-lane queues of active quads. A lane's queue
	// holds at most one entry per active quad, and a 32-lane mask has at
	// most 32 of those, so fixed-size stack arrays suffice.
	var laneQ [maxLanes][maxLanes]int8
	var qLen, qHead [maxLanes]uint8
	for q := 0; q < quads; q++ {
		qm := m.Quad(q, group)
		if qm == 0 {
			continue
		}
		for n := 0; n < group; n++ {
			if qm.Lane(n) {
				laneQ[n][qLen[n]] = int8(q)
				qLen[n]++
			}
		}
	}

	if m.ActiveQuads(width, group) == opt {
		// "skip empty quads, BCC-like. Done": emit active quads in order
		// with no swizzling.
		s.BCCOnly = true
		c := 0
		for q := 0; q < quads; q++ {
			qm := m.Quad(q, group)
			if qm == 0 {
				continue
			}
			cyc := s.Cycles[c]
			c++
			for n := 0; n < group; n++ {
				if qm.Lane(n) {
					cyc[n] = LaneAssign{Enabled: true, Quad: int8(q), SrcLane: int8(n)}
				}
			}
		}
		return
	}

	// Initial setup: per-lane surplus relative to the optimal cycle count.
	var surplus [maxLanes]int8
	totSurplus := 0
	for n := 0; n < group; n++ {
		if int(qLen[n]) > opt {
			surplus[n] = int8(int(qLen[n]) - opt)
			totSurplus += int(surplus[n])
		}
	}

	// Per-cycle scheduling: unswizzled dequeue when the home queue has
	// work, otherwise fill from the lowest-indexed surplus lane.
	for c := 0; c < opt; c++ {
		cyc := s.Cycles[c]
		for n := 0; n < group; n++ {
			if qHead[n] < qLen[n] {
				cyc[n] = LaneAssign{Enabled: true, Quad: laneQ[n][qHead[n]], SrcLane: int8(n)}
				qHead[n]++
				continue
			}
			if totSurplus > 0 {
				mIdx := -1
				for k := 0; k < group; k++ {
					if surplus[k] > 0 && qHead[k] < qLen[k] {
						mIdx = k
						break
					}
				}
				if mIdx >= 0 {
					cyc[n] = LaneAssign{Enabled: true, Quad: laneQ[mIdx][qHead[mIdx]], SrcLane: int8(mIdx)}
					qHead[mIdx]++
					surplus[mIdx]--
					totSurplus--
					s.swizzles++
					continue
				}
			}
			// No surplus: lane stays unfilled this cycle.
		}
	}
}
