package gpu_test

import (
	"testing"

	"intrawarp/internal/compaction"
	"intrawarp/internal/mask"
	"intrawarp/internal/oracle"
)

// FuzzSCCSchedule cross-checks the SCC crossbar control algorithm
// (paper Fig. 6) against its optimality claim for arbitrary execution
// masks: every schedule must take exactly max(1, ceil(popcount/group))
// cycles — the bound the paper's cycle-compression argument rests on —
// and must execute each active element exactly once from a position the
// mask really enables. The policy cost models and the closed-form swizzle
// count are checked against both the materialized schedule and the
// independent oracle (internal/oracle), since the simulator's hot paths
// use closed forms instead of building schedules.
//
// The seed tuple is (bits, widthIndex, groupIndex): the fuzz body maps
// widthIn through widths[widthIn%4] and groupIn through groups[groupIn%3],
// so seeds must pass selector indices, not raw widths — an earlier
// version seeded raw widths (4/8/16/32), which all collapsed to
// widths[0] = 4 and left SIMD16/32 covered only by mutation luck.
func FuzzSCCSchedule(f *testing.F) {
	// The paper's shapes: coherent halves, quad-aligned holes, scattered
	// lanes (Fig. 8's 0xAAAA worst case), tail masks, and the empties.
	seeds := []uint32{
		0x0000, 0x0001, 0x00FF, 0xFF00, 0xF0F0, 0x0F0F,
		0xAAAA, 0x5555, 0xFF0F, 0xFFFF, 0x8421, 0x7BDE,
		0xFFFFFFFF, 0xDEADBEEF,
	}
	for _, bits := range seeds {
		for wi := uint8(0); wi < 4; wi++ { // widths 4, 8, 16, 32
			f.Add(bits, wi, uint8(2)) // group 4
		}
		f.Add(bits, uint8(2), uint8(0)) // SIMD16, group 1
		f.Add(bits, uint8(2), uint8(1)) // SIMD16, group 2
	}
	// Half-mask boundary shapes for the Ivy Bridge rule: exactly-dead
	// halves at SIMD16 (where the rule fires), the same masks at SIMD32
	// (where it must not), and alternating quads straddling the halves.
	f.Add(uint32(0xFF00), uint8(2), uint8(2)) // lower 8 dead, SIMD16
	f.Add(uint32(0x00FF), uint8(2), uint8(2)) // upper 8 dead, SIMD16
	f.Add(uint32(0x00FF), uint8(3), uint8(2)) // same mask, SIMD32: no rule
	f.Add(uint32(0xFF00FF00), uint8(3), uint8(2))
	f.Add(uint32(0x0F0F), uint8(2), uint8(2)) // alternating quads, SIMD16

	f.Fuzz(func(t *testing.T, bits uint32, widthIn, groupIn uint8) {
		widths := []int{4, 8, 16, 32}
		groups := []int{1, 2, 4}
		width := widths[int(widthIn)%len(widths)]
		group := groups[int(groupIn)%len(groups)]

		m := mask.Mask(bits).Trunc(width)
		sched := compaction.ComputeSchedule(m, width, group)

		pop := m.PopCount()
		optimal := (pop + group - 1) / group
		if optimal == 0 {
			optimal = 1 // an all-off instruction still issues for one cycle
		}
		if got := len(sched.Cycles); got != optimal {
			t.Fatalf("mask %#x width=%d group=%d: schedule has %d cycles, optimum ceil(%d/%d)=%d\n%s",
				bits, width, group, got, pop, group, optimal, sched)
		}
		if got := compaction.SCC.Cycles(m, width, group); got != optimal {
			t.Fatalf("mask %#x width=%d group=%d: SCC cost model charges %d cycles, optimum %d",
				bits, width, group, got, optimal)
		}

		// Every policy's cost model against the independent oracle — the
		// reference that shares no code with the engine. This is what ties
		// the fuzzer to the differential harness: any mask it discovers
		// that breaks a cycle model is a simd-verify failure in miniature.
		ref := oracle.AllCycles(uint32(m), width, group)
		for i, p := range compaction.Policies {
			if got := p.Cycles(m, width, group); got != ref[i] {
				t.Fatalf("mask %#x width=%d group=%d: %s charges %d cycles, oracle says %d",
					bits, width, group, p, got, ref[i])
			}
		}
		if got := compaction.CostAll(m, width, group); got != ref {
			t.Fatalf("mask %#x width=%d group=%d: CostAll = %v, oracle says %v",
				bits, width, group, got, ref)
		}

		// Soundness: each cycle configures exactly `group` ALU lanes, and
		// across the schedule every active element executes exactly once.
		quads := mask.QuadCount(width, group)
		covered := map[[2]int]int{}
		enabled, swizzled := 0, 0
		for c, cyc := range sched.Cycles {
			if len(cyc) != group {
				t.Fatalf("cycle %d has %d lane slots, want %d", c, len(cyc), group)
			}
			for n, a := range cyc {
				if !a.Enabled {
					continue
				}
				enabled++
				q, src := int(a.Quad), int(a.SrcLane)
				if q < 0 || q >= quads || src < 0 || src >= group {
					t.Fatalf("cycle %d lane %d routes out of range: quad %d src %d", c, n, q, src)
				}
				if !m.Quad(q, group).Lane(src) {
					t.Fatalf("cycle %d lane %d executes inactive element quad %d lane %d\n%s",
						c, n, q, src, sched)
				}
				covered[[2]int{q, src}]++
				if cyc.Swizzled(n) {
					swizzled++
				}
			}
		}
		if enabled != pop {
			t.Fatalf("schedule enables %d lane slots for %d active elements\n%s", enabled, pop, sched)
		}
		for key, n := range covered {
			if n != 1 {
				t.Fatalf("element quad %d lane %d executed %d times\n%s", key[0], key[1], n, sched)
			}
		}

		// The closed form, the construction-time tally and the cycles
		// themselves must agree with the oracle's Fig. 6 surplus formula,
		// and a BCC-only schedule must never engage the crossbar.
		want := oracle.SCCSwizzles(uint32(m), width, group)
		if swizzled != want {
			t.Fatalf("mask %#x width=%d group=%d: schedule swizzles %d operands, oracle says %d",
				bits, width, group, swizzled, want)
		}
		if got := sched.Swizzles(); got != want {
			t.Fatalf("mask %#x width=%d group=%d: Swizzles() = %d, oracle says %d",
				bits, width, group, got, want)
		}
		if got := compaction.SwizzleCount(m, width, group); got != want {
			t.Fatalf("mask %#x width=%d group=%d: SwizzleCount = %d, oracle says %d",
				bits, width, group, got, want)
		}
		if sched.BCCOnly && swizzled != 0 {
			t.Fatalf("mask %#x: BCC-only schedule swizzles\n%s", bits, sched)
		}
	})
}
