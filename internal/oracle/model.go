// Package oracle is the differential verification subsystem: an
// independent reference model of quad timing, a trace-invariant checker,
// and a cross-engine differential harness (Diff, cmd/simd-verify) that
// every optimization of the simulator is gated on.
//
// The paper's headline claims are exact cycle counts — BCC skips
// all-dead quads, SCC always reaches ceil(popcount/group) cycles, the
// Ivy Bridge SIMD16 half-mask rule is the baseline all gains are
// measured against — and the engine that computes them has grown fast
// paths (lookup tables, memoized schedule caches, closed-form swizzle
// counts, parallel sharding, pooled zero-alloc loops) that are each
// trusted to be bit-identical to a slower path. This package re-derives
// the slow path from the paper alone and diffs the engine against it.
package oracle

// This file is the reference model. It is deliberately simple — plain
// loops over lanes, no lookup tables, no shared helpers — and it is
// structurally independent of the engine: model.go imports NOTHING, not
// even other intrawarp packages (TestModelIndependence enforces this).
// If a bug ever creeps into internal/mask or internal/compaction, this
// file cannot inherit it.

// Policy indices of the reference model: the paper's four, weakest to
// strongest, then the related-work competitors (DARM melding, dynamic
// warp resizing, Volta ITS). They mirror the engine's compaction.Policy
// order; TestModelIndependence's companion checks in oracle_test.go pin
// the correspondence.
const (
	Baseline    = 0
	IvyBridge   = 1
	BCC         = 2
	SCC         = 3
	Melding     = 4
	Resize      = 5
	ITS         = 6
	NumPolicies = 7
)

// PolicyName names a reference policy index the way the engine prints it.
func PolicyName(p int) string {
	switch p {
	case Baseline:
		return "baseline"
	case IvyBridge:
		return "ivb"
	case BCC:
		return "bcc"
	case SCC:
		return "scc"
	case Melding:
		return "meld"
	case Resize:
		return "resize"
	case ITS:
		return "its"
	}
	return "?"
}

// laneOn reports whether lane i of the mask is enabled, counting only
// lanes inside the instruction's width.
func laneOn(bits uint32, width, i int) bool {
	if i < 0 || i >= width || i >= 32 {
		return false
	}
	return bits>>uint(i)&1 == 1
}

// PopCount counts the enabled lanes of a width-lane instruction, one
// lane at a time.
func PopCount(bits uint32, width int) int {
	n := 0
	for i := 0; i < width && i < 32; i++ {
		if laneOn(bits, width, i) {
			n++
		}
	}
	return n
}

// Groups returns the number of execution groups (quads) of an
// instruction: ceil(width/group), and at least 1.
func Groups(width, group int) int {
	n := (width + group - 1) / group
	if n < 1 {
		n = 1
	}
	return n
}

// groupActive reports whether execution group q has any enabled lane.
func groupActive(bits uint32, width, group, q int) bool {
	for i := 0; i < group; i++ {
		if laneOn(bits, width, q*group+i) {
			return true
		}
	}
	return false
}

// ActiveGroups counts the execution groups with at least one enabled
// lane — the BCC cycle count before the 1-cycle issue minimum.
func ActiveGroups(bits uint32, width, group int) int {
	n := 0
	for q := 0; q < Groups(width, group); q++ {
		if groupActive(bits, width, group, q) {
			n++
		}
	}
	return n
}

// halfOff reports whether every lane of one half of a width-lane
// instruction is disabled. upper selects the upper half.
func halfOff(bits uint32, width int, upper bool) bool {
	h := width / 2
	lo, hi := 0, h
	if upper {
		lo, hi = h, width
	}
	for i := lo; i < hi; i++ {
		if laneOn(bits, width, i) {
			return false
		}
	}
	return true
}

// atLeastOne applies the universal issue minimum: an instruction with an
// all-zero execution mask still occupies one issue slot.
func atLeastOne(c int) int {
	if c < 1 {
		return 1
	}
	return c
}

// BaselineCycles: every group cycle issues, enabled or not.
func BaselineCycles(bits uint32, width, group int) int {
	return atLeastOne(Groups(width, group))
}

// IVBCycles models the pre-existing Ivy Bridge optimization the paper
// inferred by micro-benchmarking (§5.2, Fig. 8): a SIMD16 instruction
// whose upper or lower 8 lanes are all disabled executes at half width.
// The rule applies to SIMD16 only, and only when the instruction spans
// at least two groups.
func IVBCycles(bits uint32, width, group int) int {
	full := Groups(width, group)
	c := full
	if width == 16 && full >= 2 && (halfOff(bits, width, true) || halfOff(bits, width, false)) {
		c = full / 2
	}
	return atLeastOne(c)
}

// BCCCycles: Basic Cycle Compression skips every all-dead group.
func BCCCycles(bits uint32, width, group int) int {
	return atLeastOne(ActiveGroups(bits, width, group))
}

// SCCCycles: Swizzled Cycle Compression reaches the optimum,
// ceil(popcount/group) — the bound the paper's Fig. 6 control algorithm
// is proven to achieve.
func SCCCycles(bits uint32, width, group int) int {
	pop := PopCount(bits, width)
	return atLeastOne((pop + group - 1) / group)
}

// groupFull reports whether execution group q has every in-width lane
// enabled. A trailing ragged group counts as full when all of its
// existing lanes are enabled.
func groupFull(bits uint32, width, group, q int) bool {
	for i := 0; i < group; i++ {
		lane := q*group + i
		if lane >= width {
			break
		}
		if !laneOn(bits, width, lane) {
			return false
		}
	}
	return true
}

// MeldingCycles models DARM-style control-flow melding (Saumya et al.,
// PAPERS.md): the if and else sides of a divergent region fuse, so a
// partially-enabled group shares an issue slot with its twin on the
// complementary path. Per instruction that amortizes to: fully-enabled
// groups issue alone, partially-enabled groups cost half a slot each
// (rounded up), dead groups vanish. This is the family's optimistic
// bound — every divergent region is assumed meldable.
func MeldingCycles(bits uint32, width, group int) int {
	full, partial := 0, 0
	for q := 0; q < Groups(width, group); q++ {
		if !groupActive(bits, width, group, q) {
			continue
		}
		if groupFull(bits, width, group, q) {
			full++
		} else {
			partial++
		}
	}
	return atLeastOne(full + (partial+1)/2)
}

// ResizeSubWarpWidth is the sub-warp width (in lanes) of the Resize
// reference model, matching the engine's DefaultSubWarpWidth.
const ResizeSubWarpWidth = 8

// ResizeCyclesAt models dynamic warp resizing (Lashgar et al.,
// PAPERS.md) at an explicit sub-warp width: the warp splits into aligned
// sub-warps of sub lanes (rounded up to whole execution groups, at
// least one group); a sub-warp with no enabled lane is never issued,
// an issued sub-warp executes all of its group cycles.
func ResizeCyclesAt(bits uint32, width, group, sub int) int {
	if sub <= 0 {
		sub = ResizeSubWarpWidth
	}
	eff := (sub + group - 1) / group * group
	if eff < group {
		eff = group
	}
	c := 0
	for start := 0; start < width; start += eff {
		active := false
		lanes := 0
		for i := start; i < start+eff && i < width; i++ {
			lanes++
			if laneOn(bits, width, i) {
				active = true
			}
		}
		if active {
			c += (lanes + group - 1) / group
		}
	}
	return atLeastOne(c)
}

// ResizeCycles is ResizeCyclesAt at the default sub-warp width.
func ResizeCycles(bits uint32, width, group int) int {
	return ResizeCyclesAt(bits, width, group, ResizeSubWarpWidth)
}

// ITSCycles models a Volta-style independent-thread-scheduling baseline
// (SNIPPETS.md snippet 2): divergent passes may interleave for forward
// progress and latency hiding, but each pass still issues at the full
// SIMD width — the issue-cycle count is exactly the baseline's.
func ITSCycles(bits uint32, width, group int) int {
	return BaselineCycles(bits, width, group)
}

// Cycles returns the reference cycle count of one policy index.
func Cycles(p int, bits uint32, width, group int) int {
	switch p {
	case Baseline:
		return BaselineCycles(bits, width, group)
	case IvyBridge:
		return IVBCycles(bits, width, group)
	case BCC:
		return BCCCycles(bits, width, group)
	case SCC:
		return SCCCycles(bits, width, group)
	case Melding:
		return MeldingCycles(bits, width, group)
	case Resize:
		return ResizeCycles(bits, width, group)
	case ITS:
		return ITSCycles(bits, width, group)
	}
	return BaselineCycles(bits, width, group)
}

// AllCycles returns the reference cycle counts of all seven policies,
// indexed [Baseline, IvyBridge, BCC, SCC, Melding, Resize, ITS].
func AllCycles(bits uint32, width, group int) [NumPolicies]int {
	return [NumPolicies]int{
		BaselineCycles(bits, width, group),
		IVBCycles(bits, width, group),
		BCCCycles(bits, width, group),
		SCCCycles(bits, width, group),
		MeldingCycles(bits, width, group),
		ResizeCycles(bits, width, group),
		ITSCycles(bits, width, group),
	}
}

// CycleBounds returns the invariant envelope of DESIGN.md §5 for any
// single-instruction policy: no scheme can beat ceil(popcount/group)
// cycles, none may exceed the baseline's ceil(width/group), and every
// instruction occupies at least one issue slot. Melding is the one
// exception to the lower bound — its per-instruction cost amortizes
// work onto the fused twin on the complementary branch path, so it may
// undercut ceil(popcount/group); its own floor is ceil(scc/2)
// (CheckRecord enforces that separately).
func CycleBounds(bits uint32, width, group int) (lo, hi int) {
	return SCCCycles(bits, width, group), BaselineCycles(bits, width, group)
}

// SCCSwizzles recomputes, from the paper's Fig. 6 invariants alone, how
// many operands an optimal swizzle-minimizing schedule routes through
// the crossbar: each ALU lane position n can serve its own queue of
// active groups unswizzled — at most once per compressed cycle — so the
// swizzled remainder is popcount minus the sum over lanes of
// min(queue length, optimal cycles).
func SCCSwizzles(bits uint32, width, group int) int {
	opt := (PopCount(bits, width) + group - 1) / group
	if opt == 0 {
		return 0
	}
	unswizzled := 0
	for n := 0; n < group; n++ {
		cnt := 0
		for q := 0; q < Groups(width, group); q++ {
			if laneOn(bits, width, q*group+n) {
				cnt++
			}
		}
		if cnt > opt {
			cnt = opt
		}
		unswizzled += cnt
	}
	return PopCount(bits, width) - unswizzled
}

// FetchCounts returns how many operand group fetches a policy performs
// and how many it suppresses (paper §4.2/§4.3): baseline fetches every
// group; Ivy Bridge fetches only the live half when its half-mask rule
// fires; BCC fetches only non-empty groups (the half-register datapath
// of Fig. 5b); SCC performs a single full-width fetch into the operand
// latch and so saves nothing. Melding fetches like BCC (the fused twin
// fetches its own operands); Resize fetches every group of every issued
// sub-warp; ITS fetches everything, like the baseline.
func FetchCounts(p int, bits uint32, width, group int) (fetched, saved int) {
	full := Groups(width, group)
	switch p {
	case BCC, Melding:
		fetched = ActiveGroups(bits, width, group)
		return fetched, full - fetched
	case Resize:
		// Every group cycle of ResizeCyclesAt is also a fetch; re-derive
		// the count without the issue-slot minimum.
		eff := (ResizeSubWarpWidth + group - 1) / group * group
		if eff < group {
			eff = group
		}
		for start := 0; start < width; start += eff {
			active := false
			lanes := 0
			for i := start; i < start+eff && i < width; i++ {
				lanes++
				if laneOn(bits, width, i) {
					active = true
				}
			}
			if active {
				fetched += (lanes + group - 1) / group
			}
		}
		return fetched, full - fetched
	case IvyBridge:
		if width == 16 && full >= 2 {
			if halfOff(bits, width, true) {
				// Upper half dead: the lower half's groups are fetched.
				fetched = full / 2
				return fetched, full - fetched
			}
			if halfOff(bits, width, false) {
				fetched = full - full/2
				return fetched, full - fetched
			}
		}
		return full, 0
	default: // Baseline, SCC
		return full, 0
	}
}
