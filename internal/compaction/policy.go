// Package compaction implements the paper's contribution: intra-warp
// execution-cycle compression for divergent SIMD instructions.
//
// A SIMD instruction of width W with element group size G (lanes retired
// per ALU cycle; 4 for 32-bit types) occupies the execution pipe for
// ceil(W/G) cycles in the baseline machine, regardless of how many lanes
// the execution mask enables. Four policies model progressively more
// aggressive cycle compression:
//
//   - Baseline: every group cycle issues, enabled or not.
//   - IvyBridge: the pre-existing hardware optimization inferred by
//     micro-benchmarking (paper §5.2): a SIMD16 instruction whose upper or
//     lower 8 lanes are all disabled executes as SIMD8.
//   - BCC (Basic Cycle Compression): any aligned group whose lanes are all
//     disabled is skipped, together with its operand fetch and writeback.
//   - SCC (Swizzled Cycle Compression): enabled lanes are permuted within
//     their ALU lane position across groups so the instruction executes in
//     the optimal ceil(popcount/G) cycles. The swizzle-setting control
//     algorithm is the paper's Figure 6, implemented in scc.go.
//
// Three competitor families from related work sit behind the same
// interface (see docs/policies.md for derivations and citations):
//
//   - Melding: DARM-style control-flow melding (Saumya et al.). Divergent
//     if/else regions with matching opcode classes are fused, so a
//     partially-active quad shares its issue slot with its twin on the
//     complementary path: cost = fullQuads + ceil(partialQuads/2). The
//     per-mask form charges each side half of a shared slot — the twin
//     pays the other half — so pair totals match a melded issue while the
//     cost stays a pure function of the mask. It assumes every divergent
//     region is meldable (the optimistic bound for the family).
//   - Resize: dynamic warp resizing (Lashgar et al.). The warp splits
//     into aligned sub-warps of DefaultSubWarpWidth lanes that are
//     scheduled independently on divergence and re-fused on
//     reconvergence: a sub-warp with no enabled lane is not issued at
//     all, but an issued sub-warp executes all of its group cycles. At
//     sub-warp width 8 this generalizes the Ivy Bridge half-off rule to
//     every SIMD width.
//   - ITS: a Volta-style independent-thread-scheduling baseline
//     (SNIPPETS.md snippet 2). Both sides of a branch still execute as
//     full-width passes — interleaving helps latency hiding and forward
//     progress, not issue-cycle count — so ITS charges exactly the
//     baseline ceil(W/G) and anchors the pessimistic end of the
//     comparison tables.
//
// All policies charge a minimum of one cycle: an instruction with an empty
// execution mask still occupies an issue slot.
package compaction

import (
	"fmt"

	"intrawarp/internal/mask"
)

// Policy selects a cycle-compression scheme.
type Policy uint8

// Cycle-compression policies. The paper's four keep their original
// order (weakest to strongest); the related-work competitors are
// appended so persisted policy indices stay stable.
const (
	Baseline Policy = iota
	IvyBridge
	BCC
	SCC
	Melding
	Resize
	ITS
	numPolicies
)

// NumPolicies is the number of defined policies.
const NumPolicies = int(numPolicies)

// Policies lists all policies in index order: the paper's four, weakest
// to strongest, then the related-work competitors.
var Policies = [NumPolicies]Policy{Baseline, IvyBridge, BCC, SCC, Melding, Resize, ITS}

func (p Policy) String() string {
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
	return fmt.Sprintf("policy(%d)", uint8(p))
}

// ParsePolicy converts a policy name as printed by String.
func ParsePolicy(s string) (Policy, error) {
	switch s {
	case "baseline", "base":
		return Baseline, nil
	case "ivb", "ivybridge":
		return IvyBridge, nil
	case "bcc":
		return BCC, nil
	case "scc":
		return SCC, nil
	case "meld", "melding", "darm":
		return Melding, nil
	case "resize", "dwr":
		return Resize, nil
	case "its", "volta":
		return ITS, nil
	}
	return Baseline, fmt.Errorf("compaction: unknown policy %q", s)
}

// ivbWidth is the SIMD width the inferred Ivy Bridge half-off optimization
// applies to (the paper observed it for SIMD16 only).
const ivbWidth = 16

// DefaultSubWarpWidth is the sub-warp width (in lanes) of the Resize
// policy: the granularity at which a divergent warp splits into
// independently issued sub-warps. Eight lanes is the sweet spot of the
// warp-size studies (Lashgar et al.) and makes Resize the all-width
// generalization of the Ivy Bridge SIMD16 half-off rule. Other widths
// are reachable through ResizeCycles; the experiments' sub-warp
// sensitivity table sweeps them.
const DefaultSubWarpWidth = 8

// MeldingCycles is the Melding cost before the 1-cycle issue minimum:
// fully-enabled quads issue alone (no dead lane can host the melded
// twin), partially-enabled quads pair up with the complementary branch
// path and share issue slots, dead quads vanish.
func MeldingCycles(m mask.Mask, width, group int) int {
	m = m.Trunc(width)
	full := m.FullQuads(width, group)
	partial := m.ActiveQuads(width, group) - full
	return full + (partial+1)/2
}

// ResizeCycles returns the execution-pipe cycles of the Resize policy at
// an explicit sub-warp width, floored at one issue slot like every
// policy: each aligned sub-warp with at least one enabled lane executes
// all of its group cycles; fully-dead sub-warps are never issued.
func ResizeCycles(m mask.Mask, width, group, subWidth int) int {
	c := resizeQuads(m, width, group, subWidth)
	if c < 1 {
		c = 1
	}
	return c
}

// resizeQuads counts the group cycles of every issued sub-warp, before
// the 1-cycle issue minimum — also the Resize operand-fetch count. A
// sub-warp spans subWidth lanes rounded up to a whole number of
// execution groups (a sub-warp cannot split a group across issue
// slots); a non-positive subWidth selects DefaultSubWarpWidth.
func resizeQuads(m mask.Mask, width, group, subWidth int) int {
	m = m.Trunc(width)
	if subWidth <= 0 {
		subWidth = DefaultSubWarpWidth
	}
	eff := (subWidth + group - 1) / group * group
	c := 0
	for start := 0; start < width; start += eff {
		lanes := eff
		if rem := width - start; rem < lanes {
			lanes = rem
		}
		if (m>>uint(start))&mask.Full(lanes) != 0 {
			c += mask.QuadCount(lanes, group)
		}
	}
	return c
}

// Cycles returns the number of execution-pipe cycles an instruction of the
// given width and element group size occupies under the policy, for
// execution mask m. The result is always at least 1.
func (p Policy) Cycles(m mask.Mask, width, group int) int {
	m = m.Trunc(width)
	full := mask.QuadCount(width, group)
	if full < 1 {
		full = 1
	}
	var c int
	switch p {
	case Baseline:
		c = full
	case IvyBridge:
		c = full
		if width == ivbWidth && full >= 2 && (m.UpperHalfOff(width) || m.LowerHalfOff(width)) {
			c = full / 2
		}
	case BCC:
		c = m.ActiveQuads(width, group)
	case SCC:
		c = m.OptimalCycles(width, group)
	case Melding:
		c = MeldingCycles(m, width, group)
	case Resize:
		return ResizeCycles(m, width, group, DefaultSubWarpWidth)
	case ITS:
		// Volta-style ITS interleaves divergent passes for progress and
		// latency hiding but still issues each pass at full width.
		c = full
	default:
		c = full
	}
	if c < 1 {
		c = 1
	}
	return c
}

// CostAll returns the execution cycles of all policies at once, indexed by
// Policy. Used by the simulator's what-if accounting so a single functional
// run yields EU-cycle totals for every policy.
func CostAll(m mask.Mask, width, group int) [NumPolicies]int {
	var out [NumPolicies]int
	for _, p := range Policies {
		out[p] = p.Cycles(m, width, group)
	}
	return out
}

// GroupFetchCounts returns how many aligned groups require an operand
// fetch and writeback under the policy and how many are suppressed.
// Baseline and IvyBridge fetch every group they execute; BCC fetches only
// non-empty groups (the half-register datapath of paper Fig. 5b); SCC
// performs a single full-width fetch into the operand latch, so it
// fetches every group (no fetch-bandwidth savings, paper §4.2). Melding
// fetches like BCC — this instruction's operands cover its own active
// quads, the fused twin fetches its own. Resize fetches every group of
// every issued sub-warp and nothing of the dead ones; ITS, like the
// baseline, fetches everything. The timed engine's per-instruction
// energy accounting uses these counts; the oracle's FetchCounts is
// their reference.
func (p Policy) GroupFetchCounts(m mask.Mask, width, group int) (fetched, saved int) {
	n := mask.QuadCount(width, group)
	switch p {
	case BCC, Melding:
		fetched = m.ActiveQuads(width, group)
		return fetched, n - fetched
	case Resize:
		fetched = resizeQuads(m, width, group, DefaultSubWarpWidth)
		return fetched, n - fetched
	case IvyBridge:
		if width == ivbWidth && n >= 2 && (m.UpperHalfOff(width) || m.LowerHalfOff(width)) {
			if m.UpperHalfOff(width) {
				fetched = n / 2
			} else {
				fetched = n - n/2
			}
			return fetched, n - fetched
		}
		return n, 0
	default:
		return n, 0
	}
}

// Reduction computes the fractional EU-cycle reduction of policy p relative
// to a reference cycle count, expressed in [0,1]. It is a convenience for
// the experiment harness.
func Reduction(ref, with int64) float64 {
	if ref <= 0 {
		return 0
	}
	return float64(ref-with) / float64(ref)
}
