package oracle

import (
	"fmt"

	"intrawarp/internal/compaction"
	"intrawarp/internal/mask"
	"intrawarp/internal/trace"
)

// CostFunc is the engine-side cycle cost under test. Diff and
// CheckRecord default to the real engine (compaction.Policy.Cycles);
// tests inject faulty variants to prove the harness catches them.
type CostFunc func(p compaction.Policy, m mask.Mask, width, group int) int

// EngineCost is the default CostFunc: the production cost model.
func EngineCost(p compaction.Policy, m mask.Mask, width, group int) int {
	return p.Cycles(m, width, group)
}

// Violation is one broken per-instruction invariant: which rule, on
// which (mask, width, group) signature, with an engine-vs-oracle detail.
type Violation struct {
	Index  int    // record index in the stream (-1 when synthetic)
	Rule   string // stable rule identifier, e.g. "cost/scc-exact"
	Mask   uint32
	Width  int
	Group  int
	Detail string
}

func (v *Violation) Error() string {
	return fmt.Sprintf("oracle: record %d mask %#x width=%d group=%d: rule %s: %s",
		v.Index, v.Mask, v.Width, v.Group, v.Rule, v.Detail)
}

// enginePolicies pins the engine policy order the oracle mirrors. The
// conversion is checked once at init: if compaction ever renumbers its
// policies the oracle fails loudly instead of comparing apples to pears.
var enginePolicies = [NumPolicies]compaction.Policy{
	compaction.Baseline, compaction.IvyBridge, compaction.BCC, compaction.SCC,
	compaction.Melding, compaction.Resize, compaction.ITS,
}

func init() {
	if compaction.NumPolicies != NumPolicies {
		panic("oracle: engine policy count diverged from the reference model")
	}
	for i, p := range enginePolicies {
		if PolicyName(i) != p.String() {
			panic(fmt.Sprintf("oracle: policy order diverged: %s vs %s", PolicyName(i), p))
		}
	}
}

// CheckRecord verifies every per-instruction invariant of DESIGN.md §5
// and §10 for one (mask, width, group) signature: the engine's cycle
// costs against the reference model, the cost ladder and bounds, the
// materialized SCC schedule (every enabled lane executed exactly once,
// lane-position preservation for BCC-only schedules, swizzle counts),
// and operand-fetch accounting.
// cost selects the engine cost model under test; nil means the real one.
// It returns the first violation found, or nil.
func CheckRecord(idx int, width, group int, m mask.Mask, cost CostFunc) *Violation {
	if cost == nil {
		cost = EngineCost
	}
	m = m.Trunc(width)
	bits := uint32(m)
	fail := func(rule, format string, args ...interface{}) *Violation {
		return &Violation{Index: idx, Rule: rule, Mask: bits, Width: width, Group: group,
			Detail: fmt.Sprintf(format, args...)}
	}

	// Engine cycle costs, exact against the reference model.
	var engine [NumPolicies]int
	ref := AllCycles(bits, width, group)
	for i, p := range enginePolicies {
		engine[i] = cost(p, m, width, group)
		if engine[i] != ref[i] {
			return fail("cost/"+PolicyName(i)+"-exact",
				"engine charges %d cycles, oracle says %d", engine[i], ref[i])
		}
	}

	// Cost ladder: scc ≤ bcc ≤ resize ≤ ivb ≤ baseline. Resize at
	// sub-warp width 8 generalizes the Ivy Bridge half-off rule, so it can
	// never lose to ivb; it skips only whole dead sub-warps, so it can
	// never beat bcc.
	if !(engine[SCC] <= engine[BCC] && engine[BCC] <= engine[Resize] &&
		engine[Resize] <= engine[IvyBridge] && engine[IvyBridge] <= engine[Baseline]) {
		return fail("cost/ladder", "scc=%d bcc=%d resize=%d ivb=%d baseline=%d is not monotone",
			engine[SCC], engine[BCC], engine[Resize], engine[IvyBridge], engine[Baseline])
	}
	// Melding amortizes partial quads onto the fused twin: never worse
	// than bcc, and never below half the scc optimum (each issue slot
	// retires at most two partial quads' worth of this mask's work).
	if engine[Melding] > engine[BCC] {
		return fail("cost/ladder", "meld=%d exceeds bcc=%d", engine[Melding], engine[BCC])
	}
	if 2*engine[Melding] < engine[SCC] {
		return fail("cost/ladder", "meld=%d undercuts ceil(scc/2) of scc=%d", engine[Melding], engine[SCC])
	}
	// ITS issues every pass at full width: exactly the baseline count.
	if engine[ITS] != engine[Baseline] {
		return fail("cost/ladder", "its=%d differs from baseline=%d", engine[ITS], engine[Baseline])
	}

	// Bounds: every policy within [ceil(pop/group), ceil(width/group)],
	// floored at one issue slot. Melding is exempt from the lower bound
	// (its floor is ceil(scc/2), enforced above).
	lo, hi := CycleBounds(bits, width, group)
	for i := range engine {
		effLo := lo
		if i == Melding {
			effLo = 1
		}
		if engine[i] < effLo || engine[i] > hi {
			return fail("cost/bounds", "%s charges %d cycles outside [%d, %d]",
				PolicyName(i), engine[i], effLo, hi)
		}
	}

	// The engine's bulk accounting must agree with the per-policy calls.
	all := compaction.CostAll(m, width, group)
	for i, p := range enginePolicies {
		if all[p] != engine[i] {
			return fail("cost/costall", "CostAll[%s]=%d but Cycles=%d", p, all[p], engine[i])
		}
	}

	// SCC schedule invariants.
	if v := checkSchedule(idx, bits, width, group, compaction.ComputeSchedule(m, width, group)); v != nil {
		return v
	}

	// Operand-fetch accounting: the engine's counts against the reference
	// model.
	for i, p := range enginePolicies {
		fetched, saved := p.GroupFetchCounts(m, width, group)
		wantF, wantS := FetchCounts(i, bits, width, group)
		if fetched != wantF || saved != wantS {
			return fail("fetch/"+PolicyName(i), "engine fetches %d/saves %d groups, oracle says %d/%d",
				fetched, saved, wantF, wantS)
		}
	}
	return nil
}

// checkSchedule asserts the structural invariants of one SCC schedule:
// exactly the optimal number of cycles, each with one slot per ALU lane;
// every enabled (quad, lane) element executed exactly once from a
// position the mask really enables; swizzles only for non-BCC-only
// schedules (BCC is lane-position-preserving by definition); and the
// schedule's swizzles, its construction-time tally and the closed form
// the timed engine charges all equal to the reference count.
func checkSchedule(idx int, bits uint32, width, group int, s *compaction.Schedule) *Violation {
	fail := func(rule, format string, args ...interface{}) *Violation {
		return &Violation{Index: idx, Rule: rule, Mask: bits, Width: width, Group: group,
			Detail: fmt.Sprintf(format, args...)}
	}
	if got, want := len(s.Cycles), SCCCycles(bits, width, group); got != want {
		return fail("sched/cycles", "schedule has %d cycles, oracle optimum is %d", got, want)
	}
	var seen [32 + 1]uint64 // seen[q] bit n set: element (q, n) already issued
	issued, swizzled := 0, 0
	for c, cyc := range s.Cycles {
		if len(cyc) != group {
			return fail("sched/shape", "cycle %d has %d lane slots, want %d", c, len(cyc), group)
		}
		for n, a := range cyc {
			if !a.Enabled {
				continue
			}
			q, src := int(a.Quad), int(a.SrcLane)
			if q < 0 || q >= Groups(width, group) || src < 0 || src >= group {
				return fail("sched/range", "cycle %d ALU lane %d routes quad %d lane %d out of range", c, n, q, src)
			}
			if !laneOn(bits, width, q*group+src) {
				return fail("sched/enabled-only", "cycle %d ALU lane %d executes disabled element quad %d lane %d", c, n, q, src)
			}
			if seen[q]&(1<<uint(src)) != 0 {
				return fail("sched/once", "element quad %d lane %d issued more than once", q, src)
			}
			seen[q] |= 1 << uint(src)
			issued++
			if src != n {
				swizzled++
				if s.BCCOnly {
					return fail("sched/bcc-preserve",
						"BCC-only schedule swizzles cycle %d ALU lane %d from lane %d — BCC must preserve lane positions", c, n, src)
				}
			}
		}
	}
	if want := PopCount(bits, width); issued != want {
		return fail("sched/once", "schedule issues %d elements, mask enables %d", issued, want)
	}
	want := SCCSwizzles(bits, width, group)
	if swizzled != want {
		return fail("sched/swizzles", "schedule swizzles %d operands, oracle optimum is %d", swizzled, want)
	}
	if got := s.Swizzles(); got != want {
		return fail("sched/swizzles", "precomputed Swizzles()=%d, oracle says %d", got, want)
	}
	if got := compaction.SwizzleCount(mask.Mask(bits), width, group); got != want {
		return fail("sched/swizzles", "closed-form SwizzleCount=%d, oracle says %d", got, want)
	}
	return nil
}

// normGroup applies the trace stream's group-size convention: a zero
// group byte means the hardware default of 4 lanes per cycle.
func normGroup(g int) int {
	if g == 0 {
		return 4
	}
	return g
}

// CheckTrace replays a record stream through CheckRecord, deduplicating
// (mask, width, group) signatures — invariants are pure functions of the
// signature, so each is checked once. It returns the first violation
// (nil if the stream is clean) and the number of records consumed.
func CheckTrace(src trace.Source, cost CostFunc) (*Violation, int64) {
	seen := make(map[uint64]struct{})
	var n int64
	for {
		rec, ok := src.Next()
		if !ok {
			return nil, n
		}
		width, group := int(rec.Width), normGroup(int(rec.Group))
		key := uint64(uint32(rec.Mask)) | uint64(uint8(width))<<32 | uint64(uint8(group))<<40
		if _, dup := seen[key]; !dup {
			seen[key] = struct{}{}
			if v := CheckRecord(int(n), width, group, rec.Mask, cost); v != nil {
				return v, n + 1
			}
		}
		n++
	}
}
