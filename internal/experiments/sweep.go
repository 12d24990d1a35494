package experiments

import (
	"context"
	"errors"
	"fmt"
	"io"

	"intrawarp/internal/compaction"
	"intrawarp/internal/gpu"
	"intrawarp/internal/isa"
	"intrawarp/internal/kgen"
	"intrawarp/internal/obs"
	"intrawarp/internal/oracle"
	"intrawarp/internal/par"
	"intrawarp/internal/stats"
	"intrawarp/internal/trace"
	"intrawarp/internal/workloads"
)

// The trace-once, cost-many sweep engine (paper Figs. 3/8/10: the same
// workload costed under every compaction policy). Every policy's cost is
// a pure function of an instruction's (width, group, execution mask), so
// one functional execution per (workload, width, size) group accounts
// all seven policies and serves every policy cell of the group. One
// replay of the execution's captured mask trace must reproduce its
// accounting exactly (stats.MaskCountsEqual), and Verify also checks
// that trace record by record against the independent oracle model. The
// CLI sweep (simd-bench -sweep) sits on ExecuteGroup; POST /v1/sweep
// (internal/serve) runs the same one execution per group without
// capturing a trace, since the execution's own accounting already holds
// every policy's cost.

// ResolveSpec returns the workload compiled at the given SIMD width in
// lanes; width 0 selects the native kernel. Non-zero widths are only
// available for the width-parameterizable workloads (workloads.AtWidth).
// Generated-corpus names ("kgen:<profile>:<seed>:<index>") resolve to
// deterministically regenerated kernels, so every consumer of this
// function — sweeps, the CLI, the HTTP service — serves the corpus
// through the same path as the hand-written suite.
func ResolveSpec(name string, width int) (*workloads.Spec, error) {
	if kgen.IsName(name) {
		switch width {
		case 0:
			return kgen.SpecFromName(name)
		case 4, 8, 16, 32:
			return kgen.SpecFromNameAt(name, isa.Width(width))
		default:
			// SIMD1 is excluded: corpus geometry is a power-of-two >= 4,
			// and silently clamping would serve a kernel whose name lies
			// about its width.
			return nil, fmt.Errorf("experiments: invalid SIMD width %d for corpus kernel %s (want 0, 4, 8, 16, or 32)", width, name)
		}
	}
	if width == 0 {
		return workloads.ByName(name)
	}
	switch width {
	case 1, 4, 8, 16, 32:
	default:
		return nil, fmt.Errorf("experiments: invalid SIMD width %d (want 1, 4, 8, 16, or 32)", width)
	}
	return workloads.AtWidth(name, isa.Width(width))
}

// ExpandWorkloads resolves a mixed list of registered workload names and
// generated-corpus names into individual validated workload names, in
// input order. Corpus range names ("kgen:<profile>:<seed>:<lo>-<hi>",
// half-open) expand to one entry per index, so a single sweep axis entry
// can fan out into a whole corpus window.
func ExpandWorkloads(names ...string) ([]string, error) {
	out := make([]string, 0, len(names))
	for _, n := range names {
		if kgen.IsName(n) {
			profile, seed, lo, hi, err := kgen.ParseRange(n)
			if err != nil {
				return nil, err
			}
			for i := lo; i < hi; i++ {
				out = append(out, kgen.Name(profile, seed, i))
			}
			continue
		}
		if _, err := workloads.ByName(n); err != nil {
			return nil, err
		}
		out = append(out, n)
	}
	return out, nil
}

// GroupSpec identifies one trace-capture group of a sweep: the workload
// execution whose mask trace serves every policy cell that shares it.
// Cells of one group differ only in compaction policy.
type GroupSpec struct {
	Workload string
	Width    int // SIMD width in lanes; 0 = the kernel's native width
	Size     int // problem scale; 0 = the workload default
	// SkipVerify drops the workload's host-side result check.
	SkipVerify bool
	// Verify additionally replays the captured trace through the
	// independent oracle model (internal/oracle), checking per-record
	// cost exactness, the cycle ladder, and SCC schedule soundness —
	// including the closed-form swizzle count the timed engine charges.
	Verify bool
}

// GroupResult is one executed group: the capturing run, its trace, and
// one run per policy.
type GroupResult struct {
	Spec *workloads.Spec
	// Base is the aggregate run of the one functional execution that
	// captured the trace.
	Base *stats.Run
	// Records is the captured execution-mask trace across all launches.
	Records []trace.Record
	// Runs holds one run per policy: a copy of Base with TimedPolicy set
	// to that policy.
	Runs [compaction.NumPolicies]*stats.Run
}

// ExecuteGroup performs a group's single functional execution with trace
// capture, checks the capture with one replay, and builds every policy's
// run from the capturing one. A probe factory installed with
// obs.ContextWithProbes observes both: the execution as
// "sweep/<workload>" and the check as "sweep/<workload>/replay" (one
// launch-level event pair, engine "trace-replay").
func ExecuteGroup(ctx context.Context, gs GroupSpec) (*GroupResult, error) {
	spec, err := ResolveSpec(gs.Workload, gs.Width)
	if err != nil {
		return nil, err
	}
	cfg := gpu.DefaultConfig()
	var replayProbe obs.Probe
	if probes := obs.ProbesFrom(ctx); probes != nil {
		cfg.EU.Probe = probes("sweep/" + spec.Name)
		replayProbe = probes("sweep/" + spec.Name + "/replay")
	}
	col := &trace.Collector{}
	base, err := workloads.ExecuteCtx(ctx, gpu.New(cfg), spec, workloads.ExecOptions{
		Size:       gs.Size,
		SkipVerify: gs.SkipVerify,
		Visit:      col.Visit,
	})
	if err != nil {
		return nil, err
	}
	if gs.Verify {
		if v, n := oracle.CheckTrace(col.Source(), nil); v != nil {
			return nil, fmt.Errorf("experiments: %s: oracle violation after %d records: %w", spec.Name, n, v)
		}
	}
	if err := checkCapture(base, col.Records, replayProbe); err != nil {
		return nil, fmt.Errorf("experiments: %s: %w", spec.Name, err)
	}
	res := &GroupResult{Spec: spec, Base: base, Records: col.Records}
	for _, p := range compaction.Policies {
		run := stats.NewRun(base.Name, base.Width)
		run.Merge(base)
		run.Mem, run.L3HitRate = base.Mem, base.L3HitRate
		run.TimedPolicy = p
		res.Runs[p] = run
	}
	return res, nil
}

// checkCapture replays the captured records once and fails unless they
// reproduce the capturing run's accounting: the one runtime proof that
// the trace holds exactly what the engine counted.
func checkCapture(base *stats.Run, recs []trace.Record, probe obs.Probe) error {
	if !trace.ReplayObserved(base.Name, "all", base.Width, recs, probe).MaskCountsEqual(base) {
		return errors.New("replayed trace accounting diverges from the capturing execution")
	}
	return nil
}

// SweepCell identifies one grid point of a sweep.
type SweepCell struct {
	Workload string
	Policy   compaction.Policy
	Width    int // 0 = native
	Size     int // 0 = default
}

// group is a cell's trace-capture group identity.
func (c SweepCell) group() groupKey { return groupKey{c.Workload, c.Width, c.Size} }

type groupKey struct {
	name        string
	width, size int
}

// SweepResult is one evaluated cell.
type SweepResult struct {
	Cell SweepCell
	Run  *stats.Run
}

// SweepOutcome is a completed sweep: per-cell results in grid order plus
// the execution tally that quantifies the trace-once design.
type SweepOutcome struct {
	Results    []SweepResult
	Executions int   // functional executions performed (one per group)
	Records    int64 // captured trace records across all groups
}

// Sweep is a first-class policy sweep: the cross product of workloads ×
// policies × SIMD widths × problem sizes, evaluated trace-once,
// cost-many. Build one with NewSweep and the Sweep* options.
type Sweep struct {
	workloads  []string
	policies   []compaction.Policy
	widths     []int
	sizes      []int
	skipVerify bool
	verify     bool
	quick      bool
	workers    int
}

// SweepOption adjusts a Sweep built by NewSweep.
type SweepOption func(*Sweep) error

// SweepWorkloads selects the workloads to sweep (at least one
// required). Registered names and generated-corpus names are both
// accepted; corpus range names expand to one workload per index.
func SweepWorkloads(names ...string) SweepOption {
	return func(s *Sweep) error {
		expanded, err := ExpandWorkloads(names...)
		if err != nil {
			return err
		}
		s.workloads = append(s.workloads, expanded...)
		return nil
	}
}

// SweepPolicies selects the policy axis; the default is all seven.
func SweepPolicies(ps ...compaction.Policy) SweepOption {
	return func(s *Sweep) error {
		for _, p := range ps {
			if int(p) >= compaction.NumPolicies {
				return fmt.Errorf("experiments: SweepPolicies(%d): want a policy below %d", p, compaction.NumPolicies)
			}
		}
		s.policies = append(s.policies, ps...)
		return nil
	}
}

// SweepWidths selects the SIMD-width axis in lanes; 0 means the kernel's
// native width (the default axis is just that).
func SweepWidths(ws ...int) SweepOption {
	return func(s *Sweep) error {
		for _, w := range ws {
			switch w {
			case 0, 1, 4, 8, 16, 32:
			default:
				return fmt.Errorf("experiments: SweepWidths(%d): want 0, 1, 4, 8, 16, or 32", w)
			}
		}
		s.widths = append(s.widths, ws...)
		return nil
	}
}

// SweepSizes selects the problem-size axis; 0 means the workload default
// (the default axis).
func SweepSizes(ns ...int) SweepOption {
	return func(s *Sweep) error {
		for _, n := range ns {
			if n < 0 {
				return fmt.Errorf("experiments: SweepSizes(%d): sizes must be non-negative", n)
			}
		}
		s.sizes = append(s.sizes, ns...)
		return nil
	}
}

// SweepQuick substitutes the reduced quick-set problem size for cells
// at the default size.
func SweepQuick() SweepOption {
	return func(s *Sweep) error { s.quick = true; return nil }
}

// SweepSkipChecks drops every workload's host-side result verification.
func SweepSkipChecks() SweepOption {
	return func(s *Sweep) error { s.skipVerify = true; return nil }
}

// SweepVerify oracle-checks every captured trace (see GroupSpec.Verify).
func SweepVerify() SweepOption {
	return func(s *Sweep) error { s.verify = true; return nil }
}

// SweepWorkers bounds the group worker pool. Values below 1 select
// GOMAXPROCS; 1 forces serial execution. Results are index-ordered, so
// the outcome is identical at any worker count.
func SweepWorkers(k int) SweepOption {
	return func(s *Sweep) error { s.workers = k; return nil }
}

// NewSweep builds a sweep grid from the options. Unset axes default to
// all seven policies × native width × default size.
func NewSweep(opts ...SweepOption) (*Sweep, error) {
	s := &Sweep{}
	for _, o := range opts {
		if err := o(s); err != nil {
			return nil, err
		}
	}
	if len(s.workloads) == 0 {
		return nil, fmt.Errorf("experiments: sweep needs at least one workload (SweepWorkloads)")
	}
	if len(s.policies) == 0 {
		s.policies = compaction.Policies[:]
	}
	if len(s.widths) == 0 {
		s.widths = []int{0}
	}
	if len(s.sizes) == 0 {
		s.sizes = []int{0}
	}
	return s, nil
}

// Cells enumerates the grid in canonical order: workload-major, then
// width, size, and policy.
func (s *Sweep) Cells() []SweepCell {
	cells := make([]SweepCell, 0, len(s.workloads)*len(s.widths)*len(s.sizes)*len(s.policies))
	for _, name := range s.workloads {
		for _, w := range s.widths {
			for _, n := range s.sizes {
				for _, p := range s.policies {
					cells = append(cells, SweepCell{Workload: name, Policy: p, Width: w, Size: n})
				}
			}
		}
	}
	return cells
}

// Run evaluates the grid: one functional execution per group (in
// parallel on the worker pool), whose run serves every cell of the
// group. Group errors are joined in grid order; a failed group fails the
// sweep.
func (s *Sweep) Run(ctx context.Context) (*SweepOutcome, error) {
	cells := s.Cells()
	var order []groupKey
	groups := map[groupKey]*GroupResult{}
	for _, c := range cells {
		k := c.group()
		if _, ok := groups[k]; !ok {
			groups[k] = nil
			order = append(order, k)
		}
	}
	results := make([]*GroupResult, len(order))
	errs := make([]error, len(order))
	par.For(s.workers, len(order), func(i int) {
		k := order[i]
		size := k.size
		if size == 0 && s.quick {
			if spec, err := workloads.ByName(k.name); err == nil {
				size = workloads.QuickSize(spec)
			}
		}
		results[i], errs[i] = ExecuteGroup(ctx, GroupSpec{
			Workload:   k.name,
			Width:      k.width,
			Size:       size,
			SkipVerify: s.skipVerify,
			Verify:     s.verify,
		})
	})
	var failed []error
	for i, k := range order {
		if errs[i] != nil {
			failed = append(failed, fmt.Errorf("experiments: sweep %s@%d/%d: %w", k.name, k.width, k.size, errs[i]))
			continue
		}
		groups[k] = results[i]
	}
	if len(failed) > 0 {
		return nil, errors.Join(failed...)
	}
	out := &SweepOutcome{Results: make([]SweepResult, 0, len(cells))}
	for _, c := range cells {
		g := groups[c.group()]
		out.Results = append(out.Results, SweepResult{Cell: c, Run: g.Runs[c.Policy]})
	}
	out.Executions = len(order)
	for _, g := range results {
		out.Records += int64(len(g.Records))
	}
	return out, nil
}

// Render writes the sweep as a table: one row per cell with the cell's
// policy cost and its reduction against the Ivy Bridge reference.
func (o *SweepOutcome) Render(w io.Writer) {
	t := newTable("workload", "width", "size", "policy", "instructions", "efficiency", "eu-cycles", "vs-ivb")
	for _, r := range o.Results {
		run := r.Run
		width := fmt.Sprintf("SIMD%d", run.Width)
		size := "default"
		if r.Cell.Size > 0 {
			size = fmt.Sprintf("%d", r.Cell.Size)
		}
		t.addf(run.Name, width, size, r.Cell.Policy.String(),
			fmt.Sprintf("%d", run.Instructions),
			fmt.Sprintf("%.3f", run.SIMDEfficiency()),
			fmt.Sprintf("%d", run.PolicyCycles[r.Cell.Policy]),
			fmt.Sprintf("%.1f%%", 100*run.EUCycleReduction(r.Cell.Policy)))
	}
	t.render(w)
	fmt.Fprintf(w, "%d cells from %d executions over %d trace records\n",
		len(o.Results), o.Executions, o.Records)
}
