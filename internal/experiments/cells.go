package experiments

import (
	"context"
	"fmt"

	"intrawarp/internal/compaction"
	"intrawarp/internal/gpu"
	"intrawarp/internal/isa"
	"intrawarp/internal/obs"
	"intrawarp/internal/par"
	"intrawarp/internal/stats"
	"intrawarp/internal/workloads"
)

// cell is one simulation of the evaluation: a workload at one size on the
// Table 3 machine, refined by a compaction policy and the memory and
// front-end knobs the studies vary. A zero knob keeps the Table 3 value.
type cell struct {
	spec   *workloads.Spec
	size   int  // problem scale; 0 = the workload default
	timed  bool // cycle-level simulator; otherwise the functional model
	verify bool // host-side result check
	policy compaction.Policy
	dc     int  // data-cluster lines per cycle
	pl3    bool // perfect L3
	issue  int  // instructions issued per arbitration pass
	jump   int  // front-end refetch penalty in cycles
}

// config is the Table 3 machine refined by the cell's fields, on one
// functional worker: experiments fan out over cells, not below them.
func (c cell) config() gpu.Config {
	cfg := gpu.DefaultConfig().WithPolicy(c.policy).WithWorkers(1)
	if c.dc > 0 {
		cfg.Mem.DCLinesPerCycle = c.dc
	}
	cfg.Mem.PerfectL3 = c.pl3
	if c.issue > 0 {
		cfg.EU.IssueWidth = c.issue
	}
	cfg.EU.JumpPenalty = c.jump
	return cfg
}

// eachPolicy returns one copy of c per policy, in the order given.
func (c cell) eachPolicy(ps ...compaction.Policy) []cell {
	out := make([]cell, len(ps))
	for i, p := range ps {
		c.policy = p
		out[i] = c
	}
	return out
}

// label names the cell as
// "<workload>/<policy>/dc<N>[/pl3][/iw<N>][/jp<N>][/functional]", with
// the issue width and jump penalty only when the cell sets them: the
// probe label of a timed cell and the prefix of a failing cell's error.
func (c cell) label() string {
	l := fmt.Sprintf("%s/%s/dc%d", c.spec.Name, c.policy, c.config().Mem.DCLinesPerCycle)
	if c.pl3 {
		l += "/pl3"
	}
	if c.issue > 0 {
		l += fmt.Sprintf("/iw%d", c.issue)
	}
	if c.jump > 0 {
		l += fmt.Sprintf("/jp%d", c.jump)
	}
	if !c.timed {
		l += "/functional"
	}
	return l
}

// onRunCells, when a test sets it, sees every batch of cells runCells
// is given, before any runs.
var onRunCells func([]cell)

// run executes the cell on a fresh GPU. A timed cell gets the probe that
// the context's factory (obs.ContextWithProbes) makes for its label.
func (c cell) run(ctx context.Context) (*stats.Run, error) {
	cfg := c.config()
	if factory := obs.ProbesFrom(ctx); factory != nil && c.timed {
		cfg.EU.Probe = factory(c.label())
	}
	return workloads.ExecuteCtx(ctx, gpu.New(cfg), c.spec, workloads.ExecOptions{
		Size: c.size, Timed: c.timed, SkipVerify: !c.verify,
	})
}

// runCells runs the cells on a worker pool of the given size (below 1
// selects GOMAXPROCS) and returns their runs in cell order, so output
// assembled from them is identical at any worker count. The error is the
// lowest-indexed failing cell's, prefixed with its label.
func runCells(ctx context.Context, workers int, cells []cell) ([]*stats.Run, error) {
	if onRunCells != nil {
		onRunCells(cells)
	}
	runs := make([]*stats.Run, len(cells))
	err := par.ForErr(workers, len(cells), func(i int) error {
		r, err := cells[i].run(ctx)
		if err != nil {
			return fmt.Errorf("%s: %w", cells[i].label(), err)
		}
		runs[i] = r
		return nil
	})
	if err != nil {
		return nil, err
	}
	return runs, nil
}

// sizeFor is the problem size a study runs s at: its quick-set size under
// quick, else 0 (the workload default).
func sizeFor(s *workloads.Spec, quick bool) int {
	if quick {
		return workloads.QuickSize(s)
	}
	return 0
}

// kernelSpec wraps a micro-benchmark kernel as a one-launch workload: n
// work-items in groups of 96 over a zeroed n-word output buffer (the
// kernel's argument 0; a fresh GPU's memory is zero), with no host check.
func kernelSpec(k *isa.Kernel) *workloads.Spec {
	return &workloads.Spec{
		Name: k.Name,
		Setup: func(g *gpu.GPU, n int) (*workloads.Instance, error) {
			out := g.AllocU32(n, nil)
			return workloads.Single(gpu.LaunchSpec{
				Kernel: k, GlobalSize: n, GroupSize: 96, Args: []uint32{out},
			}, nil), nil
		},
	}
}
