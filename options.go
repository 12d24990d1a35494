package intrawarp

import (
	"fmt"
	"io"

	"intrawarp/internal/experiments"
	"intrawarp/internal/gpu"
	"intrawarp/internal/workloads"
)

// Option configures a facade entry point, so new simulator knobs never
// grow positional signatures. One Option type serves every entry point:
// NewConfig and NewGPU (the machine), RunWorkloadCtx (one workload run),
// RunExperimentCtx and RunAllExperimentsCtx (the experiment registry),
// and NewSweep (a sweep grid). Each option's documentation names the
// entry points it applies to; passed to any other, it makes that entry
// point return an error naming both. An option built from an invalid
// value (WithSize(-1), WithDCBandwidth(0), …) makes every entry point it
// applies to return an error.
type Option struct {
	name       string
	err        error
	config     func(*gpu.Config)
	run        func(*workloads.ExecOptions)
	experiment func(*experiments.Context)
	sweep      experiments.SweepOption
}

// check reports whether o may configure entry: applies tells whether o
// has a setter for entry's target.
func (o Option) check(entry string, applies bool) error {
	if !applies {
		return fmt.Errorf("intrawarp: %s does not apply to %s", o.name, entry)
	}
	return o.err
}

// WithSize sets the problem scale of a RunWorkloadCtx run; 0 selects the
// workload's default. Negative sizes are rejected.
func WithSize(n int) Option {
	o := Option{name: "WithSize", run: func(s *workloads.ExecOptions) { s.Size = n }}
	if n < 0 {
		o.err = fmt.Errorf("intrawarp: WithSize(%d): size must be non-negative", n)
	}
	return o
}

// WithTimed selects the cycle-level simulator for a RunWorkloadCtx run;
// the default is the fast functional model.
func WithTimed() Option {
	return Option{name: "WithTimed", run: func(s *workloads.ExecOptions) { s.Timed = true }}
}

// WithoutVerify skips the host-side result check of a RunWorkloadCtx run
// or of every NewSweep group. Sweeps that re-execute one workload under
// many machine configurations verify one cell and skip the rest.
func WithoutVerify() Option {
	return Option{name: "WithoutVerify",
		run:   func(s *workloads.ExecOptions) { s.SkipVerify = true },
		sweep: experiments.SweepSkipChecks()}
}

// WithOutput directs the rendering of RunExperimentCtx or
// RunAllExperimentsCtx to w; the default is standard output.
func WithOutput(w io.Writer) Option {
	o := Option{name: "WithOutput", experiment: func(c *experiments.Context) { c.Out = w }}
	if w == nil {
		o.err = fmt.Errorf("intrawarp: WithOutput(nil): writer must be non-nil")
	}
	return o
}

// WithQuick selects reduced problem sizes for RunExperimentCtx and
// RunAllExperimentsCtx, and for the default-size cells of NewSweep.
func WithQuick() Option {
	return Option{name: "WithQuick",
		experiment: func(c *experiments.Context) { c.Quick = true },
		sweep:      experiments.SweepQuick()}
}

// WithPolicy selects the compaction policy of the machine built by
// NewConfig or NewGPU.
func WithPolicy(p Policy) Option {
	return Option{name: "WithPolicy", config: func(c *gpu.Config) { c.EU.Policy = p }}
}

// WithProbe attaches an instrumentation probe to every engine run of the
// GPU built by NewConfig or NewGPU (see the Probe interface and
// NewTimeline). A nil probe disables instrumentation — the default — and
// keeps the timed loop on its zero-allocation fast path.
func WithProbe(p Probe) Option {
	return Option{name: "WithProbe", config: func(c *gpu.Config) { c.EU.Probe = p }}
}

// WithConfig replaces the whole base configuration of NewConfig or
// NewGPU; options listed after it refine the given config.
func WithConfig(cfg Config) Option {
	return Option{name: "WithConfig", config: func(c *gpu.Config) { *c = cfg }}
}

// WithDCBandwidth sets the data-cluster bandwidth in cache lines per
// cycle (the paper's DC1/DC2 axis) of the machine built by NewConfig or
// NewGPU. Values below 1 are rejected.
func WithDCBandwidth(lines int) Option {
	o := Option{name: "WithDCBandwidth",
		config: func(c *gpu.Config) { c.Mem.DCLinesPerCycle = lines }}
	if lines < 1 {
		o.err = fmt.Errorf("intrawarp: WithDCBandwidth(%d): need at least 1 line/cycle", lines)
	}
	return o
}

// WithPerfectL3 models an always-hitting L3 (the paper's perfect-L3
// sensitivity study, Fig. 12) in the machine built by NewConfig or
// NewGPU.
func WithPerfectL3() Option {
	return Option{name: "WithPerfectL3", config: func(c *gpu.Config) { c.Mem.PerfectL3 = true }}
}

// WithMaxCycles sets the timed simulator's hang guard of NewConfig or
// NewGPU; 0 keeps the default budget. Negative budgets are rejected.
func WithMaxCycles(n int64) Option {
	o := Option{name: "WithMaxCycles", config: func(c *gpu.Config) { c.MaxCycles = n }}
	if n < 0 {
		o.err = fmt.Errorf("intrawarp: WithMaxCycles(%d): budget must be non-negative", n)
	}
	return o
}

// WithWorkers bounds a host worker pool to k goroutines: the functional
// engine's pool of the GPU built by NewConfig or NewGPU, the
// experiment-cell pool of RunExperimentCtx and RunAllExperimentsCtx, or
// the group pool of NewSweep. Values below 1 select
// runtime.GOMAXPROCS(0); 1 forces serial execution. Parallel runs
// produce output bit-identical to serial ones (see DESIGN.md §7).
func WithWorkers(k int) Option {
	return Option{name: "WithWorkers",
		config:     func(c *gpu.Config) { c.Workers = k },
		experiment: func(c *experiments.Context) { c.Workers = k },
		sweep:      experiments.SweepWorkers(k)}
}

// SweepWorkloads selects the workloads of a NewSweep grid (at least one
// required). Registered names and generated-corpus names are both
// accepted; corpus range names expand to one workload per index.
func SweepWorkloads(names ...string) Option {
	return Option{name: "SweepWorkloads", sweep: experiments.SweepWorkloads(names...)}
}

// SweepPolicies selects the policy axis of a NewSweep grid; the default
// is all seven.
func SweepPolicies(ps ...Policy) Option {
	return Option{name: "SweepPolicies", sweep: experiments.SweepPolicies(ps...)}
}

// SweepWidths selects the SIMD-width axis of a NewSweep grid in lanes
// (0 = native, the default axis).
func SweepWidths(ws ...int) Option {
	return Option{name: "SweepWidths", sweep: experiments.SweepWidths(ws...)}
}

// SweepSizes selects the problem-size axis of a NewSweep grid (0 = the
// workload default, the default axis).
func SweepSizes(ns ...int) Option {
	return Option{name: "SweepSizes", sweep: experiments.SweepSizes(ns...)}
}

// SweepVerify oracle-checks every captured trace of a NewSweep grid
// record by record.
func SweepVerify() Option {
	return Option{name: "SweepVerify", sweep: experiments.SweepVerify()}
}
