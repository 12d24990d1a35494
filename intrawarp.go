// Package intrawarp is a cycle-level simulator and analysis toolkit for
// intra-warp SIMD divergence compaction, reproducing "SIMD Divergence
// Optimization through Intra-Warp Compaction" (Vaidya, Shayesteh, Woo,
// Saharoy, Azimi — ISCA 2013).
//
// The library models an Intel Ivy Bridge-like GPU — multi-threaded EUs
// with 4-wide execution pipes running variable-width SIMD instructions
// over multiple cycles, a banked SLM / L3 / LLC / DRAM memory hierarchy
// behind a bandwidth-limited data cluster — and implements the paper's
// two cycle-compression techniques plus the pre-existing Ivy Bridge
// half-off optimization:
//
//   - BCC (Basic Cycle Compression) skips the execution cycles of aligned
//     lane groups that are entirely predicated off.
//   - SCC (Swizzled Cycle Compression) permutes enabled lanes through 4×4
//     crossbars so every instruction executes in ceil(active/4) cycles;
//     the crossbar control algorithm is the paper's Fig. 6.
//
// Quick start:
//
//	g, err := intrawarp.NewGPU(intrawarp.WithPolicy(intrawarp.SCC))
//	b := intrawarp.NewKernel("scale", intrawarp.SIMD16)
//	addr := b.Addr(b.Arg(0), b.GlobalID(), 4)
//	v := b.Vec()
//	b.LoadGather(v, addr)
//	b.Mul(v, v, b.F(2))
//	b.StoreScatter(addr, v)
//	kernel := b.MustBuild()
//	run, err := g.RunCtx(ctx, intrawarp.LaunchSpec{Kernel: kernel, GlobalSize: 1024, GroupSize: 64, Args: []uint32{buf}})
//
// Every entry point that runs a simulation takes a context.Context, and
// every entry point takes the one Option type (see options.go): machine
// knobs like WithPolicy configure NewGPU, WithSize and WithTimed
// parameterize RunWorkloadCtx, WithOutput parameterizes
// RunExperimentCtx, and SweepWorkloads builds a NewSweep grid. Shared
// knobs such as WithWorkers and WithQuick apply wherever they make
// sense; an option passed to an entry point it does not apply to is an
// error.
//
// The workload library (internal/workloads, surfaced through Workloads and
// RunWorkloadCtx) carries the paper's benchmark suite; the experiments
// registry (Experiments, RunExperimentCtx) regenerates every table and
// figure of the evaluation. See DESIGN.md and EXPERIMENTS.md.
package intrawarp

import (
	"context"
	"os"

	"intrawarp/internal/asm"
	"intrawarp/internal/compaction"
	"intrawarp/internal/experiments"
	"intrawarp/internal/gpu"
	"intrawarp/internal/isa"
	"intrawarp/internal/kbuild"
	"intrawarp/internal/mask"
	"intrawarp/internal/obs"
	"intrawarp/internal/stats"
	"intrawarp/internal/trace"
	"intrawarp/internal/workloads"
)

// Core types, re-exported from the implementation packages.
type (
	// Policy selects a cycle-compression scheme.
	Policy = compaction.Policy
	// Schedule is an SCC per-cycle crossbar plan (paper Fig. 6/7).
	Schedule = compaction.Schedule
	// Mask is a SIMD execution mask.
	Mask = mask.Mask
	// Config describes the simulated GPU.
	Config = gpu.Config
	// GPU is the simulated compute cluster.
	GPU = gpu.GPU
	// LaunchSpec is one kernel launch (1-D NDRange).
	LaunchSpec = gpu.LaunchSpec
	// Kernel is a compiled kernel.
	Kernel = isa.Kernel
	// Program is a kernel's instruction sequence.
	Program = isa.Program
	// Width is a SIMD execution width.
	Width = isa.Width
	// Builder assembles kernels.
	Builder = kbuild.Builder
	// Run holds the statistics of one execution.
	Run = stats.Run
	// Workload is a registered benchmark.
	Workload = workloads.Spec
	// TraceRecord is one instruction's execution-mask trace entry.
	TraceRecord = trace.Record
	// Experiment reproduces one paper table or figure.
	Experiment = experiments.Experiment
	// Probe receives engine instrumentation events (see internal/obs).
	Probe = obs.Probe
	// Timeline records probe events as a Chrome-trace/Perfetto timeline.
	Timeline = obs.Timeline
)

// Compaction policies, weakest to strongest, followed by the competitor
// divergence schemes from the literature (DARM-style melding, dynamic
// warp resizing, Volta-style independent thread scheduling).
const (
	Baseline  = compaction.Baseline
	IvyBridge = compaction.IvyBridge
	BCC       = compaction.BCC
	SCC       = compaction.SCC
	Melding   = compaction.Melding
	Resize    = compaction.Resize
	ITS       = compaction.ITS
)

// SIMD widths.
const (
	SIMD1  = isa.SIMD1
	SIMD4  = isa.SIMD4
	SIMD8  = isa.SIMD8
	SIMD16 = isa.SIMD16
	SIMD32 = isa.SIMD32
)

// Flag is a per-thread predicate flag register.
type Flag = isa.FlagReg

// Cond is a comparison condition for Cmp emitters.
type Cond = isa.CondMod

// Flag registers.
const (
	F0 = isa.F0
	F1 = isa.F1
)

// Comparison conditions.
const (
	CmpEQ = isa.CmpEQ
	CmpNE = isa.CmpNE
	CmpLT = isa.CmpLT
	CmpLE = isa.CmpLE
	CmpGT = isa.CmpGT
	CmpGE = isa.CmpGE
)

// DefaultConfig returns the paper's Table 3 machine configuration.
func DefaultConfig() Config { return gpu.DefaultConfig() }

// NewConfig builds a machine configuration: the paper's Table 3 machine
// refined by the given options, applied in order.
func NewConfig(opts ...Option) (Config, error) { return newConfig("NewConfig", opts) }

// NewGPU builds a simulated GPU from the default configuration refined by
// the given options.
func NewGPU(opts ...Option) (*GPU, error) {
	cfg, err := newConfig("NewGPU", opts)
	if err != nil {
		return nil, err
	}
	return gpu.New(cfg), nil
}

// newConfig applies opts, in order, to the Table 3 machine on behalf of
// the named entry point.
func newConfig(entry string, opts []Option) (Config, error) {
	cfg := gpu.DefaultConfig()
	for _, o := range opts {
		if err := o.check(entry, o.config != nil); err != nil {
			return Config{}, err
		}
		o.config(&cfg)
	}
	return cfg, nil
}

// NewKernel starts building a kernel of the given SIMD width.
func NewKernel(name string, width Width) *Builder { return kbuild.New(name, width) }

// Assemble parses a textual kernel in the disassembly syntax (labels,
// predicates, immediates — see internal/asm). The inverse is
// Program.Disassemble.
func Assemble(src string) (Program, error) { return asm.Assemble(src) }

// ComputeSchedule runs the SCC crossbar-setting algorithm of paper Fig. 6.
func ComputeSchedule(m Mask, width, group int) *Schedule {
	return compaction.ComputeSchedule(m, width, group)
}

// Workloads returns the registered benchmark suite.
func Workloads() []*Workload { return workloads.All() }

// WorkloadByName finds a registered benchmark.
func WorkloadByName(name string) (*Workload, error) { return workloads.ByName(name) }

// RunWorkloadCtx executes a benchmark on g and returns its statistics
// after host-side verification. By default it runs the fast functional
// model, on g's worker pool, at the workload's default problem size;
// refine with WithSize, WithTimed and WithoutVerify. The run stops
// between workgroups (functional model) or within a bounded cycle window
// (timed model) once ctx is done, returning ctx.Err() instead of partial
// stats.
func RunWorkloadCtx(ctx context.Context, g *GPU, w *Workload, opts ...Option) (*Run, error) {
	var exec workloads.ExecOptions
	for _, o := range opts {
		if err := o.check("RunWorkloadCtx", o.run != nil); err != nil {
			return nil, err
		}
		o.run(&exec)
	}
	return workloads.ExecuteCtx(ctx, g, w, exec)
}

// Experiments returns the paper-reproduction registry.
func Experiments() []*Experiment { return experiments.All() }

// newExperimentContext folds the named entry point's options over the
// defaults (standard output, full problem sizes, GOMAXPROCS workers).
func newExperimentContext(ctx context.Context, entry string, opts []Option) (*experiments.Context, error) {
	ectx := &experiments.Context{Ctx: ctx, Out: os.Stdout}
	for _, o := range opts {
		if err := o.check(entry, o.experiment != nil); err != nil {
			return nil, err
		}
		o.experiment(ectx)
	}
	return ectx, nil
}

// RunExperimentCtx regenerates one table or figure. By default the
// rendering goes to standard output at full problem sizes; refine with
// WithOutput, WithQuick and WithWorkers. In-flight simulation stops at
// the next workgroup boundary once ctx is done.
func RunExperimentCtx(ctx context.Context, id string, opts ...Option) error {
	ectx, err := newExperimentContext(ctx, "RunExperimentCtx", opts)
	if err != nil {
		return err
	}
	return experiments.Run(id, ectx)
}

// RunAllExperimentsCtx regenerates every registered table and figure in
// ID order; it takes the options of RunExperimentCtx. Independent
// experiments execute concurrently; the combined report is rendered in
// ID order regardless of worker count. Every experiment's rendering is
// flushed (completed ones in full, failed ones with a FAILED line) and
// the combined error joins all failures.
func RunAllExperimentsCtx(ctx context.Context, opts ...Option) error {
	ectx, err := newExperimentContext(ctx, "RunAllExperimentsCtx", opts)
	if err != nil {
		return err
	}
	return experiments.RunAll(ectx)
}

// ParsePolicy parses a policy name ("baseline", "ivybridge", "bcc",
// "scc", "meld", "resize", "its") or a literature alias ("melding",
// "darm", "dwr", "volta").
func ParsePolicy(s string) (Policy, error) { return compaction.ParsePolicy(s) }

// AnalyzeTrace replays execution-mask records through all compaction cost
// models, costing each distinct (width, group, mask) signature once —
// the accounting every engine run, and so every Sweep cell, uses.
func AnalyzeTrace(name string, records []TraceRecord) *Run {
	return trace.Analyze(name, &trace.SliceSource{Records: records})
}

// The trace-once, cost-many sweep API: a Sweep is a grid of workload ×
// policy × SIMD-width × size cells where each (workload, width, size)
// group is executed functionally once, capturing its execution-mask
// trace, and that one run serves every policy cell of the group.
type (
	// Sweep is a policy-sweep grid; build one with NewSweep and evaluate
	// it with its Run method, which checks ctx between groups.
	Sweep = experiments.Sweep
	// SweepCell identifies one grid point.
	SweepCell = experiments.SweepCell
	// SweepResult is one evaluated cell.
	SweepResult = experiments.SweepResult
	// SweepOutcome is a completed sweep with its execution tally.
	SweepOutcome = experiments.SweepOutcome
)

// NewSweep builds a sweep grid from SweepWorkloads (required), the other
// Sweep* axis options, and WithQuick, WithWorkers, WithDCBandwidth,
// WithPerfectL3 and WithoutVerify. Unset axes default to all seven
// policies × native width × default size.
func NewSweep(opts ...Option) (*Sweep, error) {
	sopts := make([]experiments.SweepOption, len(opts))
	for i, o := range opts {
		if err := o.check("NewSweep", o.sweep != nil); err != nil {
			return nil, err
		}
		sopts[i] = o.sweep
	}
	return experiments.NewSweep(sopts...)
}

// NewTimeline creates an empty timeline recorder. Attach per-run probes
// with Timeline.Run and WithProbe; export with Timeline.WriteJSON
// (Chrome-trace JSON, loadable in Perfetto or chrome://tracing). See
// docs/observability.md.
func NewTimeline() *Timeline { return obs.NewTimeline() }

// ContextWithProbes returns a context carrying a probe factory. Code
// that constructs engines internally — notably the experiment sweeps,
// where each cell builds its own GPU — consults the context and attaches
// factory(label) to every engine it creates. This is how simd-bench
// captures timelines from sweep cells it never constructs directly.
func ContextWithProbes(ctx context.Context, factory func(label string) Probe) context.Context {
	return obs.ContextWithProbes(ctx, factory)
}
