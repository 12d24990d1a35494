// Package workloads implements the benchmark kernels of the paper's
// execution-driven evaluation (Table 1): Rodinia-style divergent kernels
// (BFS, HotSpot, LavaMD, Needleman-Wunsch, Particle Filter, EigenValue),
// two in-house-style ray tracers (primary rays and ambient occlusion over
// four procedural scenes, compiled at SIMD8 and SIMD16), and a coherent
// HPC set (vector add, matrix multiply, Black-Scholes, DCT, …). Every
// kernel is written from scratch against the kbuild assembler and verified
// against a host-side reference.
package workloads

import (
	"context"
	"fmt"
	"math/rand"
	"sort"

	"intrawarp/internal/gpu"
	"intrawarp/internal/isa"
	"intrawarp/internal/stats"
)

// Seed makes all input generation deterministic.
const Seed = 20130624 // ISCA'13 week

// Instance is one prepared workload execution: a possibly data-dependent
// sequence of kernel launches plus a host-side result check.
type Instance struct {
	// Next returns the spec for launch iter, or nil when the workload is
	// complete. It is called after the previous launch has finished, so it
	// may inspect device memory (e.g. BFS's continue flag).
	Next func(iter int) *gpu.LaunchSpec
	// Check verifies device results against a host reference.
	Check func() error
}

// Single wraps one launch and a check into an Instance.
func Single(spec gpu.LaunchSpec, check func() error) *Instance {
	return &Instance{
		Next: func(iter int) *gpu.LaunchSpec {
			if iter > 0 {
				return nil
			}
			return &spec
		},
		Check: check,
	}
}

// Spec describes a registered workload.
type Spec struct {
	Name      string
	Class     string // "coherent", "rodinia", "raytrace", "hpc-div"
	Divergent bool   // expected SIMD-efficiency classification
	DefaultN  int    // default problem scale
	Setup     func(g *gpu.GPU, n int) (*Instance, error)
}

var registry []*Spec

func register(s *Spec) { registry = append(registry, s) }

// All returns every registered workload, sorted by name.
func All() []*Spec {
	out := make([]*Spec, len(registry))
	copy(out, registry)
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// ByClass returns the registered workloads of one class, sorted by name.
func ByClass(class string) []*Spec {
	var out []*Spec
	for _, s := range All() {
		if s.Class == class {
			out = append(out, s)
		}
	}
	return out
}

// ByName finds a workload.
func ByName(name string) (*Spec, error) {
	for _, s := range registry {
		if s.Name == name {
			return s, nil
		}
	}
	return nil, fmt.Errorf("workloads: unknown workload %q", name)
}

// DivergentSimSet returns the execution-driven divergent set the paper's
// timing analysis uses (§5.4), sorted by name.
func DivergentSimSet() []*Spec {
	var out []*Spec
	for _, s := range All() {
		if s.Divergent {
			out = append(out, s)
		}
	}
	return out
}

// ExecOptions parameterizes one workload execution.
type ExecOptions struct {
	// Size is the problem scale; 0 or negative selects Spec.DefaultN.
	Size int
	// Timed selects the cycle-level simulator; the default is the
	// functional model.
	Timed bool
	// SkipVerify drops the host-side result check. Sweeps that execute
	// the same workload under many machine configurations (policy × DC
	// bandwidth × L3 cells) verify one cell and skip the rest: every
	// policy is architecturally result-identical (a tested invariant), so
	// repeating the reference computation on every cell only slows the
	// hot path down.
	SkipVerify bool
	// Visit observes every functionally executed instruction across all
	// of the workload's launches (trace capture, differential
	// verification). A non-nil visitor runs every functional launch on
	// one worker, so it sees the instructions in workgroup order; timed
	// runs ignore it.
	Visit gpu.InstrVisitor
}

// ExecuteCtx runs an instance to completion on g according to opts.
// Launch statistics are merged; timed quantities accumulate across
// launches. ctx is threaded into every launch (where the engines check
// it at workgroup granularity) and checked between launches of
// multi-launch workloads. A cancelled execution returns ctx.Err() and
// never partial statistics.
func ExecuteCtx(ctx context.Context, g *gpu.GPU, spec *Spec, opts ExecOptions) (*stats.Run, error) {
	n := opts.Size
	if n <= 0 {
		n = spec.DefaultN
	}
	inst, err := spec.Setup(g, n)
	if err != nil {
		return nil, fmt.Errorf("workloads: %s setup: %w", spec.Name, err)
	}
	var agg *stats.Run
	for iter := 0; ; iter++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		ls := inst.Next(iter)
		if ls == nil {
			break
		}
		var r *stats.Run
		if opts.Timed {
			r, err = g.RunCtx(ctx, *ls)
		} else {
			r, err = g.RunFunctionalCtx(ctx, *ls, opts.Visit)
		}
		if err != nil {
			return nil, fmt.Errorf("workloads: %s launch %d: %w", spec.Name, iter, err)
		}
		if agg == nil {
			agg = stats.NewRun(spec.Name, r.Width)
			agg.TimedPolicy = r.TimedPolicy
		}
		agg.Merge(r)
		if iter > 100000 {
			return nil, fmt.Errorf("workloads: %s: runaway launch loop", spec.Name)
		}
	}
	if agg == nil {
		return nil, fmt.Errorf("workloads: %s produced no launches", spec.Name)
	}
	agg.Mem = g.Mem.Stats
	agg.L3HitRate = g.Mem.L3.HitRate()
	if inst.Check != nil && !opts.SkipVerify {
		if err := inst.Check(); err != nil {
			return nil, fmt.Errorf("workloads: %s verification: %w", spec.Name, err)
		}
	}
	return agg, nil
}

// widthVariants lists the workloads whose kernels are SIMD-width
// agnostic, with their width-parameterized setup functions. Used by the
// width ablation (paper §5.4/§7: wider warps lose more efficiency to
// divergence and gain more from compaction).
var widthVariants map[string]func(g *gpu.GPU, n int, w isa.Width) (*Instance, error)

func registerWidthVariant(name string, setup func(g *gpu.GPU, n int, w isa.Width) (*Instance, error)) {
	if widthVariants == nil {
		widthVariants = make(map[string]func(*gpu.GPU, int, isa.Width) (*Instance, error))
	}
	widthVariants[name] = setup
}

// AtWidth returns a copy of a width-parameterizable workload compiled at
// the given SIMD width. Only a subset of workloads support this.
func AtWidth(name string, w isa.Width) (*Spec, error) {
	setup, ok := widthVariants[name]
	if !ok {
		return nil, fmt.Errorf("workloads: %q has no width variants", name)
	}
	base, err := ByName(name)
	if err != nil {
		return nil, err
	}
	return &Spec{
		Name:      fmt.Sprintf("%s@SIMD%d", name, w.Lanes()),
		Class:     base.Class,
		Divergent: base.Divergent,
		DefaultN:  base.DefaultN,
		Setup: func(g *gpu.GPU, n int) (*Instance, error) {
			return setup(g, n, w)
		},
	}, nil
}

// rng returns the deterministic random source for input generation,
// optionally salted per workload.
func rng(salt int64) *rand.Rand { return rand.New(rand.NewSource(Seed + salt)) }

// madf32 mirrors the device ALU's MAD: the product is explicitly rounded
// to float32 before the add (no fusing), so host references can reproduce
// kernel arithmetic bit-exactly at comparison boundaries.
func madf32(x, y, z float32) float32 {
	m := x * y
	return m + z
}

// almostEqual compares floats with a relative tolerance suitable for the
// single-precision EM approximations.
func almostEqual(a, b, tol float32) bool {
	d := a - b
	if d < 0 {
		d = -d
	}
	m := a
	if m < 0 {
		m = -m
	}
	if bb := b; bb < 0 {
		bb = -bb
		if bb > m {
			m = bb
		}
	} else if bb > m {
		m = bb
	}
	return d <= tol*(1+m)
}
