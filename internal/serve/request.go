package serve

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"runtime"

	"intrawarp/internal/compaction"
	"intrawarp/internal/experiments"
	"intrawarp/internal/kgen"
	"intrawarp/internal/workloads"
)

// RunRequest asks for one workload execution. The zero value of every
// optional field selects the library default, so sparse requests
// canonicalize to the same cache key as their explicit equivalents.
type RunRequest struct {
	// Workload is a registered benchmark name (see GET /v1/workloads).
	Workload string `json:"workload"`
	// Size is the problem scale; 0 selects the workload default.
	Size int `json:"size,omitempty"`
	// SIMDWidth compiles the kernel at the given SIMD width in lanes (1,
	// 4, 8, 16, or 32) instead of its native width; only the
	// width-parameterizable workloads support it. 0 selects the native
	// kernel — and omitempty keeps pre-existing cache keys stable.
	SIMDWidth int `json:"simdWidth,omitempty"`
	// Timed selects the cycle-level simulator (default: functional).
	Timed bool `json:"timed,omitempty"`
	// Policy is the divergence-policy name ("baseline", "ivb", "bcc",
	// "scc", "meld", "resize", "its", or an alias like "darm"/"dwr"/
	// "volta"); empty selects Ivy Bridge. Names are canonicalized before
	// caching, so aliases share their policy's cache entry.
	Policy string `json:"policy,omitempty"`
	// DCLinesPerCycle is the data-cluster bandwidth; 0 selects the
	// paper's DC1.
	DCLinesPerCycle int `json:"dcLinesPerCycle,omitempty"`
	// PerfectL3 models an always-hitting L3.
	PerfectL3 bool `json:"perfectL3,omitempty"`
	// SkipVerify drops the host-side result check.
	SkipVerify bool `json:"skipVerify,omitempty"`
	// Timeline embeds a Chrome-trace/Perfetto timeline of the run in the
	// response (also settable as ?timeline=1 on the request URL). It
	// changes the response bytes, so unlike Workers it is part of the
	// cache key; timeline runs put the functional engine on one worker so
	// the recorded event stream is deterministic.
	Timeline bool `json:"timeline,omitempty"`
	// Workers bounds the functional engine's worker pool, at most
	// GOMAXPROCS. It is a scheduling knob — results are bit-identical at
	// any worker count — so it is neither echoed nor part of the cache
	// key.
	Workers int `json:"workers,omitempty"`
}

// normalize validates the request, folds equivalent spellings onto one
// canonical form (the form the cache key is computed from) and returns
// the workload it names, resolved at its SIMD width: the spec its cache
// miss runs.
func (r *RunRequest) normalize() (*workloads.Spec, error) {
	if r.Workload == "" {
		return nil, fmt.Errorf("workload is required")
	}
	if r.SIMDWidth < 0 {
		return nil, fmt.Errorf("simdWidth must be non-negative")
	}
	spec, err := experiments.ResolveSpec(r.Workload, r.SIMDWidth)
	if err != nil {
		return nil, err
	}
	if r.Policy, err = canonicalPolicy(r.Policy); err != nil {
		return nil, err
	}
	if r.Size < 0 {
		r.Size = 0
	}
	if r.DCLinesPerCycle < 0 {
		return nil, fmt.Errorf("dcLinesPerCycle must be non-negative")
	}
	if r.DCLinesPerCycle == 0 {
		r.DCLinesPerCycle = 1
	}
	r.Workers = clampWorkers(r.Workers)
	return spec, nil
}

// canonicalPolicy is the canonical name of a policy name or alias; empty
// selects Ivy Bridge.
func canonicalPolicy(name string) (string, error) {
	if name == "" {
		return compaction.IvyBridge.String(), nil
	}
	p, err := compaction.ParsePolicy(name)
	if err != nil {
		return "", err
	}
	return p.String(), nil
}

// echo is the canonicalized request as its response echoes it and its
// key hashes it: without Workers, which never changes the result bytes,
// only the wall-clock.
func (r RunRequest) echo() RunRequest {
	r.Workers = 0
	return r
}

// key is the content address of the canonicalized request.
func (r RunRequest) key() string { return hashJSON("run", r.echo()) }

// clampWorkers bounds a request's worker knob to [0, GOMAXPROCS]: a
// worker past the host's processors adds a thread pool and a scratchpad
// but no speed.
func clampWorkers(k int) int { return min(max(k, 0), runtime.GOMAXPROCS(0)) }

// ExperimentRequest asks for one paper table/figure rendering, or the
// whole suite with ID "all".
type ExperimentRequest struct {
	ID    string `json:"id"`
	Quick bool   `json:"quick,omitempty"`
	// Workers bounds the experiment cell pool, at most GOMAXPROCS;
	// neither echoed nor part of the cache key (output is byte-identical
	// at any worker count).
	Workers int `json:"workers,omitempty"`
}

func (r *ExperimentRequest) normalize() error {
	if r.ID == "" {
		return fmt.Errorf("id is required (an experiment ID or \"all\")")
	}
	if r.ID != "all" {
		if _, err := experiments.ByID(r.ID); err != nil {
			return err
		}
	}
	r.Workers = clampWorkers(r.Workers)
	return nil
}

// echo is RunRequest.echo for experiments.
func (r ExperimentRequest) echo() ExperimentRequest {
	r.Workers = 0
	return r
}

func (r ExperimentRequest) key() string { return hashJSON("experiment", r.echo()) }

// SweepRequest asks for a grid of functional runs — the cross product
// of workloads × policies × SIMD widths × sizes — streamed back as
// NDJSON with one /v1/run response object per cell. Cells that share a
// (workload, width, size, memory-config) group share one functional
// execution, whose accounting holds every policy's cost, so a
// full-policy sweep costs one execution per group, not seven.
type SweepRequest struct {
	// Workloads is the workload axis; at least one name is required.
	Workloads []string `json:"workloads"`
	// Policies is the policy axis; empty selects all seven.
	Policies []string `json:"policies,omitempty"`
	// SIMDWidths is the width axis in lanes, 0 meaning the kernel's
	// native width; empty selects native only.
	SIMDWidths []int `json:"simdWidths,omitempty"`
	// Sizes is the problem-scale axis, 0 meaning the workload default;
	// empty selects the default only.
	Sizes []int `json:"sizes,omitempty"`
	// DCLinesPerCycle, PerfectL3, and SkipVerify apply to every cell,
	// with exactly the /v1/run semantics.
	DCLinesPerCycle int  `json:"dcLinesPerCycle,omitempty"`
	PerfectL3       bool `json:"perfectL3,omitempty"`
	SkipVerify      bool `json:"skipVerify,omitempty"`
}

// size counts the cells the grid expands to from its axes alone: a
// corpus range counts its hi−lo kernels and an empty policy axis all
// seven policies. It expands no range and resolves no kernel, so a grid
// over the cell limit, a billion-kernel range included, is refused
// before any of it is built. The count saturates at math.MaxInt.
func (r *SweepRequest) size() int {
	per := len(r.Policies)
	if per == 0 {
		per = compaction.NumPolicies
	}
	per = mulSat(mulSat(per, max(len(r.SIMDWidths), 1)), max(len(r.Sizes), 1))
	total := 0
	for _, name := range r.Workloads {
		kernels := 1
		if kgen.IsName(name) {
			if _, _, lo, hi, err := kgen.ParseRange(name); err == nil {
				kernels = hi - lo
			}
		}
		n := mulSat(kernels, per)
		if n > math.MaxInt-total {
			return math.MaxInt
		}
		total += n
	}
	return total
}

// mulSat is a·b for non-negative a and b, saturating at math.MaxInt.
func mulSat(a, b int) int {
	if a != 0 && b > math.MaxInt/a {
		return math.MaxInt
	}
	return a * b
}

// sweepCell is one grid point of a sweep: the canonical /v1/run request
// its stream line answers and the workload that request names.
type sweepCell struct {
	req  RunRequest
	spec *workloads.Spec
}

// cells expands the grid into canonicalized per-cell RunRequests in
// grid order (workload-major, then width, size, policy). Each cell is
// exactly the functional /v1/run request its stream line answers — the
// basis of the per-cell byte-identity and cache-sharing guarantees.
// Each (workload, width, size) is normalized and its workload resolved
// once, then copied under every policy. Generated-corpus range names on
// the workload axis expand to one cell column per index, each under its
// canonical single-kernel name, so corpus cells share the cache with
// direct /v1/run requests for the same kernel.
func (r *SweepRequest) cells() ([]sweepCell, error) {
	if len(r.Workloads) == 0 {
		return nil, fmt.Errorf("workloads is required (at least one)")
	}
	names, err := experiments.ExpandWorkloads(r.Workloads...)
	if err != nil {
		return nil, err
	}
	policies := r.Policies
	if len(policies) == 0 {
		policies = make([]string, 0, len(compaction.Policies))
		for _, p := range compaction.Policies {
			policies = append(policies, p.String())
		}
	}
	widths := r.SIMDWidths
	if len(widths) == 0 {
		widths = []int{0}
	}
	sizes := r.Sizes
	if len(sizes) == 0 {
		sizes = []int{0}
	}
	cells := make([]sweepCell, 0, len(names)*len(widths)*len(sizes)*len(policies))
	for _, name := range names {
		for _, w := range widths {
			for _, n := range sizes {
				base := RunRequest{
					Workload:        name,
					Size:            n,
					SIMDWidth:       w,
					Policy:          policies[0],
					DCLinesPerCycle: r.DCLinesPerCycle,
					PerfectL3:       r.PerfectL3,
					SkipVerify:      r.SkipVerify,
				}
				spec, err := base.normalize()
				if err != nil {
					return nil, fmt.Errorf("cell %s/%s: %w", name, policies[0], err)
				}
				for _, p := range policies {
					cell := base
					if cell.Policy, err = canonicalPolicy(p); err != nil {
						return nil, fmt.Errorf("cell %s/%s: %w", name, p, err)
					}
					cells = append(cells, sweepCell{cell, spec})
				}
			}
		}
	}
	return cells, nil
}

// groupKey is the content address of a cell's sweep group: every field
// of the canonicalized cell except the policy (served by the group's one
// execution) and the worker knob (never part of any key).
func (r RunRequest) groupKey() string {
	r.Policy = ""
	return hashJSON("sweepgroup", r.echo())
}

// hashJSON content-addresses a canonicalized request. encoding/json
// marshals struct fields in declaration order and map keys sorted, so
// equal canonical requests hash equal.
func hashJSON(kind string, v any) string {
	b, err := json.Marshal(v)
	if err != nil {
		// Requests are plain structs of scalars; marshal cannot fail.
		panic(err)
	}
	sum := sha256.Sum256(append([]byte(kind+"\x00"), b...))
	return hex.EncodeToString(sum[:])
}
