// Package kgen is a seeded, fully deterministic random kernel generator
// built on the kbuild assembler. Each generated kernel is a structured
// CFG — nested IF/ELSE, do-while loops with BREAK/CONT, workgroup
// barriers, SLM exchanges, atomics — with parameterized divergence and
// memory-coalescing profiles (branch-taken probability per lane class,
// loop trip-count skew, gather/scatter stride distributions), paired
// with an expected-output reference computed by a straight-line Go
// evaluator so functional correctness is checked end to end, not just
// timing.
//
// Determinism contract: a kernel is a pure function of its Params.
// Generation consults only the embedded splitmix64 stream (never global
// rand, never map iteration order), so the same Params produce a
// byte-identical isa.Program on every run, at any GOMAXPROCS, on any
// platform. Corpus kernels are addressed by name:
//
//	kgen:<profile>:<seed>:<index>
//
// where Derive(profile, seed, index) expands the triple into concrete
// Params. Sweeps accept the range form kgen:<profile>:<seed>:<lo>-<hi>
// (half-open, expanded by experiments.ExpandWorkloads).
package kgen

import (
	"fmt"
	"strconv"
	"strings"
)

// Params fully determines one generated kernel. Every field is bounded;
// Normalize clamps arbitrary values (fuzzer input, shrink candidates)
// into the valid envelope.
type Params struct {
	Seed uint64 // generation stream seed

	// Launch geometry.
	Width  uint8 // SIMD lanes: 4, 8, 16, or 32
	TPG    uint8 // EU threads per workgroup: 1, 2, or 4
	Groups uint8 // workgroups: 1, 2, 4, or 8

	// Program shape.
	States   uint8 // mutable per-lane state variables: 2..6
	Stmts    uint8 // statement budget: 3..24
	MaxDepth uint8 // control-nesting cap: 0..3 (loops cap at 2)
	IfRate   uint8 // 0..100: weight of IF/ELSE among control statements
	LoopRate uint8 // 0..100: weight of loops among control statements

	// Divergence profile.
	BranchBias uint8 // 0..100: branch-taken probability per lane class
	GranLog2   uint8 // log2 lane-class granularity of branch conditions: 0..6
	TripBase   uint8 // loop base trip count: 1..6
	TripSkew   uint8 // per-lane trip skew mask: 0, 1, 3, or 7
	BreakRate  uint8 // 0..100: chance a loop body carries a data-dependent BREAK
	ContRate   uint8 // 0..100: chance a leaf loop body carries a CONT

	// Memory profile.
	MemRate      uint8  // 0..100: memory-statement probability
	StrideMax    uint8  // gather strides drawn from {1, 2, .., 2^StrideMax}: 0..4
	IndirectRate uint8  // 0..100: gathers use data-dependent (hashed) addresses
	SLMRate      uint8  // 0..100: SLM exchange probability per top-level slot
	AtomicRate   uint8  // 0..100: atomic-add probability within memory statements
	EMRate       uint8  // 0..100: dead extended-math statement probability
	InWords      uint16 // input buffer words, power of two: 64..4096
}

// accWords is the size of the shared atomic accumulator buffer.
const accWords = 16

// Normalize clamps every field into its valid range, rounding sizes to
// the nearest legal power of two. It is idempotent.
func (p Params) Normalize() Params {
	p.Width = pickPow2(p.Width, 4, 32)
	p.TPG = pickPow2(p.TPG, 1, 4)
	p.Groups = pickPow2(p.Groups, 1, 8)
	p.States = clamp8(p.States, 2, 6)
	p.Stmts = clamp8(p.Stmts, 3, 24)
	p.MaxDepth = clamp8(p.MaxDepth, 0, 3)
	p.IfRate %= 101
	p.LoopRate %= 101
	p.BranchBias %= 101
	p.GranLog2 = clamp8(p.GranLog2, 0, 6)
	p.TripBase = clamp8(p.TripBase, 1, 6)
	p.TripSkew = pickPow2(p.TripSkew+1, 1, 8) - 1 // 0,1,3,7
	p.BreakRate %= 101
	p.ContRate %= 101
	p.MemRate %= 101
	p.StrideMax = clamp8(p.StrideMax, 0, 4)
	p.IndirectRate %= 101
	p.SLMRate %= 101
	p.AtomicRate %= 101
	p.EMRate %= 101
	p.InWords = pickPow2_16(p.InWords, 64, 4096)
	return p
}

// Lanes returns the NDRange size (global work items).
func (p Params) Lanes() int { return int(p.Groups) * p.GroupSize() }

// GroupSize returns the workgroup size in work items.
func (p Params) GroupSize() int { return int(p.Width) * int(p.TPG) }

func clamp8(v, lo, hi uint8) uint8 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// pickPow2 rounds v down to a power of two, clamped into [lo, hi] (both
// powers of two).
func pickPow2(v, lo, hi uint8) uint8 {
	if v < lo {
		return lo
	}
	if v > hi {
		v = hi
	}
	for !isPow2(uint32(v)) {
		v--
	}
	return v
}

func pickPow2_16(v, lo, hi uint16) uint16 {
	if v < lo {
		return lo
	}
	if v > hi {
		v = hi
	}
	for !isPow2(uint32(v)) {
		v--
	}
	return v
}

func isPow2(v uint32) bool { return v != 0 && v&(v-1) == 0 }

// --- Deterministic stream --------------------------------------------------

// rng is a splitmix64 stream: tiny, fast, and — unlike math/rand —
// guaranteed stable across Go releases, which the corpus reproducibility
// contract depends on.
type rng struct{ s uint64 }

func newRNG(seed uint64) *rng { return &rng{s: seed} }

func (r *rng) next() uint64 {
	r.s += 0x9E3779B97F4A7C15
	z := r.s
	z ^= z >> 30
	z *= 0xBF58476D1CE4E5B9
	z ^= z >> 27
	z *= 0x94D049BB133111EB
	z ^= z >> 31
	return z
}

func (r *rng) u32() uint32 { return uint32(r.next() >> 32) }

// n returns a value in [0, n).
func (r *rng) n(n int) int {
	if n <= 1 {
		return 0
	}
	return int(r.next() % uint64(n))
}

// pct flips a biased coin: true with probability rate/100.
func (r *rng) pct(rate uint8) bool { return r.n(100) < int(rate) }

// hash32 is the per-lane mixing function shared — operation for
// operation — between the evaluator and the lowered kernels (MulU,
// AddU, Shr, Xor are all exact wraparound u32 ops on the device).
func hash32(x, salt uint32) uint32 {
	x = x*0x9E3779B1 + salt
	x ^= x >> 16
	x *= 0x85EBCA77
	x ^= x >> 13
	return x
}

// --- Profiles --------------------------------------------------------------

// Profiles lists the generator profiles in their canonical order.
var Profiles = []string{"mixed", "branchy", "loopy", "memory", "slm", "coherent"}

// ValidProfile reports whether name is a known generator profile.
func ValidProfile(name string) bool {
	for _, p := range Profiles {
		if p == name {
			return true
		}
	}
	return false
}

// Derive expands (profile, seed, index) into concrete Params. The
// triple is the unit of corpus addressing: the same triple always
// yields the same Params, and therefore the same kernel.
func Derive(profile string, seed uint64, index int) (Params, error) {
	if !ValidProfile(profile) {
		return Params{}, fmt.Errorf("kgen: unknown profile %q (have %s)",
			profile, strings.Join(Profiles, ", "))
	}
	r := newRNG(seed ^ hashIndex(index))
	p := Params{
		Seed:     r.next(),
		Width:    []uint8{8, 16, 16, 32, 4}[r.n(5)],
		TPG:      []uint8{1, 2, 2, 4}[r.n(4)],
		Groups:   []uint8{1, 2, 2, 4}[r.n(4)],
		States:   uint8(3 + r.n(4)),
		Stmts:    uint8(6 + r.n(10)),
		MaxDepth: uint8(1 + r.n(3)),
		IfRate:   50, LoopRate: 50,
		BranchBias: uint8(20 + r.n(61)),
		GranLog2:   uint8(r.n(5)),
		TripBase:   uint8(2 + r.n(4)),
		TripSkew:   []uint8{0, 1, 3, 7}[r.n(4)],
		BreakRate:  40, ContRate: 30,
		MemRate:      35,
		StrideMax:    uint8(r.n(5)),
		IndirectRate: 35, SLMRate: 15, AtomicRate: 25, EMRate: 15,
		InWords: []uint16{256, 1024, 1024, 4096}[r.n(4)],
	}
	switch profile {
	case "branchy":
		p.Stmts = uint8(10 + r.n(12))
		p.MaxDepth = uint8(2 + r.n(2))
		p.IfRate, p.LoopRate = 90, 10
		p.GranLog2 = uint8(r.n(3)) // fine-grained lane classes
		p.MemRate, p.SLMRate, p.EMRate = 15, 5, 10
	case "loopy":
		p.IfRate, p.LoopRate = 25, 85
		p.MaxDepth = 2
		p.TripBase = uint8(3 + r.n(4))
		p.TripSkew = []uint8{3, 7, 7}[r.n(3)]
		p.BreakRate, p.ContRate = 65, 50
	case "memory":
		p.MemRate = 75
		p.IndirectRate = uint8(30 + r.n(50))
		p.StrideMax = uint8(2 + r.n(3))
		p.InWords = 4096
		p.AtomicRate = 35
	case "slm":
		p.TPG = []uint8{2, 4}[r.n(2)]
		p.SLMRate = 70
		p.AtomicRate = 50
		p.MemRate = 50
	case "coherent":
		// Warp-uniform control: every lane class spans at least a full
		// warp, strides are unit, no data-dependent addressing.
		p.GranLog2 = 6
		p.StrideMax = 0
		p.IndirectRate = 0
		p.BreakRate, p.ContRate = 20, 0
		p.TripSkew = 0
	}
	return p.Normalize(), nil
}

func hashIndex(index int) uint64 {
	z := uint64(index)*0x9E3779B97F4A7C15 + 0xD1B54A32D192ED03
	z ^= z >> 32
	z *= 0xBF58476D1CE4E5B9
	z ^= z >> 29
	return z
}

// FromBytes derives Params from raw fuzzer input: the first bytes map
// positionally onto the fields, anything missing defaults, and the
// result is normalized into the valid envelope. Every byte string is a
// valid kernel.
func FromBytes(data []byte) Params {
	at := func(i int, def uint8) uint8 {
		if i < len(data) {
			return data[i]
		}
		return def
	}
	var seed uint64
	for i := 0; i < 8; i++ {
		seed = seed<<8 | uint64(at(i, 0x5A))
	}
	p := Params{
		Seed:         seed,
		Width:        at(8, 16),
		TPG:          at(9, 2),
		Groups:       at(10, 2),
		States:       at(11, 4),
		Stmts:        at(12, 10),
		MaxDepth:     at(13, 2),
		IfRate:       at(14, 50),
		LoopRate:     at(15, 50),
		BranchBias:   at(16, 50),
		GranLog2:     at(17, 1),
		TripBase:     at(18, 3),
		TripSkew:     at(19, 3),
		BreakRate:    at(20, 40),
		ContRate:     at(21, 30),
		MemRate:      at(22, 40),
		StrideMax:    at(23, 2),
		IndirectRate: at(24, 30),
		SLMRate:      at(25, 20),
		AtomicRate:   at(26, 25),
		EMRate:       at(27, 15),
		InWords:      uint16(at(28, 2)) << 8,
	}
	return p.Normalize()
}

// --- Corpus naming ---------------------------------------------------------

// NamePrefix starts every corpus workload name.
const NamePrefix = "kgen:"

// Name formats the canonical corpus workload name for one kernel.
func Name(profile string, seed uint64, index int) string {
	return fmt.Sprintf("kgen:%s:%d:%d", profile, seed, index)
}

// RangeName formats the half-open range form accepted by sweeps.
func RangeName(profile string, seed uint64, lo, hi int) string {
	return fmt.Sprintf("kgen:%s:%d:%d-%d", profile, seed, lo, hi)
}

// IsName reports whether a workload name addresses the generated corpus
// (single or range form).
func IsName(name string) bool { return strings.HasPrefix(name, NamePrefix) }

// ParseName parses a single-kernel corpus name kgen:<profile>:<seed>:<index>.
func ParseName(name string) (profile string, seed uint64, index int, err error) {
	parts := strings.Split(name, ":")
	if len(parts) != 4 || parts[0] != "kgen" {
		return "", 0, 0, fmt.Errorf("kgen: malformed corpus name %q (want kgen:<profile>:<seed>:<index>)", name)
	}
	if !ValidProfile(parts[1]) {
		return "", 0, 0, fmt.Errorf("kgen: unknown profile %q in %q", parts[1], name)
	}
	seed, err = strconv.ParseUint(parts[2], 10, 64)
	if err != nil {
		return "", 0, 0, fmt.Errorf("kgen: bad seed in %q: %v", name, err)
	}
	index, err = strconv.Atoi(parts[3])
	if err != nil || index < 0 {
		return "", 0, 0, fmt.Errorf("kgen: bad index in %q", name)
	}
	return parts[1], seed, index, nil
}

// ParseRange parses either name form, returning the half-open index
// window [lo, hi). A single-kernel name yields [index, index+1).
func ParseRange(name string) (profile string, seed uint64, lo, hi int, err error) {
	parts := strings.Split(name, ":")
	if len(parts) != 4 || parts[0] != "kgen" {
		return "", 0, 0, 0, fmt.Errorf("kgen: malformed corpus name %q", name)
	}
	if i := strings.IndexByte(parts[3], '-'); i >= 0 {
		if !ValidProfile(parts[1]) {
			return "", 0, 0, 0, fmt.Errorf("kgen: unknown profile %q in %q", parts[1], name)
		}
		seed, err = strconv.ParseUint(parts[2], 10, 64)
		if err != nil {
			return "", 0, 0, 0, fmt.Errorf("kgen: bad seed in %q: %v", name, err)
		}
		lo, err = strconv.Atoi(parts[3][:i])
		if err != nil {
			return "", 0, 0, 0, fmt.Errorf("kgen: bad range in %q", name)
		}
		hi, err = strconv.Atoi(parts[3][i+1:])
		if err != nil || lo < 0 || hi <= lo {
			return "", 0, 0, 0, fmt.Errorf("kgen: bad range in %q (want <lo>-<hi>, half-open, hi > lo)", name)
		}
		return parts[1], seed, lo, hi, nil
	}
	profile, seed, lo, err = ParseName(name)
	return profile, seed, lo, lo + 1, err
}
