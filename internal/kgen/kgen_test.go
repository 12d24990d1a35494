package kgen

import (
	"bytes"
	"context"
	"runtime"
	"sync"
	"testing"

	"intrawarp/internal/gpu"
	"intrawarp/internal/workloads"
)

const testSeed = 20130624

// TestCorpusSerialMatchesEvaluator is the core end-to-end contract: for
// a window of every profile, the serial functional engine must
// reproduce the straight-line evaluator's buffers exactly (the check is
// wired into Spec.Setup, so ExecuteOpts fails on any mismatch).
func TestCorpusSerialMatchesEvaluator(t *testing.T) {
	for _, profile := range Profiles {
		profile := profile
		t.Run(profile, func(t *testing.T) {
			t.Parallel()
			for idx := 0; idx < 8; idx++ {
				spec, err := SpecFor(profile, testSeed, idx)
				if err != nil {
					t.Fatalf("index %d: %v", idx, err)
				}
				g := gpu.New(gpu.DefaultConfig().WithWorkers(1))
				if _, err := workloads.ExecuteCtx(context.Background(), g, spec, workloads.ExecOptions{}); err != nil {
					t.Fatalf("index %d (%s): %v", idx, spec.Name, err)
				}
			}
		})
	}
}

// TestCorpusParallelEngineAgrees runs the same window through the
// workgroup-sharded functional engine: the scatter/atomic/SLM shapes
// the generator emits must be interleaving-independent.
func TestCorpusParallelEngineAgrees(t *testing.T) {
	for _, profile := range []string{"mixed", "slm", "memory"} {
		for idx := 0; idx < 4; idx++ {
			spec, err := SpecFor(profile, testSeed, idx)
			if err != nil {
				t.Fatalf("%s/%d: %v", profile, idx, err)
			}
			g := gpu.New(gpu.DefaultConfig().WithWorkers(4))
			if _, err := workloads.ExecuteCtx(context.Background(), g, spec, workloads.ExecOptions{}); err != nil {
				t.Fatalf("%s/%d (%s): %v", profile, idx, spec.Name, err)
			}
		}
	}
}

// TestCorpusTimedEngineAgrees spot-checks the cycle-level engine on a
// few kernels per profile: same functional results, same check.
func TestCorpusTimedEngineAgrees(t *testing.T) {
	for _, profile := range Profiles {
		spec, err := SpecFor(profile, testSeed, 0)
		if err != nil {
			t.Fatalf("%s: %v", profile, err)
		}
		g := gpu.New(gpu.DefaultConfig())
		if _, err := workloads.ExecuteCtx(context.Background(), g, spec, workloads.ExecOptions{Timed: true}); err != nil {
			t.Fatalf("%s (%s): %v", profile, spec.Name, err)
		}
	}
}

// TestDeterministicGeneration pins the reproducibility contract: the
// same seed and params yield a byte-identical isa.Program across
// repeated runs, across concurrent generation from many goroutines,
// and across GOMAXPROCS settings.
func TestDeterministicGeneration(t *testing.T) {
	encode := func(profile string, idx int) []byte {
		p, err := Derive(profile, testSeed, idx)
		if err != nil {
			t.Fatal(err)
		}
		k, err := Generate(p)
		if err != nil {
			t.Fatal(err)
		}
		return k.ISA.Program.Encode()
	}

	type key struct {
		profile string
		idx     int
	}
	want := map[key][]byte{}
	for _, profile := range Profiles {
		for idx := 0; idx < 4; idx++ {
			want[key{profile, idx}] = encode(profile, idx)
		}
	}

	// Repeat runs under different GOMAXPROCS.
	for _, procs := range []int{1, runtime.NumCPU()} {
		prev := runtime.GOMAXPROCS(procs)
		for k, w := range want {
			if got := encode(k.profile, k.idx); !bytes.Equal(got, w) {
				runtime.GOMAXPROCS(prev)
				t.Fatalf("GOMAXPROCS=%d: %s/%d program bytes differ", procs, k.profile, k.idx)
			}
		}
		runtime.GOMAXPROCS(prev)
	}

	// Concurrent generation: no hidden shared state.
	var wg sync.WaitGroup
	errs := make(chan string, len(want)*4)
	for i := 0; i < 4; i++ {
		for k, w := range want {
			k, w := k, w
			wg.Add(1)
			go func() {
				defer wg.Done()
				p, err := Derive(k.profile, testSeed, k.idx)
				if err != nil {
					errs <- err.Error()
					return
				}
				kn, err := Generate(p)
				if err != nil {
					errs <- err.Error()
					return
				}
				if !bytes.Equal(kn.ISA.Program.Encode(), w) {
					errs <- k.profile + ": concurrent generation diverged"
				}
			}()
		}
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}
}

// TestEvaluatorDeterministic: the expected buffers are themselves a
// pure function of Params.
func TestEvaluatorDeterministic(t *testing.T) {
	p, err := Derive("mixed", testSeed, 3)
	if err != nil {
		t.Fatal(err)
	}
	k1, err := Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	k2, err := Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	e1, e2 := k1.Expected(), k2.Expected()
	for i := range e1.Out {
		if e1.Out[i] != e2.Out[i] {
			t.Fatalf("out[%d] differs across evaluations", i)
		}
	}
	for i := range e1.Scratch {
		if e1.Scratch[i] != e2.Scratch[i] {
			t.Fatalf("scratch[%d] differs across evaluations", i)
		}
	}
}

// TestCorpusShapeCoverage asserts the generator actually exercises the
// structured-CFG vocabulary across a modest window: nested IFs, loops,
// breaks, conts, SLM exchanges, barriers, atomics, scatters, gathers.
func TestCorpusShapeCoverage(t *testing.T) {
	var ifs, loops, breaks, conts, slm, atomics, scatters, gathers, em int
	var walk func(stmts []stmt)
	walk = func(stmts []stmt) {
		for i := range stmts {
			s := &stmts[i]
			switch s.kind {
			case stIf:
				ifs++
				walk(s.then)
				walk(s.els)
			case stLoop:
				loops++
				walk(s.body)
			case stBreak:
				breaks++
			case stCont:
				conts++
			case stSLM:
				slm++
			case stAtomic:
				atomics++
			case stScatter:
				scatters++
			case stGather:
				gathers++
			case stDeadEM:
				em++
			}
		}
	}
	for _, profile := range Profiles {
		for idx := 0; idx < 20; idx++ {
			p, err := Derive(profile, testSeed, idx)
			if err != nil {
				t.Fatal(err)
			}
			walk(buildAST(p).stmts)
		}
	}
	for name, n := range map[string]int{
		"if": ifs, "loop": loops, "break": breaks, "cont": conts,
		"slm": slm, "atomic": atomics, "scatter": scatters,
		"gather": gathers, "dead-em": em,
	} {
		if n == 0 {
			t.Errorf("corpus window never generated a %s statement", name)
		}
	}
}

// TestStructuralInvariants sweeps a wide corpus slice and checks the
// mask-discipline rules the engines rely on: BREAK/CONT appear only as
// direct loop-body children, CONT only in loops with no nested loop
// anywhere in the subtree (a lane that ran a nested loop parks on CONT
// with its F0 still holding that loop's exit compare — the exact bug a
// corpus run caught at mixed-profile scale), and SLM/barrier traffic
// only at top level where workgroup membership is uniform.
func TestStructuralInvariants(t *testing.T) {
	var checkBlock func(t *testing.T, stmts []stmt, inLoopBody, top bool)
	checkBlock = func(t *testing.T, stmts []stmt, inLoopBody, top bool) {
		for i := range stmts {
			s := &stmts[i]
			switch s.kind {
			case stBreak:
				if !inLoopBody {
					t.Error("BREAK outside a direct loop body")
				}
			case stCont:
				if !inLoopBody {
					t.Error("CONT outside a direct loop body")
				}
			case stSLM, stBarrier:
				if !top {
					t.Error("SLM/barrier below top level")
				}
			case stIf:
				checkBlock(t, s.then, false, false)
				checkBlock(t, s.els, false, false)
			case stLoop:
				if containsLoop(s.body) {
					for j := range s.body {
						if s.body[j].kind == stCont {
							t.Error("CONT in a loop with a nested loop in its subtree")
						}
					}
				}
				checkBlock(t, s.body, true, false)
			}
		}
	}
	for _, profile := range Profiles {
		for idx := 0; idx < 200; idx++ {
			p, err := Derive(profile, testSeed^0xFEED, idx)
			if err != nil {
				t.Fatal(err)
			}
			checkBlock(t, buildAST(p).stmts, false, true)
			if t.Failed() {
				t.Fatalf("first violation at %s index %d", profile, idx)
			}
		}
	}
}

func TestNameRoundTrip(t *testing.T) {
	name := Name("loopy", 42, 17)
	if name != "kgen:loopy:42:17" {
		t.Fatalf("Name = %q", name)
	}
	profile, seed, idx, err := ParseName(name)
	if err != nil || profile != "loopy" || seed != 42 || idx != 17 {
		t.Fatalf("ParseName(%q) = %q,%d,%d,%v", name, profile, seed, idx, err)
	}
	if !IsName(name) || IsName("bsearch") {
		t.Fatal("IsName misclassifies")
	}
	p2, s2, lo, hi, err := ParseRange(RangeName("memory", 7, 10, 20))
	if err != nil || p2 != "memory" || s2 != 7 || lo != 10 || hi != 20 {
		t.Fatalf("ParseRange = %q,%d,%d,%d,%v", p2, s2, lo, hi, err)
	}
	if _, _, _, _, err := ParseRange("kgen:loopy:42:9-3"); err == nil {
		t.Fatal("inverted range accepted")
	}
	if _, _, _, err := ParseName("kgen:nosuch:1:0"); err == nil {
		t.Fatal("unknown profile accepted")
	}
}

// TestFromBytesAlwaysValid: every byte string maps to Params that
// generate and execute correctly (the fuzz target's invariant, pinned
// here for a few fixed inputs).
func TestFromBytesAlwaysValid(t *testing.T) {
	inputs := [][]byte{
		nil,
		{0},
		{255, 255, 255, 255, 255, 255, 255, 255, 255, 255, 255, 255, 255, 255, 255},
		[]byte("kgen fuzz seed: divergent loops with slm"),
		{1, 2, 3, 4, 5, 6, 7, 8, 32, 4, 8, 6, 24, 3, 90, 90, 50, 0, 6, 7, 80, 80, 90, 4, 90, 90, 90, 90, 16},
	}
	for i, in := range inputs {
		p := FromBytes(in)
		if p != p.Normalize() {
			t.Fatalf("input %d: FromBytes not normalized: %+v", i, p)
		}
		spec, err := specForParams(p)
		if err != nil {
			t.Fatalf("input %d: %v", i, err)
		}
		g := gpu.New(gpu.DefaultConfig().WithWorkers(1))
		if _, err := workloads.ExecuteCtx(context.Background(), g, spec, workloads.ExecOptions{}); err != nil {
			t.Fatalf("input %d: %v", i, err)
		}
	}
}

// specForParams wraps arbitrary Params (fuzzing, shrinking) as a spec.
func specForParams(p Params) (*workloads.Spec, error) {
	k, err := Generate(p)
	if err != nil {
		return nil, err
	}
	return k.Spec(k.ISA.Name, true), nil
}

// TestShrinkConverges: shrinking a synthetic predicate reaches the
// minimal envelope and keeps the predicate true.
func TestShrinkConverges(t *testing.T) {
	p, err := Derive("mixed", testSeed, 1)
	if err != nil {
		t.Fatal(err)
	}
	calls := 0
	failing := func(c Params) bool {
		calls++
		return c.Width >= 8 // "fails whenever at least 8 lanes wide"
	}
	s := Shrink(p, failing)
	if s.Width != 8 {
		t.Fatalf("shrunk width = %d, want 8", s.Width)
	}
	if s.Stmts != 3 || s.MaxDepth != 0 || s.Groups != 1 || s.TPG != 1 {
		t.Fatalf("shrink left structure behind: %+v", s)
	}
	if calls == 0 {
		t.Fatal("predicate never consulted")
	}
	// A predicate that never fails returns the input unchanged.
	if got := Shrink(p, func(Params) bool { return false }); got != p.Normalize() {
		t.Fatal("non-failing shrink altered params")
	}
}

// TestGeneratedKernelsValidate: a wide window builds, validates, and
// stays within the register file at every width.
func TestGeneratedKernelsValidate(t *testing.T) {
	for _, profile := range Profiles {
		for idx := 0; idx < 40; idx++ {
			p, err := Derive(profile, testSeed+uint64(idx), idx)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := Generate(p); err != nil {
				t.Fatalf("%s/%d: %v", profile, idx, err)
			}
		}
	}
}
