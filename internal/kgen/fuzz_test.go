package kgen_test

import (
	"context"
	"testing"

	"intrawarp/internal/gpu"
	"intrawarp/internal/kgen"
	"intrawarp/internal/oracle"
	"intrawarp/internal/trace"
	"intrawarp/internal/workloads"
)

// FuzzKernelGen drives the whole generation pipeline from raw fuzzer
// bytes: bytes → Params (always valid by construction) → kbuild must
// accept the program, the serial engine's results must match the
// straight-line evaluator (the spec's built-in check), and every
// executed instruction's compaction costs must satisfy the oracle's
// per-record invariants.
func FuzzKernelGen(f *testing.F) {
	// Interesting shapes: defaults, degenerate extremes, and a few
	// hand-picked profiles (wide SIMD32 with nested loops + SLM, deep
	// branching, atomic-heavy).
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0, 4, 1, 1, 2, 3, 0})
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF,
		0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF,
		0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF})
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8, 32, 4, 8, 6, 24, 3, 50, 90, 50, 0,
		6, 7, 80, 80, 90, 4, 90, 90, 90, 90, 16})
	f.Add([]byte{9, 9, 9, 9, 9, 9, 9, 9, 16, 2, 2, 4, 18, 3, 95, 5, 35, 1,
		2, 1, 20, 0, 30, 2, 40, 0, 95, 20, 4})
	f.Fuzz(func(t *testing.T, data []byte) {
		p := kgen.FromBytes(data)
		k, err := kgen.Generate(p)
		if err != nil {
			t.Fatalf("params %+v rejected by kbuild: %v", p, err)
		}
		spec := k.Spec(k.ISA.Name, true)
		g := gpu.New(gpu.DefaultConfig().WithWorkers(1))
		col := &trace.Collector{}
		if _, err := workloads.ExecuteCtx(context.Background(), g, spec, workloads.ExecOptions{Visit: col.Visit}); err != nil {
			t.Fatalf("params %+v: serial vs evaluator: %v", p, err)
		}
		if v, _ := oracle.CheckTrace(col.Source(), nil); v != nil {
			t.Fatalf("params %+v: oracle violation: %s: %s", p, v.Rule, v.Detail)
		}
	})
}
