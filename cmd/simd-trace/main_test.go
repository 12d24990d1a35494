package main

import (
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"intrawarp/internal/gpu"
	"intrawarp/internal/trace"
	"intrawarp/internal/workloads"
)

// TestCaptureMatchesExecution captures bsearch at a small size, as
// -capture does, and checks that analyzing the file reproduces the mask
// accounting of a plain execution of the same workload and size.
func TestCaptureMatchesExecution(t *testing.T) {
	const name, n = "bsearch", 256
	path := filepath.Join(t.TempDir(), name+".trace")
	if err := captureTrace(name, n, path); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	r, err := trace.NewReader(f)
	if err != nil {
		t.Fatal(err)
	}
	src, srcErr := trace.AsSource(r)
	got := trace.Analyze(name, src)
	if *srcErr != nil {
		t.Fatal(*srcErr)
	}
	spec, err := workloads.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	want, err := workloads.ExecuteCtx(context.Background(), gpu.New(gpu.DefaultConfig()), spec, workloads.ExecOptions{Size: n})
	if err != nil {
		t.Fatal(err)
	}
	if want.Instructions == 0 || !got.MaskCountsEqual(want) {
		t.Fatalf("captured trace analyzes to %d instructions, %d active lanes; execution had %d, %d",
			got.Instructions, got.ActiveLanes, want.Instructions, want.ActiveLanes)
	}
}

// TestAnalyzeFileRejectsBadRecord writes a trace whose second record has
// width 200 and expects analyzeFile, which -analyze runs before exiting
// 1 on its error, to fail naming that record rather than cost a SIMD200
// kernel.
func TestAnalyzeFileRejectsBadRecord(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bad.trace")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	w, err := trace.NewWriter(f)
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range []trace.Record{{Width: 16, Group: 4, Mask: 0xFFFF}, {Width: 200, Group: 4, Mask: 1}} {
		if err := w.Write(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	err = analyzeFile(path)
	if err == nil || !strings.Contains(err.Error(), "record 1: width 200") {
		t.Fatalf("analyzeFile = %v, want an error naming record 1's width 200", err)
	}
}
