package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"intrawarp/internal/trace"
)

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
