package intrawarp

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden files with the current output")

// TestBenchReportGolden renders the full simd-bench report at quick
// sizes and diffs it byte-for-byte against the checked-in golden file.
// The report is a pure function of the canonicalized experiment suite —
// fixed seeds, deterministic shard merging, ID-ordered rendering — so
// any byte of drift is a behavior change that must be reviewed (and,
// when intended, blessed with `go test -run Golden -update .`).
func TestBenchReportGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("full quick-size experiment sweep (~7s)")
	}
	var buf bytes.Buffer
	if err := RunAllExperimentsCtx(context.Background(), WithOutput(&buf), WithQuick()); err != nil {
		t.Fatalf("rendering the report: %v", err)
	}
	got := buf.Bytes()

	golden := filepath.Join("testdata", "bench_quick.golden")
	if *update {
		if err := os.MkdirAll(filepath.Dir(golden), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s (%d bytes)", golden, len(got))
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("reading golden file (re-bless with -update): %v", err)
	}
	if bytes.Equal(got, want) {
		return
	}
	t.Errorf("report drifted from %s (%d bytes now vs %d golden); first divergence:\n%s\nre-bless intended changes with -update",
		golden, len(got), len(want), firstDiff(got, want))
}

// firstDiff renders the first differing line with context, line-aligned
// so the failure message is readable without an external diff tool.
func firstDiff(got, want []byte) string {
	gl := bytes.Split(got, []byte("\n"))
	wl := bytes.Split(want, []byte("\n"))
	for i := 0; i < len(gl) || i < len(wl); i++ {
		var g, w []byte
		if i < len(gl) {
			g = gl[i]
		}
		if i < len(wl) {
			w = wl[i]
		}
		if !bytes.Equal(g, w) {
			return fmt.Sprintf("line %d:\n  golden: %q\n  got:    %q", i+1, w, g)
		}
	}
	return "(contents differ only in trailing bytes)"
}
