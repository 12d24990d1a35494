package main

import "testing"

// TestParseLineDropsProcsSuffix checks that a result is named without the
// GOMAXPROCS suffix go test appends, whatever its value, so files written
// at different CPU counts share row names.
func TestParseLineDropsProcsSuffix(t *testing.T) {
	for _, tc := range []struct {
		line  string
		name  string
		procs int
	}{
		{"BenchmarkFig3-2   10  85114945 ns/op  110078950 B/op  56620 allocs/op", "BenchmarkFig3", 2},
		{"BenchmarkFig3   10  85114945 ns/op", "BenchmarkFig3", 1},
		{"BenchmarkParallelFunctional/workers=2-16  5  19531130 ns/op", "BenchmarkParallelFunctional/workers=2", 16},
	} {
		r, procs, ok := parseLine(tc.line, "intrawarp")
		if !ok || r.Name != tc.name || procs != tc.procs {
			t.Errorf("parseLine(%q) = %q at %d procs (ok %v), want %q at %d", tc.line, r.Name, procs, ok, tc.name, tc.procs)
		}
	}
	r, _, _ := parseLine("BenchmarkFig3-2   10  85114945 ns/op  110078950 B/op  56620 allocs/op", "intrawarp")
	if r.Iters != 10 || r.NsPerOp != 85114945 || r.BPerOp != 110078950 || r.AllocsOp != 56620 {
		t.Errorf("parsed values %+v", r)
	}
}

// TestParseLineKeepsReportedMetrics checks that a b.ReportMetric value
// lands in Metrics under its unit, beside the standard columns.
func TestParseLineKeepsReportedMetrics(t *testing.T) {
	r, _, ok := parseLine("BenchmarkLaneLoop/add.u32/full-2  1000000  160.8 ns/op  10.05 ns/lane  0 B/op  0 allocs/op", "intrawarp/internal/eu")
	if !ok || r.Name != "BenchmarkLaneLoop/add.u32/full" || r.NsPerOp != 160.8 || r.AllocsOp != 0 {
		t.Fatalf("parsed %+v (ok %v)", r, ok)
	}
	if len(r.Metrics) != 1 || r.Metrics["ns/lane"] != 10.05 {
		t.Fatalf("metrics %v, want map[ns/lane:10.05]", r.Metrics)
	}
	if r, _, _ := parseLine("BenchmarkFig3-2   10  85114945 ns/op", "intrawarp"); r.Metrics != nil {
		t.Fatalf("a line with no reported metric parsed metrics %v", r.Metrics)
	}
}
