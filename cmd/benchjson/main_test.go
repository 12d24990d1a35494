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

// TestFoldTakesMedians checks that a benchmark printed several times, as
// go test -count prints it, becomes one record of per-column medians
// with its sample count, in order of first appearance, and that one
// printed once keeps its values with a count of 1.
func TestFoldTakesMedians(t *testing.T) {
	var samples []Result
	for _, line := range []string{
		"BenchmarkFig3-2  10  90 ns/op  700 B/op  7 allocs/op  3 ns/lane",
		"BenchmarkTable3-2  10  5 ns/op  1 B/op  1 allocs/op",
		"BenchmarkFig3-2  10  40 ns/op  500 B/op  5 allocs/op  1 ns/lane",
		"BenchmarkFig3-2  10  60 ns/op  600 B/op  9 allocs/op  2 ns/lane",
	} {
		r, _, ok := parseLine(line, "intrawarp")
		if !ok {
			t.Fatalf("parseLine(%q) failed", line)
		}
		samples = append(samples, r)
	}
	r, _, _ := parseLine("BenchmarkFig3-2  10  1 ns/op", "intrawarp/other")
	samples = append(samples, r)

	got := fold(samples)
	if len(got) != 3 {
		t.Fatalf("fold gave %d records, want 3: %+v", len(got), got)
	}
	fig3 := got[0]
	if fig3.Name != "BenchmarkFig3" || fig3.Package != "intrawarp" || fig3.Samples != 3 ||
		fig3.NsPerOp != 60 || fig3.BPerOp != 600 || fig3.AllocsOp != 7 || fig3.Iters != 10 ||
		fig3.Metrics["ns/lane"] != 2 {
		t.Errorf("folded Fig3 %+v, want medians 60 ns/op, 600 B/op, 7 allocs/op, 2 ns/lane over 3 samples", fig3)
	}
	if t3 := got[1]; t3.Name != "BenchmarkTable3" || t3.Samples != 1 || t3.NsPerOp != 5 || t3.Metrics != nil {
		t.Errorf("single sample folded to %+v", t3)
	}
	if other := got[2]; other.Package != "intrawarp/other" || other.Samples != 1 || other.NsPerOp != 1 {
		t.Errorf("a same-named benchmark of another package folded to %+v", other)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("median of an even count = %v, want 2.5", m)
	}
}
