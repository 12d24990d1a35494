package trace

import (
	"bytes"
	"errors"
	"io"
	"strings"
	"testing"
	"testing/quick"

	"intrawarp/internal/compaction"
	"intrawarp/internal/mask"
)

func TestWriterReaderRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	w, err := NewWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	recs := []Record{
		{Width: 16, Group: 4, Pipe: 0, Mask: 0xF0F0},
		{Width: 8, Group: 4, Pipe: 1, Mask: 0x0F},
		{Width: 16, Group: 2, Pipe: 2, Mask: 0xFFFF},
	}
	for _, r := range recs {
		if err := w.Write(r); err != nil {
			t.Fatal(err)
		}
	}
	if w.Count() != 3 {
		t.Fatalf("count = %d", w.Count())
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	r, err := NewReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range recs {
		got, err := r.Next()
		if err != nil {
			t.Fatalf("record %d: %v", i, err)
		}
		if got != want {
			t.Fatalf("record %d = %+v, want %+v", i, got, want)
		}
	}
	if _, err := r.Next(); err != io.EOF {
		t.Fatalf("expected EOF, got %v", err)
	}
}

func TestReaderRejectsGarbage(t *testing.T) {
	if _, err := NewReader(bytes.NewReader([]byte("not a trace"))); err == nil {
		t.Fatal("garbage header accepted")
	}
	if _, err := NewReader(bytes.NewReader(nil)); err == nil {
		t.Fatal("empty stream accepted")
	}
}

// TestReaderRejectsBadRecords streams valid records and one bad one and
// expects Next to return the valid records, then a *RecordError naming
// the bad record's index, for every width that is not a SIMD width and
// every group outside 1-32; the bounds themselves are accepted.
func TestReaderRejectsBadRecords(t *testing.T) {
	good := Record{Width: 16, Group: 4, Mask: 0xFFFF}
	for _, tc := range []struct {
		name string
		rec  Record
		bad  string // the reason's prefix, "" for a valid record
	}{
		{"width 200", Record{Width: 200, Group: 4}, "width 200"},
		{"width 0", Record{Width: 0, Group: 4}, "width 0"},
		{"width 2", Record{Width: 2, Group: 2}, "width 2"},
		{"width 64", Record{Width: 64, Group: 4}, "width 64"},
		{"group 0", Record{Width: 16, Group: 0}, "group 0"},
		{"group 33", Record{Width: 32, Group: 33}, "group 33"},
		{"group 200", Record{Width: 16, Group: 200}, "group 200"},
		{"width 1 group 1", Record{Width: 1, Group: 1, Mask: 1}, ""},
		{"width 32 group 32", Record{Width: 32, Group: 32, Mask: 0xFFFFFFFF}, ""},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var buf bytes.Buffer
			w, err := NewWriter(&buf)
			if err != nil {
				t.Fatal(err)
			}
			for _, rec := range []Record{good, good, tc.rec, good} {
				if err := w.Write(rec); err != nil {
					t.Fatal(err)
				}
			}
			if err := w.Flush(); err != nil {
				t.Fatal(err)
			}
			r, err := NewReader(&buf)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 2; i++ {
				if _, err := r.Next(); err != nil {
					t.Fatalf("valid record %d: %v", i, err)
				}
			}
			rec, err := r.Next()
			if tc.bad == "" {
				if err != nil || rec != tc.rec {
					t.Fatalf("Next = %+v, %v; want %+v", rec, err, tc.rec)
				}
				return
			}
			var re *RecordError
			if !errors.As(err, &re) {
				t.Fatalf("Next = %+v, %v; want a *RecordError", rec, err)
			}
			if re.Index != 2 || re.Record != tc.rec || !strings.HasPrefix(re.Reason, tc.bad) {
				t.Fatalf("error %+v; want record 2, %+v, a reason starting %q", re, tc.rec, tc.bad)
			}
			if want := "trace: record 2: " + tc.bad; !strings.HasPrefix(err.Error(), want) {
				t.Fatalf("error %q does not start with %q", err, want)
			}
		})
	}
}

func TestAnalyzeMatchesManualAccounting(t *testing.T) {
	src := &SliceSource{Records: []Record{
		{Width: 16, Group: 4, Mask: 0xFFFF},
		{Width: 16, Group: 4, Mask: 0xAAAA},
		{Width: 16, Group: 4, Mask: 0x000F},
	}}
	run := Analyze("manual", src)
	if run.Instructions != 3 {
		t.Fatalf("instructions = %d", run.Instructions)
	}
	// baseline 4+4+4, ivb 4+4+2, bcc 4+4+1, scc 4+2+1, meld 4+2+1,
	// resize 4+4+2, its 4+4+4.
	want := [compaction.NumPolicies]int64{12, 10, 9, 7, 7, 10, 12}
	if run.PolicyCycles != want {
		t.Fatalf("cycles = %v, want %v", run.PolicyCycles, want)
	}
	s := Summarize(run)
	if s.Instructions != 3 || s.Name != "manual" {
		t.Fatalf("summary = %+v", s)
	}
	if s.SCCReduction != 0.3 {
		t.Fatalf("scc reduction = %v, want 0.3", s.SCCReduction)
	}
}

func TestAnalyzeViaReaderSource(t *testing.T) {
	var buf bytes.Buffer
	w, _ := NewWriter(&buf)
	for i := 0; i < 100; i++ {
		w.Write(Record{Width: 16, Group: 4, Mask: mask.Mask(0x00FF)})
	}
	w.Flush()
	r, err := NewReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	src, errp := AsSource(r)
	run := Analyze("rdr", src)
	if *errp != nil {
		t.Fatalf("source error: %v", *errp)
	}
	if run.Instructions != 100 {
		t.Fatalf("instructions = %d", run.Instructions)
	}
	if run.SIMDEfficiency() != 0.5 {
		t.Fatalf("efficiency = %v", run.SIMDEfficiency())
	}
}

func TestSynthDeterminism(t *testing.T) {
	p := SynthByName("luxmark-sky")
	if p == nil {
		t.Fatal("catalogue entry missing")
	}
	a := Analyze(p.Name, &SliceSource{Records: p.Generate()})
	b := Analyze(p.Name, &SliceSource{Records: p.Generate()})
	if a.PolicyCycles != b.PolicyCycles || a.Instructions != b.Instructions {
		t.Fatal("synthetic generation is not deterministic")
	}
}

func TestSynthMaskValidity(t *testing.T) {
	for _, p := range SynthAll() {
		recs := p.Generate()
		if len(recs) != p.Instr {
			t.Fatalf("%s: %d records, want %d", p.Name, len(recs), p.Instr)
		}
		for _, r := range recs {
			if int(r.Width) != p.Width {
				t.Fatalf("%s: record width %d", p.Name, r.Width)
			}
			if r.Mask == 0 || r.Mask.Trunc(p.Width) != r.Mask {
				t.Fatalf("%s: invalid mask %#x", p.Name, r.Mask)
			}
		}
	}
}

// Calibration: each synthetic workload must land in the benefit range the
// paper reports for its class (§5.3).
func TestSynthCalibration(t *testing.T) {
	type bounds struct {
		minSCC, maxSCC  float64
		minSCCShare     float64 // (SCC - BCC) / SCC
		maxSCCShare     float64
		mustBeDivergent bool
	}
	classify := func(name string) bounds {
		switch {
		case len(name) >= 7 && name[:7] == "luxmark":
			return bounds{0.22, 0.45, 0.15, 0.40, true}
		case name == "bulletphysics" || name == "rightware-mandelbulb":
			return bounds{0.25, 0.45, 0.15, 0.75, true}
		case len(name) >= 7 && name[:7] == "glbench":
			return bounds{0.14, 0.24, 0.50, 1.0, true}
		case len(name) >= 3 && name[:3] == "fd-":
			return bounds{0.24, 0.38, 0.50, 1.0, true}
		default:
			return bounds{0.04, 0.30, 0, 1.0, true}
		}
	}
	for _, p := range SynthAll() {
		run := Analyze(p.Name, &SliceSource{Records: p.Generate()})
		s := Summarize(run)
		b := classify(p.Name)
		if s.SCCReduction < b.minSCC || s.SCCReduction > b.maxSCC {
			t.Errorf("%s: SCC reduction %.3f outside [%.2f, %.2f]",
				p.Name, s.SCCReduction, b.minSCC, b.maxSCC)
		}
		if s.SCCReduction > 0 {
			share := (s.SCCReduction - s.BCCReduction) / s.SCCReduction
			if share < b.minSCCShare || share > b.maxSCCShare {
				t.Errorf("%s: SCC share %.3f outside [%.2f, %.2f] (bcc=%.3f scc=%.3f)",
					p.Name, share, b.minSCCShare, b.maxSCCShare, s.BCCReduction, s.SCCReduction)
			}
		}
		if b.mustBeDivergent && !run.Divergent() {
			t.Errorf("%s: classified coherent (efficiency %.3f)", p.Name, run.SIMDEfficiency())
		}
		if s.BCCReduction > s.SCCReduction {
			t.Errorf("%s: BCC (%.3f) exceeds SCC (%.3f)", p.Name, s.BCCReduction, s.SCCReduction)
		}
	}
}

// Property: for any record stream the policy ordering holds in aggregate.
func TestAnalyzeOrderingProperty(t *testing.T) {
	f := func(raws []uint16, w8 bool) bool {
		recs := make([]Record, len(raws))
		for i, raw := range raws {
			width := uint8(16)
			m := mask.Mask(raw)
			if w8 {
				width = 8
				m = m.Trunc(8)
			}
			recs[i] = Record{Width: width, Group: 4, Mask: m}
		}
		run := Analyze("prop", &SliceSource{Records: recs})
		c := run.PolicyCycles
		return c[compaction.SCC] <= c[compaction.BCC] &&
			c[compaction.BCC] <= c[compaction.IvyBridge] &&
			c[compaction.IvyBridge] <= c[compaction.Baseline]
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
