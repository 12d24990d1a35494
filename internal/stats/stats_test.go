package stats

import (
	"strings"
	"testing"

	"intrawarp/internal/compaction"
	"intrawarp/internal/mask"
)

func TestRecordInstrEfficiency(t *testing.T) {
	r := NewRun("t", 16)
	r.RecordInstr(16, 4, 0xFFFF)
	r.RecordInstr(16, 4, 0x00FF)
	r.Flush()
	if r.Instructions != 2 {
		t.Fatalf("instructions = %d", r.Instructions)
	}
	if eff := r.SIMDEfficiency(); eff != 0.75 {
		t.Fatalf("efficiency = %v, want 0.75", eff)
	}
	if r.Divergent() != true {
		t.Fatal("75% efficiency must classify divergent")
	}
	r2 := NewRun("c", 16)
	for i := 0; i < 100; i++ {
		r2.RecordInstr(16, 4, 0xFFFF)
	}
	r2.Flush()
	if r2.Divergent() {
		t.Fatal("fully coherent run classified divergent")
	}
}

func TestRecordInstrHistogram(t *testing.T) {
	r := NewRun("t", 16)
	r.RecordInstr(16, 4, 0x0001) // 1 lane  -> bucket 0 (1-4)
	r.RecordInstr(16, 4, 0x00FF) // 8 lanes -> bucket 1 (5-8)
	r.RecordInstr(16, 4, 0x0FFF) // 12      -> bucket 2 (9-12)
	r.RecordInstr(16, 4, 0xFFFF) // 16      -> bucket 3 (13-16)
	r.RecordInstr(16, 4, 0x0000) // empty
	r.RecordInstr(8, 4, 0x0F)    // SIMD8, 4 lanes -> bucket 1 (3-4)
	r.Flush()

	h16 := r.Hist[16]
	if h16 == nil || h16.Buckets != [4]int64{1, 1, 1, 1} || h16.Empty != 1 {
		t.Fatalf("SIMD16 hist = %+v", h16)
	}
	if h16.Total() != 5 {
		t.Fatalf("SIMD16 total = %d", h16.Total())
	}
	h8 := r.Hist[8]
	if h8 == nil || h8.Buckets[1] != 1 {
		t.Fatalf("SIMD8 hist = %+v", h8)
	}
}

func TestPolicyCyclesAccumulation(t *testing.T) {
	r := NewRun("t", 16)
	r.RecordInstr(16, 4, 0xAAAA)
	r.RecordInstr(16, 4, 0x000F)
	r.Flush()
	// baseline: 4+4; ivb: 4+2; bcc: 4+1; scc: 2+1; meld: 2+1;
	// resize: 4+2; its: 4+4.
	want := [compaction.NumPolicies]int64{8, 6, 5, 3, 3, 6, 8}
	if r.PolicyCycles != want {
		t.Fatalf("PolicyCycles = %v, want %v", r.PolicyCycles, want)
	}
	// Reductions are measured against IVB.
	if got := r.EUCycleReduction(compaction.BCC); got != 1.0/6 {
		t.Fatalf("bcc reduction = %v", got)
	}
	if got := r.EUCycleReduction(compaction.SCC); got != 0.5 {
		t.Fatalf("scc reduction = %v", got)
	}
}

func TestRecordSendAndDerived(t *testing.T) {
	r := NewRun("t", 16)
	r.RecordSend(1)
	r.RecordSend(5)
	if r.LinesPerSend() != 3 {
		t.Fatalf("lines/send = %v", r.LinesPerSend())
	}
	r.TotalCycles = 100
	r.Mem.LinesRequested = 50
	if r.DCDemand() != 0.5 {
		t.Fatalf("dc demand = %v", r.DCDemand())
	}
	empty := NewRun("e", 16)
	if empty.LinesPerSend() != 0 || empty.DCDemand() != 0 || empty.SIMDEfficiency() != 1 {
		t.Fatal("empty-run derived metrics must be neutral")
	}
}

func TestMerge(t *testing.T) {
	a := NewRun("a", 16)
	a.RecordInstr(16, 4, 0xFFFF)
	a.RecordSend(2)
	b := NewRun("b", 16)
	b.RecordInstr(16, 4, 0x000F)
	b.RecordInstr(8, 4, 0xFF)
	b.RecordSend(3)
	b.Barriers = 2

	a.Merge(b)
	a.Flush()
	if a.Instructions != 3 {
		t.Fatalf("merged instructions = %d", a.Instructions)
	}
	if a.Sends != 2 || a.SendLines != 5 {
		t.Fatalf("merged sends = %d lines = %d", a.Sends, a.SendLines)
	}
	if a.Barriers != 2 {
		t.Fatal("barriers not merged")
	}
	if a.Hist[8] == nil || a.Hist[8].Total() != 1 {
		t.Fatal("SIMD8 histogram not merged")
	}
	if a.Hist[16].Total() != 2 {
		t.Fatal("SIMD16 histogram not merged")
	}
	wantLanes := int64(16 + 4 + 8)
	if a.ActiveLanes != wantLanes {
		t.Fatalf("merged active lanes = %d, want %d", a.ActiveLanes, wantLanes)
	}
}

// TestMaskCountsEqualDetectsEachField changes one mask-derived field of
// an otherwise identical run per case; every change must compare
// unequal, in both directions.
func TestMaskCountsEqualDetectsEachField(t *testing.T) {
	build := func() *Run {
		r := NewRun("r", 16)
		r.RecordInstr(16, 4, 0x00FF)
		r.RecordInstr(16, 4, 0)
		r.RecordInstr(8, 4, 0x0F)
		r.Flush()
		return r
	}
	if !build().MaskCountsEqual(build()) {
		t.Fatal("identical runs compare unequal")
	}
	cases := []struct {
		name   string
		change func(r *Run)
	}{
		{"Instructions", func(r *Run) { r.Instructions++ }},
		{"ActiveLanes", func(r *Run) { r.ActiveLanes++ }},
		{"TotalLanes", func(r *Run) { r.TotalLanes++ }},
		{"PolicyCycles[scc]", func(r *Run) { r.PolicyCycles[compaction.SCC]++ }},
		{"missing Hist width", func(r *Run) { delete(r.Hist, 8) }},
		{"Hist width replaced", func(r *Run) { r.Hist[4] = r.Hist[8]; delete(r.Hist, 8) }},
		{"Hist bucket", func(r *Run) { r.Hist[16].Buckets[1]++ }},
		{"Hist Empty", func(r *Run) { r.Hist[16].Empty++ }},
	}
	for _, tc := range cases {
		r := build()
		tc.change(r)
		if build().MaskCountsEqual(r) || r.MaskCountsEqual(build()) {
			t.Errorf("%s differs, yet MaskCountsEqual reports equal", tc.name)
		}
	}
}

func TestSummaryRendering(t *testing.T) {
	r := NewRun("bfs", 16)
	r.RecordInstr(16, 4, 0x00FF)
	r.Flush()
	r.RecordSend(4)
	r.TotalCycles = 1000
	r.TimedPolicy = compaction.BCC
	s := r.Summary()
	for _, frag := range []string{"kernel bfs", "SIMD efficiency", "divergent", "memory divergence", "SIMD16 lanes hist"} {
		if !strings.Contains(s, frag) {
			t.Errorf("summary missing %q:\n%s", frag, s)
		}
	}
}

func TestReportJSON(t *testing.T) {
	r := NewRun("bfs", 16)
	r.RecordInstr(16, 4, 0x00FF)
	r.Flush()
	r.RecordSend(4)
	r.TotalCycles = 500
	r.EUBusy = 200
	r.LaneCycles = 800
	r.QuadFetches = 100
	data, err := r.JSON()
	if err != nil {
		t.Fatal(err)
	}
	s := string(data)
	for _, frag := range []string{`"kernel": "bfs"`, `"divergent": true`, `"totalCycles": 500`, `"energyProxy"`} {
		if !strings.Contains(s, frag) {
			t.Errorf("JSON missing %q:\n%s", frag, s)
		}
	}
	rep := r.Report()
	if rep.EUCycles.Baseline != 4 || rep.EUCycles.SCC != 2 {
		t.Fatalf("report cycles = %+v", rep.EUCycles)
	}
	// Functional-only runs omit the timed section.
	f := NewRun("x", 16)
	if f.Report().Timed != nil {
		t.Fatal("functional report must omit timed section")
	}
}

func TestEnergyProxy(t *testing.T) {
	r := NewRun("e", 16)
	r.LaneCycles = 10
	r.QuadFetches = 5
	r.CrossbarOps = 10
	want := 10*EnergyWeightLaneCycle + 5*EnergyWeightFetch + 10*EnergyWeightCrossbar
	if got := r.EnergyProxy(); got != want {
		t.Fatalf("energy = %v, want %v", got, want)
	}
	// Merge carries energy counters.
	o := NewRun("o", 16)
	o.LaneCycles, o.QuadFetches, o.CrossbarOps = 1, 2, 3
	r.Merge(o)
	if r.LaneCycles != 11 || r.QuadFetches != 7 || r.CrossbarOps != 13 {
		t.Fatal("energy counters not merged")
	}
}

// BenchmarkRecordInstr measures the per-instruction statistics hot path
// (called once per functionally executed instruction) together with the
// Flush that costs what it counted, so ns/op is counting plus costing.
func BenchmarkRecordInstr(b *testing.B) {
	r := NewRun("bench", 16)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.RecordInstr(16, 4, mask.Mask(uint32(i)))
	}
	r.Flush()
}
