package experiments

import (
	"bytes"
	"context"
	"strings"
	"testing"

	"intrawarp/internal/compaction"
	"intrawarp/internal/stats"
)

func TestRegistryComplete(t *testing.T) {
	want := []string{"ablation-dtype", "ablation-frontend", "ablation-issue", "ablation-swizzle", "ablation-width",
		"energy", "families", "fig10", "fig11", "fig12", "fig3", "fig8", "fig9", "interwarp",
		"rfarea", "stalls", "table2", "table3", "table4"}
	all := All()
	if len(all) != len(want) {
		t.Fatalf("registry has %d experiments, want %d", len(all), len(want))
	}
	for i, e := range all {
		if e.ID != want[i] {
			t.Errorf("experiment %d = %s, want %s", i, e.ID, want[i])
		}
	}
	if _, err := ByID("fig8"); err != nil {
		t.Fatal(err)
	}
	if _, err := ByID("nope"); err == nil {
		t.Fatal("unknown experiment accepted")
	}
}

// Fig. 8 shape: under the modeled Ivy Bridge hardware, 0x00FF matches the
// coherent case, 0xF0F0 and 0xAAAA roughly double, 0xFF0F lands between;
// under SCC, 0xF0F0 and 0xAAAA drop back toward the coherent time.
func TestFig8Shape(t *testing.T) {
	res, err := Fig8(context.Background(), true, 0)
	if err != nil {
		t.Fatal(err)
	}
	rel := map[uint16]Fig8Result{}
	for _, r := range res {
		rel[r.Pattern] = r
	}
	ivb := func(p uint16) float64 { return rel[p].Relative[compaction.IvyBridge] }
	if v := ivb(0x00FF); v > 1.15 {
		t.Errorf("ivb 0x00FF relative = %.2f, want ~1.0", v)
	}
	if v := ivb(0xF0F0); v < 1.6 {
		t.Errorf("ivb 0xF0F0 relative = %.2f, want ~2.0", v)
	}
	if v := ivb(0xAAAA); v < 1.6 {
		t.Errorf("ivb 0xAAAA relative = %.2f, want ~2.0", v)
	}
	if v := ivb(0xFF0F); v < 1.2 || v > 1.8 {
		t.Errorf("ivb 0xFF0F relative = %.2f, want ~1.5", v)
	}
	// BCC fixes 0xF0F0; SCC additionally fixes 0xAAAA.
	if v := rel[0xF0F0].Relative[compaction.BCC]; v > 1.3 {
		t.Errorf("bcc 0xF0F0 relative = %.2f, want ~1.0", v)
	}
	if v := rel[0xAAAA].Relative[compaction.SCC]; v > 1.3 {
		t.Errorf("scc 0xAAAA relative = %.2f, want ~1.0", v)
	}
	if v := rel[0xAAAA].Relative[compaction.BCC]; v < 1.5 {
		t.Errorf("bcc 0xAAAA relative = %.2f, want ~2.0 (BCC cannot fix scattered lanes)", v)
	}
}

// Table 2 shape: the benefit attribution moves from SCC-only (L1, L2)
// toward BCC and IVB at deeper nesting (L3, L4).
func TestTable2Shape(t *testing.T) {
	rows, err := Table2(context.Background(), true, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("%d rows", len(rows))
	}
	l1, l2, l3, l4 := rows[0], rows[1], rows[2], rows[3]
	if l1.SCCAdditional < 0.30 || l1.BCCAdditional > 0.05 || l1.IVBBenefit > 0.05 {
		t.Errorf("L1 split = %+v, want SCC-dominated ~50%%", l1)
	}
	if l2.SCCAdditional < 0.50 {
		t.Errorf("L2 SCC = %.2f, want ~0.75", l2.SCCAdditional)
	}
	if l3.BCCAdditional < 0.30 || l3.SCCAdditional < 0.10 {
		t.Errorf("L3 split = %+v, want bcc ~50%% + scc ~25%%", l3)
	}
	if l4.IVBBenefit < 0.30 || l4.BCCAdditional < 0.12 {
		t.Errorf("L4 split = %+v, want ivb ~50%% + bcc ~25%%", l4)
	}
	if l4.SCCAdditional > 0.05 {
		t.Errorf("L4 SCC = %.2f, want ~0", l4.SCCAdditional)
	}
}

func TestAblationDtypeShape(t *testing.T) {
	rows, err := AblationDtype(context.Background(), true, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("%d rows", len(rows))
	}
	// rows are f16, f32, f64: benefit must increase with width.
	if !(rows[0].BCCReduction < rows[1].BCCReduction && rows[1].BCCReduction < rows[2].BCCReduction) {
		t.Errorf("dtype benefit not monotonic: %+v", rows)
	}
}

func TestRFAreaShape(t *testing.T) {
	rows := RFArea()
	if len(rows) != 4 {
		t.Fatalf("%d rows", len(rows))
	}
	var bcc, iw float64
	for _, r := range rows {
		switch r.Org.Name {
		case "bcc":
			bcc = r.Overhead
		case "interwarp":
			iw = r.Overhead
		}
	}
	if bcc < 0.07 || bcc > 0.13 {
		t.Errorf("bcc overhead = %.3f", bcc)
	}
	if iw < 0.40 {
		t.Errorf("interwarp overhead = %.3f", iw)
	}
}

// Fig. 10 shape: divergent workloads average around the paper's ~20%,
// with a maximum in the 30–45%+ range, and SCC ≥ BCC everywhere.
func TestFig10Shape(t *testing.T) {
	rows, err := Fig10(context.Background(), true, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) < 25 {
		t.Fatalf("only %d divergent rows", len(rows))
	}
	var maxSCC, sum float64
	for _, r := range rows {
		if r.SCC < r.BCC {
			t.Errorf("%s: scc %.3f < bcc %.3f", r.Name, r.SCC, r.BCC)
		}
		if r.SCC > maxSCC {
			maxSCC = r.SCC
		}
		sum += r.SCC
	}
	avg := sum / float64(len(rows))
	if maxSCC < 0.30 {
		t.Errorf("max SCC reduction %.3f, want ≥ 0.30 (paper: up to 42%%)", maxSCC)
	}
	if avg < 0.10 || avg > 0.40 {
		t.Errorf("avg SCC reduction %.3f, want around the paper's ~20%%", avg)
	}
}

// Inter-warp comparison shape: in this few-warps-per-block regime SCC
// beats the idealized TBC estimate (lane conflicts limit regrouping), and
// TBC inflates per-warp memory divergence while intra-warp schemes don't.
func TestInterwarpShape(t *testing.T) {
	rows, err := Interwarp(context.Background(), true)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) < 6 {
		t.Fatalf("only %d rows", len(rows))
	}
	inflated := 0
	for _, r := range rows {
		if r.TBCReduction < 0 || r.TBCReduction > 1 || r.SCCReduction <= 0 {
			t.Errorf("%s: implausible reductions %+v", r.Name, r)
		}
		if r.PerWarpMemDiv < 0.999 {
			t.Errorf("%s: per-warp divergence %.3f below 1 (must not shrink)", r.Name, r.PerWarpMemDiv)
		}
		if r.PerWarpMemDiv > 1.01 {
			inflated++
		}
	}
	if inflated < 3 {
		t.Errorf("only %d workloads show inter-warp memory inflation", inflated)
	}
}

// Energy shape: every compaction policy must save energy vs baseline on
// divergent workloads; BCC must save operand-fetch energy that SCC does
// not; crossbar cost must stay small.
func TestEnergyShape(t *testing.T) {
	rows, err := Energy(context.Background(), true, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if r.Relative[compaction.Baseline] < 1.0 {
			t.Errorf("%s: baseline energy %.2f below ivb", r.Name, r.Relative[compaction.Baseline])
		}
		if r.Relative[compaction.BCC] > 1.0 || r.Relative[compaction.SCC] > 1.05 {
			t.Errorf("%s: compaction increased energy: %+v", r.Name, r.Relative)
		}
		if r.SCCCrossbarShare > 0.05 {
			t.Errorf("%s: crossbar share %.3f implausibly high", r.Name, r.SCCCrossbarShare)
		}
	}
}

// Width ablation shape (§7): going from SIMD8 to SIMD32, efficiency must
// not rise and the SCC benefit must grow for every workload.
func TestAblationWidthShape(t *testing.T) {
	rows, err := AblationWidth(context.Background(), true, 0)
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]map[int]WidthRow{}
	for _, r := range rows {
		if byName[r.Name] == nil {
			byName[r.Name] = map[int]WidthRow{}
		}
		byName[r.Name][r.Width] = r
	}
	for name, m := range byName {
		w8, w32 := m[8], m[32]
		if w8.Efficiency < w32.Efficiency-0.01 {
			t.Errorf("%s: efficiency rose with width: %.3f@8 vs %.3f@32", name, w8.Efficiency, w32.Efficiency)
		}
		if w32.SCC <= w8.SCC {
			t.Errorf("%s: SCC benefit did not grow with width: %.3f@8 vs %.3f@32", name, w8.SCC, w32.SCC)
		}
	}
}

// Stall attribution shape: shares sum to ~1 per workload, and lavamd (the
// perfect-L3-immune kernel of Fig. 12) is memory-stall heavy.
func TestStallsShape(t *testing.T) {
	rows, err := Stalls(context.Background(), true, 0)
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]StallRow{}
	for _, r := range rows {
		var sum float64
		for _, s := range r.Shares {
			sum += s
		}
		if sum < 0.99 || sum > 1.01 {
			t.Errorf("%s: shares sum to %.3f", r.Name, sum)
		}
		byName[r.Name] = r
	}
	// Distribution claims are scale-dependent (see EXPERIMENTS.md for the
	// full-size breakdown); at quick scale we assert only that work was
	// issued and lavamd sees memory stalls at all.
	if byName["lavamd"].Shares[stats.WinMemory] <= 0 {
		t.Error("lavamd shows no memory stalls")
	}
	for name, r := range byName {
		if r.Shares[stats.WinIssued] <= 0 {
			t.Errorf("%s: no issued windows", name)
		}
	}
}

func TestRunAndRenderSmoke(t *testing.T) {
	var buf bytes.Buffer
	ctx := &Context{Out: &buf, Quick: true}
	for _, id := range []string{"table3", "rfarea", "ablation-swizzle"} {
		if err := Run(id, ctx); err != nil {
			t.Fatalf("%s: %v", id, err)
		}
	}
	out := buf.String()
	for _, frag := range []string{"parameter", "organization", "fig6"} {
		if !strings.Contains(out, frag) {
			t.Errorf("output missing %q", frag)
		}
	}
}

func TestTableRendering(t *testing.T) {
	var buf bytes.Buffer
	tb := newTable("a", "bb")
	tb.add("x", 0.5)
	tb.addf("yy", "z")
	tb.render(&buf)
	s := buf.String()
	if !strings.Contains(s, "a   bb") && !strings.Contains(s, "a ") {
		t.Errorf("unexpected table output:\n%s", s)
	}
	if !strings.Contains(s, "50.0%") {
		t.Errorf("float cell not rendered as percent:\n%s", s)
	}
	if bar(0.5, 10) != "#####....." {
		t.Errorf("bar(0.5,10) = %q", bar(0.5, 10))
	}
	if bar(-1, 4) != "...." || bar(2, 4) != "####" {
		t.Error("bar clamping failed")
	}
}
