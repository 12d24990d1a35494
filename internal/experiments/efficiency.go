package experiments

import (
	"context"
	"fmt"
	"sort"

	"intrawarp/internal/compaction"
	"intrawarp/internal/mask"
	"intrawarp/internal/par"
	"intrawarp/internal/stats"
	"intrawarp/internal/trace"
	"intrawarp/internal/workloads"
)

func maskOf(raw int) mask.Mask { return mask.Mask(uint32(raw)) }

func init() {
	register(&Experiment{ID: "fig3", Title: "SIMD efficiency of all workloads (coherent/divergent classification at 95%)", Run: runFig3})
	register(&Experiment{ID: "fig9", Title: "SIMD utilization breakdown in SIMD8/SIMD16 instructions (divergent set)", Run: runFig9})
	register(&Experiment{ID: "fig10", Title: "Execution cycle reduction with BCC and SCC over the Ivy Bridge optimization", Run: runFig10})
	register(&Experiment{ID: "ablation-swizzle", Title: "Ablation: SCC crossbar activity, swizzle-minimizing vs dense packing", Run: runAblationSwizzle})
}

// workloadRuns executes every registered workload functionally and every
// synthetic trace, returning all runs keyed by origin ("sim" / "trace").
// Workloads and traces fan out over a worker pool of the given size
// (below 1 selects GOMAXPROCS); results land in registry order, so the
// returned slices are identical at any worker count.
func workloadRuns(ctx context.Context, quick bool, workers int) (sim, traces []*stats.Run, err error) {
	all := workloads.All()
	cells := make([]cell, len(all))
	for i, s := range all {
		cells[i] = cell{spec: s, size: sizeFor(s, quick), verify: true}
	}
	if sim, err = runCells(ctx, workers, cells); err != nil {
		return nil, nil, err
	}
	progs := trace.SynthAll()
	traces = make([]*stats.Run, len(progs))
	par.For(workers, len(progs), func(i int) {
		p := progs[i]
		pp := *p
		if quick {
			pp.Instr = p.Instr / 10
		}
		traces[i] = trace.Analyze(p.Name, &trace.SliceSource{Records: pp.Generate()})
	})
	return sim, traces, nil
}

func runFig3(ctx *Context) error {
	sim, traces, err := workloadRuns(ctx.context(), ctx.Quick, ctx.Workers)
	if err != nil {
		return err
	}
	all := append(append([]*stats.Run{}, sim...), traces...)
	sort.Slice(all, func(i, j int) bool { return all[i].SIMDEfficiency() < all[j].SIMDEfficiency() })
	t := newTable("workload", "efficiency", "", "class")
	for _, r := range all {
		class := "coherent"
		if r.Divergent() {
			class = "divergent"
		}
		t.add(r.Name, fmt.Sprintf("%.3f", r.SIMDEfficiency()), bar(r.SIMDEfficiency(), 30), class)
	}
	t.render(ctx.Out)
	return nil
}

func runFig9(ctx *Context) error {
	sim, traces, err := workloadRuns(ctx.context(), ctx.Quick, ctx.Workers)
	if err != nil {
		return err
	}
	t := newTable("workload", "width", "1-4/16", "5-8/16", "9-12/16", "13-16/16", "1-4/8", "5-8/8")
	row := func(r *stats.Run) {
		if !r.Divergent() {
			return
		}
		var tot int64
		for _, h := range r.Hist {
			tot += h.Total()
		}
		pct := func(v int64) string {
			if tot == 0 {
				return "-"
			}
			return fmt.Sprintf("%.0f%%", 100*float64(v)/float64(tot))
		}
		h16, h8 := r.Hist[16], r.Hist[8]
		get := func(h *stats.WidthHist, i int) int64 {
			if h == nil {
				return 0
			}
			return h.Buckets[i]
		}
		t.add(r.Name, fmt.Sprintf("SIMD%d", r.Width),
			pct(get(h16, 0)), pct(get(h16, 1)), pct(get(h16, 2)), pct(get(h16, 3)),
			pct(get(h8, 0)), pct(get(h8, 1)))
	}
	for _, r := range sim {
		row(r)
	}
	for _, r := range traces {
		row(r)
	}
	t.render(ctx.Out)
	return nil
}

// Fig10Row is one divergent workload's EU-cycle reduction.
type Fig10Row struct {
	Name   string
	Source string // "sim" or "trace"
	BCC    float64
	SCC    float64
}

// Fig10 computes the headline compaction benefit for every divergent
// workload, execution-driven and trace-based.
func Fig10(ctx context.Context, quick bool, workers int) ([]Fig10Row, error) {
	sim, traces, err := workloadRuns(ctx, quick, workers)
	if err != nil {
		return nil, err
	}
	var rows []Fig10Row
	for _, r := range sim {
		if !r.Divergent() {
			continue
		}
		rows = append(rows, Fig10Row{Name: r.Name, Source: "sim",
			BCC: r.EUCycleReduction(compaction.BCC), SCC: r.EUCycleReduction(compaction.SCC)})
	}
	for _, r := range traces {
		rows = append(rows, Fig10Row{Name: r.Name, Source: "trace",
			BCC: r.EUCycleReduction(compaction.BCC), SCC: r.EUCycleReduction(compaction.SCC)})
	}
	return rows, nil
}

func runFig10(ctx *Context) error {
	rows, err := Fig10(ctx.context(), ctx.Quick, ctx.Workers)
	if err != nil {
		return err
	}
	t := newTable("workload", "src", "bcc", "scc", "scc reduction")
	var maxB, maxS, sumB, sumS float64
	for _, r := range rows {
		t.add(r.Name, r.Source, r.BCC, r.SCC, bar(r.SCC, 25))
		if r.BCC > maxB {
			maxB = r.BCC
		}
		if r.SCC > maxS {
			maxS = r.SCC
		}
		sumB += r.BCC
		sumS += r.SCC
	}
	t.render(ctx.Out)
	n := float64(len(rows))
	ctx.printf("max bcc=%.1f%% scc=%.1f%% | avg bcc=%.1f%% scc=%.1f%% (paper: up to 42%%, ~20%% avg)\n",
		100*maxB, 100*maxS, 100*sumB/n, 100*sumS/n)
	return nil
}

func runAblationSwizzle(ctx *Context) error {
	// Compare crossbar activity of the paper's Fig. 6 algorithm against a
	// naive dense packer that routes the k-th active lane to ALU lane k%G,
	// over all SIMD16 masks that compress under SCC.
	var fig6Swz, denseSwz, masks int64
	for raw := 1; raw <= 0xFFFF; raw++ {
		m := maskOf(raw)
		s := compaction.ComputeSchedule(m, 16, 4)
		if s.BCCOnly {
			continue
		}
		masks++
		fig6Swz += int64(s.Swizzles())
		// Dense packing: active lane k (in ascending order) executes on
		// ALU lane k%4; swizzled whenever its home position differs.
		for k, lane := range m.Lanes() {
			if lane%4 != k%4 {
				denseSwz++
			}
		}
	}
	t := newTable("scheduler", "swizzles over all compressible SIMD16 masks", "per mask")
	t.add("fig6 (surplus-minimizing)", fig6Swz, fmt.Sprintf("%.2f", float64(fig6Swz)/float64(masks)))
	t.add("naive dense packing", denseSwz, fmt.Sprintf("%.2f", float64(denseSwz)/float64(masks)))
	t.render(ctx.Out)
	ctx.printf("the Fig. 6 algorithm routes %.1f%% fewer operands through the crossbar\n",
		100*(1-float64(fig6Swz)/float64(denseSwz)))
	return nil
}
