package experiments

import (
	"context"
	"fmt"

	"intrawarp/internal/eu"
	"intrawarp/internal/gpu"
	"intrawarp/internal/interwarp"
	"intrawarp/internal/workloads"
)

func init() {
	register(&Experiment{ID: "interwarp",
		Title: "Intra-warp SCC vs idealized inter-warp compaction (TBC-style): cycles and memory divergence",
		Run:   runInterwarp})
}

// InterwarpRow compares the schemes on one workload.
type InterwarpRow struct {
	Name            string
	SCCReduction    float64
	TBCReduction    float64 // idealized (free synchronization) estimate
	CaptureRatio    float64 // SCC / TBC benefit
	MemoryInflation float64 // total distinct-line growth under regrouping
	PerWarpMemDiv   float64 // distinct lines per issued warp instruction, relative
}

// interwarpWorkloads are single-launch divergent kernels whose per-thread
// streams align naturally (every thread of a workgroup runs the same
// dynamic instruction count only when control is uniform; the estimator
// pads shorter streams, matching TBC's implicit-barrier idealization).
var interwarpWorkloads = []string{
	"particlefilter", "bsearch", "kmeans", "lavamd", "eigenvalue",
	"rt-pr-conf", "rt-ao-bl16", "urng",
}

// Interwarp captures per-workgroup, per-thread mask streams from each
// workload's functional run and feeds them through the inter-warp
// estimator.
func Interwarp(ctx context.Context, quick bool) ([]InterwarpRow, error) {
	var rows []InterwarpRow
	for _, name := range interwarpWorkloads {
		s, err := workloads.ByName(name)
		if err != nil {
			return nil, err
		}
		perWG := map[int][]interwarp.Stream{}
		width := 16
		visit := func(wg, thread int, res eu.ExecResult) {
			width = res.Width
			streams := perWG[wg]
			for len(streams) <= thread {
				streams = append(streams, nil)
			}
			// res.Lines aliases per-thread scratch valid only until the
			// thread's next Step; this stream outlives the run, so copy.
			var lines []uint32
			if len(res.Lines) > 0 {
				lines = append(lines, res.Lines...)
			}
			streams[thread] = append(streams[thread],
				interwarp.Step{Mask: res.Mask, Lines: lines})
			perWG[wg] = streams
		}
		opts := workloads.ExecOptions{Size: sizeFor(s, quick), SkipVerify: true, Visit: visit}
		if _, err := workloads.ExecuteCtx(ctx, gpu.New(gpu.DefaultConfig()), s, opts); err != nil {
			return nil, err
		}
		agg := &interwarp.Result{}
		for _, streams := range perWG {
			r := interwarp.Compact(streams, width, 4)
			agg.Steps += r.Steps
			agg.BaselineCycles += r.BaselineCycles
			agg.SCCCycles += r.SCCCycles
			agg.TBCCycles += r.TBCCycles
			agg.BaselineLines += r.BaselineLines
			agg.TBCLines += r.TBCLines
			agg.BaselineWarpInstrs += r.BaselineWarpInstrs
			agg.TBCWarpInstrs += r.TBCWarpInstrs
		}
		row := InterwarpRow{
			Name:            name,
			SCCReduction:    agg.SCCReduction(),
			TBCReduction:    agg.TBCReduction(),
			MemoryInflation: agg.MemoryInflation(),
			PerWarpMemDiv:   agg.PerWarpDivergence(),
		}
		if row.TBCReduction > 0 {
			row.CaptureRatio = row.SCCReduction / row.TBCReduction
		}
		rows = append(rows, row)
	}
	return rows, nil
}

func runInterwarp(ctx *Context) error {
	rows, err := Interwarp(ctx.context(), ctx.Quick)
	if err != nil {
		return err
	}
	t := newTable("workload", "scc (intra-warp)", "tbc ideal (inter-warp)", "scc/tbc", "lines total", "lines per warp-instr")
	for _, r := range rows {
		t.add(r.Name, r.SCCReduction, r.TBCReduction,
			fmt.Sprintf("%.1fx", r.CaptureRatio),
			fmt.Sprintf("%.2fx", r.MemoryInflation),
			fmt.Sprintf("%.2fx", r.PerWarpMemDiv))
	}
	t.render(ctx.Out)
	ctx.printf("paper §1/§3.2: with few warps per block and lane positions preserved, inter-warp\n")
	ctx.printf("regrouping misses repeated within-warp patterns that SCC compresses, and each\n")
	ctx.printf("compacted warp's memory instructions touch more distinct lines (last column);\n")
	ctx.printf("intra-warp compaction holds per-warp memory divergence at exactly 1.00x.\n")
	return nil
}
