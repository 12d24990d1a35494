package experiments

import (
	"context"
	"fmt"

	"intrawarp/internal/compaction"
	"intrawarp/internal/isa"
	"intrawarp/internal/workloads"
)

func init() {
	register(&Experiment{ID: "ablation-width",
		Title: "Ablation: SIMD width vs divergence loss and compaction benefit (§5.4/§7)",
		Run:   runAblationWidth})
}

// WidthRow is the width ablation for one workload at one SIMD width.
type WidthRow struct {
	Name       string
	Width      int
	Efficiency float64
	BCC, SCC   float64 // EU-cycle reductions over the IVB baseline
}

// widthWorkloads are the width-parameterizable divergent kernels.
var widthWorkloads = []string{"bsearch", "urng", "kmeans", "particlefilter"}

// AblationWidth compiles each workload at SIMD8/16/32 and measures
// efficiency and compaction benefit, reproducing the paper's conclusion
// that wider warp widths (NVIDIA's 32, AMD's 64) lose more efficiency to
// divergence and leave more for intra-warp compaction to harvest. The
// workload × width cells fan out over a worker pool of the given size
// (below 1 selects GOMAXPROCS).
func AblationWidth(ctx context.Context, quick bool, workers int) ([]WidthRow, error) {
	widths := []isa.Width{isa.SIMD8, isa.SIMD16, isa.SIMD32}
	var cells []cell
	for _, name := range widthWorkloads {
		base, err := workloads.ByName(name)
		if err != nil {
			return nil, err
		}
		for _, w := range widths {
			s, err := workloads.AtWidth(name, w)
			if err != nil {
				return nil, err
			}
			// A width variant has no quick size of its own; it runs at
			// the base workload's.
			cells = append(cells, cell{spec: s, size: sizeFor(base, quick), verify: true})
		}
	}
	runs, err := runCells(ctx, workers, cells)
	if err != nil {
		return nil, err
	}
	rows := make([]WidthRow, len(runs))
	for i, run := range runs {
		rows[i] = WidthRow{
			Name: widthWorkloads[i/len(widths)], Width: widths[i%len(widths)].Lanes(),
			Efficiency: run.SIMDEfficiency(),
			BCC:        run.EUCycleReduction(compaction.BCC),
			SCC:        run.EUCycleReduction(compaction.SCC),
		}
	}
	return rows, nil
}

func runAblationWidth(ctx *Context) error {
	rows, err := AblationWidth(ctx.context(), ctx.Quick, ctx.Workers)
	if err != nil {
		return err
	}
	t := newTable("workload", "width", "efficiency", "bcc", "scc")
	for _, r := range rows {
		t.add(r.Name, fmt.Sprintf("SIMD%d", r.Width),
			fmt.Sprintf("%.3f", r.Efficiency), r.BCC, r.SCC)
	}
	t.render(ctx.Out)
	ctx.printf("§7: the gap between warp width and the 4-wide ALU grows with width, so wider\n")
	ctx.printf("machines (SIMD32 ≈ NVIDIA warps) lose more efficiency and gain more from SCC.\n")
	return nil
}
