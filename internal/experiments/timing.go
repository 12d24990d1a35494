package experiments

import (
	"context"
	"fmt"

	"intrawarp/internal/compaction"
	"intrawarp/internal/stats"
	"intrawarp/internal/workloads"
)

func init() {
	register(&Experiment{ID: "fig11", Title: "Ray tracing: total-cycle vs EU-cycle reduction under DC1/DC2 bandwidth", Run: runFig11})
	register(&Experiment{ID: "fig12", Title: "Rodinia: total-cycle vs EU-cycle reduction, 128KB L3 vs perfect L3", Run: runFig12})
	register(&Experiment{ID: "table4", Title: "Summary of BCC and SCC benefits (max/avg, EU cycles and execution time)", Run: runTable4})
}

// TimingRow captures one workload's timed comparison against the IVB
// reference (the paper reports benefits over the existing optimization).
type TimingRow struct {
	Name string

	// Reduction in total execution cycles at DC1 and DC2, per policy.
	TotalDC1 [2]float64 // [0]=BCC, [1]=SCC
	TotalDC2 [2]float64
	// Reduction in EU busy cycles (bandwidth-independent in practice;
	// measured at DC2).
	EU [2]float64
	// DCDemand is the data-cluster lines/cycle demand at DC2 under IVB,
	// BCC, SCC (the secondary axis of Fig. 11).
	DCDemand [3]float64
	// PerfectL3 total-cycle reductions (Fig. 12 only; zero otherwise).
	TotalPL3 [2]float64
}

// timingStudy runs the full policy × bandwidth sweep over a workload set.
// Every cell constructs its own GPU, so all cells are independent; they
// execute on a worker pool of the given size (below 1 selects GOMAXPROCS)
// and land in an indexed slice, keeping the assembled rows — and thus the
// rendered output — identical at any worker count. Only each workload's
// first cell verifies device results against the host reference; the
// remaining cells are policy/bandwidth re-runs of the same computation.
func timingStudy(ctx context.Context, set []*workloads.Spec, quick, withPL3 bool, workers int) ([]TimingRow, error) {
	pols := []compaction.Policy{compaction.IvyBridge, compaction.BCC, compaction.SCC}
	var cells []cell
	for _, s := range set {
		first := true
		for _, p := range pols {
			for _, dc := range []int{1, 2} {
				cells = append(cells, cell{spec: s, size: sizeFor(s, quick), timed: true, verify: first, policy: p, dc: dc})
				first = false
			}
			if withPL3 {
				cells = append(cells, cell{spec: s, size: sizeFor(s, quick), timed: true, policy: p, dc: 1, pl3: true})
			}
		}
	}
	results, err := runCells(ctx, workers, cells)
	if err != nil {
		return nil, err
	}

	runs := make(map[cell]*stats.Run, len(cells))
	for i, c := range cells {
		c.verify = false // keyed by the simulated point alone
		runs[c] = results[i]
	}
	red := func(ref, with *stats.Run, eu bool) float64 {
		if eu {
			return compaction.Reduction(ref.EUBusy, with.EUBusy)
		}
		return compaction.Reduction(ref.TotalCycles, with.TotalCycles)
	}
	rows := make([]TimingRow, len(set))
	for wl, s := range set {
		at := func(p compaction.Policy, dc int, pl3 bool) *stats.Run {
			return runs[cell{spec: s, size: sizeFor(s, quick), timed: true, policy: p, dc: dc, pl3: pl3}]
		}
		row := TimingRow{Name: s.Name}
		for i, p := range []compaction.Policy{compaction.BCC, compaction.SCC} {
			row.TotalDC1[i] = red(at(compaction.IvyBridge, 1, false), at(p, 1, false), false)
			row.TotalDC2[i] = red(at(compaction.IvyBridge, 2, false), at(p, 2, false), false)
			row.EU[i] = red(at(compaction.IvyBridge, 2, false), at(p, 2, false), true)
			if withPL3 {
				row.TotalPL3[i] = red(at(compaction.IvyBridge, 1, true), at(p, 1, true), false)
			}
		}
		for i, p := range pols {
			row.DCDemand[i] = at(p, 2, false).DCDemand()
		}
		rows[wl] = row
	}
	return rows, nil
}

// Fig11 runs the ray-tracing timing study on a worker pool of the given
// size (below 1 selects GOMAXPROCS).
func Fig11(ctx context.Context, quick bool, workers int) ([]TimingRow, error) {
	return timingStudy(ctx, workloads.ByClass("raytrace"), quick, false, workers)
}

func runFig11(ctx *Context) error {
	rows, err := Fig11(ctx.context(), ctx.Quick, ctx.Workers)
	if err != nil {
		return err
	}
	t := newTable("workload", "bcc tot DC1", "scc tot DC1", "bcc tot DC2", "scc tot DC2",
		"bcc EU", "scc EU", "DC demand ivb/bcc/scc")
	for _, r := range rows {
		t.add(r.Name, r.TotalDC1[0], r.TotalDC1[1], r.TotalDC2[0], r.TotalDC2[1],
			r.EU[0], r.EU[1],
			fmt.Sprintf("%.2f/%.2f/%.2f", r.DCDemand[0], r.DCDemand[1], r.DCDemand[2]))
	}
	t.render(ctx.Out)
	ctx.printf("paper: DC1 captures a fraction of the EU-cycle benefit; DC2 recovers ~90%% of it\n")
	return nil
}

// Fig12 runs the Rodinia timing study including the perfect-L3 model.
func Fig12(ctx context.Context, quick bool, workers int) ([]TimingRow, error) {
	return timingStudy(ctx, workloads.ByClass("rodinia"), quick, true, workers)
}

func runFig12(ctx *Context) error {
	rows, err := Fig12(ctx.context(), ctx.Quick, ctx.Workers)
	if err != nil {
		return err
	}
	t := newTable("workload", "bcc total", "scc total", "bcc total PL3", "scc total PL3", "bcc EU", "scc EU")
	for _, r := range rows {
		t.add(r.Name, r.TotalDC1[0], r.TotalDC1[1], r.TotalPL3[0], r.TotalPL3[1], r.EU[0], r.EU[1])
	}
	t.render(ctx.Out)
	ctx.printf("paper: memory-bound kernels (BFS) see EU savings without execution-time savings\n")
	return nil
}

// Table4Summary mirrors the paper's Table 4 structure.
type Table4Summary struct {
	SimEUMax, SimEUAvg     [2]float64 // [0]=BCC [1]=SCC
	TraceEUMax, TraceEUAvg [2]float64
	DC1Max, DC1Avg         [2]float64
	DC2Max, DC2Avg         [2]float64
}

// Table4 aggregates the summary statistics over the divergent sets.
func Table4(ctx context.Context, quick bool, workers int) (*Table4Summary, error) {
	out := &Table4Summary{}

	// EU-cycle rows: execution-driven divergent set.
	sim, traces, err := workloadRuns(ctx, quick, workers)
	if err != nil {
		return nil, err
	}
	accum := func(vals [][2]float64) (max, avg [2]float64) {
		for _, v := range vals {
			for i := 0; i < 2; i++ {
				if v[i] > max[i] {
					max[i] = v[i]
				}
				avg[i] += v[i]
			}
		}
		if len(vals) > 0 {
			avg[0] /= float64(len(vals))
			avg[1] /= float64(len(vals))
		}
		return max, avg
	}
	var simVals, trVals [][2]float64
	for _, r := range sim {
		if r.Divergent() {
			simVals = append(simVals, [2]float64{
				r.EUCycleReduction(compaction.BCC), r.EUCycleReduction(compaction.SCC)})
		}
	}
	for _, r := range traces {
		trVals = append(trVals, [2]float64{
			r.EUCycleReduction(compaction.BCC), r.EUCycleReduction(compaction.SCC)})
	}
	out.SimEUMax, out.SimEUAvg = accum(simVals)
	out.TraceEUMax, out.TraceEUAvg = accum(trVals)

	// Execution-time rows: the timed divergent subset (ray tracing +
	// divergent rodinia, as in §5.4).
	var set []*workloads.Spec
	for _, s := range append(append([]*workloads.Spec{}, workloads.ByClass("raytrace")...),
		workloads.ByClass("rodinia")...) {
		if s.Divergent {
			set = append(set, s)
		}
	}
	rows, err := timingStudy(ctx, set, quick, false, workers)
	if err != nil {
		return nil, err
	}
	var dc1, dc2 [][2]float64
	for _, r := range rows {
		dc1 = append(dc1, r.TotalDC1)
		dc2 = append(dc2, r.TotalDC2)
	}
	out.DC1Max, out.DC1Avg = accum(dc1)
	out.DC2Max, out.DC2Avg = accum(dc2)
	return out, nil
}

func runTable4(ctx *Context) error {
	s, err := Table4(ctx.context(), ctx.Quick, ctx.Workers)
	if err != nil {
		return err
	}
	t := newTable("divergent workloads", "bcc max", "bcc avg", "scc max", "scc avg")
	t.add("GPGenSim-equivalent (EU cycles)", s.SimEUMax[0], s.SimEUAvg[0], s.SimEUMax[1], s.SimEUAvg[1])
	t.add("Traces (EU cycles)", s.TraceEUMax[0], s.TraceEUAvg[0], s.TraceEUMax[1], s.TraceEUAvg[1])
	t.add("Execution time (DC1)", s.DC1Max[0], s.DC1Avg[0], s.DC1Max[1], s.DC1Avg[1])
	t.add("Execution time (DC2)", s.DC2Max[0], s.DC2Avg[0], s.DC2Max[1], s.DC2Avg[1])
	t.render(ctx.Out)
	ctx.printf("paper: sim EU 36/18 38/24 | traces 31/12 42/18 | DC1 21/5 21/7 | DC2 28/12 36/18 (max/avg %%)\n")
	return nil
}
