package experiments

import (
	"context"

	"intrawarp/internal/compaction"
	"intrawarp/internal/stats"
	"intrawarp/internal/workloads"
)

func init() {
	register(&Experiment{ID: "stalls",
		Title: "EU arbitration-window breakdown: why compute savings do or don't reach wall-clock (§5.4)",
		Run:   runStalls})
}

// StallRow is one workload's window breakdown under SCC.
type StallRow struct {
	Name   string
	Shares [stats.NumStallKinds]float64
}

var stallWorkloads = []string{
	"bfs", "particlefilter", "lavamd", "nw", "hotspot", "rt-ao-bl16", "vecadd",
}

// Stalls runs each workload timed under SCC and attributes its arbitration
// windows: workloads whose EU-cycle savings fail to reach execution time
// (bfs, lavamd in Fig. 12) show memory-dominated breakdowns, while
// compute-bound kernels show issued-dominated ones. The workloads fan out
// over a worker pool of the given size (below 1 selects GOMAXPROCS).
func Stalls(ctx context.Context, quick bool, workers int) ([]StallRow, error) {
	cells := make([]cell, len(stallWorkloads))
	for i, name := range stallWorkloads {
		s, err := workloads.ByName(name)
		if err != nil {
			return nil, err
		}
		cells[i] = cell{spec: s, size: sizeFor(s, quick), timed: true, verify: true, policy: compaction.SCC}
	}
	runs, err := runCells(ctx, workers, cells)
	if err != nil {
		return nil, err
	}
	rows := make([]StallRow, len(runs))
	for i, run := range runs {
		rows[i].Name = stallWorkloads[i]
		for k := stats.StallKind(0); k < stats.NumStallKinds; k++ {
			rows[i].Shares[k] = run.WindowShare(k)
		}
	}
	return rows, nil
}

func runStalls(ctx *Context) error {
	rows, err := Stalls(ctx.context(), ctx.Quick, ctx.Workers)
	if err != nil {
		return err
	}
	t := newTable("workload", "issued", "memory stall", "scoreboard stall", "pipe saturated", "idle")
	for _, r := range rows {
		t.add(r.Name,
			r.Shares[stats.WinIssued], r.Shares[stats.WinMemory],
			r.Shares[stats.WinScoreboard], r.Shares[stats.WinPipe],
			r.Shares[stats.WinIdle])
	}
	t.render(ctx.Out)
	ctx.printf("§5.4: EU-cycle savings reach wall-clock only where issue windows dominate;\n")
	ctx.printf("memory-stalled kernels (lavamd, vecadd's streaming) and kernels saturated by\n")
	ctx.printf("incompressible full-width work (bfs's dense prologue) keep their wall-clock.\n")
	return nil
}
