package experiments

import (
	"context"
	"fmt"

	"intrawarp/internal/compaction"
	"intrawarp/internal/workloads"
)

func init() {
	register(&Experiment{ID: "energy",
		Title: "Dynamic-energy proxy per policy (quantifying the paper's §4.3 discussion)",
		Run:   runEnergy})
}

// EnergyRow compares the energy proxy of one workload across policies,
// normalized to the Ivy Bridge baseline.
type EnergyRow struct {
	Name     string
	Relative [compaction.NumPolicies]float64
	// SCCCrossbarShare is the crossbar term's share of SCC energy.
	SCCCrossbarShare float64
}

// energyWorkloads is a representative divergent subset (timed energy runs
// are the most expensive experiment).
var energyWorkloads = []string{
	"bfs", "particlefilter", "lavamd", "bsearch", "rt-ao-bl16", "rt-pr-conf",
}

// Energy measures the weighted dynamic-energy proxy under every policy.
// The workload × policy cells fan out over a worker pool of the given
// size (below 1 selects GOMAXPROCS).
func Energy(ctx context.Context, quick bool, workers int) ([]EnergyRow, error) {
	var cells []cell
	for _, name := range energyWorkloads {
		s, err := workloads.ByName(name)
		if err != nil {
			return nil, err
		}
		cells = append(cells, cell{spec: s, size: sizeFor(s, quick), timed: true, verify: true}.eachPolicy(compaction.Policies[:]...)...)
	}
	runs, err := runCells(ctx, workers, cells)
	if err != nil {
		return nil, err
	}
	rows := make([]EnergyRow, len(energyWorkloads))
	for i, name := range energyWorkloads {
		row := EnergyRow{Name: name}
		for _, p := range compaction.Policies {
			run := runs[i*compaction.NumPolicies+int(p)]
			e := run.EnergyProxy()
			row.Relative[p] = e
			if p == compaction.SCC && e > 0 {
				row.SCCCrossbarShare = 0.2 * float64(run.CrossbarOps) / e
			}
		}
		ref := row.Relative[compaction.IvyBridge]
		for k := range row.Relative {
			row.Relative[k] /= ref
		}
		rows[i] = row
	}
	return rows, nil
}

func runEnergy(ctx *Context) error {
	rows, err := Energy(ctx.context(), ctx.Quick, ctx.Workers)
	if err != nil {
		return err
	}
	t := newTable("workload", "baseline", "ivb", "bcc", "scc", "scc crossbar share")
	for _, r := range rows {
		t.add(r.Name,
			fmt.Sprintf("%.2fx", r.Relative[compaction.Baseline]),
			fmt.Sprintf("%.2fx", r.Relative[compaction.IvyBridge]),
			fmt.Sprintf("%.2fx", r.Relative[compaction.BCC]),
			fmt.Sprintf("%.2fx", r.Relative[compaction.SCC]),
			fmt.Sprintf("%.1f%%", 100*r.SCCCrossbarShare))
	}
	t.render(ctx.Out)
	ctx.printf("§4.3: BCC saves both execution and operand-fetch energy; SCC saves more\n")
	ctx.printf("execution energy but keeps full-width fetches and adds (small) crossbar cost.\n")
	return nil
}
