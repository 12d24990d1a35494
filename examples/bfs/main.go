// BFS example: runs the paper's canonical memory-bound divergent workload
// and reproduces its headline finding (Fig. 12): breadth-first search
// shows large EU-cycle savings from intra-warp compaction, but its
// execution time barely moves because memory stalls dominate — even with
// a perfect L3.
package main

import (
	"context"
	"fmt"
	"log"

	"intrawarp"
)

func main() {
	w, err := intrawarp.WorkloadByName("bfs")
	if err != nil {
		log.Fatal(err)
	}
	const n = 1024
	ctx := context.Background()

	fmt.Println("bfs over a 1024-node random graph (frontier expansion per launch)")
	fmt.Printf("%-10s %-12s %-14s %-12s %-14s\n", "policy", "L3", "total cycles", "EU busy", "lines/send")
	type key struct {
		p   intrawarp.Policy
		pl3 bool
	}
	totals := map[key]int64{}
	busies := map[key]int64{}
	for _, pl3 := range []bool{false, true} {
		for _, p := range []intrawarp.Policy{intrawarp.IvyBridge, intrawarp.SCC} {
			opts := []intrawarp.Option{intrawarp.WithPolicy(p)}
			if pl3 {
				opts = append(opts, intrawarp.WithPerfectL3())
			}
			g, err := intrawarp.NewGPU(opts...)
			if err != nil {
				log.Fatal(err)
			}
			run, err := intrawarp.RunWorkloadCtx(ctx, g, w, intrawarp.WithSize(n), intrawarp.WithTimed())
			if err != nil {
				log.Fatal(err)
			}
			l3 := "128KB"
			if pl3 {
				l3 = "perfect"
			}
			totals[key{p, pl3}] = run.TotalCycles
			busies[key{p, pl3}] = run.EUBusy
			fmt.Printf("%-10s %-12s %-14d %-12d %-14.2f\n",
				p, l3, run.TotalCycles, run.EUBusy, run.LinesPerSend())
		}
	}
	euSave := pct(busies[key{intrawarp.IvyBridge, false}], busies[key{intrawarp.SCC, false}])
	totSave := pct(totals[key{intrawarp.IvyBridge, false}], totals[key{intrawarp.SCC, false}])
	totSavePL3 := pct(totals[key{intrawarp.IvyBridge, true}], totals[key{intrawarp.SCC, true}])
	fmt.Printf("\nSCC cuts EU cycles by %.1f%%, but total time by only %.1f%% (%.1f%% with a perfect L3):\n",
		euSave, totSave, totSavePL3)
	fmt.Println("BFS is bound by memory divergence — the gathers touch many distinct")
	fmt.Println("cache lines per instruction — so compute compression cannot help much.")
	fmt.Println("This is exactly the paper's Fig. 12 conclusion.")
}

func pct(ref, v int64) float64 { return 100 * float64(ref-v) / float64(ref) }
