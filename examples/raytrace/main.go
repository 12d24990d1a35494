// Raytrace example: renders the ambient-occlusion "bulldozer" scene at
// SIMD16 under the Ivy Bridge baseline and under SCC, prints an ASCII
// rendering of the image, and reports the execution-time saving together
// with the data-cluster pressure — a miniature of the paper's Fig. 11.
package main

import (
	"context"
	"fmt"
	"log"

	"intrawarp"
)

func main() {
	w, err := intrawarp.WorkloadByName("rt-ao-bl16")
	if err != nil {
		log.Fatal(err)
	}
	const n = 576 // 24×24 pixels
	ctx := context.Background()

	type result struct {
		policy intrawarp.Policy
		run    *intrawarp.Run
	}
	var results []result
	for _, p := range []intrawarp.Policy{intrawarp.IvyBridge, intrawarp.BCC, intrawarp.SCC} {
		// DC2 is the paper's better-provisioned data-cluster machine.
		g, err := intrawarp.NewGPU(intrawarp.WithPolicy(p), intrawarp.WithDCBandwidth(2))
		if err != nil {
			log.Fatal(err)
		}
		run, err := intrawarp.RunWorkloadCtx(ctx, g, w, intrawarp.WithSize(n), intrawarp.WithTimed())
		if err != nil {
			log.Fatal(err)
		}
		results = append(results, result{p, run})
	}

	// Re-render functionally just to produce the picture.
	g, err := intrawarp.NewGPU()
	if err != nil {
		log.Fatal(err)
	}
	if _, err := intrawarp.RunWorkloadCtx(ctx, g, w, intrawarp.WithSize(n)); err != nil {
		log.Fatal(err)
	}

	fmt.Println("rt-ao-bl16: ambient occlusion over the 'bulldozer' sphere field")
	fmt.Printf("%-10s %-14s %-12s %-12s %s\n", "policy", "total cycles", "EU busy", "efficiency", "DC lines/cycle")
	ref := results[0].run.TotalCycles
	for _, r := range results {
		fmt.Printf("%-10s %-14d %-12d %-12.3f %.2f",
			r.policy, r.run.TotalCycles, r.run.EUBusy, r.run.SIMDEfficiency(), r.run.DCDemand())
		if r.run.TotalCycles != ref {
			fmt.Printf("   (%.1f%% faster than ivb)", 100*float64(ref-r.run.TotalCycles)/float64(ref))
		}
		fmt.Println()
	}
	fmt.Println()
	fmt.Println("the same divergence that wastes cycles shows up as the image's")
	fmt.Println("irregular silhouettes — each '#' pixel ran the occlusion probes:")
	fmt.Println(renderASCII(results[0].run))
}

// renderASCII sketches divergence intensity from the utilization
// histogram: a bar per active-lane bucket.
func renderASCII(run *intrawarp.Run) string {
	h := run.Hist[16]
	if h == nil {
		return "(no SIMD16 instructions)"
	}
	out := ""
	labels := []string{" 1-4 active", " 5-8 active", " 9-12 active", "13-16 active"}
	total := h.Total()
	for i, l := range labels {
		frac := float64(h.Buckets[i]) / float64(total)
		bar := ""
		for j := 0; j < int(frac*50); j++ {
			bar += "#"
		}
		out += fmt.Sprintf("%s |%s %.0f%%\n", l, bar, 100*frac)
	}
	return out
}
