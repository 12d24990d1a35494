// Divergence-patterns example: a guided tour of the cycle-compression
// mechanics on hand-picked execution masks, including the paper's Fig. 7
// worked SCC example with its full crossbar schedule.
package main

import (
	"fmt"

	"intrawarp"
)

func main() {
	fmt.Println("Execution cycles of a SIMD16 instruction (4-wide ALU, 32-bit ops)")
	fmt.Println("under each compaction policy:")
	fmt.Println()
	fmt.Printf("%-18s %-9s %-9s %-5s %-5s\n", "mask", "baseline", "ivybridge", "bcc", "scc")
	for _, m := range []intrawarp.Mask{
		0xFFFF, // coherent
		0x00FF, // lower half: the inferred Ivy Bridge optimization fires
		0xF0F0, // two dead quads: BCC territory
		0xAAAA, // alternating lanes: only SCC compresses (paper Fig. 4b/7)
		0x8001, // two scattered lanes: SCC packs them into one cycle
		0x0001, // single lane
	} {
		fmt.Printf("0x%04X %-11s %-9d %-9d %-5d %-5d\n",
			uint32(m), lanes(m),
			intrawarp.Baseline.Cycles(m, 16, 4),
			intrawarp.IvyBridge.Cycles(m, 16, 4),
			intrawarp.BCC.Cycles(m, 16, 4),
			intrawarp.SCC.Cycles(m, 16, 4))
	}

	fmt.Println()
	fmt.Println("The paper's Fig. 7 example — SCC crossbar settings for mask 0xAAAA:")
	s := intrawarp.ComputeSchedule(0xAAAA, 16, 4)
	fmt.Print(s)
	fmt.Printf("(%d of %d lane slots routed through the crossbar; '*' marks swizzles)\n",
		s.Swizzles(), len(s.Cycles)*4)

	fmt.Println()
	fmt.Println("Wider datatypes retire fewer lanes per cycle, so compaction has more")
	fmt.Println("to harvest (§4.1). Mask 0x000F at SIMD16:")
	fmt.Printf("%-6s %-11s %-9s %-5s\n", "dtype", "group size", "baseline", "bcc")
	for _, g := range []struct {
		name  string
		group int
	}{{"f16", 8}, {"f32", 4}, {"f64", 2}} {
		fmt.Printf("%-6s %-11d %-9d %-5d\n", g.name, g.group,
			intrawarp.Baseline.Cycles(0x000F, 16, g.group),
			intrawarp.BCC.Cycles(0x000F, 16, g.group))
	}
}

func lanes(m intrawarp.Mask) string {
	return fmt.Sprintf("(%d on)", m.PopCount())
}
