// Quickstart: build a small divergent kernel with the public API, run it
// under all seven divergence policies, and show how cycle compression
// changes execution time without changing results.
package main

import (
	"context"
	"fmt"
	"log"

	"intrawarp"
)

func main() {
	const n = 1024
	ctx := context.Background()

	// A kernel with a classic if/else divergence: odd work-items take the
	// expensive path (a square root), even ones the cheap path.
	b := intrawarp.NewKernel("oddeven", intrawarp.SIMD16)
	addr := b.Addr(b.Arg(0), b.GlobalID(), 4)
	v := b.Vec()
	b.LoadGather(v, addr)
	odd := b.Vec()
	b.And(odd, b.GlobalID(), b.U(1))
	b.CmpU(intrawarp.F0, intrawarp.CmpNE, odd, b.U(0))
	b.If(intrawarp.F0)
	b.Sqrt(v, v)
	b.Else()
	b.Mul(v, v, b.F(0.5))
	b.EndIf()
	b.StoreScatter(addr, v)
	kernel := b.MustBuild()

	fmt.Println("program disassembly:")
	fmt.Println(kernel.Program.Disassemble())

	var ref []float32
	for _, policy := range []intrawarp.Policy{
		intrawarp.Baseline, intrawarp.IvyBridge, intrawarp.BCC, intrawarp.SCC,
		intrawarp.Melding, intrawarp.Resize, intrawarp.ITS,
	} {
		g, err := intrawarp.NewGPU(intrawarp.WithPolicy(policy))
		if err != nil {
			log.Fatal(err)
		}
		data := make([]float32, n)
		for i := range data {
			data[i] = float32(i) + 1
		}
		buf := g.AllocF32(n, data)
		run, err := g.RunCtx(ctx, intrawarp.LaunchSpec{
			Kernel: kernel, GlobalSize: n, GroupSize: 64, Args: []uint32{buf},
		})
		if err != nil {
			log.Fatal(err)
		}
		out := g.ReadBufferF32(buf, n)
		if ref == nil {
			ref = out
		}
		for i := range out {
			if out[i] != ref[i] {
				log.Fatalf("policy %s changed results at %d: %v vs %v", policy, i, out[i], ref[i])
			}
		}
		fmt.Printf("%-9s total=%6d cycles  EU busy=%6d  SIMD efficiency=%.2f\n",
			policy, run.TotalCycles, run.EUBusy, run.SIMDEfficiency())
	}
	fmt.Println("\nresults are bit-identical under every policy; only time changes.")
}
