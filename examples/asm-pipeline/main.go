// Asm-pipeline example: write a kernel in textual assembly, assemble it,
// run it, capture its execution-mask trace, and replay the trace through
// the compaction cost models — the full toolchain in one program.
package main

import (
	"context"
	"fmt"
	"log"

	"intrawarp"
	"intrawarp/internal/asm"
	"intrawarp/internal/eu"
	"intrawarp/internal/gpu"
	"intrawarp/internal/isa"
	"intrawarp/internal/trace"
)

// A collatz-step counter: each work-item iterates n → n/2 or 3n+1 until
// it reaches 1 (or the iteration cap). Trip counts vary wildly per lane —
// a divergence storm.
const collatz = `
	; r20 = value (gid + 2), r22 = steps
	add(16):u32 r20, r1, #0x2
	mov(16):u32 r22, #0x0
	loop(16)
	  ; stop lanes that reached 1
	  cmp.le.f1(16):u32 r20, #0x1
	  (+f1) break(16) ->Lwhile
	  ; odd or even?
	  and(16):u32 r24, r20, #0x1
	  cmp.eq.f0(16):u32 r24, #0x1
	  (+f0) if(16) ->Lelse
	    ; odd: 3n + 1
	    mad(16):u32 r20, r20, #0x3, #0x1
Lelse:
	  else(16) ->Lend
	    ; even: n / 2
	    shr(16):u32 r20, r20, #0x1
Lend:
	  endif(16)
	  add(16):u32 r22, r22, #0x1
	  cmp.lt.f0(16):u32 r22, #0x40
Lwhile:
	(+f0) while(16) ->3
	; store the step count
	mad(16):u32 r26, r1, #0x4, r5.0<0>
	send.st.scatter(16):u32 r26, r22
	halt(16)
`

func main() {
	prog, err := asm.Assemble(collatz)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("assembled kernel:")
	fmt.Println(prog.Disassemble())

	kernel := &isa.Kernel{Name: "collatz", Program: prog, Width: intrawarp.SIMD16}
	const n = 256
	ctx := context.Background()

	// Capture the execution-mask trace from a functional run.
	var records []intrawarp.TraceRecord
	g, err := intrawarp.NewGPU()
	if err != nil {
		log.Fatal(err)
	}
	out := g.AllocU32(n, make([]uint32, n))
	spec := intrawarp.LaunchSpec{Kernel: kernel, GlobalSize: n, GroupSize: 64, Args: []uint32{out}}
	if _, err := g.RunFunctionalCtx(ctx, spec, func(_, _ int, res eu.ExecResult) {
		records = append(records, trace.Record{
			Width: uint8(res.Width), Group: uint8(res.Group), Mask: res.Mask,
		})
	}); err != nil {
		log.Fatal(err)
	}

	// Host-check a few step counts.
	steps := g.ReadBufferU32(out, n)
	for i := 0; i < 4; i++ {
		fmt.Printf("collatz(%d) reaches 1 in %d steps\n", i+2, steps[i])
	}

	// Replay the trace through the compaction models.
	run := intrawarp.AnalyzeTrace("collatz", records)
	fmt.Printf("\ntrace: %d instructions, SIMD efficiency %.2f\n",
		run.Instructions, run.SIMDEfficiency())
	fmt.Printf("EU-cycle reduction over IvyBridge: BCC %.1f%%  SCC %.1f%%\n",
		100*run.EUCycleReduction(intrawarp.BCC), 100*run.EUCycleReduction(intrawarp.SCC))

	// And confirm with timed runs.
	fmt.Println("\ntimed execution:")
	for _, p := range []intrawarp.Policy{intrawarp.IvyBridge, intrawarp.BCC, intrawarp.SCC} {
		gt := gpu.New(gpu.DefaultConfig().WithPolicy(p))
		buf := gt.AllocU32(n, make([]uint32, n))
		r, err := gt.RunCtx(ctx, gpu.LaunchSpec{Kernel: kernel, GlobalSize: n, GroupSize: 64,
			Args: []uint32{buf}})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  %-9s total=%6d cycles  EU busy=%6d\n", p, r.TotalCycles, r.EUBusy)
	}
}
