// Command simd-asm assembles, disassembles, validates, and runs textual
// EU kernels.
//
// Usage:
//
//	simd-asm -assemble k.sasm -o k.skrn       text → binary program
//	simd-asm -disassemble k.skrn              binary → text
//	simd-asm -validate k.sasm                 parse, static checks and decode; no run
//	simd-asm -run k.sasm -width 16 -n 128 -out-words 128
//	    run the kernel: one buffer of out-words words is allocated,
//	    its address passed as argument 0, and its contents dumped.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"

	"intrawarp/internal/asm"
	"intrawarp/internal/compaction"
	"intrawarp/internal/eu"
	"intrawarp/internal/gpu"
	"intrawarp/internal/isa"
)

func main() {
	var (
		assemble    = flag.String("assemble", "", "assemble a .sasm text file")
		disassemble = flag.String("disassemble", "", "disassemble a binary program file")
		validate    = flag.String("validate", "", "validate a .sasm text file")
		run         = flag.String("run", "", "assemble and run a .sasm text file")
		out         = flag.String("o", "", "output file for -assemble")
		width       = flag.Int("width", 16, "kernel SIMD width for -run")
		n           = flag.Int("n", 128, "global work-items for -run")
		group       = flag.Int("group", 64, "workgroup size for -run")
		outWords    = flag.Int("out-words", 16, "words in the argument-0 buffer for -run")
		policy      = flag.String("policy", "ivb", "compaction policy for -run")
	)
	flag.Parse()

	switch {
	case *assemble != "":
		prog := mustAssemble(*assemble)
		if *out == "" {
			fatal("simd-asm: -assemble requires -o")
		}
		if err := os.WriteFile(*out, prog.Encode(), 0o644); err != nil {
			fatal("simd-asm: %v", err)
		}
		fmt.Printf("assembled %d instructions to %s\n", len(prog), *out)
	case *disassemble != "":
		f, err := os.Open(*disassemble)
		if err != nil {
			fatal("simd-asm: %v", err)
		}
		defer f.Close()
		prog, err := isa.DecodeProgram(f)
		if err != nil {
			fatal("simd-asm: %v", err)
		}
		fmt.Print(prog.Disassemble())
	case *validate != "":
		prog := mustAssemble(*validate)
		// Decode is the launch-time check: it rejects operands past the
		// register file, immediate destinations and operations with no
		// lane loop, which the assembler's static checks let through.
		if _, err := eu.Decode(cliKernel(prog, *width)); err != nil {
			fatal("simd-asm: %s: %v", *validate, err)
		}
		fmt.Printf("%s: %d instructions, valid\n", *validate, len(prog))
	case *run != "":
		prog := mustAssemble(*run)
		runKernel(prog, *width, *n, *group, *outWords, *policy)
	default:
		flag.Usage()
		os.Exit(2)
	}
}

func mustAssemble(path string) isa.Program {
	src, err := os.ReadFile(path)
	if err != nil {
		fatal("simd-asm: %v", err)
	}
	prog, err := asm.Assemble(string(src))
	if err != nil {
		fatal("simd-asm: %v", err)
	}
	return prog
}

func runKernel(prog isa.Program, width, n, group, outWords int, policyStr string) {
	cfg := gpu.DefaultConfig()
	if p, err := compaction.ParsePolicy(policyStr); err == nil {
		cfg = cfg.WithPolicy(p)
	} else {
		fatal("simd-asm: %v", err)
	}
	g := gpu.New(cfg)
	buf := g.AllocU32(outWords, make([]uint32, outWords))
	k := cliKernel(prog, width)
	runStats, err := g.RunCtx(context.Background(), gpu.LaunchSpec{Kernel: k, GlobalSize: n,
		GroupSize: group, Args: []uint32{buf}})
	if err != nil {
		fatal("simd-asm: %v", err)
	}
	fmt.Print(runStats.Summary())
	fmt.Println("argument-0 buffer:")
	words := g.ReadBufferU32(buf, outWords)
	for i := 0; i < len(words); i += 8 {
		fmt.Printf("  %4d:", i)
		for j := i; j < i+8 && j < len(words); j++ {
			fmt.Printf(" %08x", words[j])
		}
		fmt.Println()
	}
}

// cliKernel wraps an assembled program as the kernel -validate and -run
// check and launch.
func cliKernel(prog isa.Program, width int) *isa.Kernel {
	return &isa.Kernel{Name: "cli", Program: prog, Width: isa.Width(width)}
}

func fatal(format string, args ...interface{}) {
	fmt.Fprintf(os.Stderr, format+"\n", args...)
	os.Exit(1)
}
