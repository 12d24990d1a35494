// Command simd-sim runs one workload on the cycle-level GPU simulator and
// prints its statistics.
//
// Usage:
//
//	simd-sim -list
//	simd-sim -workload bfs [-policy scc] [-n 1024] [-dc 2] [-perfect-l3]
//	         [-functional] [-workers 4] [-json]
//	simd-sim -workload bfs -compare -timeline bfs.json
//
// -timeline captures a Chrome-trace/Perfetto timeline of the run (one
// process per policy under -compare) — open the file in
// https://ui.perfetto.dev or chrome://tracing. See docs/observability.md.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"

	"intrawarp"
)

func main() {
	var (
		list       = flag.Bool("list", false, "list available workloads and exit")
		name       = flag.String("workload", "", "workload to run (see -list)")
		policyStr  = flag.String("policy", "ivb", "divergence policy: baseline, ivb, bcc, scc, meld, resize, its")
		n          = flag.Int("n", 0, "problem size (0 = workload default)")
		dc         = flag.Int("dc", 1, "data-cluster bandwidth in lines/cycle (paper DC1=1, DC2=2)")
		perfectL3  = flag.Bool("perfect-l3", false, "model a perfect (always-hit) L3")
		functional = flag.Bool("functional", false, "functional-only run (no timing)")
		workers    = flag.Int("workers", 0, "functional-engine worker pool size (0 = GOMAXPROCS)")
		compare    = flag.Bool("compare", false, "run all seven policies and compare timing")
		jsonOut    = flag.Bool("json", false, "emit the run report as JSON")
		timeline   = flag.String("timeline", "", "write a Chrome-trace/Perfetto timeline to this file")
	)
	flag.Parse()

	if *list {
		fmt.Printf("%-22s %-10s %s\n", "workload", "class", "divergent")
		for _, s := range intrawarp.Workloads() {
			fmt.Printf("%-22s %-10s %v\n", s.Name, s.Class, s.Divergent)
		}
		return
	}
	if *name == "" {
		fmt.Fprintln(os.Stderr, "simd-sim: -workload required (use -list)")
		os.Exit(2)
	}
	spec, err := intrawarp.WorkloadByName(*name)
	if err != nil {
		fmt.Fprintln(os.Stderr, "simd-sim:", err)
		os.Exit(2)
	}
	policy, err := intrawarp.ParsePolicy(*policyStr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "simd-sim:", err)
		os.Exit(2)
	}

	var tl *intrawarp.Timeline
	if *timeline != "" {
		tl = intrawarp.NewTimeline()
	}
	writeTimeline := func() {
		if tl == nil {
			return
		}
		f, err := os.Create(*timeline)
		if err != nil {
			fmt.Fprintln(os.Stderr, "simd-sim:", err)
			os.Exit(1)
		}
		if err := tl.WriteJSON(f); err == nil {
			err = f.Close()
		} else {
			f.Close()
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "simd-sim:", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "simd-sim: timeline written to %s (open in https://ui.perfetto.dev)\n", *timeline)
	}

	mkGPU := func(p intrawarp.Policy) *intrawarp.GPU {
		opts := []intrawarp.Option{
			intrawarp.WithPolicy(p),
			intrawarp.WithDCBandwidth(*dc),
			intrawarp.WithWorkers(*workers),
		}
		if *perfectL3 {
			opts = append(opts, intrawarp.WithPerfectL3())
		}
		if tl != nil {
			opts = append(opts, intrawarp.WithProbe(tl.Run(spec.Name+"/"+p.String())))
		}
		g, err := intrawarp.NewGPU(opts...)
		if err != nil {
			fmt.Fprintln(os.Stderr, "simd-sim:", err)
			os.Exit(2)
		}
		return g
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if *compare {
		fmt.Printf("%-10s %-14s %-14s %-10s\n", "policy", "total cycles", "EU busy", "vs ivb")
		var ref int64
		for _, pname := range []string{"baseline", "ivb", "bcc", "scc", "meld", "resize", "its"} {
			p, _ := intrawarp.ParsePolicy(pname)
			run, err := intrawarp.RunWorkloadCtx(ctx, mkGPU(p), spec,
				intrawarp.WithSize(*n), intrawarp.WithTimed())
			if err != nil {
				fmt.Fprintln(os.Stderr, "simd-sim:", err)
				os.Exit(1)
			}
			if p == intrawarp.IvyBridge {
				ref = run.TotalCycles
			}
			rel := "-"
			if ref > 0 {
				rel = fmt.Sprintf("%+.1f%%", 100*float64(ref-run.TotalCycles)/float64(ref))
			}
			fmt.Printf("%-10s %-14d %-14d %-10s\n", p, run.TotalCycles, run.EUBusy, rel)
		}
		writeTimeline()
		return
	}

	runOpts := []intrawarp.Option{intrawarp.WithSize(*n)}
	if !*functional {
		runOpts = append(runOpts, intrawarp.WithTimed())
	}
	run, err := intrawarp.RunWorkloadCtx(ctx, mkGPU(policy), spec, runOpts...)
	if err != nil {
		fmt.Fprintln(os.Stderr, "simd-sim:", err)
		os.Exit(1)
	}
	writeTimeline()
	if *jsonOut {
		out, err := run.JSON()
		if err != nil {
			fmt.Fprintln(os.Stderr, "simd-sim:", err)
			os.Exit(1)
		}
		fmt.Println(string(out))
		return
	}
	fmt.Print(run.Summary())
	if !*functional {
		fmt.Printf("  L3 hit rate       %.3f\n", run.L3HitRate)
	}
}
