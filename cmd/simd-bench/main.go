// Command simd-bench regenerates the paper's tables and figures and runs
// ad-hoc policy sweeps on the trace-once, cost-many engine.
//
// Usage:
//
//	simd-bench -list              list experiments
//	simd-bench -exp fig10         run one experiment
//	simd-bench -all               run everything
//	simd-bench -all -quick        reduced problem sizes
//	simd-bench -all -workers 4    bound the worker pool
//
// Sweeps (one functional execution per workload×width×size group serves
// every policy cell of the group):
//
//	simd-bench -sweep bsearch,urng                      full-policy sweep
//	simd-bench -sweep bsearch -policies scc,bcc \
//	           -widths 8,16 -sizes 1000,4000            explicit axes
//	simd-bench -sweep bsearch -verify                   oracle-check traces
//
// Profiling (inspect with `go tool pprof` / `go tool trace`):
//
//	simd-bench -exp fig12 -cpuprofile cpu.out
//	simd-bench -exp fig12 -memprofile mem.out
//	simd-bench -exp fig12 -trace trace.out
//
// Simulated-machine timelines (one Chrome-trace process per sweep cell,
// viewable in https://ui.perfetto.dev):
//
//	simd-bench -exp fig11 -quick -timeline fig11.json
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"runtime/trace"
	"strconv"
	"strings"
	"syscall"

	"intrawarp"
)

// main delegates to run so profile-flushing defers execute before the
// process exits with run's status code.
func main() { os.Exit(run()) }

func run() int {
	var (
		list       = flag.Bool("list", false, "list experiments and exit")
		exp        = flag.String("exp", "", "experiment ID to run")
		all        = flag.Bool("all", false, "run every experiment")
		quick      = flag.Bool("quick", false, "reduced problem sizes")
		workers    = flag.Int("workers", 0, "worker pool size for experiment cells (0 = GOMAXPROCS, 1 = serial)")
		cpuProfile = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memProfile = flag.String("memprofile", "", "write an allocation profile to this file on exit")
		traceFile  = flag.String("trace", "", "write a runtime execution trace to this file")
		timeline   = flag.String("timeline", "", "write a Chrome-trace timeline of the simulated machines to this file")
		sweep      = flag.String("sweep", "", "comma-separated workloads to sweep trace-once across the policy grid")
		policies   = flag.String("policies", "", "sweep policy axis, comma-separated (default: all seven)")
		widths     = flag.String("widths", "", "sweep SIMD-width axis in lanes, comma-separated (0 = native)")
		sizes      = flag.String("sizes", "", "sweep problem-size axis, comma-separated (0 = workload default)")
		verify     = flag.Bool("verify", false, "oracle-check every captured sweep trace record by record")
	)
	flag.Parse()

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "simd-bench:", err)
			return 1
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "simd-bench:", err)
			return 1
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}
	if *traceFile != "" {
		f, err := os.Create(*traceFile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "simd-bench:", err)
			return 1
		}
		if err := trace.Start(f); err != nil {
			fmt.Fprintln(os.Stderr, "simd-bench:", err)
			return 1
		}
		defer func() {
			trace.Stop()
			f.Close()
		}()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				fmt.Fprintln(os.Stderr, "simd-bench:", err)
				return
			}
			defer f.Close()
			runtime.GC() // materialize the retained heap
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "simd-bench:", err)
			}
		}()
	}

	if *list {
		for _, e := range intrawarp.Experiments() {
			fmt.Printf("%-18s %s\n", e.ID, e.Title)
		}
		return 0
	}
	// The experiment and sweep modes share one option list; output goes
	// to standard output, the default.
	opts := []intrawarp.Option{intrawarp.WithWorkers(*workers)}
	if *quick {
		opts = append(opts, intrawarp.WithQuick())
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if *timeline != "" {
		tl := intrawarp.NewTimeline()
		ctx = intrawarp.ContextWithProbes(ctx, func(label string) intrawarp.Probe {
			return tl.Run(label)
		})
		defer func() {
			f, err := os.Create(*timeline)
			if err != nil {
				fmt.Fprintln(os.Stderr, "simd-bench:", err)
				return
			}
			defer f.Close()
			if err := tl.WriteJSON(f); err != nil {
				fmt.Fprintln(os.Stderr, "simd-bench:", err)
				return
			}
			fmt.Fprintf(os.Stderr, "simd-bench: timeline written to %s\n", *timeline)
		}()
	}
	var err error
	switch {
	case *sweep != "":
		err = runSweep(ctx, sweepFlags{
			workloads: *sweep, policies: *policies, widths: *widths, sizes: *sizes,
			verify: *verify,
		}, opts)
	case *all:
		err = intrawarp.RunAllExperimentsCtx(ctx, opts...)
	case *exp != "":
		err = intrawarp.RunExperimentCtx(ctx, *exp, opts...)
	default:
		flag.Usage()
		return 2
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "simd-bench:", err)
		if errors.Is(err, context.Canceled) {
			return 130
		}
		return 1
	}
	return 0
}

// sweepFlags carries the -sweep mode's axis flags in their raw
// comma-separated form.
type sweepFlags struct {
	workloads, policies, widths, sizes string
	verify                             bool
}

// runSweep builds a Sweep from the flags and the shared options,
// evaluates it, and renders the cell table to stdout.
func runSweep(ctx context.Context, f sweepFlags, shared []intrawarp.Option) error {
	opts := append([]intrawarp.Option{intrawarp.SweepWorkloads(splitList(f.workloads)...)}, shared...)
	if f.policies != "" {
		var ps []intrawarp.Policy
		for _, s := range splitList(f.policies) {
			p, err := intrawarp.ParsePolicy(s)
			if err != nil {
				return err
			}
			ps = append(ps, p)
		}
		opts = append(opts, intrawarp.SweepPolicies(ps...))
	}
	if f.widths != "" {
		ws, err := splitInts(f.widths)
		if err != nil {
			return fmt.Errorf("-widths: %w", err)
		}
		opts = append(opts, intrawarp.SweepWidths(ws...))
	}
	if f.sizes != "" {
		ns, err := splitInts(f.sizes)
		if err != nil {
			return fmt.Errorf("-sizes: %w", err)
		}
		opts = append(opts, intrawarp.SweepSizes(ns...))
	}
	if f.verify {
		opts = append(opts, intrawarp.SweepVerify())
	}
	s, err := intrawarp.NewSweep(opts...)
	if err != nil {
		return err
	}
	out, err := s.Run(ctx)
	if err != nil {
		return err
	}
	out.Render(os.Stdout)
	return nil
}

// splitList splits a comma-separated flag value, trimming blanks.
func splitList(s string) []string {
	var out []string
	for _, part := range strings.Split(s, ",") {
		if part = strings.TrimSpace(part); part != "" {
			out = append(out, part)
		}
	}
	return out
}

// splitInts parses a comma-separated list of integers.
func splitInts(s string) ([]int, error) {
	var out []int
	for _, part := range splitList(s) {
		n, err := strconv.Atoi(part)
		if err != nil {
			return nil, err
		}
		out = append(out, n)
	}
	return out, nil
}
