// Command simd-verify runs the differential verification harness: every
// selected workload is executed under the serial functional engine with
// trace capture, each captured instruction is checked against the
// independent oracle (cycle models of all seven policies, SCC schedule
// invariants, fetch accounting), and the run is then replayed through
// the offline analyzer, the parallel engine, and — with -timed — the
// cycle-level engine under every policy, all of which must agree
// bit-for-bit. The first divergence stops the run and prints a
// minimized repro as a paste-ready Go test.
//
// Usage:
//
//	simd-verify -quick              verify all workloads at quick sizes
//	simd-verify -workloads bfs,nw   verify a comma-separated subset
//	simd-verify -timed              additionally cross-check the timed engine
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"intrawarp/internal/oracle"
	"intrawarp/internal/workloads"
)

func main() {
	var (
		quick   = flag.Bool("quick", false, "shrink problem sizes to the quick sweep set")
		names   = flag.String("workloads", "", "comma-separated workload subset (default: all)")
		timed   = flag.Bool("timed", false, "also cross-check the cycle-level engine under every policy")
		workers = flag.Int("workers", 0, "parallel-engine pool size (<2 selects 4)")
		verbose = flag.Bool("v", false, "print one line per verified workload")
	)
	flag.Parse()

	opts := oracle.Options{Quick: *quick, Timed: *timed, Workers: *workers}
	if *verbose {
		opts.Progress = os.Stdout
	}
	if *names != "" {
		for _, name := range strings.Split(*names, ",") {
			spec, err := workloads.ByName(strings.TrimSpace(name))
			if err != nil {
				fatal("simd-verify: %v", err)
			}
			opts.Specs = append(opts.Specs, spec)
		}
	}

	start := time.Now()
	sum, err := oracle.Diff(context.Background(), opts)
	if err != nil {
		fmt.Fprintln(os.Stderr, "FAIL")
		fatal("simd-verify: %v", err)
	}
	fmt.Printf("ok  %d workloads, %d records (%d unique signatures), %d timed runs, %s\n",
		sum.Workloads, sum.Records, sum.UniqueRecords, sum.TimedRuns, time.Since(start).Round(time.Millisecond))
}

func fatal(format string, args ...interface{}) {
	fmt.Fprintf(os.Stderr, format+"\n", args...)
	os.Exit(1)
}
