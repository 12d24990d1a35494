// Command simd-trace captures and analyzes SIMD execution-mask traces —
// the paper's trace-based methodology (§5.1).
//
// Usage:
//
//	simd-trace -capture bfs -o bfs.trace      capture a workload's mask trace
//	simd-trace -analyze bfs.trace             replay a trace through BCC/SCC
//	simd-trace -synth                          analyze every synthetic commercial trace
//	simd-trace -synth -name luxmark-sky -o x.trace   write a synthetic trace to disk
package main

import (
	"context"
	"flag"
	"fmt"
	"os"

	"intrawarp/internal/eu"
	"intrawarp/internal/gpu"
	"intrawarp/internal/trace"
	"intrawarp/internal/workloads"
)

func main() {
	var (
		capture = flag.String("capture", "", "workload whose execution-mask trace to capture")
		n       = flag.Int("n", 0, "problem size for -capture (0 = default)")
		analyze = flag.String("analyze", "", "trace file to analyze")
		synth   = flag.Bool("synth", false, "use the synthetic commercial-workload catalogue")
		name    = flag.String("name", "", "synthetic trace name (with -synth)")
		out     = flag.String("o", "", "output trace file")
	)
	flag.Parse()

	switch {
	case *capture != "":
		if *out == "" {
			fatal("simd-trace: -capture requires -o")
		}
		if err := captureTrace(*capture, *n, *out); err != nil {
			fatal("simd-trace: %v", err)
		}
	case *analyze != "":
		if err := analyzeFile(*analyze); err != nil {
			fatal("simd-trace: %v", err)
		}
	case *synth && *name != "" && *out != "":
		p := trace.SynthByName(*name)
		if p == nil {
			fatal("simd-trace: unknown synthetic trace %q", *name)
		}
		if err := writeSynth(p, *out); err != nil {
			fatal("simd-trace: %v", err)
		}
	case *synth:
		fmt.Printf("%-22s %-12s %-10s %-8s %-8s\n", "trace", "instructions", "efficiency", "bcc", "scc")
		for _, p := range trace.SynthAll() {
			run := trace.Analyze(p.Name, &trace.SliceSource{Records: p.Generate()})
			s := trace.Summarize(run)
			fmt.Printf("%-22s %-12d %-10.3f %-8.1f %-8.1f\n",
				s.Name, s.Instructions, s.Efficiency, 100*s.BCCReduction, 100*s.SCCReduction)
		}
	default:
		flag.Usage()
		os.Exit(2)
	}
}

func fatal(format string, args ...interface{}) {
	fmt.Fprintf(os.Stderr, format+"\n", args...)
	os.Exit(1)
}

func captureTrace(name string, n int, path string) error {
	spec, err := workloads.ByName(name)
	if err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	w, err := trace.NewWriter(f)
	if err != nil {
		return err
	}
	// A failed write sticks in the writer's buffer; Flush returns it.
	visit := func(_, _ int, res eu.ExecResult) { _ = w.Write(trace.RecordOf(res)) }
	opts := workloads.ExecOptions{Size: n, Visit: visit}
	if _, err := workloads.ExecuteCtx(context.Background(), gpu.New(gpu.DefaultConfig()), spec, opts); err != nil {
		return err
	}
	if err := w.Flush(); err != nil {
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Printf("captured %d records to %s\n", w.Count(), path)
	return nil
}

func analyzeFile(path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	r, err := trace.NewReader(f)
	if err != nil {
		return err
	}
	src, srcErr := trace.AsSource(r)
	run := trace.Analyze(path, src)
	if *srcErr != nil {
		return *srcErr
	}
	fmt.Print(run.Summary())
	return nil
}

func writeSynth(p *trace.SynthParams, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	w, err := trace.NewWriter(f)
	if err != nil {
		return err
	}
	for _, rec := range p.Generate() {
		if err := w.Write(rec); err != nil {
			return err
		}
	}
	if err := w.Flush(); err != nil {
		return err
	}
	fmt.Printf("wrote %d records to %s\n", w.Count(), path)
	return nil
}
