// Command simd-corpus generates and checks the seeded kernel corpus.
// The corpus is fully determined by (profile, seed, index): every run
// with the same flags regenerates byte-identical kernels and prints a
// byte-identical report, so the corpus digest can be pinned in CI.
//
// By default each kernel is generated, validated, and digested together
// with its evaluator-derived expected outputs. With -verify every
// kernel additionally runs through the full differential pipeline —
// serial vs. evaluator, per-record oracle invariants, offline replay,
// parallel engine, and the timed engine under all seven compaction
// policies — aborting at the first divergence with a minimized,
// paste-ready repro (optionally written to -emit-worst for CI
// artifacts).
//
// Usage:
//
//	simd-corpus -count 1000 -verify            check the default corpus
//	simd-corpus -profile branchy -seed 7       digest one profile
//	simd-corpus -verify -emit-worst repro.go   save a failing repro
//
// Stdout carries only the deterministic report (counts and digest);
// timings and diagnostics go to stderr.
package main

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"intrawarp/internal/kgen"
	"intrawarp/internal/oracle"
	"intrawarp/internal/stats"
	"intrawarp/internal/workloads"
)

func main() {
	var (
		seed      = flag.Uint64("seed", 20130624, "corpus seed")
		count     = flag.Int("count", 1000, "total kernels, split across the selected profiles")
		profile   = flag.String("profile", "all", "generator profile, comma-separated list, or \"all\"")
		verify    = flag.Bool("verify", false, "run every kernel through the full differential pipeline (all engines x all policies)")
		emitWorst = flag.String("emit-worst", "", "on divergence, write the minimized repro test to this file")
		workers   = flag.Int("workers", 0, "parallel-engine pool size during -verify (<2 selects 4)")
	)
	flag.Parse()

	profiles, err := selectProfiles(*profile)
	if err != nil {
		fatal("simd-corpus: %v", err)
	}
	if *count < len(profiles) {
		fatal("simd-corpus: -count %d is smaller than the %d selected profiles", *count, len(profiles))
	}

	start := time.Now()
	digest := sha256.New()
	var kernels, instrs int64
	var records int64
	for pi, prof := range profiles {
		n := *count / len(profiles)
		if pi < *count%len(profiles) {
			n++
		}
		// The digest pass: regenerate every kernel and fold its encoded
		// program and evaluator-expected buffers into one corpus hash.
		// Generation is pure, so this pins both the generator and the
		// evaluator bit-for-bit.
		for i := 0; i < n; i++ {
			p, err := kgen.Derive(prof, *seed, i)
			if err != nil {
				fatal("simd-corpus: %v", err)
			}
			k, err := kgen.Generate(p)
			if err != nil {
				fatal("simd-corpus: %s index %d: %v", prof, i, err)
			}
			digest.Write(k.ISA.Program.Encode())
			exp := k.Expected()
			for _, buf := range [][]uint32{exp.Out, exp.Scratch, exp.Acc} {
				for _, w := range buf {
					var le [4]byte
					binary.LittleEndian.PutUint32(le[:], w)
					digest.Write(le[:])
				}
			}
			kernels++
		}
		if !*verify {
			continue
		}
		sum, err := oracle.DiffCorpus(context.Background(), oracle.CorpusOptions{
			Profile: prof, Seed: *seed, Lo: 0, Hi: n,
			Oracle: oracle.Options{
				Timed:   true,
				Workers: *workers,
				Observe: func(_ *workloads.Spec, serial *stats.Run) { instrs += serial.Instructions },
			},
		})
		if err != nil {
			if cf, ok := err.(*oracle.CorpusFailure); ok && *emitWorst != "" {
				src := "// Minimized corpus repro emitted by simd-corpus.\n// Original: " +
					cf.Name + "\n\n" + cf.GoTest()
				if werr := os.WriteFile(*emitWorst, []byte(src), 0o644); werr != nil {
					fmt.Fprintf(os.Stderr, "simd-corpus: writing %s: %v\n", *emitWorst, werr)
				} else {
					fmt.Fprintf(os.Stderr, "simd-corpus: minimized repro written to %s\n", *emitWorst)
				}
			}
			fmt.Fprintln(os.Stderr, "FAIL")
			fatal("simd-corpus: %v", err)
		}
		records += sum.Records
	}

	// The deterministic report. With -verify the instruction total comes
	// from the serial engine, which is itself deterministic.
	fmt.Printf("corpus seed=%d profiles=%s kernels=%d\n", *seed, strings.Join(profiles, ","), kernels)
	if *verify {
		fmt.Printf("verified engines=serial,parallel,trace-replay,timed policies=all instructions=%d records=%d\n",
			instrs, records)
	}
	fmt.Printf("digest sha256=%x\n", digest.Sum(nil))
	fmt.Fprintf(os.Stderr, "simd-corpus: %d kernels in %s\n", kernels, time.Since(start).Round(time.Millisecond))
}

func selectProfiles(arg string) ([]string, error) {
	if arg == "all" {
		return kgen.Profiles, nil
	}
	var out []string
	for _, p := range strings.Split(arg, ",") {
		p = strings.TrimSpace(p)
		if !kgen.ValidProfile(p) {
			return nil, fmt.Errorf("unknown profile %q (have %s)", p, strings.Join(kgen.Profiles, ", "))
		}
		out = append(out, p)
	}
	return out, nil
}

func fatal(format string, args ...interface{}) {
	fmt.Fprintf(os.Stderr, format+"\n", args...)
	os.Exit(1)
}
