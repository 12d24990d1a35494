// Command simd-serve exposes the simulator over HTTP/JSON.
//
// Usage:
//
//	simd-serve [-addr :8077] [-cache 256] [-concurrency 0] [-queue 64]
//	           [-timeout 0] [-debug addr]
//
// -debug serves net/http/pprof on a second, operator-only listener, e.g.
// -debug localhost:6060; the public API mux never exposes profiling
// endpoints.
//
// Endpoints:
//
//	POST /v1/run         execute one workload          {"workload":"bfs","timed":true,...}
//	POST /v1/sweep       stream a policy-sweep grid    {"workloads":["bsearch","urng"],...}
//	POST /v1/experiment  render a paper table/figure   {"id":"fig10","quick":true}
//	GET  /v1/workloads   list the benchmark suite
//	GET  /v1/experiments list the experiment registry
//	GET  /healthz        liveness
//	GET  /metrics        Prometheus text metrics
//
// Identical requests are served from a content-addressed cache
// (byte-identical responses, X-Cache: hit) and identical concurrent
// requests share one simulation. See docs/serve.md.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"intrawarp/internal/serve"
)

// debugMux builds the operator-only handler: the standard pprof surface
// on its usual /debug/pprof/ paths.
func debugMux() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

func main() {
	var (
		addr    = flag.String("addr", ":8077", "listen address")
		entries = flag.Int("cache", 256, "result cache entries")
		conc    = flag.Int("concurrency", 0, "max simultaneous simulations (0 = GOMAXPROCS)")
		queue   = flag.Int("queue", 64, "max queued simulations before shedding load")
		timeout = flag.Duration("timeout", 0, "per-request deadline (0 = none)")
		debug   = flag.String("debug", "", "serve net/http/pprof on this address (empty = off)")
	)
	flag.Parse()

	if *debug != "" {
		go func() {
			log.Printf("simd-serve debug listening on %s (pprof)", *debug)
			if err := http.ListenAndServe(*debug, debugMux()); err != nil {
				log.Printf("simd-serve: debug listener: %v", err)
			}
		}()
	}

	api := serve.New(serve.Config{
		CacheEntries: *entries,
		Concurrency:  *conc,
		MaxQueue:     *queue,
		Timeout:      *timeout,
	})
	srv := &http.Server{Addr: *addr, Handler: api}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()
	log.Printf("simd-serve listening on %s", *addr)

	select {
	case err := <-errc:
		fmt.Fprintln(os.Stderr, "simd-serve:", err)
		os.Exit(1)
	case <-ctx.Done():
	}

	// Drain politely, then cancel whatever is still simulating.
	log.Print("simd-serve: shutting down")
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(shutdownCtx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		fmt.Fprintln(os.Stderr, "simd-serve: shutdown:", err)
	}
	api.Close()
}
