package serve

import (
	"fmt"
	"io"
	"runtime"
	"runtime/debug"
	"sync/atomic"
	"time"
)

// metrics are the server's operational counters and histograms, exposed
// in Prometheus text format at GET /metrics. Naming follows promlint:
// monotonic series end in _total and are typed counter, instantaneous
// ones are gauges, and durations are in seconds.
type metrics struct {
	requests   atomic.Int64 // POST requests accepted for processing
	cacheHits  atomic.Int64
	cacheMiss  atomic.Int64
	coalesced  atomic.Int64 // requests that joined an existing flight
	simRuns    atomic.Int64 // simulations actually executed
	rejected   atomic.Int64 // 429s from the admission queue
	cancelled  atomic.Int64 // runs stopped by cancellation
	errors     atomic.Int64 // non-cancellation simulation failures
	queueDepth atomic.Int64 // requests waiting for a run slot
	inFlight   atomic.Int64 // simulations holding a run slot

	// Sweep-endpoint series: the cells-vs-executions split shows one
	// execution serving every policy cell of its group — sweep_cells_total
	// growing much faster than sweep_executions_total means cells are
	// served by shared executions and the cache, not one run each.
	sweeps          atomic.Int64 // /v1/sweep requests accepted
	sweepCells      atomic.Int64 // sweep cells served (result lines streamed)
	sweepExecutions atomic.Int64 // functional executions for sweep groups

	start time.Time // process start, for the uptime gauge

	// Stage-latency histograms (seconds), observed once per executed
	// simulation on the flight-leader path, plus the whole-request
	// latency observed per request.
	queueWait *histogram
	runTime   *histogram
	encode    *histogram
	request   *histogram
	// efficiency is the per-run SIMD-efficiency distribution
	// (stats.Run.SIMDEfficiency, one observation per executed run).
	efficiency *histogram
	// sweepCell is the per-cell latency of streamed sweep cells: time
	// from the sweep request starting to that cell's line being emitted.
	sweepCell *histogram
}

// init prepares the histograms and uptime anchor in place (metrics holds
// atomics, so it is never copied after construction).
func (m *metrics) init() {
	m.start = time.Now()
	m.queueWait = newHistogram(latencyBounds()...)
	m.runTime = newHistogram(latencyBounds()...)
	m.encode = newHistogram(latencyBounds()...)
	m.request = newHistogram(latencyBounds()...)
	m.efficiency = newHistogram(efficiencyBounds()...)
	m.sweepCell = newHistogram(latencyBounds()...)
}

func (m *metrics) render(w io.Writer, cacheLen int) {
	counter := func(name, help string, v int64) {
		fmt.Fprintf(w, "# HELP simd_serve_%s %s\n# TYPE simd_serve_%s counter\nsimd_serve_%s %d\n",
			name, help, name, name, v)
	}
	gauge := func(name, help string, v int64) {
		fmt.Fprintf(w, "# HELP simd_serve_%s %s\n# TYPE simd_serve_%s gauge\nsimd_serve_%s %d\n",
			name, help, name, name, v)
	}
	counter("requests_total", "API requests accepted for processing", m.requests.Load())
	counter("cache_hits_total", "requests served from the result cache", m.cacheHits.Load())
	counter("cache_misses_total", "requests not found in the result cache", m.cacheMiss.Load())
	counter("coalesced_total", "requests coalesced onto an in-flight identical run", m.coalesced.Load())
	counter("simulations_total", "simulations executed", m.simRuns.Load())
	counter("rejected_total", "requests rejected by the bounded admission queue", m.rejected.Load())
	counter("cancelled_total", "simulations stopped by cancellation", m.cancelled.Load())
	counter("errors_total", "simulations that failed", m.errors.Load())
	counter("sweeps_total", "sweep requests accepted", m.sweeps.Load())
	counter("sweep_cells_total", "sweep cells served as result lines", m.sweepCells.Load())
	counter("sweep_executions_total", "functional executions for sweep groups", m.sweepExecutions.Load())
	gauge("queue_depth", "requests waiting for a run slot", m.queueDepth.Load())
	gauge("in_flight", "simulations currently holding a run slot", m.inFlight.Load())
	gauge("cache_entries", "entries in the result cache", int64(cacheLen))
	gauge("uptime_seconds", "seconds since the server started", int64(time.Since(m.start).Seconds()))
	renderBuildInfo(w)

	m.queueWait.render(w, "queue_wait_seconds", "time requests waited for an admission slot")
	m.runTime.render(w, "run_seconds", "simulation (or experiment) execution time")
	m.encode.render(w, "encode_seconds", "response encoding time")
	m.request.render(w, "request_seconds", "whole-request latency as seen by the handler")
	m.efficiency.render(w, "run_simd_efficiency", "per-run SIMD efficiency (enabled lanes / available lanes)")
	m.sweepCell.render(w, "sweep_cell_seconds", "per-cell latency from sweep start to cell emission")

	// Go runtime health: allocation pressure from the simulation engine
	// shows up here first (the timed hot loop is designed to stay flat).
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	gauge("go_heap_alloc_bytes", "bytes of allocated heap objects", int64(ms.HeapAlloc))
	counter("go_gc_runs_total", "completed GC cycles", int64(ms.NumGC))
	fmt.Fprintf(w, "# HELP simd_serve_go_gc_pause_seconds_total cumulative GC stop-the-world pause\n"+
		"# TYPE simd_serve_go_gc_pause_seconds_total counter\n"+
		"simd_serve_go_gc_pause_seconds_total %g\n", float64(ms.PauseTotalNs)/1e9)
	gauge("go_goroutines", "live goroutines", int64(runtime.NumGoroutine()))
}

// renderBuildInfo emits the conventional build_info gauge: constant 1
// with the interesting facts as labels.
func renderBuildInfo(w io.Writer) {
	version := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		if bi.Main.Version != "" && bi.Main.Version != "(devel)" {
			version = bi.Main.Version
		} else {
			version = "devel"
			for _, s := range bi.Settings {
				if s.Key == "vcs.revision" && len(s.Value) >= 12 {
					version = s.Value[:12]
				}
			}
		}
	}
	fmt.Fprintf(w, "# HELP simd_serve_build_info build metadata; value is constant 1\n"+
		"# TYPE simd_serve_build_info gauge\n"+
		"simd_serve_build_info{version=%q,goversion=%q} 1\n", version, runtime.Version())
}
