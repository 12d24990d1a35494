// Command benchjson converts `go test -bench` output into a JSON
// benchmark trajectory file. It reads the benchmark text on stdin, echoes
// it unchanged to stdout (so it composes as a pipe filter in `make
// bench`), and writes one JSON document with a record per benchmark:
// name, iterations, ns/op, B/op, and allocs/op (the latter two require
// -benchmem or b.ReportAllocs), plus any metric a benchmark reports with
// b.ReportMetric, keyed by its unit. Names drop the -N GOMAXPROCS suffix, so
// files written on machines with different CPU counts share row names;
// the header records GOMAXPROCS and the Go version once instead.
//
// Usage:
//
//	go test -bench . -benchmem ./... | benchjson -o BENCH_timed.json
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
)

// Result is one parsed benchmark line.
type Result struct {
	Name     string  `json:"name"`
	Package  string  `json:"package,omitempty"`
	Iters    int64   `json:"iters"`
	NsPerOp  float64 `json:"ns_per_op"`
	BPerOp   int64   `json:"bytes_per_op"`
	AllocsOp int64   `json:"allocs_per_op"`
	// Metrics holds the b.ReportMetric values by unit ("ns/lane").
	Metrics map[string]float64 `json:"metrics,omitempty"`
}

// EngineRatio pairs an event-core benchmark with its tick-core twin
// (same name plus a "Tick" suffix) and reports the tick/event speed
// ratio: >1 means the event core is faster.
type EngineRatio struct {
	Name          string  `json:"name"`
	EventNsPerOp  float64 `json:"event_ns_per_op"`
	TickNsPerOp   float64 `json:"tick_ns_per_op"`
	TickOverEvent float64 `json:"tick_over_event"`
}

// Report is the emitted document.
type Report struct {
	GoOS       string        `json:"goos,omitempty"`
	GoArch     string        `json:"goarch,omitempty"`
	CPU        string        `json:"cpu,omitempty"`
	GoVersion  string        `json:"go_version"`
	GOMAXPROCS int           `json:"gomaxprocs"`
	Results    []Result      `json:"results"`
	Ratios     []EngineRatio `json:"engine_ratios,omitempty"`
}

// splitName splits the -N GOMAXPROCS suffix go test appends to benchmark
// names off the base name ("BenchmarkX-8" → "BenchmarkX", 8). go test
// appends no suffix at GOMAXPROCS 1.
func splitName(name string) (string, int) {
	if i := strings.LastIndexByte(name, '-'); i > 0 {
		if procs, err := strconv.Atoi(name[i+1:]); err == nil {
			return name[:i], procs
		}
	}
	return name, 1
}

// engineRatios pairs every result named <X>Tick with its event-core
// twin <X> and computes the tick/event speed ratios.
func engineRatios(results []Result) []EngineRatio {
	event := make(map[string]Result, len(results))
	for _, r := range results {
		event[r.Name] = r
	}
	var out []EngineRatio
	for _, r := range results {
		base, ok := strings.CutSuffix(r.Name, "Tick")
		if !ok {
			continue
		}
		ev, ok := event[base]
		if !ok || ev.NsPerOp <= 0 {
			continue
		}
		out = append(out, EngineRatio{
			Name:          base,
			EventNsPerOp:  ev.NsPerOp,
			TickNsPerOp:   r.NsPerOp,
			TickOverEvent: r.NsPerOp / ev.NsPerOp,
		})
	}
	return out
}

// parseLine decodes one `BenchmarkX-8  30  5142143 ns/op  256 B/op  21 allocs/op`
// line into a result named without the GOMAXPROCS suffix, and returns
// that suffix's value; ok is false for non-benchmark lines.
func parseLine(line, pkg string) (r Result, procs int, ok bool) {
	fields := strings.Fields(line)
	if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
		return Result{}, 0, false
	}
	iters, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return Result{}, 0, false
	}
	r = Result{Package: pkg, Iters: iters}
	r.Name, procs = splitName(fields[0])
	// The remainder is value/unit pairs.
	for i := 2; i+1 < len(fields); i += 2 {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			continue
		}
		switch fields[i+1] {
		case "ns/op":
			r.NsPerOp = v
		case "B/op":
			r.BPerOp = int64(v)
		case "allocs/op":
			r.AllocsOp = int64(v)
		default:
			if r.Metrics == nil {
				r.Metrics = map[string]float64{}
			}
			r.Metrics[fields[i+1]] = v
		}
	}
	return r, procs, r.NsPerOp > 0
}

func main() {
	out := flag.String("o", "BENCH_timed.json", "output JSON file")
	flag.Parse()

	rep := Report{GoVersion: runtime.Version()}
	pkg, mixed := "", ""
	sc := bufio.NewScanner(os.Stdin)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	w := bufio.NewWriter(os.Stdout)
	for sc.Scan() {
		line := sc.Text()
		fmt.Fprintln(w, line)
		switch {
		case strings.HasPrefix(line, "pkg: "):
			pkg = strings.TrimPrefix(line, "pkg: ")
		case strings.HasPrefix(line, "goos: "):
			rep.GoOS = strings.TrimPrefix(line, "goos: ")
		case strings.HasPrefix(line, "goarch: "):
			rep.GoArch = strings.TrimPrefix(line, "goarch: ")
		case strings.HasPrefix(line, "cpu: "):
			rep.CPU = strings.TrimPrefix(line, "cpu: ")
		default:
			r, procs, ok := parseLine(line, pkg)
			if !ok {
				break
			}
			if rep.GOMAXPROCS != 0 && procs != rep.GOMAXPROCS && mixed == "" {
				mixed = fmt.Sprintf("%s ran at GOMAXPROCS %d, earlier results at %d; write one -cpu value per file",
					r.Name, procs, rep.GOMAXPROCS)
			}
			rep.GOMAXPROCS = procs
			rep.Results = append(rep.Results, r)
		}
	}
	w.Flush()
	if err := sc.Err(); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	if mixed != "" {
		fmt.Fprintln(os.Stderr, "benchjson:", mixed)
		os.Exit(1)
	}

	rep.Ratios = engineRatios(rep.Results)
	for _, r := range rep.Ratios {
		fmt.Fprintf(os.Stderr, "benchjson: %s tick/event = %.2fx (event %.0f ns/op, tick %.0f ns/op)\n",
			r.Name, r.TickOverEvent, r.EventNsPerOp, r.TickNsPerOp)
	}

	data, err := json.MarshalIndent(&rep, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	data = append(data, '\n')
	if err := os.WriteFile(*out, data, 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "benchjson: wrote %d results to %s\n", len(rep.Results), *out)
}
