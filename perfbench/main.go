// Command perfbench is the repository benchmark. It drives the
// simulator's three real uses from outside — cycle-level timed runs of
// the paper's Table 3 machine ("timed"), trace-once functional policy
// grids plus plain functional runs ("functional"), and the HTTP service
// over a loopback listener ("serve") — checks every output, and prints
// one JSON result line:
//
//	bash perfbench/run.sh --workload timed --seed 1 --seconds 30 --trace 0
//
// With --trace 0 the result holds the end-to-end metrics; with --trace 1
// the run records a span around every layer call it makes and reports
// the per-layer metrics instead, writes the spans as a Chrome-trace file
// Perfetto opens, and prints each layer's self time. NOTES.md explains
// the workloads and which layer metric should move which end-to-end
// metric.
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// setupRounds is how many fresh processes each set the workload up once
// from a cold start; setup_s is the median of their set-up times. Within
// one process only the first set-up is cold: the SCC schedule cache and
// the replay LUTs belong to the whole process. A set-up's time is the CPU
// time its process has used when the set-up ends (see cpuTime): set-up
// is serial work, and on a shared VM its wall time grew by half within
// minutes while the hypervisor stole 10–17% of the machine's ticks, when
// the CPU-time rates of the same runs moved by less than a tenth.
const setupRounds = 7

// childEnv marks a process this program started for one phase of a run
// (see child); the package's tests dispatch on it.
const childEnv = "PERFBENCH_CHILD"

// setupDone is the line a set-up process prints the moment its set-up
// has ended; the parent also times the process's wall time from its start
// to this line, for the report.
const setupDone = "# set-up done"

// maxLoggedFailures bounds the failure reasons printed to stderr.
const maxLoggedFailures = 10

// endToEnd and perLayer are the metrics BENCHMARK.json declares, by name
// and unit. Every workload reports each of them: the end-to-end ones
// untraced, the per-layer ones traced. Each workload defines the work
// that throughput_per_s counts (NOTES.md, "End-to-end metrics").
var (
	endToEnd = map[string]string{
		"setup_s":          "s",
		"peak_rss_mb":      "MB",
		"throughput_per_s": "1/s",
	}
	perLayer = map[string]string{
		"gpu.new_ms":                 "ms",
		"workloads.setup_ms":         "ms",
		"workloads.check_ms":         "ms",
		"gpu.ns_per_instr":           "ns",
		"gpu.allocs_per_run":         "count",
		"stats.merge_us":             "us",
		"stats.record_instr_ns":      "ns",
		"compaction.cost_all_ns":     "ns",
		"compaction.schedule_for_ns": "ns",
		"mask.active_quads_ns":       "ns",
		"trace.capture_ns_per_instr": "ns",
		"trace.replay_ns_per_record": "ns",
		"experiments.group_ms":       "ms",
		"experiments.group_alloc_mb": "MB",
		"kgen.resolve_ms":            "ms",
		"go.gc_cpu_fraction":         "ratio",
		"go.alloc_mb_per_s":          "MB/s",
		"bench.trace_overhead_pct":   "%",
	}
)

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the final line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// options are the command-line settings of one run.
type options struct {
	workload string
	seed     uint64
	seconds  time.Duration
	trace    bool
	spanDir  string
	// phase, when set, runs one phase of a run in a child process:
	// "choose" chooses the seeded inputs, "setup" sets up once.
	phase   string
	windows map[string][]string // timed windows, passed to set-up processes
}

// instance is a workload whose inputs are built and warmed up.
type instance interface {
	// measure runs the untraced loop and reports end-to-end metrics.
	measure(ctx context.Context, b *bench) error
	// traced runs the traced loop and reports per-layer metrics.
	traced(ctx context.Context, b *bench) error
	// close releases what the instance holds (servers, connections).
	close()
}

// setupFunc builds a fresh instance and performs its warm-up pass.
type setupFunc func(ctx context.Context, b *bench) (instance, error)

var workloadSetups = map[string]setupFunc{
	"timed":      setupTimed,
	"functional": setupFunctional,
	"serve":      setupServe,
}

// workloadInputs chooses a workload's seeded inputs once per run, in a
// child process of its own before the set-ups; workloads without an
// entry derive theirs in set-up.
var workloadInputs = map[string]func(ctx context.Context, b *bench) error{
	"timed": chooseWindows,
}

// bench carries one run's settings, operation ledger, reference
// fingerprints, metrics and spans.
type bench struct {
	opt  options
	out  io.Writer
	errw io.Writer
	refs *references

	attempted atomic.Int64
	failed    atomic.Int64
	failMu    sync.Mutex
	logged    int

	metrics map[string]metric
	lanes   []*recorder
	base    time.Time

	windows map[string][]string // timed: the kgen kernels chosen per set
}

func newBench(opt options, out, errw io.Writer) *bench {
	return &bench{opt: opt, out: out, errw: errw, refs: newReferences(),
		metrics: map[string]metric{}, base: time.Now(), windows: opt.windows}
}

// op accounts one attempted operation; a non-nil err marks it failed.
// Safe for concurrent use.
func (b *bench) op(err error) {
	b.attempted.Add(1)
	if err == nil {
		return
	}
	b.failed.Add(1)
	b.failMu.Lock()
	defer b.failMu.Unlock()
	if b.logged < maxLoggedFailures {
		b.logged++
		fmt.Fprintln(b.errw, "perfbench: failed operation:", err)
	}
}

// put reports one metric.
func (b *bench) put(name, unit string, v float64) {
	b.metrics[name] = metric{Value: v, Unit: unit}
}

// infof prints a human-readable report line ahead of the result line.
func (b *bench) infof(format string, args ...any) {
	fmt.Fprintf(b.out, "# "+format+"\n", args...)
}

// lane returns a new span recorder for one goroutine, or nil when the
// run is untraced.
func (b *bench) lane(label string) *recorder {
	if !b.opt.trace {
		return nil
	}
	r := newRecorder(b.base, len(b.lanes)+1, label)
	b.lanes = append(b.lanes, r)
	return r
}

// checkRun compares a simulated result with the first pass's result for
// the same key.
func (b *bench) checkRun(key string, fp fingerprint) error {
	if !b.refs.check(key, fp) {
		return fmt.Errorf("%s: statistics differ from the first pass", key)
	}
	return nil
}

func main() {
	os.Exit(run(context.Background(), os.Args[1:], os.Stdout, os.Stderr))
}

// run executes one benchmark run and returns the process exit code.
func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	opt, err := parseFlags(args, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		fmt.Fprintln(stderr, "perfbench: getrusage:", err)
		return 1
	}
	stat, err := os.ReadFile("/proc/stat")
	if err == nil {
		_, err = parseCPUTicks(string(stat))
	}
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	b := newBench(opt, stdout, stderr)
	var res any
	if opt.phase != "" {
		res, err = b.runPhase(ctx)
	} else {
		res, err = b.execute(ctx)
	}
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench: encode result:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

func parseFlags(args []string, stderr io.Writer) (options, error) {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "workload to run: timed, functional or serve")
	seed := fs.Uint64("seed", 1, "input seed: picks the kgen corpus windows and the request sequence")
	seconds := fs.Float64("seconds", 30, "measured seconds")
	trace := fs.Int("trace", 0, "1 records spans and reports per-layer metrics instead of end-to-end ones")
	spanDir := fs.String("spans", ".", "directory for the traced run's Chrome-trace span file")
	phase := fs.String("phase", "", "internal: run one phase of a run (choose or setup) and print its outcome")
	windows := fs.String("windows", "", "internal: the timed windows a choose phase printed, as JSON")
	if err := fs.Parse(args); err != nil {
		return options{}, err
	}
	if *phase != "" && *phase != "choose" && *phase != "setup" {
		return options{}, fmt.Errorf("unknown phase %q", *phase)
	}
	var win map[string][]string
	if *windows != "" {
		if err := json.Unmarshal([]byte(*windows), &win); err != nil {
			return options{}, fmt.Errorf("--windows: %w", err)
		}
	}
	if fs.NArg() > 0 {
		return options{}, fmt.Errorf("unexpected arguments %q", fs.Args())
	}
	if _, ok := workloadSetups[*workload]; !ok {
		return options{}, fmt.Errorf("unknown workload %q (want timed, functional or serve)", *workload)
	}
	if *seconds <= 0 {
		return options{}, fmt.Errorf("--seconds must be positive")
	}
	if *trace != 0 && *trace != 1 {
		return options{}, fmt.Errorf("--trace must be 0 or 1")
	}
	return options{
		workload: *workload,
		seed:     *seed,
		seconds:  time.Duration(*seconds * float64(time.Second)),
		trace:    *trace == 1,
		spanDir:  *spanDir,
		phase:    *phase,
		windows:  win,
	}, nil
}

// childResult is the last line a child process prints: the inputs it
// chose, the CPU seconds its process had used when its set-up ended, the
// digest of the statistics its set-up pinned, and the operations it
// accounted.
type childResult struct {
	Windows   map[string][]string `json:"windows,omitempty"`
	SetupCPU  float64             `json:"setup_cpu_s,omitempty"`
	Digest    string              `json:"digest"`
	Attempted int64               `json:"attempted"`
	Failed    int64               `json:"failed"`
}

// runPhase runs the one phase of a run this child process was started
// for. "choose" chooses the workload's seeded inputs. "setup" sets the
// workload up once, prints setupDone the moment it has, and closes it.
func (b *bench) runPhase(ctx context.Context) (*childResult, error) {
	res := &childResult{}
	switch b.opt.phase {
	case "choose":
		if choose := workloadInputs[b.opt.workload]; choose != nil {
			if err := choose(ctx, b); err != nil {
				return nil, fmt.Errorf("choose inputs: %w", err)
			}
		}
	case "setup":
		inst, err := workloadSetups[b.opt.workload](ctx, b)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		res.SetupCPU = cpuTime().Seconds()
		fmt.Fprintln(b.out, setupDone)
		inst.close()
	}
	res.Windows, res.Digest = b.windows, b.refs.digest()
	res.Attempted, res.Failed = b.attempted.Load(), b.failed.Load()
	return res, nil
}

// child runs one phase of the run in a fresh process of this program,
// waits for it to end, and adds its operations to this run's. It
// returns the child's result and, for a set-up, the time from starting
// the process to its setupDone line.
func (b *bench) child(ctx context.Context, phase string) (*childResult, time.Duration, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, 0, err
	}
	args := []string{"--workload", b.opt.workload, "--seed", strconv.FormatUint(b.opt.seed, 10), "--phase", phase}
	if b.windows != nil {
		js, err := json.Marshal(b.windows)
		if err != nil {
			return nil, 0, err
		}
		args = append(args, "--windows", string(js))
	}
	cmd := exec.CommandContext(ctx, exe, args...)
	cmd.Env = append(os.Environ(), childEnv+"=1")
	cmd.Stderr = b.errw
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, 0, err
	}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, 0, fmt.Errorf("%s process: %w", phase, err)
	}
	var setup time.Duration
	var last string
	sc := bufio.NewScanner(stdout)
	for sc.Scan() {
		if sc.Text() == setupDone && setup == 0 {
			setup = time.Since(start)
		}
		last = sc.Text()
	}
	serr := sc.Err()
	if err := cmd.Wait(); err != nil {
		return nil, 0, fmt.Errorf("%s process: %w", phase, err)
	}
	if serr != nil {
		return nil, 0, fmt.Errorf("%s process output: %w", phase, serr)
	}
	var res childResult
	if err := json.Unmarshal([]byte(last), &res); err != nil {
		return nil, 0, fmt.Errorf("%s process printed no result: %w", phase, err)
	}
	if phase == "setup" && setup == 0 {
		return nil, 0, fmt.Errorf("set-up process never reported its set-up done")
	}
	b.attempted.Add(res.Attempted)
	b.failed.Add(res.Failed)
	return &res, setup, nil
}

// execute runs one benchmark run. A child process chooses the seeded
// inputs, so trying candidates leaves nothing in this process (the SCC
// schedule cache keeps every schedule it builds); setupRounds more
// children each time one cold set-up for setup_s (untraced runs only);
// then this process sets up once itself and measures.
func (b *bench) execute(ctx context.Context) (*result, error) {
	b.infof("perfbench workload=%s seed=%d seconds=%g trace=%v", b.opt.workload, b.opt.seed, b.opt.seconds.Seconds(), b.opt.trace)
	if workloadInputs[b.opt.workload] != nil {
		res, _, err := b.child(ctx, "choose")
		if err != nil {
			return nil, err
		}
		b.windows = res.Windows
	}
	var setupS, setupWall []float64
	var digests []string
	for i := 0; i < setupRounds && !b.opt.trace; i++ {
		res, d, err := b.child(ctx, "setup")
		if err != nil {
			return nil, err
		}
		setupS = append(setupS, res.SetupCPU)
		setupWall = append(setupWall, d.Seconds())
		digests = append(digests, res.Digest)
	}
	if setupS != nil {
		b.infof("setup_s rounds, each a cold set-up in a fresh process, CPU s: %.3f", setupS)
		b.infof("the same rounds' wall time, s (informational): %.3f", setupWall)
	}
	start := time.Now()
	inst, err := workloadSetups[b.opt.workload](ctx, b)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	defer inst.close()
	b.infof("set-up of the measuring process %.3f s", time.Since(start).Seconds())
	// Every set-up process must pin the same statistics as this one.
	for i, d := range digests {
		if d != b.refs.digest() {
			b.op(fmt.Errorf("set-up process %d pinned statistics with digest %s, this process %s", i+1, d, b.refs.digest()))
		} else {
			b.op(nil)
		}
	}
	if rss, err := peakRSSMB(); err == nil {
		b.infof("peak RSS after set-up %.1f MB", rss)
	}

	if b.opt.trace {
		if err := inst.traced(ctx, b); err != nil {
			return nil, err
		}
		if err := b.writeSpans(); err != nil {
			return nil, err
		}
	} else {
		if err := inst.measure(ctx, b); err != nil {
			return nil, err
		}
		b.put("setup_s", "s", median(setupS))
		rss, err := peakRSSMB()
		if err != nil {
			return nil, fmt.Errorf("peak RSS: %w", err)
		}
		b.put("peak_rss_mb", "MB", rss)
	}
	b.infof("digest %s %s (%d simulated results)", b.opt.workload, b.refs.digest(), len(b.refs.order))
	names := make([]string, 0, len(b.metrics))
	for n := range b.metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		b.infof("%-40s %14.6g %s", n, b.metrics[n].Value, b.metrics[n].Unit)
	}
	if b.attempted.Load() == 0 {
		return nil, errors.New("no operation was attempted")
	}
	declared := endToEnd
	if b.opt.trace {
		declared = perLayer
	}
	if err := b.checkReported(declared); err != nil {
		return nil, err
	}
	return &result{
		Correct:   b.failed.Load() == 0,
		Attempted: b.attempted.Load(),
		Failed:    b.failed.Load(),
		Metrics:   b.metrics,
	}, nil
}

// checkReported fails unless the run reported exactly the declared
// metrics, each in its declared unit and as a finite number.
func (b *bench) checkReported(declared map[string]string) error {
	for name, unit := range declared {
		m, ok := b.metrics[name]
		switch {
		case !ok:
			return fmt.Errorf("workload %s did not report %s", b.opt.workload, name)
		case m.Unit != unit:
			return fmt.Errorf("workload %s reported %s in %s, not %s", b.opt.workload, name, m.Unit, unit)
		case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
			return fmt.Errorf("workload %s reported %s = %v", b.opt.workload, name, m.Value)
		}
	}
	for name := range b.metrics {
		if _, ok := declared[name]; !ok {
			return fmt.Errorf("workload %s reported undeclared metric %s", b.opt.workload, name)
		}
	}
	return nil
}

// writeSpans writes the traced run's spans as a Chrome-trace file and
// prints each layer's self time.
func (b *bench) writeSpans() error {
	if err := os.MkdirAll(b.opt.spanDir, 0o755); err != nil {
		return fmt.Errorf("span directory: %w", err)
	}
	path := filepath.Join(b.opt.spanDir, fmt.Sprintf("%s-seed%d.json", b.opt.workload, b.opt.seed))
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("span file: %w", err)
	}
	werr := writeChromeTrace(f, "perfbench "+b.opt.workload, b.lanes)
	if cerr := f.Close(); werr == nil && cerr != nil {
		werr = fmt.Errorf("close span file: %w", cerr)
	}
	if werr != nil {
		return werr
	}
	n := 0
	for _, r := range b.lanes {
		n += len(r.spans)
	}
	b.infof("spans %s (%d spans, Chrome-trace JSON)", path, n)
	layers := selfTimes(b.lanes)
	var total time.Duration
	for _, lt := range layers {
		total += lt.Self
	}
	b.infof("%-34s %8s %12s %12s %7s", "layer", "calls", "total ms", "self ms", "self share")
	for _, lt := range layers {
		b.infof("%-34s %8d %12.3f %12.3f %6.2f%%", lt.Name, lt.Calls, ms(lt.Total), ms(lt.Self), 100*float64(lt.Self)/float64(total))
	}
	if m, ok := b.metrics["bench.trace_overhead_pct"]; ok {
		b.infof("trace overhead %s: %.2f%%", b.opt.workload, m.Value)
	}
	return nil
}

// label joins name parts into an operation or reference key.
func label(parts ...any) string {
	s := make([]string, len(parts))
	for i, p := range parts {
		s[i] = fmt.Sprint(p)
	}
	return strings.Join(s, "/")
}
