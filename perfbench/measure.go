package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"intrawarp/internal/stats"
)

// median returns the middle value of xs (the mean of the two middle
// values for an even count), or NaN for an empty slice.
func median(xs []float64) float64 {
	return quantile(xs, 0.5)
}

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks, or NaN for an empty slice. xs is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// sink keeps the results of probed calls live.
var sink int

// cpuTime is the process's CPU time so far: user plus system time of
// all its threads, so garbage collection counts. The serial simulator
// throughputs (timed runs, one-worker grids) are measured against it
// rather than against wall time: on a shared VM the hypervisor steals
// 5–20% of a busy vCPU in bursts that last tens of seconds, and wall
// time counts the stolen time while CPU time counts only the
// simulator's own work. Parallel work is measured in wall time instead
// (see stealShare), because CPU time would not show a worker left idle.
// run checks once that getrusage works, so an error here cannot occur.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// cpuTicks is the machine's CPU time as the first line of /proc/stat
// counts it: the ticks the hypervisor stole from the VM's vCPUs, and the
// busy ticks of all CPUs — every tick but idle and iowait, steal
// included.
type cpuTicks struct{ steal, busy uint64 }

// readCPUTicks reads /proc/stat; run checks once that it works, so a
// zero reading here cannot occur.
func readCPUTicks() cpuTicks {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return cpuTicks{}
	}
	t, _ := parseCPUTicks(string(data))
	return t
}

// parseCPUTicks parses the aggregate "cpu" line of /proc/stat: user,
// nice, system, idle, iowait, irq, softirq, steal (guest time is already
// inside user and nice).
func parseCPUTicks(stat string) (cpuTicks, error) {
	line, _, _ := strings.Cut(stat, "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return cpuTicks{}, fmt.Errorf("unexpected /proc/stat line %q", line)
	}
	var t cpuTicks
	for i, f := range fields[1:9] {
		v, err := strconv.ParseUint(f, 10, 64)
		if err != nil {
			return cpuTicks{}, fmt.Errorf("parse /proc/stat: %w", err)
		}
		switch i {
		case 3, 4: // idle, iowait
		case 7:
			t.steal = v
			t.busy += v
		default:
			t.busy += v
		}
	}
	return t, nil
}

// stealShare is the share of the busy CPU ticks from a to b the
// hypervisor stole: the share of the time the VM's vCPUs wanted to run
// that they did not. Wall-time figures of parallel work are scaled by one
// minus it, so that they count only the time the VM ran. Idle ticks stay
// out of the base because a halted vCPU is not stolen from: over all
// ticks, the share would understate the loss of a pass that leaves one
// CPU idle part of the time.
func stealShare(a, b cpuTicks) float64 {
	if b.busy <= a.busy {
		return 0
	}
	return float64(b.steal-a.steal) / float64(b.busy-a.busy)
}

// ms converts a duration to fractional milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// runtimeSample is a snapshot of the Go runtime counters the benchmark
// reports: heap allocations and the runtime's CPU-time estimates.
type runtimeSample struct {
	allocObjects uint64
	allocBytes   uint64
	gcCPU        float64
	totalCPU     float64
}

// runtimeSamples is the reusable runtime/metrics buffer: reading into it
// allocates nothing, so a reading taken right after a call does not
// count itself as one of the call's allocations.
var (
	runtimeMu      sync.Mutex
	runtimeSamples = []metrics.Sample{
		{Name: "/gc/heap/allocs:objects"},
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
)

// readRuntime samples the runtime/metrics counters. Reading them does
// not stop the world, so it is cheap enough to bracket single calls.
func readRuntime() runtimeSample {
	runtimeMu.Lock()
	defer runtimeMu.Unlock()
	s := runtimeSamples
	metrics.Read(s)
	u := func(i int) uint64 {
		if s[i].Value.Kind() == metrics.KindUint64 {
			return s[i].Value.Uint64()
		}
		return 0
	}
	f := func(i int) float64 {
		if s[i].Value.Kind() == metrics.KindFloat64 {
			return s[i].Value.Float64()
		}
		return 0
	}
	return runtimeSample{allocObjects: u(0), allocBytes: u(1), gcCPU: f(2), totalCPU: f(3)}
}

// runtimeDelta is the change of the runtime counters over an interval.
type runtimeDelta struct {
	allocObjects uint64
	allocBytes   uint64
	gcCPU        float64
	totalCPU     float64
	wall         time.Duration
}

func (a runtimeSample) to(b runtimeSample, wall time.Duration) runtimeDelta {
	return runtimeDelta{
		allocObjects: b.allocObjects - a.allocObjects,
		allocBytes:   b.allocBytes - a.allocBytes,
		gcCPU:        b.gcCPU - a.gcCPU,
		totalCPU:     b.totalCPU - a.totalCPU,
		wall:         wall,
	}
}

// putRuntime reports the GC share of CPU time and the allocation rate
// over the measured interval.
func (b *bench) putRuntime(d runtimeDelta) {
	frac := 0.0
	if d.totalCPU > 0 {
		frac = d.gcCPU / d.totalCPU
	}
	b.put("go.gc_cpu_fraction", "ratio", frac)
	b.put("go.alloc_mb_per_s", "MB/s", float64(d.allocBytes)/1e6/d.wall.Seconds())
}

// peakRSSMB returns the process's peak resident set (VmHWM) in MB.
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "VmHWM:") {
			continue
		}
		fields := strings.Fields(strings.TrimPrefix(line, "VmHWM:"))
		if len(fields) != 2 || fields[1] != "kB" {
			return 0, fmt.Errorf("unexpected VmHWM line %q", line)
		}
		kb, err := strconv.ParseFloat(fields[0], 64)
		if err != nil {
			return 0, fmt.Errorf("parse VmHWM: %w", err)
		}
		return kb / 1024, nil
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}

// fingerprint is the identity of one simulated result: the SHA-256 of
// its stats.Run JSON. Later passes must reproduce the first pass's
// fingerprint exactly.
type fingerprint [sha256.Size]byte

func fingerprintRun(r *stats.Run) (fingerprint, error) {
	js, err := json.Marshal(r)
	if err != nil {
		return fingerprint{}, fmt.Errorf("encode stats of %s: %w", r.Name, err)
	}
	return sha256.Sum256(js), nil
}

// references holds the first pass's fingerprint of every simulated
// result, keyed by a label naming the kernel and configuration, and
// folds them in first-seen order into one digest over all simulated
// statistics of the workload.
type references struct {
	byKey map[string]fingerprint
	order []string
}

func newReferences() *references {
	return &references{byKey: map[string]fingerprint{}}
}

// check records fp as the reference for key on first sight and
// otherwise reports whether it reproduces the reference.
func (r *references) check(key string, fp fingerprint) bool {
	ref, ok := r.byKey[key]
	if !ok {
		r.byKey[key] = fp
		r.order = append(r.order, key)
		return true
	}
	return ref == fp
}

// digest is a short hex hash over every reference, in first-seen order.
func (r *references) digest() string {
	h := sha256.New()
	for _, k := range r.order {
		fp := r.byKey[k]
		h.Write([]byte(k))
		h.Write(fp[:])
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}
