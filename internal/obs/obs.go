// Package obs is the engine-level observability layer: a Probe hook
// interface the simulation engines report through, and recorders that
// turn the event stream into operator-facing artifacts (the Perfetto /
// Chrome-trace timeline in timeline.go).
//
// The contract that makes the layer safe to compile into the timed hot
// loop: every probe site is guarded by a single nil check, events are
// plain value structs built only when a probe is attached, and no probe
// site allocates. With Probe nil the instrumentation costs one untaken
// branch per site — TestTimedExecutionZeroAlloc proves the steady-state
// timed loop still performs zero heap allocations with the layer
// compiled in, and BenchmarkSimulatorThroughput tracks its cycle cost.
//
// Engines emit; recorders interpret. A Probe implementation attached to
// the serial timed engine is driven from one goroutine. The functional
// engine above one worker drives the same probe from every worker, so
// implementations that may be attached there must be safe for concurrent
// use (Timeline is).
package obs

import (
	"context"

	"intrawarp/internal/stats"
)

// Probe receives the engine instrumentation events. Implementations
// must be cheap: probe calls sit on the timed simulator's issue path.
// Embed NullProbe to remain forward-compatible as events are added.
type Probe interface {
	// LaunchBegin opens one engine run (kernel launch or replay pass).
	// Cycle timestamps of subsequent events restart at zero per launch.
	LaunchBegin(e LaunchEvent)
	// LaunchEnd closes the current launch after cycles simulated cycles
	// (or processed records, for cycle-less engines).
	LaunchEnd(cycles int64)
	// InstrIssued reports one instruction entering an execution pipe.
	InstrIssued(e IssueEvent)
	// SendCompleted reports a global-memory SEND's data return.
	SendCompleted(e SendEvent)
	// Window attributes one EU arbitration window to its outcome:
	// issued, idle, or the dominant stall reason. Consecutive windows of
	// one kind delimit a stall interval (entered/left).
	Window(eu int, cycle int64, kind stats.StallKind)
	// WorkgroupDispatched reports a workgroup placed onto an EU.
	WorkgroupDispatched(e WGEvent)
	// WorkgroupRetired reports a workgroup's last thread completing.
	WorkgroupRetired(wg int, cycle int64)
}

// LaunchEvent describes one engine run.
type LaunchEvent struct {
	Engine string // "timed", "functional" (at any worker count), "trace-replay"
	Kernel string
	Policy string
	Width  int // kernel SIMD width in lanes
}

// IssueEvent is one instruction entering an execution pipe. For timed
// runs Cycle is the issue cycle, Start the cycle the pipe accepts it
// (>= Cycle under occupancy), and Cycles its pipe occupancy; cycle-less
// engines report a running instruction index with Start == Cycle and
// Cycles == 1. For global-memory SENDs Cycles is 1 and the matching
// SendCompleted event carries the completion.
type IssueEvent struct {
	EU     int
	Thread int
	Cycle  int64
	Start  int64
	Cycles int64
	Op     string
	Pipe   uint8
	Active int // enabled lanes in the final execution mask
	Width  int
}

// SendEvent is a completed global-memory SEND.
type SendEvent struct {
	EU        int
	Thread    int
	Issued    int64
	Completed int64
	Lines     int // coalesced line requests the SEND produced
}

// WGEvent is a workgroup dispatch.
type WGEvent struct {
	EU      int
	WG      int
	Cycle   int64
	Threads int
}

// NullProbe is a no-op Probe; embed it to implement only the events a
// recorder cares about.
type NullProbe struct{}

// LaunchBegin implements Probe.
func (NullProbe) LaunchBegin(LaunchEvent) {}

// LaunchEnd implements Probe.
func (NullProbe) LaunchEnd(int64) {}

// InstrIssued implements Probe.
func (NullProbe) InstrIssued(IssueEvent) {}

// SendCompleted implements Probe.
func (NullProbe) SendCompleted(SendEvent) {}

// Window implements Probe.
func (NullProbe) Window(int, int64, stats.StallKind) {}

// WorkgroupDispatched implements Probe.
func (NullProbe) WorkgroupDispatched(WGEvent) {}

// WorkgroupRetired implements Probe.
func (NullProbe) WorkgroupRetired(int, int64) {}

// probeKey carries a per-run probe factory through a context.Context,
// so observability reaches engine runs buried under layers that have no
// probe parameter (the experiments framework's sweep cells).
type probeKey struct{}

// ContextWithProbes returns a context carrying a probe factory: code
// that constructs engines (e.g. sweep cells) calls ProbesFrom and, when
// non-nil, attaches f(label) to each run it starts. Labels identify the
// run (workload/policy/config) in the recorded artifact.
func ContextWithProbes(ctx context.Context, f func(label string) Probe) context.Context {
	return context.WithValue(ctx, probeKey{}, f)
}

// ProbesFrom extracts the probe factory installed by ContextWithProbes,
// or nil when the context carries none.
func ProbesFrom(ctx context.Context) func(label string) Probe {
	f, _ := ctx.Value(probeKey{}).(func(label string) Probe)
	return f
}
