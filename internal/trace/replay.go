package trace

import (
	"intrawarp/internal/obs"
	"intrawarp/internal/stats"
)

// ReplayObserved evaluates every policy's cost model over a captured
// record stream: the sweep engine's "cost-many" half. The execution-mask
// trace is policy-invariant, so it is captured once (Collector) and each
// policy cell is a replay, never a re-execution of the kernel. The
// accounting is Analyze's, which costs each distinct (width, group, mask)
// signature of the trace once. A non-nil probe receives one LaunchBegin
// (engine "trace-replay", the given policy label and width) and LaunchEnd
// around the replay. Unlike AnalyzeObserved it emits no per-record
// events, so a timeline shows each replay cell as one span, not an
// instruction stream.
func ReplayObserved(name, policy string, width int, recs []Record, probe obs.Probe) *stats.Run {
	if probe != nil {
		probe.LaunchBegin(obs.LaunchEvent{Engine: "trace-replay", Kernel: name, Policy: policy, Width: width})
	}
	run := Analyze(name, &SliceSource{Records: recs})
	if probe != nil {
		probe.LaunchEnd(int64(len(recs)))
	}
	return run
}
