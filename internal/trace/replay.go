package trace

import (
	"intrawarp/internal/obs"
	"intrawarp/internal/stats"
)

// ReplayObserved evaluates every policy's cost model over a captured
// record stream (Collector) with Analyze's accounting. The sweep engine
// replays each group's capture once, to check it against the capturing
// run; policy cells are built from that run and need no replay. A
// non-nil probe receives one LaunchBegin (engine "trace-replay", the
// given policy label and width) and LaunchEnd around the replay, so a
// timeline shows the replay as one span.
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
