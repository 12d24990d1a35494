package eu

import (
	"testing"

	"intrawarp/internal/compaction"
	"intrawarp/internal/isa"
	"intrawarp/internal/obs"
	"intrawarp/internal/stats"
)

// countingProbe tallies the obs events a timed EU run emits.
type countingProbe struct {
	obs.NullProbe
	issues  int
	windows int
	// execCycles sums IssueEvent.Cycles over FPU and EM issues: the
	// occupancy the timeline draws as issue slices.
	execCycles int64
}

func (p *countingProbe) InstrIssued(e obs.IssueEvent) {
	p.issues++
	if isa.Pipe(e.Pipe) == isa.PipeFPU || isa.Pipe(e.Pipe) == isa.PipeEM {
		p.execCycles += e.Cycles
	}
}

func (p *countingProbe) Window(int, int64, stats.StallKind) { p.windows++ }

// runDivergentKernel drives the divergent ALU kernel to completion on a
// fresh EU with the given policy and probe, returning the EU.
func runDivergentKernel(t *testing.T, policy compaction.Policy, probe obs.Probe) *EU {
	t.Helper()
	e, sys := newTestEU(policy)
	e.Cfg.Probe, e.probe = probe, probe
	runDivergent(t, e, sys, mustDecode(divergentLoopProgram(8)), stats.NewRun("probe", 16))
	return e
}

// TestProbeEventCoverage attaches a counting probe to a divergent timed
// run under every policy and checks the event stream against the EU's
// own counters: the issue slices' execution-pipe cycles add up to the
// charged busy cycles, and every arbitration window is one window event.
func TestProbeEventCoverage(t *testing.T) {
	for _, policy := range compaction.Policies {
		t.Run(policy.String(), func(t *testing.T) {
			probe := &countingProbe{}
			e := runDivergentKernel(t, policy, probe)

			if probe.issues == 0 || probe.windows == 0 {
				t.Fatalf("missing events: issues=%d windows=%d", probe.issues, probe.windows)
			}
			if probe.execCycles != e.Busy {
				t.Errorf("issue-slice cycles=%d, EU busy=%d", probe.execCycles, e.Busy)
			}
			var windows int64
			for _, w := range e.Windows {
				windows += w
			}
			if int64(probe.windows) != windows {
				t.Errorf("window events=%d, window counters=%d", probe.windows, windows)
			}
		})
	}
}

// TestProbeDoesNotPerturbTiming runs the same kernel with and without a
// probe attached and requires identical busy cycles and stall windows:
// instrumentation observes the machine, it must not change it.
func TestProbeDoesNotPerturbTiming(t *testing.T) {
	plain := runDivergentKernel(t, compaction.SCC, nil)
	probed := runDivergentKernel(t, compaction.SCC, &countingProbe{})
	if plain.Busy != probed.Busy {
		t.Fatalf("busy cycles differ: plain=%d probed=%d", plain.Busy, probed.Busy)
	}
	if plain.Windows != probed.Windows {
		t.Fatalf("windows differ: plain=%v probed=%v", plain.Windows, probed.Windows)
	}
}
