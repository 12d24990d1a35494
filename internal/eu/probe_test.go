package eu

import (
	"testing"

	"intrawarp/internal/compaction"
	"intrawarp/internal/obs"
	"intrawarp/internal/stats"
)

// countingProbe tallies every obs event and accumulates the invariants
// the EU's instrumentation must uphold.
type countingProbe struct {
	obs.NullProbe
	issues    int
	decisions int
	quads     int
	windows   int
	sends     int

	aluCycles int64 // sum of charged cycles from CompactionDecision
	quadsDone int64 // sum of QuadsDone from CompactionDecision
	badSend   bool  // a SendCompleted with Completed < Issued
}

func (p *countingProbe) InstrIssued(obs.IssueEvent) { p.issues++ }

func (p *countingProbe) CompactionDecision(e obs.CompactionEvent) {
	p.decisions++
	p.aluCycles += e.Cycles
	p.quadsDone += int64(e.QuadsDone)
}

func (p *countingProbe) QuadScheduled(obs.QuadEvent) { p.quads++ }

func (p *countingProbe) Window(int, int64, stats.StallKind) { p.windows++ }

func (p *countingProbe) SendCompleted(e obs.SendEvent) {
	p.sends++
	if e.Completed < e.Issued {
		p.badSend = true
	}
}

// runDivergentKernel drives the divergent ALU kernel to completion on a
// fresh EU with the given policy and probe, returning the EU.
func runDivergentKernel(t *testing.T, policy compaction.Policy, probe obs.Probe) *EU {
	t.Helper()
	p := mustDecode(divergentLoopProgram(8))
	sysEU, sys := newTestEU(policy)
	sysEU.Cfg.Probe = probe
	sysEU.probe = probe
	run := stats.NewRun("probe", 16)
	for ti, th := range sysEU.Threads {
		th.Reset(p, 16, 0xFFFF)
		th.Active = timedAllocMasks[ti%len(timedAllocMasks)]
		th.Stats = run
	}
	var cycle int64
	for {
		sys.Tick(cycle)
		sysEU.Tick(cycle)
		if sysEU.Quiet() && !sys.InFlight() {
			return sysEU
		}
		if cycle++; cycle > 1_000_000 {
			t.Fatal("EU did not quiesce")
		}
	}
}

// TestProbeEventCoverage attaches a counting probe to a divergent timed
// run and checks the event stream is internally consistent: one
// compaction decision per ALU issue, quad events matching the charged
// execution cycles, and one window event per arbitration window.
func TestProbeEventCoverage(t *testing.T) {
	for _, policy := range []compaction.Policy{compaction.Baseline, compaction.IvyBridge, compaction.BCC, compaction.SCC} {
		t.Run(policy.String(), func(t *testing.T) {
			probe := &countingProbe{}
			e := runDivergentKernel(t, policy, probe)

			if probe.issues == 0 || probe.decisions == 0 || probe.quads == 0 || probe.windows == 0 {
				t.Fatalf("missing events: issues=%d decisions=%d quads=%d windows=%d",
					probe.issues, probe.decisions, probe.quads, probe.windows)
			}
			// The divergent loop kernel is ALU-only: every issue is a
			// compaction decision.
			if probe.issues != probe.decisions {
				t.Errorf("issues=%d but decisions=%d (ALU-only kernel)", probe.issues, probe.decisions)
			}
			// Charged cycles reported through the probe must equal the
			// EU's busy counter, and every charged cycle is one quad event.
			if probe.aluCycles != e.Busy {
				t.Errorf("probe cycles=%d, EU busy=%d", probe.aluCycles, e.Busy)
			}
			if int64(probe.quads) != probe.aluCycles {
				t.Errorf("quads=%d, charged cycles=%d", probe.quads, probe.aluCycles)
			}
			if probe.quadsDone != probe.aluCycles {
				t.Errorf("quadsDone=%d, charged cycles=%d", probe.quadsDone, probe.aluCycles)
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
