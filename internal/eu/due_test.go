package eu

import (
	"fmt"
	"reflect"
	"testing"

	"intrawarp/internal/compaction"
	"intrawarp/internal/isa"
	"intrawarp/internal/memory"
	"intrawarp/internal/stats"
)

// sendLoopProgram is a SEND-heavy loop: each pass gathers one line per
// lane from the addresses in r16, adds one, scatters the sum back and
// moves every address on by stride bytes, iters times. With a fresh line
// per lane and pass, threads spend most of their time parked on memory.
func sendLoopProgram(iters, stride uint32) isa.Program {
	return isa.Program{
		{Op: isa.OpMov, Width: isa.SIMD16, DType: isa.U32, Dst: isa.GRF(20), Src0: isa.ImmU32(0)},
		{Op: isa.OpLoop, Width: isa.SIMD16},
		{Op: isa.OpSend, Send: isa.SendLoadGather, Width: isa.SIMD16, DType: isa.U32,
			Dst: isa.GRF(22), Src0: isa.GRF(16)},
		{Op: isa.OpAdd, Width: isa.SIMD16, DType: isa.U32, Dst: isa.GRF(22), Src0: isa.GRF(22), Src1: isa.ImmU32(1)},
		{Op: isa.OpSend, Send: isa.SendStoreScatter, Width: isa.SIMD16, DType: isa.U32,
			Src0: isa.GRF(16), Src1: isa.GRF(22)},
		{Op: isa.OpAdd, Width: isa.SIMD16, DType: isa.U32, Dst: isa.GRF(16), Src0: isa.GRF(16), Src1: isa.ImmU32(stride)},
		{Op: isa.OpAdd, Width: isa.SIMD16, DType: isa.U32, Dst: isa.GRF(20), Src0: isa.GRF(20), Src1: isa.ImmU32(1)},
		{Op: isa.OpCmp, Width: isa.SIMD16, DType: isa.U32, Cond: isa.CmpLT, Flag: isa.F0,
			Src0: isa.GRF(20), Src1: isa.ImmU32(iters)},
		{Op: isa.OpWhile, Width: isa.SIMD16, Pred: isa.PredNorm, Flag: isa.F0, JumpTarget: 2},
		{Op: isa.OpHalt, Width: isa.SIMD16},
	}
}

// loadDivergent installs the divergent ALU loop on every thread, each
// with its own mask.
func loadDivergent(e *EU, _ *memory.System) {
	p := mustDecode(divergentLoopProgram(8))
	run := stats.NewRun("due", 16)
	for ti, th := range e.Threads {
		th.Reset(p, 16, 0xFFFF)
		th.Active = timedAllocMasks[ti%len(timedAllocMasks)]
		th.Stats = run
	}
	e.MarkDirty()
}

// loadOneThread installs the divergent ALU loop on the first thread
// only, so with a jump penalty the front-end refill is often all the EU
// waits for.
func loadOneThread(e *EU, _ *memory.System) {
	th := e.Threads[0]
	th.Reset(mustDecode(divergentLoopProgram(8)), 16, 0xFFFF)
	th.Active = 0x137F
	th.Stats = stats.NewRun("due", 16)
	e.MarkDirty()
}

// loadSendLoop installs the SEND loop on every thread, each lane of each
// thread on a line of its own.
func loadSendLoop(e *EU, sys *memory.System) {
	const iters, lanes = 6, 16
	n := len(e.Threads) * lanes
	stride := uint32(n * memory.LineBytes)
	buf := sys.Mem.Alloc(iters * n * memory.LineBytes)
	p := mustDecode(sendLoopProgram(iters, stride))
	run := stats.NewRun("due", 16)
	for ti, th := range e.Threads {
		th.Reset(p, 16, 0xFFFF)
		th.Stats = run
		for lane := 0; lane < lanes; lane++ {
			th.GRF.WriteU32(16*32+lane*4, buf+uint32((ti*lanes+lane)*memory.LineBytes))
		}
	}
	e.MarkDirty()
}

// euState is everything a tick can change in an EU, deep-copied, except
// the cycle it last accounted.
type euState struct {
	PipeFree    [2]int64
	SendFree    int64
	SB          [][]span
	FlagBusy    [][2]int
	WB          []wbEvent
	WBMin       int64
	Outstanding []int
	ReadyAt     []int64
	NextArb     int
	Busy        int64
	Ready       uint64
	Rescan      bool
	Signals     Signal
	Windows     [stats.NumStallKinds]int64
	NeedEval    bool
	LastKind    stats.StallKind
	WakeCache   int64
	Threads     []string
}

func snapshot(e *EU) euState {
	s := euState{
		PipeFree: e.pipeFree, SendFree: e.sendFree, WBMin: e.wbMin, NextArb: e.nextArb,
		Busy: e.Busy, Ready: e.ready, Rescan: e.rescan, Signals: e.signals, Windows: e.Windows,
		NeedEval: e.needEval, LastKind: e.lastKind, WakeCache: e.wakeCache,
		FlagBusy:    append([][2]int(nil), e.flagBusy...),
		WB:          append([]wbEvent(nil), e.wb...),
		Outstanding: append([]int(nil), e.outstanding...),
		ReadyAt:     append([]int64(nil), e.readyAt...),
	}
	for _, sb := range e.sb {
		s.SB = append(s.SB, append([]span(nil), sb...))
	}
	for _, th := range e.Threads {
		s.Threads = append(s.Threads, fmt.Sprintf("%d@%d/%04x", th.State, th.IP, uint32(th.Active)))
	}
	return s
}

// TestNotDueTickOnlyAccountsWindow pins the contract that lets the
// event core leave an EU untouched: whenever the EU is not due at a
// cycle (its NextWakeup lies later), ticking it there may only account that cycle's window with the
// last outcome and advance the arbiter, exactly what SkipWindows does
// for a cycle it skips. The kernels are driven cycle by cycle: the
// divergent ALU loop on six threads (with and without a front-end jump
// penalty, whose refill deadlines fall on odd cycles) and on one, and a
// SEND loop that parks its threads on memory. Threads are installed a
// few cycles in, after an idle window, as the GPU's dispatch does. At
// every arbitration cycle the ready mask must also equal a scan of the
// thread states.
func TestNotDueTickOnlyAccountsWindow(t *testing.T) {
	for _, tc := range []struct {
		name    string
		penalty int
		load    func(*EU, *memory.System)
	}{
		{"divergent", 0, loadDivergent},
		{"divergent/jp3", 3, loadDivergent},
		{"onethread/jp9", 9, loadOneThread},
		{"sendloop", 0, loadSendLoop},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sys := memory.NewSystem(memory.DefaultConfig())
			cfg := DefaultConfig()
			cfg.Policy = compaction.SCC
			cfg.JumpPenalty = tc.penalty
			e := New(0, cfg, sys)
			const loadAt = 3
			interval := int64(cfg.IssueInterval)
			notDue := 0
			for cycle := int64(0); ; cycle++ {
				sys.Tick(cycle)
				due := e.NextWakeup() <= cycle
				before := snapshot(e)
				e.Tick(cycle)
				arb := cycle%interval == 0
				if !due {
					notDue++
					want := before
					if arb {
						want.Windows[want.LastKind]++
						want.NextArb = (want.NextArb + 1) % len(e.Threads)
					}
					if got := snapshot(e); !reflect.DeepEqual(got, want) {
						t.Fatalf("cycle %d: the EU was not due, but its tick changed\n%+v\nto\n%+v", cycle, before, got)
					}
				}
				if arb {
					var scan uint64
					for i, th := range e.Threads {
						if th.State == ThreadReady {
							scan |= 1 << i
						}
					}
					if e.ready != scan {
						t.Fatalf("cycle %d: ready mask %06b, thread states give %06b", cycle, e.ready, scan)
					}
				}
				if cycle == loadAt {
					tc.load(e, sys)
				}
				if cycle > loadAt && e.Quiet() && !sys.InFlight() {
					break
				}
				if cycle > 1_000_000 {
					t.Fatal("EU did not quiesce")
				}
			}
			if notDue == 0 {
				t.Fatal("the EU was due at every cycle: nothing was checked")
			}
		})
	}
}

// TestBeginLaunchDropsAbortedState stops the divergent ALU loop and the
// SEND loop mid-run, as a launch aborted on its budget or its context
// is, and requires BeginLaunch to leave no scoreboard reservation, flag
// writer, writeback or outstanding request behind. A flag writer left
// counted would block every later instruction that reads or writes the
// flag on that slot, so the EU must then run a fresh kernel to the end.
func TestBeginLaunchDropsAbortedState(t *testing.T) {
	sys := memory.NewSystem(memory.DefaultConfig())
	e := New(0, DefaultConfig(), sys)
	loadSendLoop(e, sys)
	// Half the threads run the ALU loop instead, for its flag writers.
	p := mustDecode(divergentLoopProgram(8))
	for ti, th := range e.Threads[:3] {
		th.Reset(p, 16, 0xFFFF)
		th.Active = timedAllocMasks[ti]
	}
	e.MarkDirty()
	var flags, spans, outstanding bool
	for cycle := int64(0); !(flags && spans && outstanding && len(e.wb) > 0); cycle++ {
		sys.Tick(cycle)
		e.Tick(cycle)
		for ti := range e.Threads {
			flags = flags || e.flagBusy[ti] != [2]int{}
			spans = spans || len(e.sb[ti]) > 0
			outstanding = outstanding || e.outstanding[ti] > 0
		}
		if cycle > 10_000 {
			t.Fatalf("no cycle with a flag writer (%v), a reservation (%v), a request (%v) and a writeback in flight", flags, spans, outstanding)
		}
	}

	e.BeginLaunch()
	sys.BeginLaunch()
	for ti := range e.Threads {
		if e.flagBusy[ti] != [2]int{} || len(e.sb[ti]) > 0 || e.outstanding[ti] > 0 {
			t.Fatalf("thread %d after BeginLaunch: flags %v, reservations %v, outstanding %d",
				ti, e.flagBusy[ti], e.sb[ti], e.outstanding[ti])
		}
	}
	if len(e.wb) > 0 || e.wbMin != noWB || sys.InFlight() {
		t.Fatalf("after BeginLaunch: %d writebacks (earliest %d), memory in flight %v", len(e.wb), e.wbMin, sys.InFlight())
	}
	loadDivergent(e, sys)
	runEU(t, e, sys)
}
