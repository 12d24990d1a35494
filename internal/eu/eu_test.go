package eu

import (
	"slices"
	"testing"

	"intrawarp/internal/compaction"
	"intrawarp/internal/isa"
	"intrawarp/internal/mask"
	"intrawarp/internal/memory"
	"intrawarp/internal/stats"
)

func newTestEU(policy compaction.Policy) (*EU, *memory.System) {
	sys := memory.NewSystem(memory.DefaultConfig())
	cfg := DefaultConfig()
	cfg.Policy = policy
	return New(0, cfg, sys), sys
}

// mustDecode decodes a test program, panicking on a decode fault.
func mustDecode(p isa.Program) *Program {
	prog, err := Decode(&isa.Kernel{Name: "test", Program: p})
	if err != nil {
		panic(err)
	}
	return prog
}

// loadThread installs a program on thread slot ti with the given active
// mask (the dispatch mask stays full SIMD16) and marks the EU dirty, as
// the GPU's dispatch does.
func loadThread(e *EU, ti int, p isa.Program, active mask.Mask) *Thread {
	th := e.Threads[ti]
	th.Reset(mustDecode(p), 16, 0xFFFF)
	th.Active = active
	th.Stats = stats.NewRun("t", 16)
	e.MarkDirty()
	return th
}

// runEU ticks the EU (and memory) until all threads retire, returning the
// cycle count.
func runEU(t *testing.T, e *EU, sys *memory.System) int64 {
	t.Helper()
	var cycle int64
	for {
		sys.Tick(cycle)
		e.Tick(cycle)
		done := true
		for _, th := range e.Threads {
			if th.State == ThreadReady || th.State == ThreadBarrier {
				done = false
			}
		}
		if done && e.Quiet() && !sys.InFlight() {
			return cycle
		}
		cycle++
		if cycle > 1_000_000 {
			t.Fatal("EU did not quiesce")
		}
	}
}

// independent MOVs: no dependencies, occupancy dominated.
func independentProgram(n int) isa.Program {
	p := make(isa.Program, 0, n+1)
	for i := 0; i < n; i++ {
		p = append(p, isa.Instruction{Op: isa.OpMov, Width: isa.SIMD16, DType: isa.U32,
			Dst: isa.GRF(20 + 2*(i%40)), Src0: isa.ImmU32(uint32(i))})
	}
	p = append(p, isa.Instruction{Op: isa.OpHalt, Width: isa.SIMD16})
	return p
}

func TestOccupancyScalesWithPolicy(t *testing.T) {
	// One thread, 64 independent SIMD16 MOVs with mask 0xAAAA: baseline 4
	// cycles each, SCC 2 cycles each.
	busy := map[compaction.Policy]int64{}
	for _, pol := range compaction.Policies {
		e, sys := newTestEU(pol)
		loadThread(e, 0, independentProgram(64), 0xAAAA)
		runEU(t, e, sys)
		busy[pol] = e.Busy
	}
	// 64 movs + 1 halt; halt executes with mask 0xAAAA too.
	if busy[compaction.Baseline] != 65*4 {
		t.Errorf("baseline busy = %d, want %d", busy[compaction.Baseline], 65*4)
	}
	if busy[compaction.IvyBridge] != 65*4 {
		t.Errorf("ivb busy = %d (0xAAAA gets no IVB benefit)", busy[compaction.IvyBridge])
	}
	if busy[compaction.BCC] != 65*4 {
		t.Errorf("bcc busy = %d (0xAAAA gets no BCC benefit)", busy[compaction.BCC])
	}
	if busy[compaction.SCC] != 65*2 {
		t.Errorf("scc busy = %d, want %d", busy[compaction.SCC], 65*2)
	}
}

func TestRAWStall(t *testing.T) {
	// mov r20 <- 1; add r22 <- r20 + 1: the add must wait for writeback.
	p := isa.Program{
		{Op: isa.OpMov, Width: isa.SIMD16, DType: isa.U32, Dst: isa.GRF(20), Src0: isa.ImmU32(1)},
		{Op: isa.OpAdd, Width: isa.SIMD16, DType: isa.U32, Dst: isa.GRF(22), Src0: isa.GRF(20), Src1: isa.ImmU32(1)},
		{Op: isa.OpHalt, Width: isa.SIMD16},
	}
	e, sys := newTestEU(compaction.Baseline)
	th := loadThread(e, 0, p, 0xFFFF)
	total := runEU(t, e, sys)
	// Functional result must be correct regardless of the stall.
	if th.GRF.ReadU32(22*32) != 2 {
		t.Fatalf("r22 = %d, want 2", th.GRF.ReadU32(22*32))
	}
	// With PipeDepth 4 and 4-cycle occupancy, the dependent add cannot
	// issue before cycle 8; total must exceed pure occupancy (12).
	if total < 8 {
		t.Fatalf("total = %d, RAW stall not modeled", total)
	}

	// An independent instruction pair should finish sooner than the
	// dependent pair's total.
	e2, sys2 := newTestEU(compaction.Baseline)
	loadThread(e2, 0, isa.Program{
		{Op: isa.OpMov, Width: isa.SIMD16, DType: isa.U32, Dst: isa.GRF(20), Src0: isa.ImmU32(1)},
		{Op: isa.OpMov, Width: isa.SIMD16, DType: isa.U32, Dst: isa.GRF(22), Src0: isa.ImmU32(2)},
		{Op: isa.OpHalt, Width: isa.SIMD16},
	}, 0xFFFF)
	total2 := runEU(t, e2, sys2)
	if total2 >= total {
		t.Fatalf("independent pair (%d) not faster than dependent pair (%d)", total2, total)
	}
}

func TestDualIssueAcrossThreads(t *testing.T) {
	// Two threads with FPU work cannot co-issue (one FPU pipe), but FPU +
	// EM across threads can. Compare: 2 threads of MOVs (FPU) vs one
	// thread of MOVs + one thread of SQRTs (EM).
	run2 := func(p0, p1 isa.Program) int64 {
		e, sys := newTestEU(compaction.Baseline)
		loadThread(e, 0, p0, 0xFFFF)
		loadThread(e, 1, p1, 0xFFFF)
		return runEU(t, e, sys)
	}
	movs := independentProgram(32)
	sqrts := make(isa.Program, 0, 33)
	for i := 0; i < 32; i++ {
		sqrts = append(sqrts, isa.Instruction{Op: isa.OpSqrt, Width: isa.SIMD16,
			Dst: isa.GRF(60 + 2*(i%30)), Src0: isa.ImmF32(4)})
	}
	sqrts = append(sqrts, isa.Instruction{Op: isa.OpHalt, Width: isa.SIMD16})

	fpuOnly := run2(movs, movs)
	mixed := run2(movs, sqrts)
	if mixed >= fpuOnly {
		t.Fatalf("FPU+EM mix (%d) should beat FPU+FPU contention (%d)", mixed, fpuOnly)
	}
}

func TestSendLoadBlocksDependents(t *testing.T) {
	sys := memory.NewSystem(memory.DefaultConfig())
	cfg := DefaultConfig()
	e := New(0, cfg, sys)
	buf := sys.Mem.Alloc(256)
	sys.Mem.WriteU32(buf, 42)

	p := isa.Program{
		// Gather from buf into r20, then use r20.
		{Op: isa.OpSend, Send: isa.SendLoadGather, Width: isa.SIMD16, DType: isa.U32,
			Dst: isa.GRF(20), Src0: isa.GRF(16)},
		{Op: isa.OpAdd, Width: isa.SIMD16, DType: isa.U32, Dst: isa.GRF(22), Src0: isa.GRF(20), Src1: isa.ImmU32(1)},
		{Op: isa.OpHalt, Width: isa.SIMD16},
	}
	th := loadThread(e, 0, p, 0xFFFF)
	for lane := 0; lane < 16; lane++ {
		th.GRF.WriteU32(16*32+lane*4, buf)
	}
	total := runEU(t, e, sys)
	if th.GRF.ReadU32(22*32) != 43 {
		t.Fatalf("r22 = %d", th.GRF.ReadU32(22*32))
	}
	// Cold miss: L3+LLC+DRAM = 217 cycles minimum before the add can issue.
	if total < 217 {
		t.Fatalf("total = %d; dependent add issued before load returned", total)
	}
}

func TestOperandFetchSavings(t *testing.T) {
	// BCC with half the quads dead saves operand fetches; baseline saves
	// none.
	for _, tc := range []struct {
		pol  compaction.Policy
		want bool
	}{{compaction.Baseline, false}, {compaction.BCC, true}} {
		e, sys := newTestEU(tc.pol)
		th := loadThread(e, 0, isa.Program{
			{Op: isa.OpAdd, Width: isa.SIMD16, DType: isa.U32,
				Dst: isa.GRF(20), Src0: isa.GRF(22), Src1: isa.GRF(24)},
			{Op: isa.OpHalt, Width: isa.SIMD16},
		}, 0x00F0)
		runEU(t, e, sys)
		saved := th.Stats.OperandFetchesSaved
		if tc.want && saved == 0 {
			t.Errorf("%s: no operand fetches saved", tc.pol)
		}
		if !tc.want && saved != 0 {
			t.Errorf("%s: unexpected fetch savings %d", tc.pol, saved)
		}
	}
}

// TestIdleSlotsAndQuiet checks which thread contexts IdleSlotsInto
// offers for dispatch: every one at first, none that holds a thread, and
// not a halted thread's either until it is marked idle, as the GPU does
// when the thread's whole workgroup retires.
func TestIdleSlotsAndQuiet(t *testing.T) {
	e, sys := newTestEU(compaction.Baseline)
	all := e.Cfg.ThreadsPerEU
	var slots []int
	if slots = e.IdleSlotsInto(slots); len(slots) != all {
		t.Fatalf("idle slots %v initially, want all %d", slots, all)
	}
	if !e.Quiet() {
		t.Fatal("idle EU must be quiet")
	}
	th := loadThread(e, 0, independentProgram(4), 0xFFFF)
	if slots = e.IdleSlotsInto(slots); len(slots) != all-1 || slices.Contains(slots, 0) {
		t.Fatalf("idle slots %v with a thread loaded in slot 0", slots)
	}
	if e.Quiet() {
		t.Fatal("EU with ready thread must not be quiet")
	}
	runEU(t, e, sys)
	if th.State != ThreadDone {
		t.Fatalf("thread state %v after HALT, want done", th.State)
	}
	if slots = e.IdleSlotsInto(slots); len(slots) != all-1 || slices.Contains(slots, 0) {
		t.Fatalf("idle slots %v: a halted thread's slot is offered before it is marked idle", slots)
	}
	th.State = ThreadIdle
	if slots = e.IdleSlotsInto(slots); len(slots) != all {
		t.Fatalf("idle slots %v after the halted thread was marked idle, want all %d", slots, all)
	}
}

func TestWAWStall(t *testing.T) {
	// Two writes to the same register must not coexist in flight; the
	// program still completes with the second value.
	p := isa.Program{
		{Op: isa.OpMov, Width: isa.SIMD16, DType: isa.U32, Dst: isa.GRF(20), Src0: isa.ImmU32(1)},
		{Op: isa.OpMov, Width: isa.SIMD16, DType: isa.U32, Dst: isa.GRF(20), Src0: isa.ImmU32(2)},
		{Op: isa.OpHalt, Width: isa.SIMD16},
	}
	e, sys := newTestEU(compaction.Baseline)
	th := loadThread(e, 0, p, 0xFFFF)
	runEU(t, e, sys)
	if th.GRF.ReadU32(20*32) != 2 {
		t.Fatalf("r20 = %d, want 2", th.GRF.ReadU32(20*32))
	}
}

func TestFlagDependencyStall(t *testing.T) {
	// cmp writes f0; the IF consuming f0 must wait but still behave.
	p := isa.Program{
		{Op: isa.OpCmp, Width: isa.SIMD16, DType: isa.U32, Cond: isa.CmpLT, Flag: isa.F0,
			Src0: isa.GRF(16), Src1: isa.ImmU32(8)},
		{Op: isa.OpIf, Width: isa.SIMD16, Pred: isa.PredNorm, Flag: isa.F0, JumpTarget: 3},
		{Op: isa.OpMov, Width: isa.SIMD16, DType: isa.U32, Dst: isa.GRF(20), Src0: isa.ImmU32(9)},
		{Op: isa.OpEndIf, Width: isa.SIMD16},
		{Op: isa.OpHalt, Width: isa.SIMD16},
	}
	e, sys := newTestEU(compaction.Baseline)
	th := loadThread(e, 0, p, 0xFFFF)
	for lane := 0; lane < 16; lane++ {
		th.GRF.WriteU32(16*32+lane*4, uint32(lane))
	}
	runEU(t, e, sys)
	for lane := 0; lane < 16; lane++ {
		want := uint32(0)
		if lane < 8 {
			want = 9
		}
		if got := th.GRF.ReadU32(20*32 + lane*4); got != want {
			t.Fatalf("lane %d = %d, want %d", lane, got, want)
		}
	}
}

func TestJumpPenaltySlowsDivergentKernel(t *testing.T) {
	// A loopy program must take longer with a front-end refetch penalty.
	loopy := isa.Program{
		{Op: isa.OpMov, Width: isa.SIMD16, DType: isa.U32, Dst: isa.GRF(20), Src0: isa.ImmU32(0)},
		{Op: isa.OpLoop, Width: isa.SIMD16},
		{Op: isa.OpAdd, Width: isa.SIMD16, DType: isa.U32, Dst: isa.GRF(20), Src0: isa.GRF(20), Src1: isa.ImmU32(1)},
		{Op: isa.OpCmp, Width: isa.SIMD16, DType: isa.U32, Cond: isa.CmpLT, Flag: isa.F0,
			Src0: isa.GRF(20), Src1: isa.ImmU32(32)},
		{Op: isa.OpWhile, Width: isa.SIMD16, Pred: isa.PredNorm, Flag: isa.F0, JumpTarget: 2},
		{Op: isa.OpHalt, Width: isa.SIMD16},
	}
	run := func(penalty int) int64 {
		sys := memory.NewSystem(memory.DefaultConfig())
		cfg := DefaultConfig()
		cfg.JumpPenalty = penalty
		e := New(0, cfg, sys)
		th := loadThread(e, 0, loopy, 0xFFFF)
		total := runEU(t, e, sys)
		if th.GRF.ReadU32(20*32) != 32 {
			t.Fatalf("penalty %d: wrong result %d", penalty, th.GRF.ReadU32(20*32))
		}
		return total
	}
	fast := run(0)
	slow := run(8)
	if slow <= fast {
		t.Fatalf("jump penalty had no effect: %d vs %d", fast, slow)
	}
}

// TestNewRejectsMoreThreadsThanTheReadyMask checks that New panics for
// an EU with more threads than its ready mask has bits, and builds one
// with exactly that many.
func TestNewRejectsMoreThreadsThanTheReadyMask(t *testing.T) {
	cfg := DefaultConfig()
	cfg.ThreadsPerEU = MaxThreads
	if e := New(0, cfg, memory.NewSystem(memory.DefaultConfig())); len(e.Threads) != MaxThreads {
		t.Fatalf("%d threads, want %d", len(e.Threads), MaxThreads)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("New accepted more threads than the ready mask holds")
		}
	}()
	cfg.ThreadsPerEU = MaxThreads + 1
	New(0, cfg, memory.NewSystem(memory.DefaultConfig()))
}
