package eu

import (
	"testing"

	"intrawarp/internal/isa"
	"intrawarp/internal/mask"
	"intrawarp/internal/memory"
	"intrawarp/internal/stats"
)

// run executes a program on a fresh thread functionally and returns it.
func runProgram(t *testing.T, p isa.Program, width int, dispatch mask.Mask) (*Thread, *memory.Flat) {
	t.Helper()
	if err := p.Validate(); err != nil {
		t.Fatalf("invalid test program: %v", err)
	}
	th := &Thread{}
	th.Reset(mustDecode(p), width, dispatch)
	th.Stats = stats.NewRun("test", width)
	mem := memory.NewFlat(1 << 16)
	for steps := 0; th.State == ThreadReady; steps++ {
		if steps > 100000 {
			t.Fatal("program did not terminate")
		}
		th.Step(mem)
	}
	return th, mem
}

func TestThreadReset(t *testing.T) {
	th := &Thread{}
	p := isa.Program{{Op: isa.OpHalt, Width: isa.SIMD16}}
	th.Reset(mustDecode(p), 16, 0xFFFF)
	if th.State != ThreadReady || th.IP != 0 || th.Active != 0xFFFF {
		t.Fatalf("reset state: %+v", th)
	}
	if th.NestingDepth() != 0 {
		t.Fatal("nesting depth after reset")
	}
}

func TestExecMaskPredication(t *testing.T) {
	th := &Thread{}
	th.Reset(mustDecode(isa.Program{{Op: isa.OpHalt, Width: isa.SIMD16}}), 16, 0xFFFF)
	th.Flags[0] = 0x00FF
	th.Flags[1] = 0xF000

	in := &isa.Instruction{Op: isa.OpAdd, Width: isa.SIMD16, Pred: isa.PredNorm, Flag: isa.F0}
	if em := th.ExecMask(in); em != 0x00FF {
		t.Errorf("PredNorm f0 mask = %#x", em)
	}
	in.Pred = isa.PredInv
	if em := th.ExecMask(in); em != 0xFF00 {
		t.Errorf("PredInv f0 mask = %#x", em)
	}
	in.Flag = isa.F1
	in.Pred = isa.PredNorm
	if em := th.ExecMask(in); em != 0xF000 {
		t.Errorf("PredNorm f1 mask = %#x", em)
	}
	// Active mask intersects.
	th.Active = 0x0F0F
	if em := th.ExecMask(in); em != 0x0000 {
		t.Errorf("intersected mask = %#x", em)
	}
	in.Pred = isa.PredNone
	if em := th.ExecMask(in); em != 0x0F0F {
		t.Errorf("unpredicated mask = %#x", em)
	}
}

// IF/ELSE/ENDIF mask discipline, including the empty-branch jump paths.
func TestIfElseMasks(t *testing.T) {
	// Lanes 0-7 take the IF (flag set), 8-15 the ELSE. The kernel writes
	// 1 in the IF branch and 2 in the ELSE branch to r20.
	p := isa.Program{
		{Op: isa.OpCmp, Width: isa.SIMD16, DType: isa.U32, Cond: isa.CmpLT, Flag: isa.F0,
			Src0: isa.GRF(1), Src1: isa.ImmU32(8)}, // gid < 8 — but GRF(1) is zeroed here; set below
		{Op: isa.OpIf, Width: isa.SIMD16, Pred: isa.PredNorm, Flag: isa.F0, JumpTarget: 3},
		{Op: isa.OpMov, Width: isa.SIMD16, DType: isa.U32, Dst: isa.GRF(20), Src0: isa.ImmU32(1)},
		{Op: isa.OpElse, Width: isa.SIMD16, JumpTarget: 5},
		{Op: isa.OpMov, Width: isa.SIMD16, DType: isa.U32, Dst: isa.GRF(20), Src0: isa.ImmU32(2)},
		{Op: isa.OpEndIf, Width: isa.SIMD16},
		{Op: isa.OpHalt, Width: isa.SIMD16},
	}
	th := &Thread{}
	th.Reset(mustDecode(p), 16, 0xFFFF)
	// Per-lane ids 0..15 in r1.
	for lane := 0; lane < 16; lane++ {
		th.GRF.WriteU32(32+lane*4, uint32(lane))
	}
	mem := memory.NewFlat(1 << 12)
	for th.State == ThreadReady {
		th.Step(mem)
	}
	for lane := 0; lane < 16; lane++ {
		want := uint32(2)
		if lane < 8 {
			want = 1
		}
		if got := th.GRF.ReadU32(20*32 + lane*4); got != want {
			t.Errorf("lane %d: r20 = %d, want %d", lane, got, want)
		}
	}
	if th.NestingDepth() != 0 {
		t.Error("mask stack not empty after ENDIF")
	}
}

func TestIfAllFalseJumpsToElse(t *testing.T) {
	p := isa.Program{
		{Op: isa.OpIf, Width: isa.SIMD8, Pred: isa.PredNorm, Flag: isa.F0, JumpTarget: 2},
		{Op: isa.OpMov, Width: isa.SIMD8, DType: isa.U32, Dst: isa.GRF(20), Src0: isa.ImmU32(1)},
		{Op: isa.OpElse, Width: isa.SIMD8, JumpTarget: 4},
		{Op: isa.OpMov, Width: isa.SIMD8, DType: isa.U32, Dst: isa.GRF(21), Src0: isa.ImmU32(2)},
		{Op: isa.OpEndIf, Width: isa.SIMD8},
		{Op: isa.OpHalt, Width: isa.SIMD8},
	}
	th := &Thread{}
	th.Reset(mustDecode(p), 8, 0xFF)
	th.Flags[0] = 0 // nobody takes the IF
	mem := memory.NewFlat(1 << 12)
	for th.State == ThreadReady {
		th.Step(mem)
	}
	if th.GRF.ReadU32(20*32) != 0 {
		t.Error("IF body executed despite empty mask")
	}
	if th.GRF.ReadU32(21*32) != 2 {
		t.Error("ELSE body skipped")
	}
	if th.Active != 0xFF {
		t.Errorf("active mask after ENDIF = %#x", th.Active)
	}
}

func TestIfAllTrueSkipsElse(t *testing.T) {
	p := isa.Program{
		{Op: isa.OpIf, Width: isa.SIMD8, Pred: isa.PredNorm, Flag: isa.F0, JumpTarget: 2},
		{Op: isa.OpMov, Width: isa.SIMD8, DType: isa.U32, Dst: isa.GRF(20), Src0: isa.ImmU32(1)},
		{Op: isa.OpElse, Width: isa.SIMD8, JumpTarget: 4},
		{Op: isa.OpMov, Width: isa.SIMD8, DType: isa.U32, Dst: isa.GRF(21), Src0: isa.ImmU32(2)},
		{Op: isa.OpEndIf, Width: isa.SIMD8},
		{Op: isa.OpHalt, Width: isa.SIMD8},
	}
	th := &Thread{}
	th.Reset(mustDecode(p), 8, 0xFF)
	th.Flags[0] = 0xFF
	mem := memory.NewFlat(1 << 12)
	for th.State == ThreadReady {
		th.Step(mem)
	}
	if th.GRF.ReadU32(20*32) != 1 {
		t.Error("IF body skipped")
	}
	if th.GRF.ReadU32(21*32) != 0 {
		t.Error("ELSE body executed despite empty complement")
	}
}

// A divergent loop: lane i iterates i+1 times (counts down from its id).
func TestLoopWhileDivergent(t *testing.T) {
	// r16 = lane id; r17 = iteration counter.
	p := isa.Program{
		{Op: isa.OpMov, Width: isa.SIMD8, DType: isa.U32, Dst: isa.GRF(17), Src0: isa.ImmU32(0)},
		{Op: isa.OpLoop, Width: isa.SIMD8},
		{Op: isa.OpAdd, Width: isa.SIMD8, DType: isa.U32, Dst: isa.GRF(17), Src0: isa.GRF(17), Src1: isa.ImmU32(1)},
		{Op: isa.OpCmp, Width: isa.SIMD8, DType: isa.U32, Cond: isa.CmpLE, Flag: isa.F0,
			Src0: isa.GRF(17), Src1: isa.GRF(16)},
		{Op: isa.OpWhile, Width: isa.SIMD8, Pred: isa.PredNorm, Flag: isa.F0, JumpTarget: 2},
		{Op: isa.OpHalt, Width: isa.SIMD8},
	}
	th := &Thread{}
	th.Reset(mustDecode(p), 8, 0xFF)
	for lane := 0; lane < 8; lane++ {
		th.GRF.WriteU32(16*32+lane*4, uint32(lane))
	}
	mem := memory.NewFlat(1 << 12)
	for th.State == ThreadReady {
		th.Step(mem)
	}
	for lane := 0; lane < 8; lane++ {
		want := uint32(lane + 1)
		if got := th.GRF.ReadU32(17*32 + lane*4); got != want {
			t.Errorf("lane %d iterated %d times, want %d", lane, got, want)
		}
	}
	if th.Active != 0xFF {
		t.Errorf("active mask after loop = %#x", th.Active)
	}
}

// BREAK disables lanes until the loop exits, then they resume.
func TestLoopBreak(t *testing.T) {
	// Lanes with id >= 4 break on the first iteration; the rest run 3
	// iterations. After the loop every dispatched lane increments r18.
	p := isa.Program{
		{Op: isa.OpMov, Width: isa.SIMD8, DType: isa.U32, Dst: isa.GRF(17), Src0: isa.ImmU32(0)},
		{Op: isa.OpLoop, Width: isa.SIMD8},
		{Op: isa.OpCmp, Width: isa.SIMD8, DType: isa.U32, Cond: isa.CmpGE, Flag: isa.F1,
			Src0: isa.GRF(16), Src1: isa.ImmU32(4)},
		{Op: isa.OpBreak, Width: isa.SIMD8, Pred: isa.PredNorm, Flag: isa.F1, JumpTarget: 6},
		{Op: isa.OpAdd, Width: isa.SIMD8, DType: isa.U32, Dst: isa.GRF(17), Src0: isa.GRF(17), Src1: isa.ImmU32(1)},
		{Op: isa.OpCmp, Width: isa.SIMD8, DType: isa.U32, Cond: isa.CmpLT, Flag: isa.F0,
			Src0: isa.GRF(17), Src1: isa.ImmU32(3)},
		{Op: isa.OpWhile, Width: isa.SIMD8, Pred: isa.PredNorm, Flag: isa.F0, JumpTarget: 2},
		{Op: isa.OpAdd, Width: isa.SIMD8, DType: isa.U32, Dst: isa.GRF(18), Src0: isa.GRF(18), Src1: isa.ImmU32(1)},
		{Op: isa.OpHalt, Width: isa.SIMD8},
	}
	th := &Thread{}
	th.Reset(mustDecode(p), 8, 0xFF)
	for lane := 0; lane < 8; lane++ {
		th.GRF.WriteU32(16*32+lane*4, uint32(lane))
	}
	mem := memory.NewFlat(1 << 12)
	for th.State == ThreadReady {
		th.Step(mem)
	}
	for lane := 0; lane < 8; lane++ {
		wantIter := uint32(3)
		if lane >= 4 {
			wantIter = 0
		}
		if got := th.GRF.ReadU32(17*32 + lane*4); got != wantIter {
			t.Errorf("lane %d: iterations = %d, want %d", lane, got, wantIter)
		}
		if got := th.GRF.ReadU32(18*32 + lane*4); got != 1 {
			t.Errorf("lane %d: post-loop increment = %d, want 1 (lane did not resume)", lane, got)
		}
	}
}

// CONT parks lanes until the WHILE, where they rejoin.
func TestLoopCont(t *testing.T) {
	// All lanes loop 4 times; odd lanes skip the accumulation via CONT.
	p := isa.Program{
		{Op: isa.OpMov, Width: isa.SIMD8, DType: isa.U32, Dst: isa.GRF(17), Src0: isa.ImmU32(0)}, // i
		{Op: isa.OpMov, Width: isa.SIMD8, DType: isa.U32, Dst: isa.GRF(18), Src0: isa.ImmU32(0)}, // acc
		{Op: isa.OpLoop, Width: isa.SIMD8},
		{Op: isa.OpAdd, Width: isa.SIMD8, DType: isa.U32, Dst: isa.GRF(17), Src0: isa.GRF(17), Src1: isa.ImmU32(1)},
		{Op: isa.OpAnd, Width: isa.SIMD8, DType: isa.U32, Dst: isa.GRF(19), Src0: isa.GRF(16), Src1: isa.ImmU32(1)},
		{Op: isa.OpCmp, Width: isa.SIMD8, DType: isa.U32, Cond: isa.CmpEQ, Flag: isa.F1,
			Src0: isa.GRF(19), Src1: isa.ImmU32(1)},
		{Op: isa.OpCont, Width: isa.SIMD8, Pred: isa.PredNorm, Flag: isa.F1, JumpTarget: 9},
		{Op: isa.OpAdd, Width: isa.SIMD8, DType: isa.U32, Dst: isa.GRF(18), Src0: isa.GRF(18), Src1: isa.ImmU32(1)},
		{Op: isa.OpCmp, Width: isa.SIMD8, DType: isa.U32, Cond: isa.CmpLT, Flag: isa.F0,
			Src0: isa.GRF(17), Src1: isa.ImmU32(4)},
		{Op: isa.OpWhile, Width: isa.SIMD8, Pred: isa.PredNorm, Flag: isa.F0, JumpTarget: 3},
		{Op: isa.OpHalt, Width: isa.SIMD8},
	}
	th := &Thread{}
	th.Reset(mustDecode(p), 8, 0xFF)
	for lane := 0; lane < 8; lane++ {
		th.GRF.WriteU32(16*32+lane*4, uint32(lane))
	}
	mem := memory.NewFlat(1 << 12)
	for steps := 0; th.State == ThreadReady; steps++ {
		if steps > 10000 {
			t.Fatal("loop did not terminate")
		}
		th.Step(mem)
	}
	for lane := 0; lane < 8; lane++ {
		want := uint32(4)
		if lane%2 == 1 {
			want = 0
		}
		if got := th.GRF.ReadU32(18*32 + lane*4); got != want {
			t.Errorf("lane %d: acc = %d, want %d", lane, got, want)
		}
	}
}

// A lane disabled by an enclosing IF must stay disabled inside a nested
// loop (no resurrection).
func TestNestedIfLoopNoResurrection(t *testing.T) {
	p := isa.Program{
		{Op: isa.OpIf, Width: isa.SIMD8, Pred: isa.PredNorm, Flag: isa.F0, JumpTarget: 7},
		{Op: isa.OpMov, Width: isa.SIMD8, DType: isa.U32, Dst: isa.GRF(17), Src0: isa.ImmU32(0)},
		{Op: isa.OpLoop, Width: isa.SIMD8},
		{Op: isa.OpAdd, Width: isa.SIMD8, DType: isa.U32, Dst: isa.GRF(17), Src0: isa.GRF(17), Src1: isa.ImmU32(1)},
		{Op: isa.OpCmp, Width: isa.SIMD8, DType: isa.U32, Cond: isa.CmpLT, Flag: isa.F1,
			Src0: isa.GRF(17), Src1: isa.ImmU32(3)},
		{Op: isa.OpWhile, Width: isa.SIMD8, Pred: isa.PredNorm, Flag: isa.F1, JumpTarget: 3},
		{Op: isa.OpNop, Width: isa.SIMD8},
		{Op: isa.OpEndIf, Width: isa.SIMD8},
		{Op: isa.OpHalt, Width: isa.SIMD8},
	}
	th := &Thread{}
	th.Reset(mustDecode(p), 8, 0xFF)
	th.Flags[0] = 0x0F // lanes 0-3 enter the IF
	mem := memory.NewFlat(1 << 12)
	for th.State == ThreadReady {
		th.Step(mem)
	}
	for lane := 0; lane < 8; lane++ {
		want := uint32(3)
		if lane >= 4 {
			want = 0
		}
		if got := th.GRF.ReadU32(17*32 + lane*4); got != want {
			t.Errorf("lane %d: counter = %d, want %d", lane, got, want)
		}
	}
}
