package eu

import (
	"math"
	"testing"
	"testing/quick"

	"intrawarp/internal/isa"
	"intrawarp/internal/memory"
)

// evalLane runs a single ALU op on one lane's raw element bits through
// its decoded lane loop: a SIMD1 instruction with immediate sources. The
// *testing.T parameter keeps call sites uniform; it may be nil.
func evalLane(_ *testing.T, op isa.Opcode, dt isa.DataType, a, b, c uint64) uint64 {
	imm := func(v uint64) isa.Operand { return isa.Operand{Kind: isa.RegImm, Imm: v} }
	th := &Thread{}
	th.Reset(mustDecode(isa.Program{
		{Op: op, Width: isa.SIMD1, DType: dt, Dst: isa.GRF(10), Src0: imm(a), Src1: imm(b), Src2: imm(c)},
		{Op: isa.OpHalt, Width: isa.SIMD1},
	}), 1, 1)
	th.Step(nil)
	switch dt.Size() {
	case 2:
		return uint64(th.GRF.ReadU16(10 * 32))
	case 8:
		return th.GRF.ReadU64(10 * 32)
	}
	return uint64(th.GRF.ReadU32(10 * 32))
}

// evalCmp runs a SIMD1 CMP on two immediates through its decoded lane
// loop and returns the flag bit it writes.
func evalCmp(cond isa.CondMod, dt isa.DataType, a, b uint64) bool {
	th := &Thread{}
	th.Reset(mustDecode(isa.Program{
		{Op: isa.OpCmp, Width: isa.SIMD1, DType: dt, Cond: cond, Flag: isa.F1,
			Src0: isa.Operand{Kind: isa.RegImm, Imm: a}, Src1: isa.Operand{Kind: isa.RegImm, Imm: b}},
		{Op: isa.OpHalt, Width: isa.SIMD1},
	}), 1, 1)
	th.Step(nil)
	return th.Flags[1]&1 != 0
}

func fbits(v float32) uint64 { return uint64(math.Float32bits(v)) }

func TestALUFloat(t *testing.T) {
	cases := []struct {
		op      isa.Opcode
		a, b, c float32
		want    float32
	}{
		{isa.OpAdd, 1.5, 2.25, 0, 3.75},
		{isa.OpSub, 5, 2, 0, 3},
		{isa.OpMul, 3, 4, 0, 12},
		{isa.OpMad, 2, 3, 4, 10},
		{isa.OpMin, -1, 2, 0, -1},
		{isa.OpMax, -1, 2, 0, 2},
		{isa.OpAbs, -7.5, 0, 0, 7.5},
		{isa.OpFlr, 2.75, 0, 0, 2},
		{isa.OpFrc, 2.75, 0, 0, 0.75},
		{isa.OpDiv, 10, 4, 0, 2.5},
		{isa.OpSqrt, 16, 0, 0, 4},
		{isa.OpRsqrt, 4, 0, 0, 0.5},
		{isa.OpInv, 4, 0, 0, 0.25},
		{isa.OpExp, 3, 0, 0, 8},
		{isa.OpLog, 8, 0, 0, 3},
		{isa.OpPow, 2, 10, 0, 1024},
	}
	for _, cse := range cases {
		got := evalLane(t, cse.op, isa.F32, fbits(cse.a), fbits(cse.b), fbits(cse.c))
		if math.Float32frombits(uint32(got)) != cse.want {
			t.Errorf("%s(%v,%v,%v) = %v, want %v", cse.op, cse.a, cse.b, cse.c,
				math.Float32frombits(uint32(got)), cse.want)
		}
	}
}

func TestALUSigned(t *testing.T) {
	s := func(v int32) uint64 { return uint64(uint32(v)) }
	if got := evalLane(t, isa.OpAdd, isa.S32, s(-5), s(3), 0); int32(uint32(got)) != -2 {
		t.Errorf("s32 add = %d", int32(uint32(got)))
	}
	if got := evalLane(t, isa.OpMin, isa.S32, s(-5), s(3), 0); int32(uint32(got)) != -5 {
		t.Errorf("s32 min = %d", int32(uint32(got)))
	}
	if got := evalLane(t, isa.OpAbs, isa.S32, s(-5), 0, 0); got != 5 {
		t.Errorf("s32 abs = %d", got)
	}
	if got := evalLane(t, isa.OpDiv, isa.S32, s(-9), s(2), 0); int32(uint32(got)) != -4 {
		t.Errorf("s32 div = %d", int32(uint32(got)))
	}
	if got := evalLane(t, isa.OpDiv, isa.S32, s(5), 0, 0); got != 0 {
		t.Errorf("s32 div by zero = %d, want 0", got)
	}
	if got := evalLane(t, isa.OpAsr, isa.S32, s(-8), 1, 0); int32(uint32(got)) != -4 {
		t.Errorf("asr = %d", int32(uint32(got)))
	}
}

func TestALUUnsignedAndBitwise(t *testing.T) {
	if got := evalLane(t, isa.OpAnd, isa.U32, 0xF0F0, 0xFF00, 0); got != 0xF000 {
		t.Errorf("and = %#x", got)
	}
	if got := evalLane(t, isa.OpOr, isa.U32, 0xF0, 0x0F, 0); got != 0xFF {
		t.Errorf("or = %#x", got)
	}
	if got := evalLane(t, isa.OpXor, isa.U32, 0xFF, 0x0F, 0); got != 0xF0 {
		t.Errorf("xor = %#x", got)
	}
	if got := evalLane(t, isa.OpShl, isa.U32, 1, 4, 0); got != 16 {
		t.Errorf("shl = %d", got)
	}
	if got := evalLane(t, isa.OpShr, isa.U32, 0x80000000, 31, 0); got != 1 {
		t.Errorf("shr = %d", got)
	}
	if got := evalLane(t, isa.OpNot, isa.U32, 0, 0, 0); got != 0xFFFFFFFF {
		t.Errorf("not = %#x", got)
	}
	if got := evalLane(t, isa.OpMad, isa.U32, 3, 4, 5); got != 17 {
		t.Errorf("u32 mad = %d", got)
	}
	if got := evalLane(t, isa.OpDiv, isa.U32, 7, 2, 0); got != 3 {
		t.Errorf("u32 div = %d", got)
	}
}

func TestALUF64(t *testing.T) {
	d := func(v float64) uint64 { return math.Float64bits(v) }
	if got := evalLane(t, isa.OpAdd, isa.F64, d(1.5), d(2.5), 0); math.Float64frombits(got) != 4 {
		t.Errorf("f64 add = %v", math.Float64frombits(got))
	}
	if got := evalLane(t, isa.OpSqrt, isa.F64, d(2.25), 0, 0); math.Float64frombits(got) != 1.5 {
		t.Errorf("f64 sqrt = %v", math.Float64frombits(got))
	}
}

func TestALUConvert(t *testing.T) {
	neg3 := int32(-3)
	// S32 -> F32.
	if got := evalLane(t, isa.OpCvt, isa.S32, uint64(uint32(neg3)), 0, 0); math.Float32frombits(uint32(got)) != -3 {
		t.Errorf("cvt s32->f32 = %v", math.Float32frombits(uint32(got)))
	}
	// F32 -> S32 (truncating).
	if got := evalLane(t, isa.OpCvt, isa.F32, fbits(3.7), 0, 0); int32(uint32(got)) != 3 {
		t.Errorf("cvt f32->s32 = %d", int32(uint32(got)))
	}
}

func TestCompare(t *testing.T) {
	negOne := int32(-1)
	cases := []struct {
		cond isa.CondMod
		dt   isa.DataType
		a, b uint64
		want bool
	}{
		{isa.CmpLT, isa.F32, fbits(1), fbits(2), true},
		{isa.CmpLT, isa.F32, fbits(2), fbits(1), false},
		{isa.CmpEQ, isa.F32, fbits(3), fbits(3), true},
		{isa.CmpNE, isa.F32, fbits(3), fbits(3), false},
		{isa.CmpGE, isa.F32, fbits(3), fbits(3), true},
		{isa.CmpGT, isa.F32, fbits(3), fbits(3), false},
		{isa.CmpLE, isa.F32, fbits(2), fbits(3), true},
		{isa.CmpLT, isa.S32, uint64(uint32(negOne)), 0, true},
		{isa.CmpLT, isa.U32, 0xFFFFFFFF, 0, false}, // unsigned: max > 0
		{isa.CmpLT, isa.F64, math.Float64bits(-1), math.Float64bits(1), true},
	}
	for _, c := range cases {
		if got := evalCmp(c.cond, c.dt, c.a, c.b); got != c.want {
			t.Errorf("compare(%s, %s, %#x, %#x) = %v", c.cond, c.dt, c.a, c.b, got)
		}
	}
}

// Property: s32 ALU arithmetic agrees with Go int32 arithmetic.
func TestALUSignedProperty(t *testing.T) {
	f := func(a, b int32) bool {
		add := evalLane(nil, isa.OpAdd, isa.S32, uint64(uint32(a)), uint64(uint32(b)), 0)
		mul := evalLane(nil, isa.OpMul, isa.S32, uint64(uint32(a)), uint64(uint32(b)), 0)
		return int32(uint32(add)) == a+b && int32(uint32(mul)) == a*b
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestPredicatedWriteMasking(t *testing.T) {
	// Only flagged lanes may write their destination element.
	p := isa.Program{
		{Op: isa.OpMov, Width: isa.SIMD8, DType: isa.U32, Dst: isa.GRF(20), Src0: isa.ImmU32(7),
			Pred: isa.PredNorm, Flag: isa.F0},
		{Op: isa.OpHalt, Width: isa.SIMD8},
	}
	th := &Thread{}
	th.Reset(mustDecode(p), 8, 0xFF)
	th.Flags[0] = 0x0F
	mem := memory.NewFlat(1 << 12)
	for th.State == ThreadReady {
		th.Step(mem)
	}
	for lane := 0; lane < 8; lane++ {
		want := uint32(0)
		if lane < 4 {
			want = 7
		}
		if got := th.GRF.ReadU32(20*32 + lane*4); got != want {
			t.Errorf("lane %d = %d, want %d", lane, got, want)
		}
	}
}

func TestCmpUpdatesOnlyActiveLanes(t *testing.T) {
	// With only the upper 4 lanes active, a CMP that is true everywhere
	// must set flag bits only for those lanes.
	th := &Thread{}
	th.Reset(mustDecode(isa.Program{
		{Op: isa.OpCmp, Width: isa.SIMD8, DType: isa.U32, Cond: isa.CmpEQ, Flag: isa.F0,
			Src0: isa.ImmU32(1), Src1: isa.ImmU32(1)},
		{Op: isa.OpHalt, Width: isa.SIMD8},
	}), 8, 0xFF)
	th.Active = 0xF0
	mem := memory.NewFlat(1 << 12)
	for th.State == ThreadReady {
		th.Step(mem)
	}
	if th.Flags[0] != 0xF0 {
		t.Errorf("f0 = %#x, want 0xF0 (only active lanes updated)", th.Flags[0])
	}
}

func TestSelPicksPerLane(t *testing.T) {
	p := isa.Program{
		{Op: isa.OpSel, Width: isa.SIMD8, DType: isa.U32, Flag: isa.F0,
			Dst: isa.GRF(20), Src0: isa.ImmU32(111), Src1: isa.ImmU32(222)},
		{Op: isa.OpHalt, Width: isa.SIMD8},
	}
	th := &Thread{}
	th.Reset(mustDecode(p), 8, 0xFF)
	th.Flags[0] = 0xAA
	mem := memory.NewFlat(1 << 12)
	for th.State == ThreadReady {
		th.Step(mem)
	}
	for lane := 0; lane < 8; lane++ {
		want := uint32(222)
		if lane%2 == 1 {
			want = 111
		}
		if got := th.GRF.ReadU32(20*32 + lane*4); got != want {
			t.Errorf("lane %d = %d, want %d", lane, got, want)
		}
	}
}

func TestSendGatherScatter(t *testing.T) {
	mem := memory.NewFlat(1 << 16)
	buf := mem.Alloc(64 * 4)
	for i := 0; i < 64; i++ {
		mem.WriteU32(buf+uint32(i*4), uint32(1000+i))
	}
	// Gather lanes 0..7 from strided indices 0,2,4,... then scatter back
	// to indices 1,3,5,...
	p := isa.Program{
		{Op: isa.OpSend, Send: isa.SendLoadGather, Width: isa.SIMD8, DType: isa.U32,
			Dst: isa.GRF(20), Src0: isa.GRF(16)},
		{Op: isa.OpSend, Send: isa.SendStoreScatter, Width: isa.SIMD8, DType: isa.U32,
			Src0: isa.GRF(17), Src1: isa.GRF(20)},
		{Op: isa.OpHalt, Width: isa.SIMD8},
	}
	th := &Thread{}
	th.Reset(mustDecode(p), 8, 0xFF)
	for lane := 0; lane < 8; lane++ {
		th.GRF.WriteU32(16*32+lane*4, buf+uint32(lane*2*4))
		th.GRF.WriteU32(17*32+lane*4, buf+uint32((lane*2+1)*4))
	}
	var lineCounts []int
	for th.State == ThreadReady {
		res := th.Step(mem)
		if len(res.Lines) > 0 {
			lineCounts = append(lineCounts, len(res.Lines))
		}
	}
	for lane := 0; lane < 8; lane++ {
		if got := mem.ReadU32(buf + uint32((lane*2+1)*4)); got != uint32(1000+lane*2) {
			t.Errorf("scattered value at %d = %d", lane, got)
		}
	}
	// 8 lanes × stride 8 bytes cover 64 bytes = 1 line.
	if len(lineCounts) != 2 || lineCounts[0] != 1 || lineCounts[1] != 1 {
		t.Errorf("line counts = %v", lineCounts)
	}
}

func TestSendBlockLoad(t *testing.T) {
	mem := memory.NewFlat(1 << 16)
	buf := mem.Alloc(64)
	for i := 0; i < 16; i++ {
		mem.WriteU32(buf+uint32(i*4), uint32(i*i))
	}
	p := isa.Program{
		{Op: isa.OpSend, Send: isa.SendLoadBlock, Width: isa.SIMD8, DType: isa.U32,
			Dst: isa.GRF(20), Src0: isa.Scalar(16, 0)},
		{Op: isa.OpHalt, Width: isa.SIMD8},
	}
	th := &Thread{}
	th.Reset(mustDecode(p), 8, 0xFF)
	th.GRF.WriteU32(16*32, buf)
	for th.State == ThreadReady {
		th.Step(mem)
	}
	for lane := 0; lane < 8; lane++ {
		if got := th.GRF.ReadU32(20*32 + lane*4); got != uint32(lane*lane) {
			t.Errorf("block lane %d = %d", lane, got)
		}
	}
}

func TestSendAtomicAdd(t *testing.T) {
	mem := memory.NewFlat(1 << 16)
	ctr := mem.Alloc(4)
	p := isa.Program{
		{Op: isa.OpSend, Send: isa.SendAtomicAdd, Width: isa.SIMD8, DType: isa.U32,
			Dst: isa.GRF(20), Src0: isa.GRF(16), Src1: isa.ImmU32(1)},
		{Op: isa.OpHalt, Width: isa.SIMD8},
	}
	th := &Thread{}
	th.Reset(mustDecode(p), 8, 0xFF)
	for lane := 0; lane < 8; lane++ {
		th.GRF.WriteU32(16*32+lane*4, ctr)
	}
	for th.State == ThreadReady {
		th.Step(mem)
	}
	if got := mem.ReadU32(ctr); got != 8 {
		t.Errorf("counter = %d, want 8", got)
	}
	// Old values are the sequence 0..7 in lane order.
	for lane := 0; lane < 8; lane++ {
		if got := th.GRF.ReadU32(20*32 + lane*4); got != uint32(lane) {
			t.Errorf("lane %d old = %d, want %d", lane, got, lane)
		}
	}
}

func TestStatsRecordedPerInstr(t *testing.T) {
	th, _ := runProgram(t, isa.Program{
		{Op: isa.OpMov, Width: isa.SIMD16, DType: isa.U32, Dst: isa.GRF(20), Src0: isa.ImmU32(1)},
		{Op: isa.OpHalt, Width: isa.SIMD16},
	}, 16, 0xFFFF)
	th.Stats.Flush()
	if th.Stats.Instructions != 2 {
		t.Fatalf("instructions = %d, want 2 (mov + halt)", th.Stats.Instructions)
	}
	if th.Stats.ActiveLanes != 32 {
		t.Fatalf("active lanes = %d", th.Stats.ActiveLanes)
	}
}
