package eu

import (
	"bytes"
	"fmt"
	"math/bits"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"testing"

	"intrawarp/internal/isa"
	"intrawarp/internal/mask"
	"intrawarp/internal/memory"
)

var allDTypes = []isa.DataType{isa.F32, isa.S32, isa.U32, isa.F64, isa.U64, isa.F16, isa.U16}

// refImplements reports whether the reference interpreter defines the
// ALU (op, datatype) pair.
func refImplements(op isa.Opcode, dt isa.DataType) (ok bool) {
	defer func() {
		if recover() != nil {
			ok = false
		}
	}()
	alu(op, dt, 1, 1, 1)
	return true
}

// laneState is the architectural state one lane-loop check starts from.
type laneState struct {
	grf    []byte
	flags  [2]uint32
	active mask.Mask
}

func randomState(rng *rand.Rand) laneState {
	s := laneState{grf: make([]byte, 4096), flags: [2]uint32{rng.Uint32(), rng.Uint32()}}
	rng.Read(s.grf)
	switch rng.Intn(4) {
	case 0:
		s.active = ^mask.Mask(0)
	case 1:
		s.active = 0
	default:
		s.active = mask.Mask(rng.Uint32())
	}
	return s
}

// laneThread loads a one-instruction program (plus HALT) and the state.
func laneThread(tb testing.TB, in isa.Instruction, s laneState, slm *memory.SLM) *Thread {
	tb.Helper()
	prog, err := Decode(&isa.Kernel{Name: "lanes", Program: isa.Program{in, {Op: isa.OpHalt, Width: in.Width}}})
	if err != nil {
		tb.Fatalf("%s: %v", in.String(), err)
	}
	th := &Thread{}
	th.Reset(prog, 32, ^mask.Mask(0))
	copy(th.GRF.Bytes(), s.grf)
	th.Flags = s.flags
	th.Active = s.active
	th.SLM = slm
	return th
}

// memBase is the address of the test memory region: the first line
// past the reserved null line.
const memBase = memory.LineBytes

// checkLanes runs in once through the decoded lane loop and once
// through the reference interpreter from the same state, and reports
// any difference in the GRF, the flags, memory, the SLM, or the staged
// addresses.
func checkLanes(tb testing.TB, in isa.Instruction, s laneState, memInit []byte) {
	tb.Helper()
	newMem := func() (*memory.Flat, *memory.SLM) {
		mem := memory.NewFlat(memBase + len(memInit))
		slm := memory.NewSLM(len(memInit), 16)
		if mem.Alloc(len(memInit)) != memBase {
			tb.Fatal("test memory base moved")
		}
		for off := 0; off < len(memInit); off += 4 {
			v := le.Uint32(memInit[off:])
			mem.WriteU32(uint32(memBase+off), v)
			slm.WriteU32(uint32(off), v)
		}
		return mem, slm
	}
	mem, slm := newMem()
	refMem, refSLM := newMem()

	got := laneThread(tb, in, s, slm)
	res := got.Step(mem)
	ref := laneThread(tb, in, s, refSLM)
	em := ref.ExecMask(&in)
	addrs := ref.refExec(&in, uint32(em), refMem)

	where := fmt.Sprintf("%s active=%#x", in.String(), uint32(s.active))
	if res.Mask != em {
		tb.Fatalf("%s: mask %#x, reference %#x", where, res.Mask, em)
	}
	if g, r := got.GRF.Bytes(), ref.GRF.Bytes(); !bytes.Equal(g, r) {
		i := 0
		for g[i] == r[i] {
			i++
		}
		tb.Fatalf("%s: GRF byte %d (r%d.%d) = %#x, reference %#x", where, i, i/32, i%32, g[i], r[i])
	}
	if got.Flags != ref.Flags {
		tb.Fatalf("%s: flags %#x, reference %#x", where, got.Flags, ref.Flags)
	}
	if in.Op != isa.OpSend {
		return
	}
	for off := uint32(0); off < uint32(len(memInit)); off += 4 {
		if g, r := mem.ReadU32(memBase+off), refMem.ReadU32(memBase+off); g != r {
			tb.Fatalf("%s: memory %#x = %#x, reference %#x", where, memBase+off, g, r)
		}
		if g, r := slm.ReadU32(off), refSLM.ReadU32(off); g != r {
			tb.Fatalf("%s: SLM %#x = %#x, reference %#x", where, off, g, r)
		}
	}
	if in.Send.IsSLM() {
		if !slices.Equal(res.SLMOffsets, addrs) {
			tb.Fatalf("%s: SLM offsets %v, reference %v", where, res.SLMOffsets, addrs)
		}
	} else if want := memory.CoalesceLines(addrs); !slices.Equal(res.Lines, want) {
		tb.Fatalf("%s: lines %v, reference %v", where, res.Lines, want)
	}
}

// operandShapes returns operand layouts for an instruction of element
// size size: vector, scalar, immediate and null sources, destinations
// equal to, or one element ahead of or behind, a source, a scalar or a
// null destination, and unaligned sub-register offsets.
func operandShapes(size int) [][4]isa.Operand {
	imm := isa.Operand{Kind: isa.RegImm, Imm: 0x9E3779B97F4A7C15}
	return [][4]isa.Operand{
		{isa.GRF(60), isa.GRF(20), isa.GRF(30), isa.GRF(40)},
		{isa.GRF(60), isa.Scalar(20, 4), imm, isa.Null},
		{isa.GRF(60), imm, isa.GRF(30), isa.Scalar(40, 8)},
		{isa.GRF(20), isa.GRF(20), isa.GRF(30), isa.GRF(20)},
		{isa.GRFSub(20, size), isa.GRF(20), isa.GRF(30), isa.GRF(40)},
		{isa.GRF(20), isa.GRFSub(20, size), isa.GRFSub(30, 0), isa.GRF(20)},
		{isa.Scalar(60, 4), isa.GRF(20), isa.GRF(30), isa.GRF(40)},
		{isa.Null, isa.GRF(20), isa.GRF(30), isa.GRF(40)},
		{isa.GRFSub(60, 1), isa.GRFSub(20, 3), isa.GRFSub(30, 6), isa.GRFSub(40, 5)},
		{isa.GRFSub(21, 2), isa.Scalar(21, 6), isa.GRFSub(21, 0), isa.GRF(40)},
	}
}

var laneWidths = []isa.Width{isa.SIMD1, isa.SIMD4, isa.SIMD8, isa.SIMD16, isa.SIMD32}

// TestLaneLoopsMatchReference checks every decoded lane loop against the
// reference interpreter bit for bit: each ALU (op, datatype) pair the
// reference defines (and Decode rejecting every pair it does not), each
// CMP (condition, datatype), SEL on every datatype and every SEND op,
// over every operand shape at every SIMD width from random states.
func TestLaneLoopsMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	memInit := make([]byte, 256)
	check := func(in isa.Instruction) {
		for i, shape := range operandShapes(in.DType.Size()) {
			in.Dst, in.Src0, in.Src1, in.Src2 = shape[0], shape[1], shape[2], shape[3]
			in.Width = laneWidths[i%len(laneWidths)]
			for n := 0; n < 4; n++ {
				rng.Read(memInit)
				checkLanes(t, in, randomState(rng), memInit)
			}
		}
	}

	pairs := 0
	for op := isa.OpNop + 1; op <= isa.OpPow; op++ {
		if op == isa.OpCmp || op == isa.OpSel {
			continue
		}
		for _, dt := range allDTypes {
			in := isa.Instruction{Op: op, Width: isa.SIMD16, DType: dt, Dst: isa.GRF(60), Src0: isa.GRF(20)}
			_, err := Decode(&isa.Kernel{Name: "pair", Program: isa.Program{in}})
			if ok := refImplements(op, dt); ok != (err == nil) {
				t.Errorf("%s.%s: reference implements it: %v; decode error: %v", op, dt, ok, err)
				continue
			} else if !ok {
				continue
			}
			pairs++
			check(in)
		}
	}
	if pairs < 80 {
		t.Fatalf("only %d ALU pairs checked", pairs)
	}
	for c := isa.CmpEQ; c <= isa.CmpGE; c++ {
		for _, dt := range allDTypes {
			check(isa.Instruction{Op: isa.OpCmp, DType: dt, Cond: c, Flag: isa.FlagReg(int(c) % 2)})
		}
	}
	for _, dt := range allDTypes {
		check(isa.Instruction{Op: isa.OpSel, DType: dt, Flag: isa.F1})
	}

	// SENDs address memory through r20 (addresses, or SLM offsets), all
	// pointing into the 256-byte region, with repeats so atomics hit one
	// word from several lanes. A load destination may equal the address
	// operand, but not overlap it shifted: that would turn loaded data
	// into later lanes' addresses.
	imm := isa.Operand{Kind: isa.RegImm, Imm: 0x9E3779B97F4A7C15}
	sendShapes := [][3]isa.Operand{
		{isa.GRF(60), isa.GRF(20), isa.GRF(30)},
		{isa.GRF(40), isa.Scalar(20, 8), imm},
		{isa.Scalar(60, 4), isa.GRF(20), isa.Scalar(30, 4)},
		{isa.Null, isa.GRF(20), isa.GRFSub(30, 6)},
		{isa.GRFSub(60, 1), isa.GRF(20), isa.Null},
		{isa.GRF(30), isa.GRF(20), isa.GRF(30)},
	}
	for send := isa.SendLoadGather; send <= isa.SendAtomicMin; send++ {
		in := isa.Instruction{Op: isa.OpSend, Send: send, DType: isa.U32}
		for i, shape := range sendShapes {
			in.Dst, in.Src0, in.Src1 = shape[0], shape[1], shape[2]
			if !send.IsLoad() {
				in.Dst = isa.Null
			}
			in.Width = laneWidths[i%len(laneWidths)]
			for n := 0; n < 4; n++ {
				s := randomState(rng)
				base := uint32(memBase)
				if send.IsSLM() {
					base = 0
				}
				for l := 0; l < 32; l++ {
					le.PutUint32(s.grf[20*32+4*l:], base+uint32(4*rng.Intn(32)))
				}
				if send == isa.SendLoadBlock || send == isa.SendStoreBlock {
					le.PutUint32(s.grf[20*32:], base+4*uint32(rng.Intn(8)))
					le.PutUint32(s.grf[20*32+8:], base+4*uint32(rng.Intn(8)))
				}
				rng.Read(memInit)
				checkLanes(t, in, s, memInit)
			}
		}
	}
}

// TestMadRoundsProduct pins the non-fused mad: on these operands x*y+z
// computed with one rounding (an FMA) differs from rounding the product
// first. The F32 case: (1+2⁻¹²)² = 1+2⁻¹¹+2⁻²⁴ rounds to 1+2⁻¹¹, so adding
// -(1+2⁻¹¹) gives 0, where an FMA gives 2⁻²⁴. The F64 case is the same
// with 2⁻²⁷, 2⁻²⁶ and 2⁻⁵⁴.
func TestMadRoundsProduct(t *testing.T) {
	x32 := float32(1 + 1.0/(1<<12))
	z32 := -float32(1 + 1.0/(1<<11))
	x64 := 1 + 1.0/(1<<27)
	z64 := -(1 + 1.0/(1<<26))
	cases := []struct {
		dt      isa.DataType
		x, z    uint64
		rounded uint64
	}{
		{isa.F32, uint64(bits32(x32)), uint64(bits32(z32)), uint64(bits32(0))},
		{isa.F64, bits64(x64), bits64(z64), bits64(0)},
	}
	for _, c := range cases {
		in := isa.Instruction{Op: isa.OpMad, Width: isa.SIMD8, DType: c.dt, Dst: isa.GRF(40),
			Src0: isa.Operand{Kind: isa.RegImm, Imm: c.x}, Src1: isa.Operand{Kind: isa.RegImm, Imm: c.x},
			Src2: isa.Operand{Kind: isa.RegImm, Imm: c.z}}
		th := laneThread(t, in, laneState{grf: make([]byte, 4096), active: 0xFF}, nil)
		th.Step(nil)
		for lane := 0; lane < 8; lane++ {
			var got uint64
			if c.dt == isa.F64 {
				got = th.GRF.ReadU64(40*32 + 8*lane)
			} else {
				got = uint64(th.GRF.ReadU32(40*32 + 4*lane))
			}
			if got != c.rounded {
				t.Fatalf("mad.%s lane %d = %#x, want %#x (product rounded before the add)", c.dt, lane, got, c.rounded)
			}
		}
		if ref := alu(isa.OpMad, c.dt, c.x, c.x, c.z); ref != c.rounded {
			t.Fatalf("reference mad.%s = %#x, want %#x", c.dt, ref, c.rounded)
		}
	}
}

// FuzzLaneLoop draws one ALU, CMP or SEL instruction — opcode, datatype,
// condition, SIMD width, operand kinds, registers and sub-offsets from a
// narrow register window so operands overlap — plus an execution mask,
// flags and GRF contents, and checks the decoded lane loop against the
// reference interpreter. Instructions Decode rejects are skipped.
func FuzzLaneLoop(f *testing.F) {
	f.Add([]byte{byte(isa.OpAdd), byte(isa.U32), 0, 3, 1, 0, 1, 2, 1, 4, 1, 8, 0, 0, 0xff, 0xff}, int64(1))
	f.Add([]byte{byte(isa.OpMad), byte(isa.F32), 0, 4, 1, 1, 3, 2, 1, 4, 2, 0, 0, 0, 0x0f, 0xf0}, int64(2))
	f.Add([]byte{byte(isa.OpCmp), byte(isa.S32), 2, 3, 0, 0, 1, 2, 1, 4, 0, 0, 0, 0, 0xaa, 0xaa}, int64(3))
	f.Add([]byte{byte(isa.OpSel), byte(isa.F64), 0, 2, 3, 2, 1, 1, 1, 0, 0, 0, 0, 0, 0x33, 0x33}, int64(4))
	f.Add([]byte{byte(isa.OpShl), byte(isa.U16), 0, 4, 1, 3, 1, 1, 2, 7, 0, 0, 0, 0, 0xff, 0x7f}, int64(5))
	f.Fuzz(func(t *testing.T, b []byte, seed int64) {
		if len(b) < 16 {
			return
		}
		operand := func(kind, at byte) isa.Operand {
			reg, sub := 20+int(at>>4)%4, int(at&0xF)
			switch kind % 4 {
			case 1:
				return isa.GRFSub(reg, sub)
			case 2:
				return isa.Operand{Kind: isa.RegImm, Imm: uint64(seed) * 0x9E3779B97F4A7C15}
			case 3:
				return isa.Scalar(reg, sub)
			}
			return isa.Null
		}
		in := isa.Instruction{
			Op:    isa.Opcode(b[0] % byte(isa.OpPow+1)),
			DType: allDTypes[int(b[1])%len(allDTypes)],
			Cond:  isa.CondMod(b[2] % 6),
			Width: laneWidths[int(b[3])%len(laneWidths)],
			Flag:  isa.FlagReg(b[4] % 2),
			Dst:   operand(b[5], b[6]),
			Src0:  operand(b[7], b[8]),
			Src1:  operand(b[9], b[10]),
			Src2:  operand(b[11], b[12]),
		}
		if in.Op == isa.OpNop {
			return
		}
		if _, err := Decode(&isa.Kernel{Name: "fuzz", Program: isa.Program{in}}); err != nil {
			return
		}
		rng := rand.New(rand.NewSource(seed))
		s := randomState(rng)
		s.active = mask.Mask(le.Uint16(b[14:]))<<uint(b[13]%17) | mask.Mask(b[13])
		copy(s.grf[20*32:], b[16:])
		checkLanes(t, in, s, nil)
	})
}

// inlinePairs lists the (op, datatype) pairs whose lane loop writes
// the operation inline, with that loop. It is written out rather than
// read from the decode tables, so an edit that drops a pair back to the
// op-call loop fails TestInlineLaneLoops.
var inlinePairs = []struct {
	op   isa.Opcode
	dt   isa.DataType
	loop laneLoop
}{
	{isa.OpMov, isa.F32, mov4}, {isa.OpMov, isa.S32, mov4}, {isa.OpMov, isa.U32, mov4},
	{isa.OpAnd, isa.F32, and4}, {isa.OpAnd, isa.S32, and4}, {isa.OpAnd, isa.U32, and4},
	{isa.OpXor, isa.F32, xor4}, {isa.OpXor, isa.S32, xor4}, {isa.OpXor, isa.U32, xor4},
	{isa.OpShl, isa.F32, shl4}, {isa.OpShl, isa.S32, shl4}, {isa.OpShl, isa.U32, shl4},
	{isa.OpShr, isa.F32, shr4}, {isa.OpShr, isa.S32, shr4}, {isa.OpShr, isa.U32, shr4},
	{isa.OpAdd, isa.S32, addI32}, {isa.OpAdd, isa.U32, addI32}, {isa.OpAdd, isa.F32, addF32},
	{isa.OpSub, isa.F32, subF32},
	{isa.OpMul, isa.S32, mulI32}, {isa.OpMul, isa.U32, mulI32}, {isa.OpMul, isa.F32, mulF32},
	{isa.OpMad, isa.S32, madI32}, {isa.OpMad, isa.U32, madI32}, {isa.OpMad, isa.F32, madF32},
	{isa.OpCmp, isa.U32, cmpU32}, {isa.OpCmp, isa.F32, cmpF32},
}

// TestInlineLaneLoops checks that each pair of inlinePairs decodes to
// its inline loop, for a CMP under every condition, and that a pair
// outside the list still decodes to the loop of its element size.
func TestInlineLaneLoops(t *testing.T) {
	decodeRun := func(in isa.Instruction) uintptr {
		t.Helper()
		in.Width, in.Dst, in.Src0, in.Src1 = isa.SIMD16, isa.GRF(60), isa.GRF(20), isa.GRF(30)
		if in.Op == isa.OpCmp {
			in.Dst = isa.Null
		}
		p, err := Decode(&isa.Kernel{Name: "inline", Program: isa.Program{in}})
		if err != nil {
			t.Fatalf("%s: %v", in.String(), err)
		}
		return reflect.ValueOf(p.code[0].run).Pointer()
	}
	for _, c := range inlinePairs {
		want := reflect.ValueOf(c.loop).Pointer()
		conds := []isa.CondMod{isa.CmpEQ}
		if c.op == isa.OpCmp {
			conds = []isa.CondMod{isa.CmpEQ, isa.CmpNE, isa.CmpLT, isa.CmpLE, isa.CmpGT, isa.CmpGE}
		}
		for _, cond := range conds {
			if got := decodeRun(isa.Instruction{Op: c.op, DType: c.dt, Cond: cond}); got != want {
				t.Errorf("%s.%s (cond %s) decodes to %s, want %s", c.op, c.dt, cond,
					runtime.FuncForPC(got).Name(), runtime.FuncForPC(want).Name())
			}
		}
	}
	for _, c := range []struct {
		in   isa.Instruction
		loop laneLoop
	}{
		{isa.Instruction{Op: isa.OpMin, DType: isa.F32}, alu4},
		{isa.Instruction{Op: isa.OpAdd, DType: isa.U16}, alu2},
		{isa.Instruction{Op: isa.OpAdd, DType: isa.F64}, alu8},
		{isa.Instruction{Op: isa.OpCmp, DType: isa.S32, Cond: isa.CmpLT}, cmp4},
	} {
		if got, want := decodeRun(c.in), reflect.ValueOf(c.loop).Pointer(); got != want {
			t.Errorf("%s.%s decodes to %s, want the op-call loop %s", c.in.Op, c.in.DType,
				runtime.FuncForPC(got).Name(), runtime.FuncForPC(want).Name())
		}
	}
}

// BenchmarkLaneLoop times the decoded lane loop of one SIMD16
// instruction, alone, at a full and a half (alternate lanes) execution
// mask, and reports ns per enabled lane. A lane costs its loads, its
// operation and its store: a loop whose operand accesses stay out of
// line shows here at nearly twice the ns/lane. There is a row per
// inline loop, SEL's loop, and min.f32, which calls its operation once
// per lane, as the control. One op is 1,024 runs of the loop, so even
// make bench's one-iteration smoke pass times a span the clock
// resolves.
func BenchmarkLaneLoop(b *testing.B) {
	const reps = 1024
	src := [3]isa.Operand{isa.GRF(20), isa.GRF(30), isa.GRF(40)}
	alu := func(op isa.Opcode, dt isa.DataType) isa.Instruction {
		return isa.Instruction{Op: op, DType: dt, Dst: isa.GRF(60), Src0: src[0], Src1: src[1], Src2: src[2]}
	}
	cmp := func(dt isa.DataType) isa.Instruction {
		return isa.Instruction{Op: isa.OpCmp, DType: dt, Cond: isa.CmpLT, Flag: isa.F0, Src0: src[0], Src1: src[1]}
	}
	for _, c := range []struct {
		name string
		in   isa.Instruction
	}{
		{"mov.u32", alu(isa.OpMov, isa.U32)},
		{"and.u32", alu(isa.OpAnd, isa.U32)},
		{"xor.u32", alu(isa.OpXor, isa.U32)},
		{"shl.u32", alu(isa.OpShl, isa.U32)},
		{"shr.u32", alu(isa.OpShr, isa.U32)},
		{"add.u32", alu(isa.OpAdd, isa.U32)},
		{"mul.u32", alu(isa.OpMul, isa.U32)},
		{"mad.u32", alu(isa.OpMad, isa.U32)},
		{"add.f32", alu(isa.OpAdd, isa.F32)},
		{"sub.f32", alu(isa.OpSub, isa.F32)},
		{"mul.f32", alu(isa.OpMul, isa.F32)},
		{"mad.f32", alu(isa.OpMad, isa.F32)},
		{"cmp.lt.u32", cmp(isa.U32)},
		{"cmp.lt.f32", cmp(isa.F32)},
		{"min.f32", alu(isa.OpMin, isa.F32)},
		{"sel.u32", isa.Instruction{Op: isa.OpSel, DType: isa.U32, Flag: isa.F0, Dst: isa.GRF(60), Src0: src[0], Src1: src[1]}},
	} {
		for _, m := range []struct {
			name string
			em   uint32
		}{{"full", 0xFFFF}, {"half", 0x5555}} {
			b.Run(c.name+"/"+m.name, func(b *testing.B) {
				in := c.in
				in.Width = isa.SIMD16
				// Normal floats in every register, so no lane takes a
				// denormal slow path.
				s := laneState{grf: make([]byte, 4096), flags: [2]uint32{0x3333, 0}, active: ^mask.Mask(0)}
				for i := 0; i < len(s.grf); i += 4 {
					le.PutUint32(s.grf[i:], bits32(float32(i%97)+0.5))
				}
				th := laneThread(b, in, s, nil)
				d := th.next()
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					for range reps {
						d.run(th, d, m.em, nil)
					}
				}
				lanes := float64(b.N) * reps * float64(bits.OnesCount32(m.em))
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/lanes, "ns/lane")
			})
		}
	}
}
