// Package kbuild is a programmatic assembler for the simulated EU ISA: a
// kernel builder with a bump register allocator, automatic control-flow
// target patching for structured divergence, and typed emit helpers. All
// workloads in this repository are written against it, playing the role
// the OpenCL compiler plays in the paper's infrastructure.
package kbuild

import (
	"fmt"

	"intrawarp/internal/eu"
	"intrawarp/internal/isa"
)

// Builder incrementally constructs a kernel.
type Builder struct {
	name     string
	width    isa.Width
	prog     isa.Program
	nextReg  int
	slmBytes int
	ctl      []ctlFrame
	err      error
}

type ctlKind uint8

const (
	ctlIf ctlKind = iota
	ctlLoop
)

type ctlFrame struct {
	kind    ctlKind
	ifIdx   int
	elseIdx int // -1 until ELSE is emitted
	loopIdx int
	patches []int // BREAK/CONT indices awaiting the WHILE target
}

// New starts a kernel of the given SIMD width.
func New(name string, width isa.Width) *Builder {
	return &Builder{name: name, width: width, nextReg: eu.FirstFree}
}

// Width returns the kernel's SIMD width in lanes.
func (b *Builder) Width() int { return b.width.Lanes() }

// --- Introspection ---------------------------------------------------------
//
// Programmatic kernel producers (the corpus generator in internal/kgen)
// steer emission by the builder's live state instead of recovering from a
// failed Build: how much register file is left, how deep the open control
// stack is, whether a BREAK/CONT would be legal here, and whether the
// builder has already failed.

// Err returns the builder's sticky error: the first structural mistake
// (orphan ELSE/ENDIF/WHILE, BREAK/CONT outside a loop, register-file
// exhaustion). Once set it never changes — later emissions are recorded
// but Build reports the first failure.
func (b *Builder) Err() error { return b.err }

// Len returns the number of instructions emitted so far (before the HALT
// that Build appends).
func (b *Builder) Len() int { return len(b.prog) }

// ControlDepth returns the number of open IF/LOOP blocks.
func (b *Builder) ControlDepth() int { return len(b.ctl) }

// InLoop reports whether a BREAK or CONT would currently be legal, i.e.
// whether any open control block is a loop.
func (b *Builder) InLoop() bool { return b.inLoop() }

// FreeRegs returns the number of unallocated 32-byte registers left in
// the register file.
func (b *Builder) FreeRegs() int { return 128 - b.nextReg }

func (b *Builder) fail(format string, args ...interface{}) {
	if b.err == nil {
		b.err = fmt.Errorf("kbuild: kernel %s: %s", b.name, fmt.Sprintf(format, args...))
	}
}

// SetSLMBytes declares the kernel's shared-local-memory footprint per
// workgroup.
func (b *Builder) SetSLMBytes(n int) { b.slmBytes = n }

// --- Register allocation -------------------------------------------------

// regsFor returns the number of 32-byte registers a width-lane vector of
// the given element size occupies (at least one).
func (b *Builder) regsFor(size int) int {
	n := (b.width.Lanes()*size + 31) / 32
	if n < 1 {
		n = 1
	}
	return n
}

// Vec allocates a fresh vector register operand holding one 32-bit element
// per lane.
func (b *Builder) Vec() isa.Operand { return b.VecTyped(isa.U32) }

// VecTyped allocates a vector register operand for the given element type.
func (b *Builder) VecTyped(dt isa.DataType) isa.Operand {
	n := b.regsFor(dt.Size())
	if b.nextReg+n > 128 {
		b.fail("out of registers (need %d at r%d)", n, b.nextReg)
		return isa.Null
	}
	op := isa.GRF(b.nextReg)
	b.nextReg += n
	return op
}

// Mark returns the current allocation point; Release(mark) frees every
// register allocated since. Use as a scope for loop-body temporaries.
func (b *Builder) Mark() int { return b.nextReg }

// Release frees all registers allocated after the given mark.
func (b *Builder) Release(mark int) {
	if mark >= eu.FirstFree && mark <= b.nextReg {
		b.nextReg = mark
	}
}

// --- Payload accessors ----------------------------------------------------

// GlobalID returns the per-lane global work-item id vector (u32). For
// 2-dimensional launches this is the X coordinate.
func (b *Builder) GlobalID() isa.Operand { return isa.GRF(eu.IDReg) }

// GlobalIDY returns the per-lane global Y coordinate (2-D launches,
// SIMD8/16 only).
func (b *Builder) GlobalIDY() isa.Operand { return isa.GRF(eu.IDRegY) }

// GroupIDX returns the scalar workgroup X index (2-D launches).
func (b *Builder) GroupIDX() isa.Operand { return isa.Scalar(eu.PayloadReg, eu.R0GroupIDX) }

// GroupIDY returns the scalar workgroup Y index (2-D launches).
func (b *Builder) GroupIDY() isa.Operand { return isa.Scalar(eu.PayloadReg, eu.R0GroupIDY) }

// GlobalSizeX returns the scalar global X extent (2-D launches).
func (b *Builder) GlobalSizeX() isa.Operand { return isa.Scalar(eu.PayloadReg, eu.R0GlobalSizeX) }

// GroupID returns the scalar workgroup index.
func (b *Builder) GroupID() isa.Operand { return isa.Scalar(eu.PayloadReg, eu.R0GroupID) }

// LocalTID returns the scalar EU-thread index within the workgroup.
func (b *Builder) LocalTID() isa.Operand { return isa.Scalar(eu.PayloadReg, eu.R0LocalTID) }

// GroupSize returns the scalar workgroup size.
func (b *Builder) GroupSize() isa.Operand { return isa.Scalar(eu.PayloadReg, eu.R0GroupSize) }

// GlobalSize returns the scalar global work-item count.
func (b *Builder) GlobalSize() isa.Operand { return isa.Scalar(eu.PayloadReg, eu.R0GlobalSize) }

// Arg returns the i-th scalar kernel argument.
func (b *Builder) Arg(i int) isa.Operand {
	return isa.Scalar(eu.ArgBase+i/8, (i%8)*4)
}

// --- Immediates -----------------------------------------------------------

// F returns a float32 immediate operand.
func (b *Builder) F(v float32) isa.Operand { return isa.ImmF32(v) }

// U returns an unsigned 32-bit immediate operand.
func (b *Builder) U(v uint32) isa.Operand { return isa.ImmU32(v) }

// S returns a signed 32-bit immediate operand.
func (b *Builder) S(v int32) isa.Operand { return isa.ImmS32(v) }

// --- Emission -------------------------------------------------------------

// Emit appends a raw instruction, defaulting its width to the kernel's.
func (b *Builder) Emit(in isa.Instruction) int {
	if in.Width == 0 {
		in.Width = b.width
	}
	b.prog = append(b.prog, in)
	return len(b.prog) - 1
}

// Comment attaches an assembly comment to the most recent instruction.
func (b *Builder) Comment(format string, args ...interface{}) {
	if len(b.prog) > 0 {
		b.prog[len(b.prog)-1].Comment = fmt.Sprintf(format, args...)
	}
}

func (b *Builder) op(op isa.Opcode, dt isa.DataType, dst, s0, s1, s2 isa.Operand) {
	b.Emit(isa.Instruction{Op: op, DType: dt, Dst: dst, Src0: s0, Src1: s1, Src2: s2})
}

// Typed three-address helpers. The unsuffixed form is float32; U and S
// suffixes select unsigned and signed 32-bit integers.

// Mov copies src to dst (f32).
func (b *Builder) Mov(dst, src isa.Operand) { b.op(isa.OpMov, isa.F32, dst, src, isa.Null, isa.Null) }

// MovU copies src to dst (u32).
func (b *Builder) MovU(dst, src isa.Operand) { b.op(isa.OpMov, isa.U32, dst, src, isa.Null, isa.Null) }

// Add computes dst = s0 + s1 (f32).
func (b *Builder) Add(dst, s0, s1 isa.Operand) { b.op(isa.OpAdd, isa.F32, dst, s0, s1, isa.Null) }

// AddU computes dst = s0 + s1 (u32).
func (b *Builder) AddU(dst, s0, s1 isa.Operand) { b.op(isa.OpAdd, isa.U32, dst, s0, s1, isa.Null) }

// AddS computes dst = s0 + s1 (s32).
func (b *Builder) AddS(dst, s0, s1 isa.Operand) { b.op(isa.OpAdd, isa.S32, dst, s0, s1, isa.Null) }

// Sub computes dst = s0 - s1 (f32).
func (b *Builder) Sub(dst, s0, s1 isa.Operand) { b.op(isa.OpSub, isa.F32, dst, s0, s1, isa.Null) }

// SubU computes dst = s0 - s1 (u32).
func (b *Builder) SubU(dst, s0, s1 isa.Operand) { b.op(isa.OpSub, isa.U32, dst, s0, s1, isa.Null) }

// Mul computes dst = s0 * s1 (f32).
func (b *Builder) Mul(dst, s0, s1 isa.Operand) { b.op(isa.OpMul, isa.F32, dst, s0, s1, isa.Null) }

// MulU computes dst = s0 * s1 (u32).
func (b *Builder) MulU(dst, s0, s1 isa.Operand) { b.op(isa.OpMul, isa.U32, dst, s0, s1, isa.Null) }

// Mad computes dst = s0*s1 + s2 (f32 FMA).
func (b *Builder) Mad(dst, s0, s1, s2 isa.Operand) { b.op(isa.OpMad, isa.F32, dst, s0, s1, s2) }

// MadU computes dst = s0*s1 + s2 (u32).
func (b *Builder) MadU(dst, s0, s1, s2 isa.Operand) { b.op(isa.OpMad, isa.U32, dst, s0, s1, s2) }

// Min computes dst = min(s0, s1) (f32).
func (b *Builder) Min(dst, s0, s1 isa.Operand) { b.op(isa.OpMin, isa.F32, dst, s0, s1, isa.Null) }

// Max computes dst = max(s0, s1) (f32).
func (b *Builder) Max(dst, s0, s1 isa.Operand) { b.op(isa.OpMax, isa.F32, dst, s0, s1, isa.Null) }

// MinU computes dst = min(s0, s1) (u32).
func (b *Builder) MinU(dst, s0, s1 isa.Operand) { b.op(isa.OpMin, isa.U32, dst, s0, s1, isa.Null) }

// MaxU computes dst = max(s0, s1) (u32).
func (b *Builder) MaxU(dst, s0, s1 isa.Operand) { b.op(isa.OpMax, isa.U32, dst, s0, s1, isa.Null) }

// Abs computes dst = |s0| (f32).
func (b *Builder) Abs(dst, s0 isa.Operand) { b.op(isa.OpAbs, isa.F32, dst, s0, isa.Null, isa.Null) }

// Frc computes dst = s0 - floor(s0) (f32).
func (b *Builder) Frc(dst, s0 isa.Operand) { b.op(isa.OpFrc, isa.F32, dst, s0, isa.Null, isa.Null) }

// Flr computes dst = floor(s0) (f32).
func (b *Builder) Flr(dst, s0 isa.Operand) { b.op(isa.OpFlr, isa.F32, dst, s0, isa.Null, isa.Null) }

// Div computes dst = s0 / s1 (f32, EM pipe).
func (b *Builder) Div(dst, s0, s1 isa.Operand) { b.op(isa.OpDiv, isa.F32, dst, s0, s1, isa.Null) }

// Sqrt computes dst = sqrt(s0) (EM pipe).
func (b *Builder) Sqrt(dst, s0 isa.Operand) { b.op(isa.OpSqrt, isa.F32, dst, s0, isa.Null, isa.Null) }

// Rsqrt computes dst = 1/sqrt(s0) (EM pipe).
func (b *Builder) Rsqrt(dst, s0 isa.Operand) { b.op(isa.OpRsqrt, isa.F32, dst, s0, isa.Null, isa.Null) }

// Inv computes dst = 1/s0 (EM pipe).
func (b *Builder) Inv(dst, s0 isa.Operand) { b.op(isa.OpInv, isa.F32, dst, s0, isa.Null, isa.Null) }

// Sin computes dst = sin(s0) (EM pipe).
func (b *Builder) Sin(dst, s0 isa.Operand) { b.op(isa.OpSin, isa.F32, dst, s0, isa.Null, isa.Null) }

// Cos computes dst = cos(s0) (EM pipe).
func (b *Builder) Cos(dst, s0 isa.Operand) { b.op(isa.OpCos, isa.F32, dst, s0, isa.Null, isa.Null) }

// Exp computes dst = 2^s0 (EM pipe).
func (b *Builder) Exp(dst, s0 isa.Operand) { b.op(isa.OpExp, isa.F32, dst, s0, isa.Null, isa.Null) }

// Log computes dst = log2(s0) (EM pipe).
func (b *Builder) Log(dst, s0 isa.Operand) { b.op(isa.OpLog, isa.F32, dst, s0, isa.Null, isa.Null) }

// ToF converts s32 to f32.
func (b *Builder) ToF(dst, s0 isa.Operand) { b.op(isa.OpCvt, isa.S32, dst, s0, isa.Null, isa.Null) }

// ToI converts f32 to s32 (truncating).
func (b *Builder) ToI(dst, s0 isa.Operand) { b.op(isa.OpCvt, isa.F32, dst, s0, isa.Null, isa.Null) }

// And computes dst = s0 & s1 (u32).
func (b *Builder) And(dst, s0, s1 isa.Operand) { b.op(isa.OpAnd, isa.U32, dst, s0, s1, isa.Null) }

// Or computes dst = s0 | s1 (u32).
func (b *Builder) Or(dst, s0, s1 isa.Operand) { b.op(isa.OpOr, isa.U32, dst, s0, s1, isa.Null) }

// Xor computes dst = s0 ^ s1 (u32).
func (b *Builder) Xor(dst, s0, s1 isa.Operand) { b.op(isa.OpXor, isa.U32, dst, s0, s1, isa.Null) }

// Shl computes dst = s0 << s1 (u32).
func (b *Builder) Shl(dst, s0, s1 isa.Operand) { b.op(isa.OpShl, isa.U32, dst, s0, s1, isa.Null) }

// Shr computes dst = s0 >> s1 (u32, logical).
func (b *Builder) Shr(dst, s0, s1 isa.Operand) { b.op(isa.OpShr, isa.U32, dst, s0, s1, isa.Null) }

// Cmp compares per lane (f32) and writes the result into flag f.
func (b *Builder) Cmp(f isa.FlagReg, cond isa.CondMod, s0, s1 isa.Operand) {
	b.Emit(isa.Instruction{Op: isa.OpCmp, DType: isa.F32, Cond: cond, Flag: f, Src0: s0, Src1: s1})
}

// CmpU compares per lane (u32) and writes the result into flag f.
func (b *Builder) CmpU(f isa.FlagReg, cond isa.CondMod, s0, s1 isa.Operand) {
	b.Emit(isa.Instruction{Op: isa.OpCmp, DType: isa.U32, Cond: cond, Flag: f, Src0: s0, Src1: s1})
}

// CmpS compares per lane (s32) and writes the result into flag f.
func (b *Builder) CmpS(f isa.FlagReg, cond isa.CondMod, s0, s1 isa.Operand) {
	b.Emit(isa.Instruction{Op: isa.OpCmp, DType: isa.S32, Cond: cond, Flag: f, Src0: s0, Src1: s1})
}

// Sel selects per lane on flag f: dst = f ? s0 : s1 (f32 move semantics).
func (b *Builder) Sel(f isa.FlagReg, dst, s0, s1 isa.Operand) {
	b.Emit(isa.Instruction{Op: isa.OpSel, DType: isa.U32, Flag: f, Dst: dst, Src0: s0, Src1: s1})
}

// --- Structured control flow ----------------------------------------------

// If opens a conditional block executing lanes where flag f is set.
func (b *Builder) If(f isa.FlagReg) {
	idx := b.Emit(isa.Instruction{Op: isa.OpIf, Pred: isa.PredNorm, Flag: f})
	b.ctl = append(b.ctl, ctlFrame{kind: ctlIf, ifIdx: idx, elseIdx: -1})
}

// Else switches the open conditional block to its complement lanes.
func (b *Builder) Else() {
	if len(b.ctl) == 0 || b.ctl[len(b.ctl)-1].kind != ctlIf || b.ctl[len(b.ctl)-1].elseIdx != -1 {
		b.fail("ELSE without open IF")
		return
	}
	idx := b.Emit(isa.Instruction{Op: isa.OpElse})
	top := &b.ctl[len(b.ctl)-1]
	top.elseIdx = idx
	b.prog[top.ifIdx].JumpTarget = int32(idx)
}

// EndIf closes the innermost conditional block.
func (b *Builder) EndIf() {
	if len(b.ctl) == 0 || b.ctl[len(b.ctl)-1].kind != ctlIf {
		b.fail("ENDIF without open IF")
		return
	}
	idx := b.Emit(isa.Instruction{Op: isa.OpEndIf})
	top := b.ctl[len(b.ctl)-1]
	b.ctl = b.ctl[:len(b.ctl)-1]
	if top.elseIdx >= 0 {
		b.prog[top.elseIdx].JumpTarget = int32(idx)
	} else {
		b.prog[top.ifIdx].JumpTarget = int32(idx)
	}
}

// Loop opens a divergence-aware loop; close it with While.
func (b *Builder) Loop() {
	idx := b.Emit(isa.Instruction{Op: isa.OpLoop})
	b.ctl = append(b.ctl, ctlFrame{kind: ctlLoop, loopIdx: idx})
}

// Break exits the loop for lanes where flag f is set.
func (b *Builder) Break(f isa.FlagReg) {
	if !b.inLoop() {
		b.fail("BREAK outside LOOP")
		return
	}
	idx := b.Emit(isa.Instruction{Op: isa.OpBreak, Pred: isa.PredNorm, Flag: f})
	b.addLoopPatch(idx)
}

// BreakAll exits the loop for all currently active lanes.
func (b *Builder) BreakAll() {
	if !b.inLoop() {
		b.fail("BREAK outside LOOP")
		return
	}
	idx := b.Emit(isa.Instruction{Op: isa.OpBreak})
	b.addLoopPatch(idx)
}

// Cont skips to the next iteration for lanes where flag f is set.
func (b *Builder) Cont(f isa.FlagReg) {
	if !b.inLoop() {
		b.fail("CONT outside LOOP")
		return
	}
	idx := b.Emit(isa.Instruction{Op: isa.OpCont, Pred: isa.PredNorm, Flag: f})
	b.addLoopPatch(idx)
}

func (b *Builder) inLoop() bool {
	for _, f := range b.ctl {
		if f.kind == ctlLoop {
			return true
		}
	}
	return false
}

func (b *Builder) addLoopPatch(idx int) {
	for i := len(b.ctl) - 1; i >= 0; i-- {
		if b.ctl[i].kind == ctlLoop {
			b.ctl[i].patches = append(b.ctl[i].patches, idx)
			return
		}
	}
}

// While closes the innermost loop: lanes where flag f is set iterate
// again.
func (b *Builder) While(f isa.FlagReg) {
	if len(b.ctl) == 0 || b.ctl[len(b.ctl)-1].kind != ctlLoop {
		b.fail("WHILE without open LOOP")
		return
	}
	top := b.ctl[len(b.ctl)-1]
	b.ctl = b.ctl[:len(b.ctl)-1]
	idx := b.Emit(isa.Instruction{Op: isa.OpWhile, Pred: isa.PredNorm, Flag: f,
		JumpTarget: int32(top.loopIdx + 1)})
	for _, p := range top.patches {
		b.prog[p].JumpTarget = int32(idx)
	}
}

// --- Memory ----------------------------------------------------------------

// LoadGather loads one 32-bit word per lane from the per-lane byte
// addresses in addr.
func (b *Builder) LoadGather(dst, addr isa.Operand) {
	b.Emit(isa.Instruction{Op: isa.OpSend, Send: isa.SendLoadGather, DType: isa.U32, Dst: dst, Src0: addr})
}

// StoreScatter stores one 32-bit word per lane to the per-lane byte
// addresses in addr.
func (b *Builder) StoreScatter(addr, data isa.Operand) {
	b.Emit(isa.Instruction{Op: isa.OpSend, Send: isa.SendStoreScatter, DType: isa.U32, Src0: addr, Src1: data})
}

// LoadBlock loads lanes from consecutive words starting at the scalar
// byte address base.
func (b *Builder) LoadBlock(dst, base isa.Operand) {
	b.Emit(isa.Instruction{Op: isa.OpSend, Send: isa.SendLoadBlock, DType: isa.U32, Dst: dst, Src0: base})
}

// StoreBlock stores lanes to consecutive words starting at the scalar
// byte address base.
func (b *Builder) StoreBlock(base, data isa.Operand) {
	b.Emit(isa.Instruction{Op: isa.OpSend, Send: isa.SendStoreBlock, DType: isa.U32, Src0: base, Src1: data})
}

// LoadSLM loads one word per lane from the per-lane SLM byte offsets.
func (b *Builder) LoadSLM(dst, off isa.Operand) {
	b.Emit(isa.Instruction{Op: isa.OpSend, Send: isa.SendLoadSLM, DType: isa.U32, Dst: dst, Src0: off})
}

// StoreSLM stores one word per lane to the per-lane SLM byte offsets.
func (b *Builder) StoreSLM(off, data isa.Operand) {
	b.Emit(isa.Instruction{Op: isa.OpSend, Send: isa.SendStoreSLM, DType: isa.U32, Src0: off, Src1: data})
}

// AtomicAdd atomically adds data to the per-lane global addresses,
// returning the previous values in dst.
func (b *Builder) AtomicAdd(dst, addr, data isa.Operand) {
	b.Emit(isa.Instruction{Op: isa.OpSend, Send: isa.SendAtomicAdd, DType: isa.U32, Dst: dst, Src0: addr, Src1: data})
}

// AtomicMin atomically takes the unsigned min at the per-lane global
// addresses, returning the previous values in dst.
func (b *Builder) AtomicMin(dst, addr, data isa.Operand) {
	b.Emit(isa.Instruction{Op: isa.OpSend, Send: isa.SendAtomicMin, DType: isa.U32, Dst: dst, Src0: addr, Src1: data})
}

// Barrier emits a workgroup barrier.
func (b *Builder) Barrier() { b.Emit(isa.Instruction{Op: isa.OpBarrier}) }

// Addr computes the per-lane byte address base + index*scale into a fresh
// register and returns it.
func (b *Builder) Addr(base isa.Operand, index isa.Operand, scale uint32) isa.Operand {
	a := b.Vec()
	b.MadU(a, index, b.U(scale), base)
	return a
}

// --- Finishing -------------------------------------------------------------

// Build finalizes the kernel: appends HALT, validates, and returns it.
func (b *Builder) Build() (*isa.Kernel, error) {
	if b.err != nil {
		return nil, b.err
	}
	if len(b.ctl) != 0 {
		return nil, fmt.Errorf("kbuild: kernel %s: %d unclosed control blocks", b.name, len(b.ctl))
	}
	b.Emit(isa.Instruction{Op: isa.OpHalt})
	k := &isa.Kernel{Name: b.name, Program: b.prog, Width: b.width, SLMBytes: b.slmBytes}
	if err := k.Validate(); err != nil {
		return nil, err
	}
	return k, nil
}

// MustBuild is Build for hand-written kernels that are known valid.
func (b *Builder) MustBuild() *isa.Kernel {
	k, err := b.Build()
	if err != nil {
		panic(err)
	}
	return k
}
