package eu

import (
	"encoding/binary"
	"math"
	"math/bits"

	"intrawarp/internal/isa"
	"intrawarp/internal/memory"
)

// laneLoop executes one decoded instruction over the enabled lanes em.
// Every loop visits lanes in ascending order and reads a lane's sources
// before it writes that lane's destination, so overlapping operands see
// the same bytes as a lane-by-lane interpreter, and a scalar destination
// keeps the last enabled lane's value.
type laneLoop func(t *Thread, d *decoded, em uint32, mem *memory.Flat)

var le = binary.LittleEndian

// src returns the bytes a source operand reads from lane 0 on: the
// thread's GRF, or the decoded immediate (zeros for a null operand).
func (t *Thread) src(o *operand) []byte {
	if o.grf {
		return t.GRF.Bytes()[o.off:]
	}
	return o.imm[:]
}

// dst returns the bytes a destination operand writes from lane 0 on:
// the thread's GRF, or, for a null destination, a per-thread sink whose
// contents nothing reads. Decode rejects immediate destinations.
func (t *Thread) dst(o *operand) []byte {
	if o.grf {
		return t.GRF.Bytes()[o.off:]
	}
	return t.sink[:]
}

// laneOp is the per-lane operation a lane loop applies: for an ALU
// instruction the function of its datatype's element size, for a CMP
// its comparison (the condition's outcome table is decoded.cond). Only
// the field of one element size is set. Decode points each instruction
// at an entry of the tables below. The lane loops are top-level
// functions that read the operation from here rather than closures over
// it, because the compiler inlines the operand accesses into a
// top-level function but not into the clone of a closure whose factory
// it inlined (DESIGN.md §9).
type laneOp struct {
	alu16 func(a, b, c uint16) uint16
	alu32 func(a, b, c uint32) uint32
	alu64 func(a, b, c uint64) uint64
	cmp16 func(a, b uint16) (lt, eq bool)
	cmp32 func(a, b uint32) (lt, eq bool)
	cmp64 func(a, b uint64) (lt, eq bool)
}

// laneLoopFor returns the lane loop of an ALU, CMP or SEL instruction
// and the per-lane operation it applies (nil for SEL and for a loop
// that writes its operation inline), or a nil loop when the opcode,
// condition or datatype has none.
func laneLoopFor(in *isa.Instruction) (laneLoop, *laneOp) {
	if in.DType > isa.U16 {
		return nil, nil
	}
	size := in.DType.Size()
	switch in.Op {
	case isa.OpCmp:
		if in.Cond > isa.CmpGE {
			return nil, nil
		}
		if f := cmpInline[in.DType]; f != nil {
			return f, nil
		}
		return cmpLoops[size], &cmpOps[in.DType]
	case isa.OpSel:
		return selLoops[size], nil
	}
	if int(in.Op) >= len(aluOps) {
		return nil, nil
	}
	if f := aluInline[in.Op][in.DType]; f != nil {
		return f, nil
	}
	op := &aluOps[in.Op][in.DType]
	if op.alu16 == nil && op.alu32 == nil && op.alu64 == nil {
		return nil, nil
	}
	return aluLoops[size], op
}

// Lane-loop tables, built once: the loops by element size and SEND op,
// the ALU operations by (opcode, datatype) and the CMP comparisons by
// datatype. A nil entry has no lane loop. aluInline and cmpInline hold
// the loops that write their operation inline, for the pairs that make
// up most executed lane instructions; every other pair runs the loop of
// its element size, which calls its operation once per lane.
var (
	aluInline = [isa.OpPow + 1][isa.U16 + 1]laneLoop{
		isa.OpMov: {isa.F32: mov4, isa.S32: mov4, isa.U32: mov4},
		isa.OpAnd: {isa.F32: and4, isa.S32: and4, isa.U32: and4},
		isa.OpXor: {isa.F32: xor4, isa.S32: xor4, isa.U32: xor4},
		isa.OpShl: {isa.F32: shl4, isa.S32: shl4, isa.U32: shl4},
		isa.OpShr: {isa.F32: shr4, isa.S32: shr4, isa.U32: shr4},
		isa.OpAdd: {isa.F32: addF32, isa.S32: addI32, isa.U32: addI32},
		isa.OpSub: {isa.F32: subF32},
		isa.OpMul: {isa.F32: mulF32, isa.S32: mulI32, isa.U32: mulI32},
		isa.OpMad: {isa.F32: madF32, isa.S32: madI32, isa.U32: madI32},
	}
	cmpInline = [isa.U16 + 1]laneLoop{isa.F32: cmpF32, isa.U32: cmpU32}
	aluLoops  = [9]laneLoop{2: alu2, 4: alu4, 8: alu8}
	cmpLoops  = [9]laneLoop{2: cmp2, 4: cmp4, 8: cmp8}
	selLoops  = [9]laneLoop{2: sel2, 4: sel4, 8: sel8}
	sendLoops = [...]laneLoop{
		isa.SendLoadGather:   sendLoadGather,
		isa.SendStoreScatter: sendStoreScatter,
		isa.SendLoadBlock:    sendLoadBlock,
		isa.SendStoreBlock:   sendStoreBlock,
		isa.SendLoadSLM:      sendLoadSLM,
		isa.SendStoreSLM:     sendStoreSLM,
		isa.SendAtomicAdd:    sendAtomicAdd,
		isa.SendAtomicMin:    sendAtomicMin,
	}
	aluOps [isa.OpPow + 1][isa.U16 + 1]laneOp
	cmpOps = [isa.U16 + 1]laneOp{
		isa.F32: {cmp32: func(a, b uint32) (bool, bool) { x, y := fl32(a), fl32(b); return x < y, x == y }},
		isa.S32: {cmp32: func(a, b uint32) (bool, bool) { return int32(a) < int32(b), a == b }},
		isa.U32: {cmp32: func(a, b uint32) (bool, bool) { return a < b, a == b }},
		isa.F64: {cmp64: func(a, b uint64) (bool, bool) { x, y := fl64(a), fl64(b); return x < y, x == y }},
		isa.U64: {cmp64: func(a, b uint64) (bool, bool) { return a < b, a == b }},
		isa.F16: {cmp16: func(a, b uint16) (bool, bool) { return a < b, a == b }},
		isa.U16: {cmp16: func(a, b uint16) (bool, bool) { return a < b, a == b }},
	}
)

func init() {
	for op := range aluOps {
		for dt := range aluOps[op] {
			aluOps[op][dt] = aluOpFor(isa.Opcode(op), isa.DataType(dt))
		}
	}
}

// aluOpFor returns the per-lane operation of one ALU (opcode, datatype)
// pair, with no function set when the pair has none. NOP, CMP and SEL
// are not ALU lane operations.
func aluOpFor(op isa.Opcode, dt isa.DataType) laneOp {
	switch dt.Size() {
	case 2:
		return laneOp{alu16: op16(op)}
	case 4:
		return laneOp{alu32: op32(op, dt)}
	case 8:
		return laneOp{alu64: op64(op, dt)}
	}
	return laneOp{}
}

func fl32(v uint32) float32   { return math.Float32frombits(v) }
func bits32(v float32) uint32 { return math.Float32bits(v) }
func fl64(v uint64) float64   { return math.Float64frombits(v) }
func bits64(v float64) uint64 { return math.Float64bits(v) }

// op32 returns the per-lane function of a 4-byte (F32, S32, U32)
// operation. The F32 mad rounds its product to float32 before the add:
// the explicit conversion forbids the compiler to fuse x*y+z into an
// FMA, so every platform computes what the simulated hardware does.
func op32(op isa.Opcode, dt isa.DataType) func(a, b, c uint32) uint32 {
	if f := opBits[uint32](op); f != nil {
		return f
	}
	if op == isa.OpAsr {
		return func(a, b, _ uint32) uint32 { return uint32(int32(a) >> (b & 31)) }
	}
	switch dt {
	case isa.F32:
		switch op {
		case isa.OpAdd:
			return func(a, b, _ uint32) uint32 { return bits32(fl32(a) + fl32(b)) }
		case isa.OpSub:
			return func(a, b, _ uint32) uint32 { return bits32(fl32(a) - fl32(b)) }
		case isa.OpMul:
			return func(a, b, _ uint32) uint32 { return bits32(fl32(a) * fl32(b)) }
		case isa.OpMad:
			return func(a, b, c uint32) uint32 { return bits32(float32(fl32(a)*fl32(b)) + fl32(c)) }
		case isa.OpMin:
			return func(a, b, _ uint32) uint32 {
				return bits32(float32(math.Min(float64(fl32(a)), float64(fl32(b)))))
			}
		case isa.OpMax:
			return func(a, b, _ uint32) uint32 {
				return bits32(float32(math.Max(float64(fl32(a)), float64(fl32(b)))))
			}
		case isa.OpAbs:
			return func(a, _, _ uint32) uint32 { return bits32(float32(math.Abs(float64(fl32(a))))) }
		case isa.OpFrc:
			return func(a, _, _ uint32) uint32 {
				x := fl32(a)
				return bits32(x - float32(math.Floor(float64(x))))
			}
		case isa.OpFlr:
			return func(a, _, _ uint32) uint32 { return bits32(float32(math.Floor(float64(fl32(a))))) }
		case isa.OpCvt:
			return func(a, _, _ uint32) uint32 { return uint32(int32(fl32(a))) }
		case isa.OpDiv:
			return func(a, b, _ uint32) uint32 { return bits32(fl32(a) / fl32(b)) }
		case isa.OpSqrt:
			return func(a, _, _ uint32) uint32 { return bits32(float32(math.Sqrt(float64(fl32(a))))) }
		case isa.OpRsqrt:
			return func(a, _, _ uint32) uint32 { return bits32(float32(1 / math.Sqrt(float64(fl32(a))))) }
		case isa.OpInv:
			return func(a, _, _ uint32) uint32 { return bits32(1 / fl32(a)) }
		case isa.OpSin:
			return func(a, _, _ uint32) uint32 { return bits32(float32(math.Sin(float64(fl32(a))))) }
		case isa.OpCos:
			return func(a, _, _ uint32) uint32 { return bits32(float32(math.Cos(float64(fl32(a))))) }
		case isa.OpExp:
			return func(a, _, _ uint32) uint32 { return bits32(float32(math.Exp2(float64(fl32(a))))) }
		case isa.OpLog:
			return func(a, _, _ uint32) uint32 { return bits32(float32(math.Log2(float64(fl32(a))))) }
		case isa.OpPow:
			return func(a, b, _ uint32) uint32 {
				return bits32(float32(math.Pow(float64(fl32(a)), float64(fl32(b)))))
			}
		}
	case isa.S32:
		switch op {
		case isa.OpAdd:
			return func(a, b, _ uint32) uint32 { return uint32(int32(a) + int32(b)) }
		case isa.OpSub:
			return func(a, b, _ uint32) uint32 { return uint32(int32(a) - int32(b)) }
		case isa.OpMul:
			return func(a, b, _ uint32) uint32 { return uint32(int32(a) * int32(b)) }
		case isa.OpMad:
			return func(a, b, c uint32) uint32 { return uint32(int32(a)*int32(b) + int32(c)) }
		case isa.OpMin:
			return func(a, b, _ uint32) uint32 { return uint32(min(int32(a), int32(b))) }
		case isa.OpMax:
			return func(a, b, _ uint32) uint32 { return uint32(max(int32(a), int32(b))) }
		case isa.OpAbs:
			return func(a, _, _ uint32) uint32 {
				if x := int32(a); x < 0 {
					return uint32(-x)
				}
				return a
			}
		case isa.OpCvt:
			return func(a, _, _ uint32) uint32 { return bits32(float32(int32(a))) }
		case isa.OpDiv:
			return func(a, b, _ uint32) uint32 {
				if b == 0 {
					return 0
				}
				return uint32(int32(a) / int32(b))
			}
		}
	case isa.U32:
		return opUnsigned[uint32](op)
	}
	return nil
}

// op64 returns the per-lane function of an 8-byte (F64, U64)
// operation. The F64 mad rounds its product as op32's F32 mad does.
func op64(op isa.Opcode, dt isa.DataType) func(a, b, c uint64) uint64 {
	if f := opBits[uint64](op); f != nil {
		return f
	}
	if op == isa.OpAsr {
		return func(a, b, _ uint64) uint64 { return uint64(int64(a) >> (b & 63)) }
	}
	switch dt {
	case isa.F64:
		switch op {
		case isa.OpAdd:
			return func(a, b, _ uint64) uint64 { return bits64(fl64(a) + fl64(b)) }
		case isa.OpSub:
			return func(a, b, _ uint64) uint64 { return bits64(fl64(a) - fl64(b)) }
		case isa.OpMul:
			return func(a, b, _ uint64) uint64 { return bits64(fl64(a) * fl64(b)) }
		case isa.OpMad:
			return func(a, b, c uint64) uint64 { return bits64(float64(fl64(a)*fl64(b)) + fl64(c)) }
		case isa.OpMin:
			return func(a, b, _ uint64) uint64 { return bits64(math.Min(fl64(a), fl64(b))) }
		case isa.OpMax:
			return func(a, b, _ uint64) uint64 { return bits64(math.Max(fl64(a), fl64(b))) }
		case isa.OpAbs:
			return func(a, _, _ uint64) uint64 { return bits64(math.Abs(fl64(a))) }
		case isa.OpSqrt:
			return func(a, _, _ uint64) uint64 { return bits64(math.Sqrt(fl64(a))) }
		case isa.OpDiv:
			return func(a, b, _ uint64) uint64 { return bits64(fl64(a) / fl64(b)) }
		case isa.OpCvt:
			return func(a, _, _ uint64) uint64 { return uint64(int64(fl64(a))) }
		}
	case isa.U64:
		return opUnsigned[uint64](op)
	}
	return nil
}

// op16 returns the per-lane function of a 2-byte operation. F16 has no
// float arithmetic: both 2-byte types compute as unsigned integers.
func op16(op isa.Opcode) func(a, b, c uint16) uint16 {
	if f := opBits[uint16](op); f != nil {
		return f
	}
	if op == isa.OpAsr {
		// The 2-byte element zero-extends to 32 bits, so the shift is
		// logical.
		return func(a, b, _ uint16) uint16 { return uint16(uint32(a) >> (b & 31)) }
	}
	return opUnsigned[uint16](op)
}

// opBits returns the per-lane function of a move, logic or logical
// shift on elements of type T: these ignore the datatype beyond its
// size. A shift by the element width or more gives 0.
func opBits[T uint16 | uint32 | uint64](op isa.Opcode) func(a, b, c T) T {
	switch op {
	case isa.OpMov:
		return func(a, _, _ T) T { return a }
	case isa.OpNot:
		return func(a, _, _ T) T { return ^a }
	case isa.OpAnd:
		return func(a, b, _ T) T { return a & b }
	case isa.OpOr:
		return func(a, b, _ T) T { return a | b }
	case isa.OpXor:
		return func(a, b, _ T) T { return a ^ b }
	case isa.OpShl:
		return func(a, b, _ T) T { return a << (b & 63) }
	case isa.OpShr:
		return func(a, b, _ T) T { return a >> (b & 63) }
	}
	return nil
}

// opUnsigned returns the per-lane function of an unsigned-integer
// arithmetic operation on elements of type T. CVT converts to F32 and
// keeps the low bytes of the float's bits that fit the element.
func opUnsigned[T uint16 | uint32 | uint64](op isa.Opcode) func(a, b, c T) T {
	switch op {
	case isa.OpAdd:
		return func(a, b, _ T) T { return a + b }
	case isa.OpSub:
		return func(a, b, _ T) T { return a - b }
	case isa.OpMul:
		return func(a, b, _ T) T { return a * b }
	case isa.OpMad:
		return func(a, b, c T) T { return a*b + c }
	case isa.OpMin:
		return func(a, b, _ T) T { return min(a, b) }
	case isa.OpMax:
		return func(a, b, _ T) T { return max(a, b) }
	case isa.OpAbs:
		return func(a, _, _ T) T { return a }
	case isa.OpCvt:
		return func(a, _, _ T) T { return T(bits32(float32(a))) }
	case isa.OpDiv:
		return func(a, b, _ T) T {
			if b == 0 {
				return 0
			}
			return a / b
		}
	}
	return nil
}

// ALU lane loops apply the decoded operation of the element size to
// each enabled lane's three sources.

func alu2(t *Thread, d *decoded, em uint32, _ *memory.Flat) {
	f := d.op.alu16
	x, y, z, w := t.src(&d.src[0]), t.src(&d.src[1]), t.src(&d.src[2]), t.dst(&d.dst)
	xs, ys, zs, ws := d.src[0].stride, d.src[1].stride, d.src[2].stride, d.dst.stride
	for ; em != 0; em &= em - 1 {
		l := bits.TrailingZeros32(em)
		le.PutUint16(w[l*ws:], f(le.Uint16(x[l*xs:]), le.Uint16(y[l*ys:]), le.Uint16(z[l*zs:])))
	}
}

func alu4(t *Thread, d *decoded, em uint32, _ *memory.Flat) {
	f := d.op.alu32
	x, y, z, w := t.src(&d.src[0]), t.src(&d.src[1]), t.src(&d.src[2]), t.dst(&d.dst)
	xs, ys, zs, ws := d.src[0].stride, d.src[1].stride, d.src[2].stride, d.dst.stride
	for ; em != 0; em &= em - 1 {
		l := bits.TrailingZeros32(em)
		le.PutUint32(w[l*ws:], f(le.Uint32(x[l*xs:]), le.Uint32(y[l*ys:]), le.Uint32(z[l*zs:])))
	}
}

func alu8(t *Thread, d *decoded, em uint32, _ *memory.Flat) {
	f := d.op.alu64
	x, y, z, w := t.src(&d.src[0]), t.src(&d.src[1]), t.src(&d.src[2]), t.dst(&d.dst)
	xs, ys, zs, ws := d.src[0].stride, d.src[1].stride, d.src[2].stride, d.dst.stride
	for ; em != 0; em &= em - 1 {
		l := bits.TrailingZeros32(em)
		le.PutUint64(w[l*ws:], f(le.Uint64(x[l*xs:]), le.Uint64(y[l*ys:]), le.Uint64(z[l*zs:])))
	}
}

// Inline ALU loops: each applies one 4-byte operation written out in
// the loop, so an enabled lane costs its loads, the operation and its
// store, with no call. Move, logic and logical shifts ignore the
// datatype beyond its size, and S32 and U32 add, mul and mad give the
// same bits, so those pairs share a loop. Each computes what the
// matching op32 function does.

func mov4(t *Thread, d *decoded, em uint32, _ *memory.Flat) {
	x, w := t.src(&d.src[0]), t.dst(&d.dst)
	xs, ws := d.src[0].stride, d.dst.stride
	for ; em != 0; em &= em - 1 {
		l := bits.TrailingZeros32(em)
		le.PutUint32(w[l*ws:], le.Uint32(x[l*xs:]))
	}
}

func and4(t *Thread, d *decoded, em uint32, _ *memory.Flat) {
	x, y, w := t.src(&d.src[0]), t.src(&d.src[1]), t.dst(&d.dst)
	xs, ys, ws := d.src[0].stride, d.src[1].stride, d.dst.stride
	for ; em != 0; em &= em - 1 {
		l := bits.TrailingZeros32(em)
		le.PutUint32(w[l*ws:], le.Uint32(x[l*xs:])&le.Uint32(y[l*ys:]))
	}
}

func xor4(t *Thread, d *decoded, em uint32, _ *memory.Flat) {
	x, y, w := t.src(&d.src[0]), t.src(&d.src[1]), t.dst(&d.dst)
	xs, ys, ws := d.src[0].stride, d.src[1].stride, d.dst.stride
	for ; em != 0; em &= em - 1 {
		l := bits.TrailingZeros32(em)
		le.PutUint32(w[l*ws:], le.Uint32(x[l*xs:])^le.Uint32(y[l*ys:]))
	}
}

func shl4(t *Thread, d *decoded, em uint32, _ *memory.Flat) {
	x, y, w := t.src(&d.src[0]), t.src(&d.src[1]), t.dst(&d.dst)
	xs, ys, ws := d.src[0].stride, d.src[1].stride, d.dst.stride
	for ; em != 0; em &= em - 1 {
		l := bits.TrailingZeros32(em)
		le.PutUint32(w[l*ws:], le.Uint32(x[l*xs:])<<(le.Uint32(y[l*ys:])&63))
	}
}

func shr4(t *Thread, d *decoded, em uint32, _ *memory.Flat) {
	x, y, w := t.src(&d.src[0]), t.src(&d.src[1]), t.dst(&d.dst)
	xs, ys, ws := d.src[0].stride, d.src[1].stride, d.dst.stride
	for ; em != 0; em &= em - 1 {
		l := bits.TrailingZeros32(em)
		le.PutUint32(w[l*ws:], le.Uint32(x[l*xs:])>>(le.Uint32(y[l*ys:])&63))
	}
}

func addI32(t *Thread, d *decoded, em uint32, _ *memory.Flat) {
	x, y, w := t.src(&d.src[0]), t.src(&d.src[1]), t.dst(&d.dst)
	xs, ys, ws := d.src[0].stride, d.src[1].stride, d.dst.stride
	for ; em != 0; em &= em - 1 {
		l := bits.TrailingZeros32(em)
		le.PutUint32(w[l*ws:], le.Uint32(x[l*xs:])+le.Uint32(y[l*ys:]))
	}
}

func mulI32(t *Thread, d *decoded, em uint32, _ *memory.Flat) {
	x, y, w := t.src(&d.src[0]), t.src(&d.src[1]), t.dst(&d.dst)
	xs, ys, ws := d.src[0].stride, d.src[1].stride, d.dst.stride
	for ; em != 0; em &= em - 1 {
		l := bits.TrailingZeros32(em)
		le.PutUint32(w[l*ws:], le.Uint32(x[l*xs:])*le.Uint32(y[l*ys:]))
	}
}

func madI32(t *Thread, d *decoded, em uint32, _ *memory.Flat) {
	x, y, z, w := t.src(&d.src[0]), t.src(&d.src[1]), t.src(&d.src[2]), t.dst(&d.dst)
	xs, ys, zs, ws := d.src[0].stride, d.src[1].stride, d.src[2].stride, d.dst.stride
	for ; em != 0; em &= em - 1 {
		l := bits.TrailingZeros32(em)
		le.PutUint32(w[l*ws:], le.Uint32(x[l*xs:])*le.Uint32(y[l*ys:])+le.Uint32(z[l*zs:]))
	}
}

func addF32(t *Thread, d *decoded, em uint32, _ *memory.Flat) {
	x, y, w := t.src(&d.src[0]), t.src(&d.src[1]), t.dst(&d.dst)
	xs, ys, ws := d.src[0].stride, d.src[1].stride, d.dst.stride
	for ; em != 0; em &= em - 1 {
		l := bits.TrailingZeros32(em)
		le.PutUint32(w[l*ws:], bits32(fl32(le.Uint32(x[l*xs:]))+fl32(le.Uint32(y[l*ys:]))))
	}
}

func subF32(t *Thread, d *decoded, em uint32, _ *memory.Flat) {
	x, y, w := t.src(&d.src[0]), t.src(&d.src[1]), t.dst(&d.dst)
	xs, ys, ws := d.src[0].stride, d.src[1].stride, d.dst.stride
	for ; em != 0; em &= em - 1 {
		l := bits.TrailingZeros32(em)
		le.PutUint32(w[l*ws:], bits32(fl32(le.Uint32(x[l*xs:]))-fl32(le.Uint32(y[l*ys:]))))
	}
}

func mulF32(t *Thread, d *decoded, em uint32, _ *memory.Flat) {
	x, y, w := t.src(&d.src[0]), t.src(&d.src[1]), t.dst(&d.dst)
	xs, ys, ws := d.src[0].stride, d.src[1].stride, d.dst.stride
	for ; em != 0; em &= em - 1 {
		l := bits.TrailingZeros32(em)
		le.PutUint32(w[l*ws:], bits32(fl32(le.Uint32(x[l*xs:]))*fl32(le.Uint32(y[l*ys:]))))
	}
}

// madF32 rounds the product to float32 before the add, as op32's F32
// mad does.
func madF32(t *Thread, d *decoded, em uint32, _ *memory.Flat) {
	x, y, z, w := t.src(&d.src[0]), t.src(&d.src[1]), t.src(&d.src[2]), t.dst(&d.dst)
	xs, ys, zs, ws := d.src[0].stride, d.src[1].stride, d.src[2].stride, d.dst.stride
	for ; em != 0; em &= em - 1 {
		l := bits.TrailingZeros32(em)
		a, b, c := fl32(le.Uint32(x[l*xs:])), fl32(le.Uint32(y[l*ys:])), fl32(le.Uint32(z[l*zs:]))
		le.PutUint32(w[l*ws:], bits32(float32(a*b)+c))
	}
}

// holds evaluates condition c from the lane's less-than and equal
// outcomes.
func holds(c isa.CondMod, lt, eq bool) bool {
	switch c {
	case isa.CmpEQ:
		return eq
	case isa.CmpNE:
		return !eq
	case isa.CmpLT:
		return lt
	case isa.CmpLE:
		return lt || eq
	case isa.CmpGT:
		return !lt && !eq
	default: // CmpGE
		return !lt
	}
}

// condTable lists, for each (lt, eq) outcome indexed lt*2+eq, whether
// condition c holds, so a CMP lane loop picks its flag bit with one
// table lookup instead of a switch on the condition.
func condTable(c isa.CondMod) [4]bool {
	var t [4]bool
	for i := range t {
		t[i] = holds(c, i&2 != 0, i&1 != 0)
	}
	return t
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// CMP lane loops set each enabled lane's flag bit to whether the
// decoded condition holds between its two sources. GT and GE are the
// negations of LT and LE-or-EQ as the condition codes define them, so a
// NaN operand compares true under NE, GT and GE.

func cmp2(t *Thread, d *decoded, em uint32, _ *memory.Flat) {
	f, tab := d.op.cmp16, &d.cond
	x, y := t.src(&d.src[0]), t.src(&d.src[1])
	xs, ys := d.src[0].stride, d.src[1].stride
	var set uint32
	for v := em; v != 0; v &= v - 1 {
		l := bits.TrailingZeros32(v)
		lt, eq := f(le.Uint16(x[l*xs:]), le.Uint16(y[l*ys:]))
		if tab[b2i(lt)<<1|b2i(eq)] {
			set |= 1 << l
		}
	}
	t.Flags[d.in.Flag] = t.Flags[d.in.Flag]&^em | set
}

func cmp4(t *Thread, d *decoded, em uint32, _ *memory.Flat) {
	f, tab := d.op.cmp32, &d.cond
	x, y := t.src(&d.src[0]), t.src(&d.src[1])
	xs, ys := d.src[0].stride, d.src[1].stride
	var set uint32
	for v := em; v != 0; v &= v - 1 {
		l := bits.TrailingZeros32(v)
		lt, eq := f(le.Uint32(x[l*xs:]), le.Uint32(y[l*ys:]))
		if tab[b2i(lt)<<1|b2i(eq)] {
			set |= 1 << l
		}
	}
	t.Flags[d.in.Flag] = t.Flags[d.in.Flag]&^em | set
}

func cmp8(t *Thread, d *decoded, em uint32, _ *memory.Flat) {
	f, tab := d.op.cmp64, &d.cond
	x, y := t.src(&d.src[0]), t.src(&d.src[1])
	xs, ys := d.src[0].stride, d.src[1].stride
	var set uint32
	for v := em; v != 0; v &= v - 1 {
		l := bits.TrailingZeros32(v)
		lt, eq := f(le.Uint64(x[l*xs:]), le.Uint64(y[l*ys:]))
		if tab[b2i(lt)<<1|b2i(eq)] {
			set |= 1 << l
		}
	}
	t.Flags[d.in.Flag] = t.Flags[d.in.Flag]&^em | set
}

// Inline CMP loops write the comparison of one 4-byte datatype in the
// loop and keep the decoded condition table.

func cmpU32(t *Thread, d *decoded, em uint32, _ *memory.Flat) {
	tab := &d.cond
	x, y := t.src(&d.src[0]), t.src(&d.src[1])
	xs, ys := d.src[0].stride, d.src[1].stride
	var set uint32
	for v := em; v != 0; v &= v - 1 {
		l := bits.TrailingZeros32(v)
		a, b := le.Uint32(x[l*xs:]), le.Uint32(y[l*ys:])
		if tab[b2i(a < b)<<1|b2i(a == b)] {
			set |= 1 << l
		}
	}
	t.Flags[d.in.Flag] = t.Flags[d.in.Flag]&^em | set
}

func cmpF32(t *Thread, d *decoded, em uint32, _ *memory.Flat) {
	tab := &d.cond
	x, y := t.src(&d.src[0]), t.src(&d.src[1])
	xs, ys := d.src[0].stride, d.src[1].stride
	var set uint32
	for v := em; v != 0; v &= v - 1 {
		l := bits.TrailingZeros32(v)
		a, b := fl32(le.Uint32(x[l*xs:])), fl32(le.Uint32(y[l*ys:]))
		if tab[b2i(a < b)<<1|b2i(a == b)] {
			set |= 1 << l
		}
	}
	t.Flags[d.in.Flag] = t.Flags[d.in.Flag]&^em | set
}

// SEL copies src0 where the flag bit is set and src1 elsewhere; only
// the element size matters.

func sel2(t *Thread, d *decoded, em uint32, _ *memory.Flat) {
	x, y, w := t.src(&d.src[0]), t.src(&d.src[1]), t.dst(&d.dst)
	xs, ys, ws := d.src[0].stride, d.src[1].stride, d.dst.stride
	flag := t.Flags[d.in.Flag]
	for ; em != 0; em &= em - 1 {
		l := bits.TrailingZeros32(em)
		v := le.Uint16(y[l*ys:])
		if flag&(1<<l) != 0 {
			v = le.Uint16(x[l*xs:])
		}
		le.PutUint16(w[l*ws:], v)
	}
}

func sel4(t *Thread, d *decoded, em uint32, _ *memory.Flat) {
	x, y, w := t.src(&d.src[0]), t.src(&d.src[1]), t.dst(&d.dst)
	xs, ys, ws := d.src[0].stride, d.src[1].stride, d.dst.stride
	flag := t.Flags[d.in.Flag]
	for ; em != 0; em &= em - 1 {
		l := bits.TrailingZeros32(em)
		v := le.Uint32(y[l*ys:])
		if flag&(1<<l) != 0 {
			v = le.Uint32(x[l*xs:])
		}
		le.PutUint32(w[l*ws:], v)
	}
}

func sel8(t *Thread, d *decoded, em uint32, _ *memory.Flat) {
	x, y, w := t.src(&d.src[0]), t.src(&d.src[1]), t.dst(&d.dst)
	xs, ys, ws := d.src[0].stride, d.src[1].stride, d.dst.stride
	flag := t.Flags[d.in.Flag]
	for ; em != 0; em &= em - 1 {
		l := bits.TrailingZeros32(em)
		v := le.Uint64(y[l*ys:])
		if flag&(1<<l) != 0 {
			v = le.Uint64(x[l*xs:])
		}
		le.PutUint64(w[l*ws:], v)
	}
}

// SEND lane loops. Addresses and data are 32-bit. Global-memory loops
// stage each enabled lane's byte address in t.addrBuf, SLM loops each
// word offset in t.slmBuf, in lane order; Step coalesces the former
// into cache lines.

func sendLoadGather(t *Thread, d *decoded, em uint32, mem *memory.Flat) {
	a, w := t.src(&d.src[0]), t.dst(&d.dst)
	as, ws := d.src[0].stride, d.dst.stride
	addrs := t.addrBuf[:0]
	for ; em != 0; em &= em - 1 {
		l := bits.TrailingZeros32(em)
		addr := le.Uint32(a[l*as:])
		addrs = append(addrs, addr)
		le.PutUint32(w[l*ws:], mem.ReadU32(addr))
	}
	t.addrBuf = addrs
}

func sendStoreScatter(t *Thread, d *decoded, em uint32, mem *memory.Flat) {
	a, v := t.src(&d.src[0]), t.src(&d.src[1])
	as, vs := d.src[0].stride, d.src[1].stride
	addrs := t.addrBuf[:0]
	for ; em != 0; em &= em - 1 {
		l := bits.TrailingZeros32(em)
		addr := le.Uint32(a[l*as:])
		addrs = append(addrs, addr)
		mem.WriteU32(addr, le.Uint32(v[l*vs:]))
	}
	t.addrBuf = addrs
}

// Block SENDs address lane l at base+4l, base being src0's lane 0.

func sendLoadBlock(t *Thread, d *decoded, em uint32, mem *memory.Flat) {
	base, w := le.Uint32(t.src(&d.src[0])), t.dst(&d.dst)
	ws := d.dst.stride
	addrs := t.addrBuf[:0]
	for ; em != 0; em &= em - 1 {
		l := bits.TrailingZeros32(em)
		addr := base + uint32(l)*4
		addrs = append(addrs, addr)
		le.PutUint32(w[l*ws:], mem.ReadU32(addr))
	}
	t.addrBuf = addrs
}

func sendStoreBlock(t *Thread, d *decoded, em uint32, mem *memory.Flat) {
	base, v := le.Uint32(t.src(&d.src[0])), t.src(&d.src[1])
	vs := d.src[1].stride
	addrs := t.addrBuf[:0]
	for ; em != 0; em &= em - 1 {
		l := bits.TrailingZeros32(em)
		addr := base + uint32(l)*4
		addrs = append(addrs, addr)
		mem.WriteU32(addr, le.Uint32(v[l*vs:]))
	}
	t.addrBuf = addrs
}

func sendLoadSLM(t *Thread, d *decoded, em uint32, _ *memory.Flat) {
	a, w := t.src(&d.src[0]), t.dst(&d.dst)
	as, ws := d.src[0].stride, d.dst.stride
	offs := t.slmBuf[:0]
	for ; em != 0; em &= em - 1 {
		l := bits.TrailingZeros32(em)
		off := le.Uint32(a[l*as:])
		offs = append(offs, off)
		le.PutUint32(w[l*ws:], t.SLM.ReadU32(off))
	}
	t.slmBuf = offs
}

func sendStoreSLM(t *Thread, d *decoded, em uint32, _ *memory.Flat) {
	a, v := t.src(&d.src[0]), t.src(&d.src[1])
	as, vs := d.src[0].stride, d.src[1].stride
	offs := t.slmBuf[:0]
	for ; em != 0; em &= em - 1 {
		l := bits.TrailingZeros32(em)
		off := le.Uint32(a[l*as:])
		offs = append(offs, off)
		t.SLM.WriteU32(off, le.Uint32(v[l*vs:]))
	}
	t.slmBuf = offs
}

func sendAtomicAdd(t *Thread, d *decoded, em uint32, mem *memory.Flat) {
	sendAtomic(t, d, em, mem.AtomicAdd)
}

func sendAtomicMin(t *Thread, d *decoded, em uint32, mem *memory.Flat) {
	sendAtomic(t, d, em, mem.AtomicMin)
}

// sendAtomic applies op to each enabled lane's address and operand and
// returns the old value to the lane's destination.
func sendAtomic(t *Thread, d *decoded, em uint32, op func(addr, v uint32) uint32) {
	a, v, w := t.src(&d.src[0]), t.src(&d.src[1]), t.dst(&d.dst)
	as, vs, ws := d.src[0].stride, d.src[1].stride, d.dst.stride
	addrs := t.addrBuf[:0]
	for ; em != 0; em &= em - 1 {
		l := bits.TrailingZeros32(em)
		addr := le.Uint32(a[l*as:])
		addrs = append(addrs, addr)
		le.PutUint32(w[l*ws:], op(addr, le.Uint32(v[l*vs:])))
	}
	t.addrBuf = addrs
}
