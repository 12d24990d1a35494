package eu

import (
	"fmt"
	"math"
	"math/bits"

	"intrawarp/internal/isa"
	"intrawarp/internal/memory"
)

// This file is the lane-by-lane reference interpreter the decoded lane
// loops are checked against: per lane it reads each source through
// readElem, computes through alu or compare, and writes through
// writeElem, switching on operand kind, element size, opcode and
// datatype every time.

func sizeMask(dt isa.DataType) uint64 {
	switch dt.Size() {
	case 2:
		return 0xFFFF
	case 8:
		return ^uint64(0)
	default:
		return 0xFFFFFFFF
	}
}

// readElem reads one lane element of an operand.
func (t *Thread) readElem(o isa.Operand, lane int, dt isa.DataType) uint64 {
	size := dt.Size()
	var off int
	switch o.Kind {
	case isa.RegImm:
		return o.Imm & sizeMask(dt)
	case isa.RegNull:
		return 0
	case isa.RegScalar:
		off = o.ByteOffset()
	default:
		off = o.ByteOffset() + lane*size
	}
	switch size {
	case 2:
		return uint64(t.GRF.ReadU16(off))
	case 8:
		return t.GRF.ReadU64(off)
	default:
		return uint64(t.GRF.ReadU32(off))
	}
}

// writeElem writes one lane element of the destination operand.
func (t *Thread) writeElem(o isa.Operand, lane int, dt isa.DataType, v uint64) {
	if o.Kind == isa.RegNull {
		return
	}
	size := dt.Size()
	off := o.ByteOffset()
	if o.Kind != isa.RegScalar {
		off += lane * size
	}
	switch size {
	case 2:
		t.GRF.WriteU16(off, uint16(v))
	case 8:
		t.GRF.WriteU64(off, v)
	default:
		t.GRF.WriteU32(off, uint32(v))
	}
}

func f32(v uint64) float32     { return math.Float32frombits(uint32(v)) }
func fromF32(v float32) uint64 { return uint64(math.Float32bits(v)) }
func f64(v uint64) float64     { return math.Float64frombits(v) }
func fromF64(v float64) uint64 { return math.Float64bits(v) }

// alu computes one lane of a data instruction. It panics on an
// (op, datatype) pair the ISA does not define.
func alu(op isa.Opcode, dt isa.DataType, a, b, c uint64) uint64 {
	// Integer and bitwise operations are type-width generic.
	switch op {
	case isa.OpMov:
		return a & sizeMask(dt)
	case isa.OpNot:
		return ^a & sizeMask(dt)
	case isa.OpAnd:
		return a & b
	case isa.OpOr:
		return a | b
	case isa.OpXor:
		return a ^ b
	case isa.OpShl:
		return (a << (b & 63)) & sizeMask(dt)
	case isa.OpShr:
		return (a & sizeMask(dt)) >> (b & 63)
	case isa.OpAsr:
		switch dt.Size() {
		case 8:
			return uint64(int64(a) >> (b & 63))
		default:
			return uint64(uint32(int32(uint32(a)) >> (b & 31)))
		}
	}

	switch dt {
	case isa.F32:
		x, y, z := f32(a), f32(b), f32(c)
		switch op {
		case isa.OpAdd:
			return fromF32(x + y)
		case isa.OpSub:
			return fromF32(x - y)
		case isa.OpMul:
			return fromF32(x * y)
		case isa.OpMad:
			// The conversion rounds the product: Go may not fuse it.
			return fromF32(float32(x*y) + z)
		case isa.OpMin:
			return fromF32(float32(math.Min(float64(x), float64(y))))
		case isa.OpMax:
			return fromF32(float32(math.Max(float64(x), float64(y))))
		case isa.OpAbs:
			return fromF32(float32(math.Abs(float64(x))))
		case isa.OpFrc:
			return fromF32(x - float32(math.Floor(float64(x))))
		case isa.OpFlr:
			return fromF32(float32(math.Floor(float64(x))))
		case isa.OpCvt:
			return uint64(uint32(int32(x)))
		case isa.OpDiv:
			return fromF32(x / y)
		case isa.OpSqrt:
			return fromF32(float32(math.Sqrt(float64(x))))
		case isa.OpRsqrt:
			return fromF32(float32(1 / math.Sqrt(float64(x))))
		case isa.OpInv:
			return fromF32(1 / x)
		case isa.OpSin:
			return fromF32(float32(math.Sin(float64(x))))
		case isa.OpCos:
			return fromF32(float32(math.Cos(float64(x))))
		case isa.OpExp:
			return fromF32(float32(math.Exp2(float64(x))))
		case isa.OpLog:
			return fromF32(float32(math.Log2(float64(x))))
		case isa.OpPow:
			return fromF32(float32(math.Pow(float64(x), float64(y))))
		}
	case isa.F64:
		x, y, z := f64(a), f64(b), f64(c)
		switch op {
		case isa.OpAdd:
			return fromF64(x + y)
		case isa.OpSub:
			return fromF64(x - y)
		case isa.OpMul:
			return fromF64(x * y)
		case isa.OpMad:
			return fromF64(float64(x*y) + z)
		case isa.OpMin:
			return fromF64(math.Min(x, y))
		case isa.OpMax:
			return fromF64(math.Max(x, y))
		case isa.OpAbs:
			return fromF64(math.Abs(x))
		case isa.OpSqrt:
			return fromF64(math.Sqrt(x))
		case isa.OpDiv:
			return fromF64(x / y)
		case isa.OpCvt:
			return uint64(int64(x))
		}
	case isa.S32:
		x, y, z := int32(uint32(a)), int32(uint32(b)), int32(uint32(c))
		switch op {
		case isa.OpAdd:
			return uint64(uint32(x + y))
		case isa.OpSub:
			return uint64(uint32(x - y))
		case isa.OpMul:
			return uint64(uint32(x * y))
		case isa.OpMad:
			return uint64(uint32(x*y + z))
		case isa.OpMin:
			if x < y {
				return uint64(uint32(x))
			}
			return uint64(uint32(y))
		case isa.OpMax:
			if x > y {
				return uint64(uint32(x))
			}
			return uint64(uint32(y))
		case isa.OpAbs:
			if x < 0 {
				return uint64(uint32(-x))
			}
			return uint64(uint32(x))
		case isa.OpCvt:
			return fromF32(float32(x))
		case isa.OpDiv:
			if y == 0 {
				return 0
			}
			return uint64(uint32(x / y))
		}
	case isa.U32, isa.U64, isa.U16, isa.F16: // unsigned integers
		x, y, z := a&sizeMask(dt), b&sizeMask(dt), c&sizeMask(dt)
		switch op {
		case isa.OpAdd:
			return (x + y) & sizeMask(dt)
		case isa.OpSub:
			return (x - y) & sizeMask(dt)
		case isa.OpMul:
			return (x * y) & sizeMask(dt)
		case isa.OpMad:
			return (x*y + z) & sizeMask(dt)
		case isa.OpMin:
			if x < y {
				return x
			}
			return y
		case isa.OpMax:
			if x > y {
				return x
			}
			return y
		case isa.OpAbs:
			return x
		case isa.OpCvt:
			return fromF32(float32(x))
		case isa.OpDiv:
			if y == 0 {
				return 0
			}
			return x / y
		}
	}
	panic(fmt.Sprintf("eu: unimplemented op %s for %s", op, dt))
}

// compare evaluates the CMP condition for one lane.
func compare(cond isa.CondMod, dt isa.DataType, a, b uint64) bool {
	var lt, eq bool
	switch dt {
	case isa.F32:
		x, y := f32(a), f32(b)
		lt, eq = x < y, x == y
	case isa.F64:
		x, y := f64(a), f64(b)
		lt, eq = x < y, x == y
	case isa.S32:
		x, y := int32(uint32(a)), int32(uint32(b))
		lt, eq = x < y, x == y
	default:
		x, y := a&sizeMask(dt), b&sizeMask(dt)
		lt, eq = x < y, x == y
	}
	switch cond {
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
	case isa.CmpGE:
		return !lt
	}
	return false
}

// refExec executes one ALU, CMP, SEL or SEND instruction lane by lane
// under execution mask em through readElem, alu, compare and writeElem.
// For a SEND it returns the per-lane global addresses or SLM offsets,
// in lane order.
func (t *Thread) refExec(in *isa.Instruction, em uint32, mem *memory.Flat) []uint32 {
	var addrs []uint32
	switch in.Op {
	case isa.OpCmp:
		for v := em; v != 0; v &= v - 1 {
			lane := bits.TrailingZeros32(v)
			a := t.readElem(in.Src0, lane, in.DType)
			b := t.readElem(in.Src1, lane, in.DType)
			bit := uint32(1) << uint(lane)
			if compare(in.Cond, in.DType, a, b) {
				t.Flags[in.Flag] |= bit
			} else {
				t.Flags[in.Flag] &^= bit
			}
		}
	case isa.OpSel:
		flag := t.Flags[in.Flag]
		for v := em; v != 0; v &= v - 1 {
			lane := bits.TrailingZeros32(v)
			var val uint64
			if flag&(1<<uint(lane)) != 0 {
				val = t.readElem(in.Src0, lane, in.DType)
			} else {
				val = t.readElem(in.Src1, lane, in.DType)
			}
			t.writeElem(in.Dst, lane, in.DType, val)
		}
	case isa.OpSend:
		base := uint32(t.readElem(in.Src0, 0, isa.U32))
		for v := em; v != 0; v &= v - 1 {
			lane := bits.TrailingZeros32(v)
			addr := uint32(t.readElem(in.Src0, lane, isa.U32))
			if in.Send == isa.SendLoadBlock || in.Send == isa.SendStoreBlock {
				addr = base + uint32(lane)*4
			}
			addrs = append(addrs, addr)
			data := func() uint32 { return uint32(t.readElem(in.Src1, lane, isa.U32)) }
			switch in.Send {
			case isa.SendLoadGather, isa.SendLoadBlock:
				t.writeElem(in.Dst, lane, isa.U32, uint64(mem.ReadU32(addr)))
			case isa.SendStoreScatter, isa.SendStoreBlock:
				mem.WriteU32(addr, data())
			case isa.SendLoadSLM:
				t.writeElem(in.Dst, lane, isa.U32, uint64(t.SLM.ReadU32(addr)))
			case isa.SendStoreSLM:
				t.SLM.WriteU32(addr, data())
			case isa.SendAtomicAdd:
				t.writeElem(in.Dst, lane, isa.U32, uint64(mem.AtomicAdd(addr, data())))
			case isa.SendAtomicMin:
				t.writeElem(in.Dst, lane, isa.U32, uint64(mem.AtomicMin(addr, data())))
			default:
				panic(fmt.Sprintf("eu: unimplemented send %d", in.Send))
			}
		}
	default:
		for v := em; v != 0; v &= v - 1 {
			lane := bits.TrailingZeros32(v)
			a := t.readElem(in.Src0, lane, in.DType)
			b := t.readElem(in.Src1, lane, in.DType)
			c := t.readElem(in.Src2, lane, in.DType)
			t.writeElem(in.Dst, lane, in.DType, alu(in.Op, in.DType, a, b, c))
		}
	}
	return addrs
}
