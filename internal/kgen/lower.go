package kgen

import (
	"fmt"

	"intrawarp/internal/isa"
	"intrawarp/internal/kbuild"
)

// lowerer walks the statement AST emitting kbuild calls. Persistent
// registers (state vars, per-level loop counter/trip pairs, the SLM
// local id, dead extended-math sinks) are allocated once in the
// preamble; every statement's temporaries live inside a Mark/Release
// scope. Flag discipline: F0 belongs exclusively to loop while-
// conditions (written at body top and recomputed before WHILE); every
// other comparison — IF classes, SEL, BREAK/CONT — latches F1
// immediately before its single consumer.
type lowerer struct {
	b     *kbuild.Builder
	p     Params
	pr    *program
	v     []isa.Operand // state vars
	ctr   []isa.Operand // loop counters by nesting level
	trip  []isa.Operand // per-lane trip counts by nesting level
	lid   isa.Operand   // local id within the workgroup (SLM kernels)
	deadU isa.Operand   // atomic return sink
	deadA isa.Operand   // extended-math operand (f32)
	deadB isa.Operand   // extended-math result sink (f32)
}

// stateSalt derives the init hash salt of state var i from the kernel
// seed; shared with the evaluator.
func stateSalt(p Params, i int) uint32 {
	return uint32(p.Seed>>32) ^ (uint32(i) * 0x9E3779B1)
}

// lower assembles the AST into a validated kernel.
func lower(name string, pr *program) (*isa.Kernel, error) {
	p := pr.p
	b := kbuild.New(name, isa.Width(p.Width))
	lw := &lowerer{b: b, p: p, pr: pr}

	if pr.usesSLM {
		b.SetSLMBytes(p.GroupSize() * 4)
	}

	// Preamble: persistent registers.
	lw.v = make([]isa.Operand, p.States)
	for i := range lw.v {
		lw.v[i] = b.Vec()
	}
	b.MovU(lw.v[0], b.GlobalID())
	b.Comment("v0 = gid")
	for i := 1; i < int(p.States); i++ {
		lw.emitHash(lw.v[i], b.GlobalID(), stateSalt(p, i))
		b.Comment("v%d = hash(gid)", i)
	}
	for d := 0; d < pr.loopLvls; d++ {
		lw.ctr = append(lw.ctr, b.Vec())
		lw.trip = append(lw.trip, b.Vec())
	}
	if pr.usesSLM {
		lw.lid = b.Vec()
		b.And(lw.lid, b.GlobalID(), b.U(uint32(p.GroupSize()-1)))
		b.Comment("lid")
	}
	if pr.usesAcc {
		lw.deadU = b.Vec()
	}
	if pr.usesEM {
		lw.deadA = b.VecTyped(isa.F32)
		lw.deadB = b.VecTyped(isa.F32)
	}

	lw.block(pr.stmts, 0)

	// Postamble: fold the state vars into out[gid] so every generated
	// kernel has a host-checkable result.
	mark := b.Mark()
	mix := b.Vec()
	b.MovU(mix, lw.v[0])
	for i := 1; i < int(p.States); i++ {
		b.MulU(mix, mix, b.U(0x01000193))
		b.Xor(mix, mix, lw.v[i])
	}
	addr := b.Addr(b.Arg(3), b.GlobalID(), 4)
	b.StoreScatter(addr, mix)
	b.Comment("out[gid] = fold(v)")
	b.Release(mark)

	if err := b.Err(); err != nil {
		return nil, fmt.Errorf("kgen: lowering %s: %w", name, err)
	}
	if b.ControlDepth() != 0 {
		return nil, fmt.Errorf("kgen: lowering %s: %d unclosed blocks", name, b.ControlDepth())
	}
	return b.Build()
}

// emitHash lowers hash32 exactly: MulU/AddU/Shr/Xor are all exact
// wraparound u32 ops, so device and evaluator agree bit for bit.
func (lw *lowerer) emitHash(dst, src isa.Operand, salt uint32) {
	b := lw.b
	m := b.Mark()
	t := b.Vec()
	b.MulU(dst, src, b.U(0x9E3779B1))
	b.AddU(dst, dst, b.U(salt))
	b.Shr(t, dst, b.U(16))
	b.Xor(dst, dst, t)
	b.MulU(dst, dst, b.U(0x85EBCA77))
	b.Shr(t, dst, b.U(13))
	b.Xor(dst, dst, t)
	b.Release(m)
}

// opnd converts an AST operand; loopDepth is the count of loops
// currently open (operand counters index levels below it).
func (lw *lowerer) opnd(o operand) isa.Operand {
	switch o.kind {
	case opndImm:
		return lw.b.U(o.imm)
	case opndCtr:
		return lw.ctr[o.idx]
	default:
		return lw.v[o.idx]
	}
}

func (lw *lowerer) block(stmts []stmt, loopDepth int) {
	for i := range stmts {
		lw.stmt(&stmts[i], loopDepth)
	}
}

func (lw *lowerer) stmt(s *stmt, loopDepth int) {
	b := lw.b
	switch s.kind {
	case stALU:
		dst, a, c := lw.v[s.dst], lw.opnd(s.a), lw.opnd(s.b)
		switch s.op {
		case aAdd:
			b.AddU(dst, a, c)
		case aSub:
			b.SubU(dst, a, c)
		case aMul:
			b.MulU(dst, a, c)
		case aMad:
			b.MadU(dst, a, c, lw.opnd(s.c))
		case aAnd:
			b.And(dst, a, c)
		case aOr:
			b.Or(dst, a, c)
		case aXor:
			b.Xor(dst, a, c)
		case aShl:
			b.Shl(dst, a, c)
		case aShr:
			b.Shr(dst, a, c)
		case aMin:
			b.MinU(dst, a, c)
		case aMax:
			b.MaxU(dst, a, c)
		}

	case stSel:
		b.CmpU(isa.F1, isa.CondMod(s.cond), lw.opnd(s.a), lw.opnd(s.b))
		b.Sel(isa.F1, lw.v[s.dst], lw.opnd(s.c), lw.v[s.dst])

	case stGather:
		m := b.Mark()
		idx := b.Vec()
		if s.indirect {
			lw.emitHash(idx, lw.v[s.a.idx], s.salt)
		} else {
			b.MadU(idx, b.GlobalID(), b.U(s.stride), b.U(s.offset))
		}
		b.And(idx, idx, b.U(uint32(lw.p.InWords-1)))
		addr := b.Addr(b.Arg(0), idx, 4)
		b.LoadGather(lw.v[s.dst], addr)
		b.Release(m)

	case stScatter:
		// One kernel-wide bijective slot map: no two lanes share a word.
		m := b.Mark()
		slot := b.Vec()
		b.MulU(slot, b.GlobalID(), b.U(lw.pr.odd))
		b.And(slot, slot, b.U(uint32(lw.p.Lanes()-1)))
		addr := b.Addr(b.Arg(1), slot, 4)
		b.StoreScatter(addr, lw.v[s.src])
		b.Comment("scratch[(gid*%#x)&%#x]", lw.pr.odd, lw.p.Lanes()-1)
		b.Release(m)

	case stAtomic:
		m := b.Mark()
		slot := b.Vec()
		lw.emitHash(slot, b.GlobalID(), s.salt)
		b.And(slot, slot, b.U(accWords-1))
		addr := b.Addr(b.Arg(2), slot, 4)
		b.AtomicAdd(lw.deadU, addr, lw.v[s.src])
		b.Release(m)

	case stSLM:
		// Distinct registers for the store and load offsets: the store
		// send may still hold its source operands in flight when the
		// load offset is computed.
		m := b.Mark()
		soff := b.Vec()
		loff := b.Vec()
		b.Shl(soff, lw.lid, b.U(2))
		b.StoreSLM(soff, lw.v[s.src])
		b.Barrier()
		b.AddU(loff, lw.lid, b.U(uint32(s.rot)))
		b.And(loff, loff, b.U(uint32(lw.p.GroupSize()-1)))
		b.Shl(loff, loff, b.U(2))
		b.LoadSLM(lw.v[s.dst], loff)
		b.Barrier()
		b.Comment("slm rotate %d", s.rot)
		b.Release(m)

	case stBarrier:
		b.Barrier()

	case stIf:
		m := b.Mark()
		t := b.Vec()
		b.Shr(t, b.GlobalID(), b.U(uint32(s.gran)))
		lw.emitHash(t, t, s.salt)
		b.And(t, t, b.U(255))
		b.CmpU(isa.F1, isa.CmpLT, t, b.U(uint32(s.thresh)))
		b.Release(m)
		b.If(isa.F1)
		lw.block(s.then, loopDepth)
		if s.els != nil {
			b.Else()
			lw.block(s.els, loopDepth)
		}
		b.EndIf()

	case stLoop:
		d := loopDepth
		ctr, trip := lw.ctr[d], lw.trip[d]
		lw.emitHash(trip, b.GlobalID(), s.salt)
		b.And(trip, trip, b.U(uint32(s.skew)))
		b.AddU(trip, trip, b.U(uint32(s.trips)))
		b.Comment("trips = %d + (hash&%d)", s.trips, s.skew)
		b.MovU(ctr, b.U(0))
		b.Loop()
		b.AddU(ctr, ctr, b.U(1))
		b.CmpU(isa.F0, isa.CmpLT, ctr, trip)
		lw.block(s.body, d+1)
		b.CmpU(isa.F0, isa.CmpLT, ctr, trip)
		b.While(isa.F0)

	case stBreak, stCont:
		if !b.InLoop() {
			// Structurally impossible by construction; fail loudly
			// through the builder's sticky error rather than emitting
			// an instruction the EU would reject.
			b.Break(isa.F1)
			return
		}
		m := b.Mark()
		t := b.Vec()
		b.Xor(t, lw.v[s.src], lw.ctr[loopDepth-1])
		lw.emitHash(t, t, s.salt)
		b.And(t, t, b.U(255))
		b.CmpU(isa.F1, isa.CmpLT, t, b.U(uint32(s.thresh)))
		b.Release(m)
		if s.kind == stBreak {
			b.Break(isa.F1)
		} else {
			b.Cont(isa.F1)
		}

	case stDeadEM:
		b.ToF(lw.deadA, lw.v[s.src])
		switch s.emOp & 7 {
		case 0:
			b.Sqrt(lw.deadB, lw.deadA)
		case 1:
			b.Rsqrt(lw.deadB, lw.deadA)
		case 2:
			b.Inv(lw.deadB, lw.deadA)
		case 3:
			b.Sin(lw.deadB, lw.deadA)
		case 4:
			b.Cos(lw.deadB, lw.deadA)
		case 5:
			b.Exp(lw.deadB, lw.deadA)
		case 6:
			b.Log(lw.deadB, lw.deadA)
		case 7:
			b.Div(lw.deadB, lw.deadA, lw.deadA)
		}
	}
}
