package kbuild

import (
	"strings"
	"testing"

	"intrawarp/internal/eu"
	"intrawarp/internal/isa"
)

func TestVecAllocation(t *testing.T) {
	b := New("t", isa.SIMD16)
	v1 := b.Vec()
	v2 := b.Vec()
	if v1.Kind != isa.RegGRF || int(v1.Reg) != eu.FirstFree {
		t.Fatalf("first vec = %+v", v1)
	}
	// SIMD16 u32 takes 2 registers.
	if int(v2.Reg) != eu.FirstFree+2 {
		t.Fatalf("second vec = %+v", v2)
	}
	b8 := New("t8", isa.SIMD8)
	w1 := b8.Vec()
	w2 := b8.Vec()
	if int(w2.Reg) != int(w1.Reg)+1 {
		t.Fatal("SIMD8 vec must take one register")
	}
	// f64 at SIMD16 takes 4 registers.
	bd := New("td", isa.SIMD16)
	d1 := bd.VecTyped(isa.F64)
	d2 := bd.VecTyped(isa.F64)
	if int(d2.Reg) != int(d1.Reg)+4 {
		t.Fatal("SIMD16 f64 vec must take four registers")
	}
}

func TestMarkRelease(t *testing.T) {
	b := New("t", isa.SIMD16)
	b.Vec()
	m := b.Mark()
	b.Vec()
	b.Vec()
	b.Release(m)
	v := b.Vec()
	if int(v.Reg) != m {
		t.Fatalf("after release, vec at r%d, want r%d", v.Reg, m)
	}
}

func TestOutOfRegisters(t *testing.T) {
	b := New("t", isa.SIMD16)
	for i := 0; i < 70; i++ {
		b.Vec()
	}
	if _, err := b.Build(); err == nil || !strings.Contains(err.Error(), "out of registers") {
		t.Fatalf("expected out-of-registers error, got %v", err)
	}
}

func TestPayloadAccessors(t *testing.T) {
	b := New("t", isa.SIMD16)
	if g := b.GlobalID(); g.Kind != isa.RegGRF || int(g.Reg) != eu.IDReg {
		t.Errorf("GlobalID = %+v", g)
	}
	if g := b.GroupID(); g.Kind != isa.RegScalar || g.ByteOffset() != eu.R0GroupID {
		t.Errorf("GroupID = %+v", g)
	}
	if a := b.Arg(0); a.ByteOffset() != eu.ArgBase*32 {
		t.Errorf("Arg(0) = %+v", a)
	}
	if a := b.Arg(9); a.ByteOffset() != (eu.ArgBase+1)*32+4 {
		t.Errorf("Arg(9) = %+v", a)
	}
}

func TestIfElsePatching(t *testing.T) {
	b := New("t", isa.SIMD16)
	b.Cmp(isa.F0, isa.CmpLT, b.Vec(), b.F(1))
	b.If(isa.F0)
	b.Mov(b.Vec(), b.F(1))
	b.Else()
	b.Mov(b.Vec(), b.F(2))
	b.EndIf()
	k, err := b.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	p := k.Program
	var ifIdx, elseIdx, endIdx int = -1, -1, -1
	for i := range p {
		switch p[i].Op {
		case isa.OpIf:
			ifIdx = i
		case isa.OpElse:
			elseIdx = i
		case isa.OpEndIf:
			endIdx = i
		}
	}
	if p[ifIdx].JumpTarget != int32(elseIdx) {
		t.Errorf("IF target = %d, want %d (the ELSE)", p[ifIdx].JumpTarget, elseIdx)
	}
	if p[elseIdx].JumpTarget != int32(endIdx) {
		t.Errorf("ELSE target = %d, want %d (the ENDIF)", p[elseIdx].JumpTarget, endIdx)
	}
}

func TestIfWithoutElsePatching(t *testing.T) {
	b := New("t", isa.SIMD16)
	b.If(isa.F0)
	b.Mov(b.Vec(), b.F(1))
	b.EndIf()
	k, err := b.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	p := k.Program
	if p[0].Op != isa.OpIf || p[0].JumpTarget != 2 {
		t.Errorf("IF target = %d, want 2 (the ENDIF)", p[0].JumpTarget)
	}
}

func TestLoopPatching(t *testing.T) {
	b := New("t", isa.SIMD16)
	i := b.Vec()
	b.MovU(i, b.U(0))
	b.Loop()
	b.AddU(i, i, b.U(1))
	b.CmpU(isa.F1, isa.CmpGE, i, b.U(10))
	b.Break(isa.F1)
	b.CmpU(isa.F0, isa.CmpLT, i, b.U(100))
	b.While(isa.F0)
	k, err := b.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	p := k.Program
	var loopIdx, breakIdx, whileIdx int = -1, -1, -1
	for idx := range p {
		switch p[idx].Op {
		case isa.OpLoop:
			loopIdx = idx
		case isa.OpBreak:
			breakIdx = idx
		case isa.OpWhile:
			whileIdx = idx
		}
	}
	if p[whileIdx].JumpTarget != int32(loopIdx+1) {
		t.Errorf("WHILE target = %d, want %d", p[whileIdx].JumpTarget, loopIdx+1)
	}
	if p[breakIdx].JumpTarget != int32(whileIdx) {
		t.Errorf("BREAK target = %d, want %d (the WHILE)", p[breakIdx].JumpTarget, whileIdx)
	}
}

func TestControlFlowErrors(t *testing.T) {
	b := New("t", isa.SIMD16)
	b.Else()
	if _, err := b.Build(); err == nil {
		t.Error("orphan ELSE accepted")
	}
	b2 := New("t", isa.SIMD16)
	b2.EndIf()
	if _, err := b2.Build(); err == nil {
		t.Error("orphan ENDIF accepted")
	}
	b3 := New("t", isa.SIMD16)
	b3.Break(isa.F0)
	if _, err := b3.Build(); err == nil {
		t.Error("BREAK outside loop accepted")
	}
	b4 := New("t", isa.SIMD16)
	b4.If(isa.F0)
	if _, err := b4.Build(); err == nil {
		t.Error("unclosed IF accepted")
	}
	b5 := New("t", isa.SIMD16)
	b5.While(isa.F0)
	if _, err := b5.Build(); err == nil {
		t.Error("WHILE without LOOP accepted")
	}
	b6 := New("t", isa.SIMD16)
	b6.Cont(isa.F0)
	if _, err := b6.Build(); err == nil {
		t.Error("CONT outside loop accepted")
	}
}

// TestMismatchedBlockClosers crosses IF and LOOP closers: an ENDIF
// cannot close a loop and a WHILE cannot close a conditional, even when
// the other kind of block is open underneath.
func TestMismatchedBlockClosers(t *testing.T) {
	b := New("t", isa.SIMD16)
	b.Loop()
	b.EndIf() // innermost open block is a LOOP
	if _, err := b.Build(); err == nil || !strings.Contains(err.Error(), "ENDIF without open IF") {
		t.Errorf("ENDIF closing a LOOP: err = %v", err)
	}
	b2 := New("t", isa.SIMD16)
	b2.If(isa.F0)
	b2.While(isa.F0) // innermost open block is an IF
	if _, err := b2.Build(); err == nil || !strings.Contains(err.Error(), "WHILE without open LOOP") {
		t.Errorf("WHILE closing an IF: err = %v", err)
	}
	// Interleaved: LOOP { IF { } WHILE — the IF is still open at the WHILE.
	b3 := New("t", isa.SIMD16)
	b3.Loop()
	b3.If(isa.F0)
	b3.While(isa.F0)
	if _, err := b3.Build(); err == nil || !strings.Contains(err.Error(), "WHILE without open LOOP") {
		t.Errorf("WHILE across an open IF: err = %v", err)
	}
	// ELSE after the IF was already ELSEd.
	b4 := New("t", isa.SIMD16)
	b4.If(isa.F0)
	b4.Else()
	b4.Else()
	if _, err := b4.Build(); err == nil || !strings.Contains(err.Error(), "ELSE without open IF") {
		t.Errorf("double ELSE: err = %v", err)
	}
}

// TestBreakContRequireLoop covers every break-family emitter outside a
// loop, including BreakAll and the case where only an IF is open.
func TestBreakContRequireLoop(t *testing.T) {
	for name, emit := range map[string]func(b *Builder){
		"Break":          func(b *Builder) { b.Break(isa.F0) },
		"BreakAll":       func(b *Builder) { b.BreakAll() },
		"Cont":           func(b *Builder) { b.Cont(isa.F0) },
		"Break-in-if":    func(b *Builder) { b.If(isa.F0); b.Break(isa.F0); b.EndIf() },
		"BreakAll-in-if": func(b *Builder) { b.If(isa.F0); b.BreakAll(); b.EndIf() },
	} {
		b := New("t", isa.SIMD16)
		emit(b)
		if _, err := b.Build(); err == nil || !strings.Contains(err.Error(), "outside LOOP") {
			t.Errorf("%s outside loop: err = %v", name, err)
		}
		if b.Err() == nil {
			t.Errorf("%s: Err() not sticky before Build", name)
		}
	}
	// Inside a loop nested in an IF, BREAK is legal (the loop is what
	// counts, not the innermost frame).
	b := New("t", isa.SIMD16)
	b.Loop()
	b.If(isa.F0)
	// inLoop must look through the IF frame.
	if !b.InLoop() {
		t.Error("InLoop() = false inside LOOP{IF{")
	}
	b.EndIf()
	b.Break(isa.F0)
	b.CmpU(isa.F0, isa.CmpEQ, b.Vec(), b.U(0))
	b.While(isa.F0)
	if _, err := b.Build(); err != nil {
		t.Errorf("BREAK inside LOOP{IF{}}: %v", err)
	}
}

// TestErrorIsSticky pins the emit-after-error contract: the first
// failure wins, later emissions (valid or not) neither clear nor
// replace it, and Build keeps reporting it.
func TestErrorIsSticky(t *testing.T) {
	b := New("t", isa.SIMD16)
	b.Else() // first error
	first := b.Err()
	if first == nil || !strings.Contains(first.Error(), "ELSE without open IF") {
		t.Fatalf("Err() after orphan ELSE = %v", first)
	}
	// Keep emitting: a valid sequence, then a second structural mistake.
	v := b.Vec()
	b.AddU(v, v, b.U(1))
	b.Break(isa.F0) // would be a different error
	if b.Err() != first {
		t.Errorf("Err() changed after more emission: %v", b.Err())
	}
	if _, err := b.Build(); err != first {
		t.Errorf("Build() = %v, want the first error %v", err, first)
	}
	// Build is repeatable and still failing.
	if _, err := b.Build(); err != first {
		t.Errorf("second Build() = %v, want %v", err, first)
	}
}

// TestIntrospection covers the generator-facing state accessors.
func TestIntrospection(t *testing.T) {
	b := New("t", isa.SIMD16)
	if b.Len() != 0 || b.ControlDepth() != 0 || b.InLoop() {
		t.Fatal("fresh builder not empty")
	}
	free := b.FreeRegs()
	if free != 128-eu.FirstFree {
		t.Fatalf("fresh FreeRegs = %d", free)
	}
	b.Vec() // SIMD16 u32 = 2 registers
	if b.FreeRegs() != free-2 {
		t.Errorf("FreeRegs after Vec = %d, want %d", b.FreeRegs(), free-2)
	}
	b.If(isa.F0)
	b.Loop()
	if b.ControlDepth() != 2 || !b.InLoop() {
		t.Errorf("depth=%d inLoop=%v inside IF{LOOP{", b.ControlDepth(), b.InLoop())
	}
	n := b.Len()
	b.MovU(b.Vec(), b.U(0))
	if b.Len() != n+1 {
		t.Errorf("Len after one emit = %d, want %d", b.Len(), n+1)
	}
	b.CmpU(isa.F0, isa.CmpEQ, b.Vec(), b.U(0))
	b.While(isa.F0)
	b.EndIf()
	if b.ControlDepth() != 0 || b.InLoop() {
		t.Error("depth not restored after closing blocks")
	}
	if b.Err() != nil {
		t.Errorf("clean sequence produced error %v", b.Err())
	}
}

func TestEmitDefaultsWidth(t *testing.T) {
	b := New("t", isa.SIMD8)
	b.Mov(b.Vec(), b.F(0))
	k := b.MustBuild()
	if k.Program[0].Width != isa.SIMD8 {
		t.Fatalf("emitted width = %d", k.Program[0].Width)
	}
	if k.Width != isa.SIMD8 || k.Name != "t" {
		t.Fatal("kernel metadata wrong")
	}
}

func TestCommentAndSLM(t *testing.T) {
	b := New("t", isa.SIMD16)
	b.Mov(b.Vec(), b.F(1))
	b.Comment("init %d", 7)
	b.SetSLMBytes(1024)
	k := b.MustBuild()
	if k.Program[0].Comment != "init 7" {
		t.Errorf("comment = %q", k.Program[0].Comment)
	}
	if k.SLMBytes != 1024 {
		t.Error("SLM bytes not recorded")
	}
}

func TestAddrHelper(t *testing.T) {
	b := New("t", isa.SIMD16)
	a := b.Addr(b.Arg(0), b.GlobalID(), 4)
	k := b.MustBuild()
	if a.Kind != isa.RegGRF {
		t.Fatal("Addr must allocate a register")
	}
	// It should have emitted one MAD.
	if k.Program[0].Op != isa.OpMad || k.Program[0].DType != isa.U32 {
		t.Fatalf("Addr emitted %s", k.Program[0].Op)
	}
}

func TestMustBuildPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustBuild must panic on invalid kernel")
		}
	}()
	b := New("t", isa.SIMD16)
	b.If(isa.F0)
	b.MustBuild()
}

func TestEmitterOpcodes(t *testing.T) {
	b := New("t", isa.SIMD16)
	v := b.Vec()
	b.Add(v, v, v)
	b.Sub(v, v, v)
	b.Mul(v, v, v)
	b.Mad(v, v, v, v)
	b.Div(v, v, v)
	b.Sqrt(v, v)
	b.Rsqrt(v, v)
	b.Sin(v, v)
	b.Cos(v, v)
	b.Exp(v, v)
	b.Log(v, v)
	b.Inv(v, v)
	b.And(v, v, v)
	b.Or(v, v, v)
	b.Xor(v, v, v)
	b.Shl(v, v, b.U(1))
	b.Shr(v, v, b.U(1))
	b.Min(v, v, v)
	b.Max(v, v, v)
	b.MinU(v, v, v)
	b.MaxU(v, v, v)
	b.Abs(v, v)
	b.Frc(v, v)
	b.Flr(v, v)
	b.ToF(v, v)
	b.ToI(v, v)
	b.Sel(isa.F0, v, v, v)
	b.LoadGather(v, v)
	b.StoreScatter(v, v)
	b.LoadBlock(v, b.Arg(0))
	b.StoreBlock(b.Arg(0), v)
	b.LoadSLM(v, v)
	b.StoreSLM(v, v)
	b.AtomicAdd(v, v, v)
	b.AtomicMin(v, v, v)
	b.Barrier()
	k, err := b.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	wantOps := []isa.Opcode{
		isa.OpAdd, isa.OpSub, isa.OpMul, isa.OpMad, isa.OpDiv, isa.OpSqrt,
		isa.OpRsqrt, isa.OpSin, isa.OpCos, isa.OpExp, isa.OpLog, isa.OpInv,
		isa.OpAnd, isa.OpOr, isa.OpXor, isa.OpShl, isa.OpShr, isa.OpMin,
		isa.OpMax, isa.OpMin, isa.OpMax, isa.OpAbs, isa.OpFrc, isa.OpFlr,
		isa.OpCvt, isa.OpCvt, isa.OpSel,
	}
	for i, op := range wantOps {
		if k.Program[i].Op != op {
			t.Errorf("instr %d = %s, want %s", i, k.Program[i].Op, op)
		}
	}
	sends := 0
	for _, in := range k.Program {
		if in.Op == isa.OpSend {
			sends++
		}
	}
	if sends != 8 {
		t.Errorf("sends = %d, want 8", sends)
	}
}

func TestPayload2DAccessors(t *testing.T) {
	b := New("t", isa.SIMD16)
	if y := b.GlobalIDY(); y.Kind != isa.RegGRF || int(y.Reg) != eu.IDRegY {
		t.Errorf("GlobalIDY = %+v", y)
	}
	if gx := b.GroupIDX(); gx.Kind != isa.RegScalar || gx.ByteOffset() != eu.R0GroupIDX {
		t.Errorf("GroupIDX = %+v", gx)
	}
	if gy := b.GroupIDY(); gy.ByteOffset() != eu.R0GroupIDY {
		t.Errorf("GroupIDY = %+v", gy)
	}
	if gsx := b.GlobalSizeX(); gsx.ByteOffset() != eu.R0GlobalSizeX {
		t.Errorf("GlobalSizeX = %+v", gsx)
	}
}
