package kgen

// The generator builds a tiny statement AST that both the kbuild
// lowering and the reference evaluator consume, so the two stay
// structurally symmetric by construction. The AST is deliberately
// confined to shapes that are deterministic across all four engines:
//
//   - Scatter stores use one kernel-wide bijective slot mapping
//     slot(gid) = (gid*odd) & (lanes-1), so no two lanes ever write the
//     same word and the parallel engine cannot race.
//   - Atomic adds target a small shared accumulator; u32 wraparound
//     addition commutes, so any workgroup interleaving yields the same
//     final sums.
//   - SLM exchanges and barriers appear only at top level, where every
//     lane of every workgroup is active, so barrier membership is
//     uniform.
//   - BREAK/CONT appear only as direct children of a loop body (the
//     EU's ENDIF restores the saved mask unconditionally, which would
//     resurrect lanes broken inside an IF), and CONT only in leaf
//     loops whose while-flag F0 is written exactly once per iteration
//     at the body top — continued lanes therefore park with exactly
//     the flag value the bottom-of-body recompute produces.
type stmtKind uint8

const (
	stALU     stmtKind = iota // v[dst] = op(a, b[, c])
	stSel                     // if cmp(cond, a, b) { v[dst] = c }
	stGather                  // v[dst] = in[addr & (InWords-1)]
	stScatter                 // scratch[slot(gid)] = v[src]
	stAtomic                  // acc[hash(gid,salt) & (accWords-1)] += v[src]
	stSLM                     // v[dst] = v[src] of the lane rot places around the workgroup
	stBarrier                 // workgroup barrier (top level only)
	stIf                      // lane-class conditional
	stLoop                    // do-while with per-lane trip skew
	stBreak                   // direct loop-body child: data-dependent exit
	stCont                    // direct leaf-loop-body child: skip rest of body
	stDeadEM                  // dead extended-math op (pipe traffic, no dataflow)
)

// aluOp enumerates the exact wraparound u32 operations the evaluator
// mirrors bit for bit.
type aluOp uint8

const (
	aAdd aluOp = iota
	aSub
	aMul
	aMad
	aAnd
	aOr
	aXor
	aShl
	aShr
	aMin
	aMax
	aluOps // count
)

// operand kinds.
const (
	opndState uint8 = iota // v[idx]
	opndImm                // imm
	opndCtr                // loop counter of enclosing loop level idx
)

type operand struct {
	kind uint8
	idx  uint8
	imm  uint32
}

type stmt struct {
	kind     stmtKind
	op       aluOp
	dst      uint8 // state index
	src      uint8 // state index (scatter/atomic/slm/break/cont/dead-em source)
	a, b, c  operand
	cond     uint8  // isa.CondMod value for stSel
	salt     uint32 // hash salt (conditions, addresses, slots)
	thresh   uint8  // 0..255 comparison threshold for hashed conditions
	gran     uint8  // log2 lane-class granularity (stIf)
	stride   uint32 // gather stride (words)
	offset   uint32 // gather offset (words)
	indirect bool   // gather: data-dependent address
	rot      uint8  // stSLM rotation distance
	emOp     uint8  // stDeadEM operation selector
	trips    uint8  // stLoop base trip count
	skew     uint8  // stLoop per-lane trip skew mask
	then     []stmt
	els      []stmt
	body     []stmt
}

// program is one generated kernel body plus the derived facts the
// lowering and evaluator share.
type program struct {
	p        Params
	stmts    []stmt
	odd      uint32 // kernel-wide bijective scatter multiplier (odd)
	loopLvls int    // deepest loop nesting actually generated
	usesSLM  bool
	usesEM   bool
	usesScr  bool // any scatter
	usesAcc  bool // any atomic
}

// maxLoopDepth caps loop nesting independently of MaxDepth: trip counts
// multiply, and two levels at ≤13 trips each already give ~170
// iterations per lane.
const maxLoopDepth = 2

type gen struct {
	r      *rng
	p      Params
	budget int
	out    *program
}

// buildAST derives the statement tree for p. Pure: consumes only the
// splitmix64 stream seeded from p.Seed.
func buildAST(p Params) *program {
	g := &gen{r: newRNG(p.Seed), p: p, budget: int(p.Stmts)}
	g.out = &program{p: p, odd: g.r.u32() | 1}
	g.out.stmts = g.genBlock(0, 0, true)
	// Every kernel folds its state into out[gid] at the end (emitted by
	// the lowering), so even an all-control kernel is checkable.
	return g.out
}

// genBlock emits up to the remaining budget at top level, or a small
// bounded count inside nested blocks. depth counts all open control
// blocks, loopDepth only loops.
func (g *gen) genBlock(depth, loopDepth int, top bool) []stmt {
	n := 1 + g.r.n(3)
	if top {
		n = g.budget
	}
	var out []stmt
	for i := 0; i < n && g.budget > 0; i++ {
		out = append(out, g.genStmt(depth, loopDepth, top))
	}
	if len(out) == 0 {
		out = append(out, g.aluStmt(loopDepth))
	}
	return out
}

func (g *gen) genStmt(depth, loopDepth int, top bool) stmt {
	g.budget--
	// Control statements while nesting budget remains.
	if depth < int(g.p.MaxDepth) && g.budget >= 2 && g.r.pct(55) {
		roll := g.r.n(100)
		loopOK := loopDepth < maxLoopDepth && roll < int(g.p.LoopRate)
		if loopOK {
			return g.loopStmt(depth, loopDepth)
		}
		if g.r.pct(g.p.IfRate) {
			return g.ifStmt(depth, loopDepth)
		}
	}
	if top && g.r.pct(g.p.SLMRate) && g.p.TPG > 1 {
		return g.slmStmt()
	}
	if top && g.r.pct(8) {
		return stmt{kind: stBarrier}
	}
	if g.r.pct(g.p.MemRate) {
		return g.memStmt(loopDepth)
	}
	if g.r.pct(g.p.EMRate) {
		g.out.usesEM = true
		return stmt{kind: stDeadEM, src: g.state(), emOp: uint8(g.r.n(8))}
	}
	if g.r.pct(25) {
		return g.selStmt(loopDepth)
	}
	return g.aluStmt(loopDepth)
}

// state picks a state-variable index.
func (g *gen) state() uint8 { return uint8(g.r.n(int(g.p.States))) }

// opnd picks an ALU source operand; loop counters of enclosing loops
// are eligible alongside state vars and immediates.
func (g *gen) opnd(loopDepth int, allowImm bool) operand {
	roll := g.r.n(10)
	switch {
	case loopDepth > 0 && roll < 2:
		return operand{kind: opndCtr, idx: uint8(g.r.n(loopDepth))}
	case allowImm && roll < 5:
		return operand{kind: opndImm, imm: g.r.u32()}
	default:
		return operand{kind: opndState, idx: g.state()}
	}
}

func (g *gen) aluStmt(loopDepth int) stmt {
	s := stmt{kind: stALU, op: aluOp(g.r.n(int(aluOps))), dst: g.state()}
	s.a = g.opnd(loopDepth, false) // keep at least one register source
	s.b = g.opnd(loopDepth, true)
	switch s.op {
	case aShl, aShr:
		// Shift amounts are immediates in [1,31]: the device masks
		// shifts with &63, where amounts ≥32 clear the register —
		// legal but a degenerate dataflow sink.
		s.b = operand{kind: opndImm, imm: uint32(1 + g.r.n(31))}
	case aMad:
		s.c = g.opnd(loopDepth, true)
	}
	return s
}

func (g *gen) selStmt(loopDepth int) stmt {
	return stmt{
		kind: stSel,
		dst:  g.state(),
		a:    g.opnd(loopDepth, false),
		b:    g.opnd(loopDepth, true),
		c:    g.opnd(loopDepth, true),
		cond: uint8(g.r.n(6)),
	}
}

func (g *gen) memStmt(loopDepth int) stmt {
	if g.r.pct(g.p.AtomicRate) {
		g.out.usesAcc = true
		return stmt{kind: stAtomic, src: g.state(), salt: g.r.u32()}
	}
	if g.r.pct(30) {
		g.out.usesScr = true
		return stmt{kind: stScatter, src: g.state()}
	}
	s := stmt{kind: stGather, dst: g.state(), salt: g.r.u32()}
	if g.r.pct(g.p.IndirectRate) {
		s.indirect = true
		s.a = operand{kind: opndState, idx: g.state()}
	} else {
		s.stride = uint32(1) << g.r.n(int(g.p.StrideMax)+1)
		s.offset = uint32(g.r.n(64))
	}
	return s
}

func (g *gen) slmStmt() stmt {
	g.out.usesSLM = true
	gs := g.p.GroupSize()
	return stmt{
		kind: stSLM,
		dst:  g.state(),
		src:  g.state(),
		rot:  uint8(1 + g.r.n(gs-1)),
	}
}

func (g *gen) ifStmt(depth, loopDepth int) stmt {
	s := stmt{
		kind:   stIf,
		salt:   g.r.u32(),
		thresh: uint8(int(g.p.BranchBias) * 255 / 100),
		gran:   g.p.GranLog2,
	}
	// Occasionally vary granularity around the profile's setting so a
	// single kernel mixes warp-uniform and per-lane branches.
	if g.r.pct(30) {
		s.gran = uint8(g.r.n(int(g.p.GranLog2) + 2))
	}
	s.then = g.genBlock(depth+1, loopDepth, false)
	if g.r.pct(50) {
		s.els = g.genBlock(depth+1, loopDepth, false)
	}
	return s
}

func (g *gen) loopStmt(depth, loopDepth int) stmt {
	s := stmt{
		kind:  stLoop,
		salt:  g.r.u32(),
		trips: g.p.TripBase,
		skew:  g.p.TripSkew,
	}
	if loopDepth+1 > g.out.loopLvls {
		g.out.loopLvls = loopDepth + 1
	}
	body := g.genBlock(depth+1, loopDepth+1, false)
	// BREAK/CONT are spliced in as direct body children, never nested
	// under an IF. CONT additionally requires a leaf loop: a lane that
	// ran a nested loop leaves its own F0 bit holding that loop's exit
	// compare (false), so if it then parked on CONT the outer WHILE
	// would drop it regardless of its remaining trips. The nested loop
	// may hide anywhere in the subtree — under an IF included — so the
	// scan is recursive. The rolls are consumed unconditionally to keep
	// the rng stream independent of the loop's shape.
	wantBreak := g.r.pct(g.p.BreakRate)
	wantCont := g.r.pct(g.p.ContRate)
	if wantBreak {
		br := stmt{kind: stBreak, src: g.state(), salt: g.r.u32(),
			thresh: uint8(20 + g.r.n(100))}
		body = splice(body, g.r.n(len(body)+1), br)
	}
	if wantCont && !containsLoop(body) {
		ct := stmt{kind: stCont, src: g.state(), salt: g.r.u32(),
			thresh: uint8(20 + g.r.n(100))}
		body = splice(body, g.r.n(len(body)+1), ct)
	}
	s.body = body
	return s
}

// containsLoop reports whether any statement in the subtree is a loop.
func containsLoop(ss []stmt) bool {
	for i := range ss {
		if ss[i].kind == stLoop ||
			containsLoop(ss[i].then) || containsLoop(ss[i].els) || containsLoop(ss[i].body) {
			return true
		}
	}
	return false
}

func splice(b []stmt, at int, s stmt) []stmt {
	b = append(b, stmt{})
	copy(b[at+1:], b[at:])
	b[at] = s
	return b
}
