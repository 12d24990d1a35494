package gpu

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"intrawarp/internal/compaction"
	"intrawarp/internal/isa"
	"intrawarp/internal/kbuild"
)

// Differential fuzzing: generate random, structurally valid kernels with
// nested divergence, bounded loops, predication, and memory traffic, then
// run each under every compaction policy. Architectural results must be
// bit-identical (compaction changes time, never values) and EU busy
// cycles must respect the policy-strength ordering.
//
// Determinism across policies requires race-free kernels: every thread
// reads from a read-only input buffer or from its own output slots, and
// writes only its own output slots.

type progGen struct {
	r     *rand.Rand
	b     *kbuild.Builder
	vars  []isa.Operand // u32-typed value pool (reinterpreted as f32 at will)
	loops int
}

func (g *progGen) randVar() isa.Operand { return g.vars[g.r.Intn(len(g.vars))] }

// randSrc is a variable or a small immediate.
func (g *progGen) randSrc() isa.Operand {
	if g.r.Intn(4) == 0 {
		return g.b.U(uint32(g.r.Intn(64) + 1))
	}
	return g.randVar()
}

func (g *progGen) emitALU() {
	b := g.b
	dst := g.randVar()
	switch g.r.Intn(10) {
	case 0:
		b.AddU(dst, g.randVar(), g.randSrc())
	case 1:
		b.SubU(dst, g.randVar(), g.randSrc())
	case 2:
		b.MulU(dst, g.randVar(), g.randSrc())
	case 3:
		b.Xor(dst, g.randVar(), g.randSrc())
	case 4:
		b.And(dst, g.randVar(), g.randSrc())
	case 5:
		b.Or(dst, g.randVar(), g.randSrc())
	case 6:
		b.Shl(dst, g.randVar(), b.U(uint32(g.r.Intn(8))))
	case 7:
		b.Shr(dst, g.randVar(), b.U(uint32(g.r.Intn(8))))
	case 8:
		b.MadU(dst, g.randVar(), g.randVar(), g.randVar())
	case 9:
		b.MinU(dst, g.randVar(), g.randVar())
	}
}

func (g *progGen) emitCmp(f isa.FlagReg) {
	conds := []isa.CondMod{isa.CmpEQ, isa.CmpNE, isa.CmpLT, isa.CmpLE, isa.CmpGT, isa.CmpGE}
	g.b.CmpU(f, conds[g.r.Intn(len(conds))], g.randVar(), g.randSrc())
}

// emitMem reads from the read-only input table (bounded index) or
// writes/reads the thread's private output slot.
func (g *progGen) emitMem(inBuf uint32, inLen int, slotBuf uint32, slots int) {
	b := g.b
	switch g.r.Intn(3) {
	case 0: // gather from input
		idx := b.Vec()
		b.And(idx, g.randVar(), b.U(uint32(inLen-1)))
		addr := b.Addr(b.U(inBuf), idx, 4)
		b.LoadGather(g.randVar(), addr)
	case 1: // scatter to own slot s
		s := uint32(g.r.Intn(slots))
		slotIdx := b.Vec()
		b.MadU(slotIdx, b.GlobalID(), b.U(uint32(slots)), b.U(s))
		addr := b.Addr(b.U(slotBuf), slotIdx, 4)
		b.StoreScatter(addr, g.randVar())
	case 2: // gather own slot s back
		s := uint32(g.r.Intn(slots))
		slotIdx := b.Vec()
		b.MadU(slotIdx, b.GlobalID(), b.U(uint32(slots)), b.U(s))
		addr := b.Addr(b.U(slotBuf), slotIdx, 4)
		b.LoadGather(g.randVar(), addr)
	}
}

func (g *progGen) emitBlock(depth int, inBuf uint32, inLen int, slotBuf uint32, slots int) {
	b := g.b
	n := 2 + g.r.Intn(4)
	for i := 0; i < n; i++ {
		switch pick := g.r.Intn(10); {
		case pick < 5:
			g.emitALU()
		case pick < 6:
			g.emitMem(inBuf, inLen, slotBuf, slots)
		case pick < 7 && depth > 0: // if / if-else
			g.emitCmp(isa.F0)
			b.If(isa.F0)
			g.emitBlock(depth-1, inBuf, inLen, slotBuf, slots)
			if g.r.Intn(2) == 0 {
				b.Else()
				g.emitBlock(depth-1, inBuf, inLen, slotBuf, slots)
			}
			b.EndIf()
		case pick < 8 && depth > 0 && g.loops < 3: // bounded loop
			g.loops++
			mark := b.Mark()
			ctr := b.Vec()
			b.MovU(ctr, b.U(0))
			bound := uint32(1 + g.r.Intn(3))
			b.Loop()
			g.emitBlock(depth-1, inBuf, inLen, slotBuf, slots)
			if g.r.Intn(2) == 0 { // data-dependent early exit
				g.emitCmp(isa.F1)
				b.Break(isa.F1)
			}
			b.AddU(ctr, ctr, b.U(1))
			b.CmpU(isa.F0, isa.CmpLT, ctr, b.U(bound))
			b.While(isa.F0)
			b.Release(mark)
		case pick < 9: // sel
			g.emitCmp(isa.F1)
			b.Sel(isa.F1, g.randVar(), g.randVar(), g.randSrc())
		default: // predicated mov
			g.emitCmp(isa.F0)
			b.Emit(isa.Instruction{Op: isa.OpMov, DType: isa.U32, Pred: isa.PredNorm,
				Flag: isa.F0, Dst: g.randVar(), Src0: g.randSrc()})
		}
	}
}

// genProgram builds one random kernel; returns it with its buffers.
func genProgram(seed int64, gp *GPU, width isa.Width) (*isa.Kernel, uint32, int, error) {
	r := rand.New(rand.NewSource(seed))
	const (
		inLen = 256
		slots = 4
		items = 128
	)
	in := make([]uint32, inLen)
	for i := range in {
		in[i] = r.Uint32()
	}
	inBuf := gp.AllocU32(inLen, in)
	slotBuf := gp.AllocU32(items*slots, make([]uint32, items*slots))

	b := kbuild.New(fmt.Sprintf("fuzz-%d", seed), width)
	g := &progGen{r: r, b: b}
	for i := 0; i < 5; i++ {
		v := b.Vec()
		switch i % 3 {
		case 0:
			b.MovU(v, b.GlobalID())
		case 1:
			b.MadU(v, b.GlobalID(), b.U(r.Uint32()|1), b.U(r.Uint32()))
		default:
			b.MovU(v, b.U(r.Uint32()))
		}
		g.vars = append(g.vars, v)
	}
	g.emitBlock(3, inBuf, inLen, slotBuf, slots)
	// Final: store every var into the thread's slots (slots 0..3 reused).
	for i, v := range g.vars {
		slotIdx := b.Vec()
		b.MadU(slotIdx, b.GlobalID(), b.U(slots), b.U(uint32(i%slots)))
		addr := b.Addr(b.U(slotBuf), slotIdx, 4)
		b.StoreScatter(addr, v)
	}
	k, err := b.Build()
	return k, slotBuf, items, err
}

func TestFuzzPolicyEquivalence(t *testing.T) {
	const programs = 30
	widths := []isa.Width{isa.SIMD8, isa.SIMD16}
	for seed := int64(0); seed < programs; seed++ {
		width := widths[seed%2]
		var ref []uint32
		var busy [compaction.NumPolicies]int64
		var instr int64
		for _, p := range compaction.Policies {
			g := New(DefaultConfig().WithPolicy(p))
			k, slotBuf, items, err := genProgram(1000+seed, g, width)
			if err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
			run, err := g.RunCtx(context.Background(), LaunchSpec{Kernel: k, GlobalSize: items,
				GroupSize: 32, Args: nil})
			if err != nil {
				t.Fatalf("seed %d policy %s: %v", seed, p, err)
			}
			out := g.ReadBufferU32(slotBuf, items*4)
			if ref == nil {
				ref = out
				instr = run.Instructions
			} else {
				for i := range out {
					if out[i] != ref[i] {
						t.Fatalf("seed %d policy %s: result diverges at word %d: %#x vs %#x\n%s",
							seed, p, i, out[i], ref[i], k.Program.Disassemble())
					}
				}
				if run.Instructions != instr {
					t.Fatalf("seed %d policy %s: instruction count %d vs %d",
						seed, p, run.Instructions, instr)
				}
			}
			busy[p] = run.EUBusy
		}
		if !(busy[compaction.SCC] <= busy[compaction.BCC] &&
			busy[compaction.BCC] <= busy[compaction.IvyBridge] &&
			busy[compaction.IvyBridge] <= busy[compaction.Baseline]) {
			t.Fatalf("seed %d: busy ordering violated: %v", seed, busy)
		}
	}
}

// The same random programs must behave identically on the functional-only
// model.
func TestFuzzFunctionalMatchesTimed(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		gT := New(DefaultConfig())
		kT, slotT, items, err := genProgram(2000+seed, gT, isa.SIMD16)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := gT.RunCtx(context.Background(), LaunchSpec{Kernel: kT, GlobalSize: items, GroupSize: 32}); err != nil {
			t.Fatalf("seed %d timed: %v", seed, err)
		}
		gF := New(DefaultConfig())
		kF, slotF, _, err := genProgram(2000+seed, gF, isa.SIMD16)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := gF.RunFunctionalCtx(context.Background(), LaunchSpec{Kernel: kF, GlobalSize: items, GroupSize: 32}, nil); err != nil {
			t.Fatalf("seed %d functional: %v", seed, err)
		}
		outT := gT.ReadBufferU32(slotT, items*4)
		outF := gF.ReadBufferU32(slotF, items*4)
		for i := range outT {
			if outT[i] != outF[i] {
				t.Fatalf("seed %d: timed/functional diverge at word %d", seed, i)
			}
		}
	}
}
