package asm

import (
	"context"
	"testing"

	"intrawarp/internal/gpu"
	"intrawarp/internal/isa"
	"intrawarp/internal/kbuild"
	"intrawarp/internal/workloads"
)

func TestAssembleBasic(t *testing.T) {
	prog, err := Assemble(`
		mov(16):u32 r20, #0x1
		add(16) r22, r20, #f:1.5
		halt(16)
	`)
	if err != nil {
		t.Fatal(err)
	}
	if len(prog) != 3 {
		t.Fatalf("%d instructions", len(prog))
	}
	if prog[0].Op != isa.OpMov || prog[0].DType != isa.U32 || prog[0].Dst != isa.GRF(20) {
		t.Fatalf("mov parsed as %+v", prog[0])
	}
	if prog[0].Src0.Kind != isa.RegImm || prog[0].Src0.Imm != 1 {
		t.Fatalf("immediate parsed as %+v", prog[0].Src0)
	}
	if prog[1].DType != isa.F32 || isa.F32FromBits(uint32(prog[1].Src1.Imm)) != 1.5 {
		t.Fatalf("float immediate parsed as %+v", prog[1].Src1)
	}
}

func TestAssembleLabelsAndControl(t *testing.T) {
	prog, err := Assemble(`
		cmp.lt.f0(16):u32 r16, #0x8
		(+f0) if(16) ->Lelse
		mov(16):u32 r20, #0x1
	Lelse:
		else(16) ->Lend
		mov(16):u32 r20, #0x2
	Lend:
		endif(16)
		halt(16)
	`)
	if err != nil {
		t.Fatal(err)
	}
	if prog[1].Op != isa.OpIf || prog[1].JumpTarget != 3 {
		t.Fatalf("if target = %d, want 3", prog[1].JumpTarget)
	}
	if prog[1].Pred != isa.PredNorm || prog[1].Flag != isa.F0 {
		t.Fatalf("if predicate = %+v", prog[1])
	}
	if prog[3].Op != isa.OpElse || prog[3].JumpTarget != 5 {
		t.Fatalf("else target = %d, want 5", prog[3].JumpTarget)
	}
}

func TestAssembleSendAndScalar(t *testing.T) {
	prog, err := Assemble(`
		send.ld.block(8):u32 r20, r16.0<0>
		send.st.scatter(8):u32 r17, r20
		barrier(8)
		halt(8)
	`)
	if err != nil {
		t.Fatal(err)
	}
	if prog[0].Send != isa.SendLoadBlock || prog[0].Src0.Kind != isa.RegScalar {
		t.Fatalf("block load parsed as %+v", prog[0])
	}
	if prog[1].Send != isa.SendStoreScatter || prog[1].Dst.Kind != isa.RegNull {
		t.Fatalf("scatter parsed as %+v", prog[1])
	}
}

func TestAssembleErrors(t *testing.T) {
	cases := []struct {
		name, src string
	}{
		{"unknown op", "frobnicate(16)\nhalt(16)"},
		{"bad width", "mov(7) r1, r2\nhalt(16)"},
		{"missing width", "mov r1, r2\nhalt(16)"},
		{"bad register", "mov(16) r200, r2\nhalt(16)"},
		{"bad flag", "cmp.lt.f9(16) r1, r2\nhalt(16)"},
		{"undefined label", "if(16) ->Lnowhere\nendif(16)\nhalt(16)"},
		{"duplicate label", "L:\nL:\nhalt(16)"},
		{"too many operands", "mov(16) r2, r4, r6, r8, r10\nhalt(16)"},
		{"missing dst", "add(16)\nhalt(16)"},
		{"no halt", "mov(16) r2, r4"},
		{"orphan else", "else(16)\nhalt(16)"},
		{"bad dtype", "mov(16):q64 r2, r4\nhalt(16)"},
		{"bad imm", "mov(16) r2, #zz\nhalt(16)"},
		{"cmp without cond", "cmp(16) r1, r2\nhalt(16)"},
		{"bad send", "send.teleport(16) r1, r2\nhalt(16)"},
	}
	for _, c := range cases {
		if _, err := Assemble(c.src); err == nil {
			t.Errorf("%s: accepted", c.name)
		}
	}
}

// Round trip: disassembling a builder-produced kernel and reassembling it
// must reproduce the identical program (modulo comments).
func TestRoundTripBuilderKernel(t *testing.T) {
	b := kbuild.New("rt", isa.SIMD16)
	x := b.Vec()
	addr := b.Addr(b.Arg(0), b.GlobalID(), 4)
	b.LoadGather(x, addr)
	b.CmpU(isa.F0, isa.CmpLT, x, b.U(100))
	b.If(isa.F0)
	b.Mul(x, x, b.F(2))
	b.Else()
	i := b.Vec()
	b.MovU(i, b.U(0))
	b.Loop()
	b.Add(x, x, b.F(1))
	b.AddU(i, i, b.U(1))
	b.CmpU(isa.F1, isa.CmpGE, i, b.U(3))
	b.Break(isa.F1)
	b.CmpU(isa.F0, isa.CmpLT, i, b.U(10))
	b.While(isa.F0)
	b.EndIf()
	b.Sel(isa.F1, x, x, b.U(7))
	b.StoreScatter(addr, x)
	k := b.MustBuild()

	reasm, err := Assemble(k.Program.Disassemble())
	if err != nil {
		t.Fatalf("reassembling disassembly: %v\n%s", err, k.Program.Disassemble())
	}
	compareProgram(t, k.Program, reasm)
}

// Round trip over every registered workload's kernels, harvested from
// small functional runs.
func TestRoundTripWorkloadKernels(t *testing.T) {
	sizes := map[string]int{"nw": 16, "gauss": 16, "floydwarshall": 16, "hotspot": 16,
		"srad": 16, "matmul": 16, "transpose": 16, "bitonic": 64, "fwht": 64, "dwt-haar": 64}
	for _, s := range workloads.All() {
		s := s
		t.Run(s.Name, func(t *testing.T) {
			g := gpu.New(gpu.DefaultConfig())
			n := sizes[s.Name]
			if n == 0 {
				n = 64
			}
			if s.Class == "raytrace" {
				n = 64
			}
			inst, err := s.Setup(g, n)
			if err != nil {
				t.Fatalf("setup: %v", err)
			}
			seen := map[string]bool{}
			for iter := 0; ; iter++ {
				ls := inst.Next(iter)
				if ls == nil || iter > 4 {
					break
				}
				if seen[ls.Kernel.Name] {
					continue
				}
				seen[ls.Kernel.Name] = true
				text := ls.Kernel.Program.Disassemble()
				reasm, err := Assemble(text)
				if err != nil {
					t.Fatalf("kernel %s: %v", ls.Kernel.Name, err)
				}
				compareProgram(t, ls.Kernel.Program, reasm)
			}
		})
	}
}

func compareProgram(t *testing.T, want, got isa.Program) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("length %d vs %d", len(want), len(got))
	}
	for i := range want {
		w := want[i]
		w.Comment = ""
		if got[i] != w {
			t.Fatalf("instruction %d differs:\n  want %s (%+v)\n  got  %s (%+v)",
				i, w.String(), w, got[i].String(), got[i])
		}
	}
}

// An assembled kernel must actually run. The kernel reads the per-lane
// global id (r1) and the base-address argument (r5.0<0>), writing gid*2
// for even lanes and gid*3 for odd ones.
func TestAssembledKernelRuns(t *testing.T) {
	prog, err := Assemble(`
		; out[gid] = gid * 2 for even lanes, gid * 3 for odd ones
		and(16):u32 r20, r1, #0x1
		cmp.eq.f0(16):u32 r20, #0x0
		mad(16):u32 r22, r1, #0x4, r5.0<0>
		(+f0) mul(16):u32 r24, r1, #0x2
		(-f0) mul(16):u32 r24, r1, #0x3
		send.st.scatter(16):u32 r22, r24
		halt(16)
	`)
	if err != nil {
		t.Fatal(err)
	}
	g := gpu.New(gpu.DefaultConfig())
	const n = 64
	out := g.AllocU32(n, make([]uint32, n))
	k := &isa.Kernel{Name: "asm-test", Program: prog, Width: isa.SIMD16}
	if _, err := g.RunCtx(context.Background(), gpu.LaunchSpec{Kernel: k, GlobalSize: n, GroupSize: 32,
		Args: []uint32{out}}); err != nil {
		t.Fatal(err)
	}
	got := g.ReadBufferU32(out, n)
	for i := 0; i < n; i++ {
		want := uint32(i * 2)
		if i%2 == 1 {
			want = uint32(i * 3)
		}
		if got[i] != want {
			t.Fatalf("out[%d] = %d, want %d", i, got[i], want)
		}
	}
}
