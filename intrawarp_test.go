package intrawarp

import (
	"bytes"
	"context"
	"strings"
	"testing"
)

// The facade quick-start path: build a kernel, run it timed under SCC,
// read results back.
func TestFacadeQuickstart(t *testing.T) {
	g, err := NewGPU(WithPolicy(SCC))
	if err != nil {
		t.Fatal(err)
	}
	const n = 256
	data := make([]float32, n)
	for i := range data {
		data[i] = float32(i)
	}
	buf := g.AllocF32(n, data)

	b := NewKernel("scale", SIMD16)
	addr := b.Addr(b.Arg(0), b.GlobalID(), 4)
	v := b.Vec()
	b.LoadGather(v, addr)
	b.Mul(v, v, b.F(2))
	b.StoreScatter(addr, v)
	k := b.MustBuild()

	run, err := g.RunCtx(context.Background(), LaunchSpec{Kernel: k, GlobalSize: n, GroupSize: 64, Args: []uint32{buf}})
	if err != nil {
		t.Fatal(err)
	}
	out := g.ReadBufferF32(buf, n)
	for i := range out {
		if out[i] != float32(i)*2 {
			t.Fatalf("out[%d] = %v", i, out[i])
		}
	}
	if run.TotalCycles == 0 || run.TimedPolicy != SCC {
		t.Fatalf("run metadata wrong: %+v", run)
	}
}

func TestFacadeCyclesAndSchedule(t *testing.T) {
	if SCC.Cycles(0xAAAA, 16, 4) != 2 || Baseline.Cycles(0xAAAA, 16, 4) != 4 {
		t.Fatal("facade policy Cycles wrong")
	}
	s := ComputeSchedule(0xAAAA, 16, 4)
	if len(s.Cycles) != 2 || s.SwizzleCount() != 4 {
		t.Fatalf("facade schedule wrong: %d cycles, %d swizzles", len(s.Cycles), s.SwizzleCount())
	}
}

func TestFacadeWorkloadsAndTraces(t *testing.T) {
	if len(Workloads()) < 20 {
		t.Fatalf("only %d workloads registered", len(Workloads()))
	}
	w, err := WorkloadByName("bsearch")
	if err != nil {
		t.Fatal(err)
	}
	g, err := NewGPU()
	if err != nil {
		t.Fatal(err)
	}
	run, err := RunWorkloadCtx(context.Background(), g, w, WithSize(256))
	if err != nil {
		t.Fatal(err)
	}
	if !run.Divergent() {
		t.Fatal("bsearch should be divergent")
	}
	tr := AnalyzeTrace("t", []TraceRecord{{Width: 16, Group: 4, Mask: 0x00FF}})
	if tr.SIMDEfficiency() != 0.5 {
		t.Fatalf("trace efficiency = %v", tr.SIMDEfficiency())
	}
}

func TestFacadeExperiments(t *testing.T) {
	if len(Experiments()) < 13 {
		t.Fatalf("only %d experiments registered", len(Experiments()))
	}
	var buf bytes.Buffer
	if err := RunExperimentCtx(context.Background(), "rfarea", WithOutput(&buf), WithQuick()); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "interwarp") {
		t.Fatalf("unexpected rfarea output:\n%s", buf.String())
	}
	if err := RunExperimentCtx(context.Background(), "bogus", WithOutput(&buf), WithQuick()); err == nil {
		t.Fatal("unknown experiment accepted")
	}
}

func TestFacadeAssemble(t *testing.T) {
	prog, err := Assemble(`
		mov(16):u32 r20, #0x7
		halt(16)
	`)
	if err != nil {
		t.Fatal(err)
	}
	if len(prog) != 2 {
		t.Fatalf("%d instructions", len(prog))
	}
	// Round trip through the disassembler.
	again, err := Assemble(prog.Disassemble())
	if err != nil {
		t.Fatal(err)
	}
	if len(again) != len(prog) || again[0] != prog[0] {
		t.Fatal("facade assemble round trip failed")
	}
	if _, err := Assemble("nonsense"); err == nil {
		t.Fatal("garbage accepted")
	}
}
