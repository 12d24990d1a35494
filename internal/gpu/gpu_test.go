package gpu

import (
	"context"
	"errors"
	"runtime"
	"testing"

	"intrawarp/internal/compaction"
	"intrawarp/internal/eu"
	"intrawarp/internal/isa"
	"intrawarp/internal/kbuild"
)

// vecAddKernel builds c[i] = a[i] + b[i]. Args: 0=a, 1=b, 2=c.
func vecAddKernel(t *testing.T, width isa.Width) *isa.Kernel {
	t.Helper()
	b := kbuild.New("vecadd", width)
	addrA := b.Addr(b.Arg(0), b.GlobalID(), 4)
	addrB := b.Addr(b.Arg(1), b.GlobalID(), 4)
	addrC := b.Addr(b.Arg(2), b.GlobalID(), 4)
	va, vb := b.Vec(), b.Vec()
	b.LoadGather(va, addrA)
	b.LoadGather(vb, addrB)
	b.Add(va, va, vb)
	b.StoreScatter(addrC, va)
	k, err := b.Build()
	if err != nil {
		t.Fatalf("building vecadd: %v", err)
	}
	return k
}

// divergentKernel builds out[i] = i%2 ? x*3 : x*2 with an if/else.
func divergentKernel(t *testing.T) *isa.Kernel {
	t.Helper()
	b := kbuild.New("divergent", isa.SIMD16)
	addrIn := b.Addr(b.Arg(0), b.GlobalID(), 4)
	addrOut := b.Addr(b.Arg(1), b.GlobalID(), 4)
	x := b.Vec()
	b.LoadGather(x, addrIn)
	odd := b.Vec()
	b.And(odd, b.GlobalID(), b.U(1))
	b.CmpU(isa.F0, isa.CmpEQ, odd, b.U(1))
	b.If(isa.F0)
	b.Mul(x, x, b.F(3))
	b.Else()
	b.Mul(x, x, b.F(2))
	b.EndIf()
	b.StoreScatter(addrOut, x)
	k, err := b.Build()
	if err != nil {
		t.Fatalf("building divergent kernel: %v", err)
	}
	return k
}

func launchVecAdd(t *testing.T, g *GPU, k *isa.Kernel, n int) (spec LaunchSpec, a, b, c uint32) {
	t.Helper()
	dataA := make([]float32, n)
	dataB := make([]float32, n)
	for i := range dataA {
		dataA[i] = float32(i)
		dataB[i] = float32(2 * i)
	}
	a = g.AllocF32(n, dataA)
	b = g.AllocF32(n, dataB)
	c = g.AllocF32(n, make([]float32, n))
	spec = LaunchSpec{Kernel: k, GlobalSize: n, GroupSize: 64, Args: []uint32{a, b, c}}
	return spec, a, b, c
}

func TestTimedVecAdd(t *testing.T) {
	const n = 256
	g := New(DefaultConfig())
	k := vecAddKernel(t, isa.SIMD16)
	spec, _, _, c := launchVecAdd(t, g, k, n)
	run, err := g.RunCtx(context.Background(), spec)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	out := g.ReadBufferF32(c, n)
	for i := 0; i < n; i++ {
		if out[i] != float32(3*i) {
			t.Fatalf("c[%d] = %v, want %v", i, out[i], float32(3*i))
		}
	}
	if run.TotalCycles <= 0 || run.EUBusy <= 0 {
		t.Fatalf("timing not recorded: %+v", run)
	}
	if run.Instructions == 0 || run.Sends == 0 {
		t.Fatal("instruction stats not recorded")
	}
	if run.SIMDEfficiency() != 1.0 {
		t.Fatalf("vecadd efficiency = %v, want 1.0 (coherent)", run.SIMDEfficiency())
	}
	// Contiguous lanes: each 16-lane gather touches exactly one line.
	if lps := run.LinesPerSend(); lps != 1 {
		t.Fatalf("lines/send = %v, want 1", lps)
	}
}

func TestFunctionalMatchesTimed(t *testing.T) {
	const n = 192
	k := vecAddKernel(t, isa.SIMD16)

	gt := New(DefaultConfig())
	specT, _, _, cT := launchVecAdd(t, gt, k, n)
	if _, err := gt.RunCtx(context.Background(), specT); err != nil {
		t.Fatalf("timed: %v", err)
	}
	gf := New(DefaultConfig())
	specF, _, _, cF := launchVecAdd(t, gf, k, n)
	rf, err := gf.RunFunctionalCtx(context.Background(), specF, nil)
	if err != nil {
		t.Fatalf("functional: %v", err)
	}
	outT := gt.ReadBufferF32(cT, n)
	outF := gf.ReadBufferF32(cF, n)
	for i := range outT {
		if outT[i] != outF[i] {
			t.Fatalf("functional/timed mismatch at %d: %v vs %v", i, outT[i], outF[i])
		}
	}
	if rf.TotalCycles != 0 {
		t.Fatal("functional run must not report timed cycles")
	}
	if rf.Instructions == 0 {
		t.Fatal("functional run must record instructions")
	}
}

// Functional results must be identical under every compaction policy
// (DESIGN.md invariant: compaction changes time, never values).
func TestPolicyFunctionalEquivalence(t *testing.T) {
	const n = 144
	k := divergentKernel(t)
	var ref []float32
	for _, p := range compaction.Policies {
		g := New(DefaultConfig().WithPolicy(p))
		in := make([]float32, n)
		for i := range in {
			in[i] = float32(i) + 0.5
		}
		a := g.AllocF32(n, in)
		c := g.AllocF32(n, make([]float32, n))
		spec := LaunchSpec{Kernel: k, GlobalSize: n, GroupSize: 48, Args: []uint32{a, c}}
		if _, err := g.RunCtx(context.Background(), spec); err != nil {
			t.Fatalf("%s: %v", p, err)
		}
		out := g.ReadBufferF32(c, n)
		// Spot-check semantics.
		for i := 0; i < n; i++ {
			want := (float32(i) + 0.5) * 2
			if i%2 == 1 {
				want = (float32(i) + 0.5) * 3
			}
			if out[i] != want {
				t.Fatalf("%s: out[%d] = %v, want %v", p, i, out[i], want)
			}
		}
		if ref == nil {
			ref = out
			continue
		}
		for i := range out {
			if out[i] != ref[i] {
				t.Fatalf("%s: functional divergence at %d", p, i)
			}
		}
	}
}

// Stronger compaction must not be slower on a divergent kernel.
func TestPolicyTimingOrdering(t *testing.T) {
	const n = 512
	k := divergentKernel(t)
	var cycles [compaction.NumPolicies]int64
	var busy [compaction.NumPolicies]int64
	for _, p := range compaction.Policies {
		g := New(DefaultConfig().WithPolicy(p))
		in := make([]float32, n)
		a := g.AllocF32(n, in)
		c := g.AllocF32(n, make([]float32, n))
		spec := LaunchSpec{Kernel: k, GlobalSize: n, GroupSize: 96, Args: []uint32{a, c}}
		run, err := g.RunCtx(context.Background(), spec)
		if err != nil {
			t.Fatalf("%s: %v", p, err)
		}
		cycles[p] = run.TotalCycles
		busy[p] = run.EUBusy
	}
	if !(busy[compaction.SCC] <= busy[compaction.BCC] && busy[compaction.BCC] <= busy[compaction.IvyBridge] && busy[compaction.IvyBridge] <= busy[compaction.Baseline]) {
		t.Fatalf("EU busy ordering violated: %v", busy)
	}
	if busy[compaction.SCC] >= busy[compaction.Baseline] {
		t.Fatalf("divergent kernel must benefit from SCC: %v", busy)
	}
	if cycles[compaction.SCC] > cycles[compaction.Baseline] {
		t.Fatalf("SCC total cycles regressed: %v", cycles)
	}
}

func TestTailMasking(t *testing.T) {
	// Global size not a multiple of the SIMD width: tail lanes disabled.
	const n = 100 // 6 full SIMD16 threads + 4 lanes
	g := New(DefaultConfig())
	k := vecAddKernel(t, isa.SIMD16)
	spec, _, _, c := launchVecAdd(t, g, k, n)
	spec.GroupSize = 32
	run, err := g.RunCtx(context.Background(), spec)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	out := g.ReadBufferF32(c, n)
	for i := 0; i < n; i++ {
		if out[i] != float32(3*i) {
			t.Fatalf("c[%d] = %v, want %v", i, out[i], float32(3*i))
		}
	}
	if run.SIMDEfficiency() >= 1.0 {
		t.Fatal("tail masking must reduce efficiency below 1.0")
	}
}

func TestSIMD8Kernel(t *testing.T) {
	const n = 128
	g := New(DefaultConfig())
	k := vecAddKernel(t, isa.SIMD8)
	spec, _, _, c := launchVecAdd(t, g, k, n)
	spec.GroupSize = 32
	if _, err := g.RunCtx(context.Background(), spec); err != nil {
		t.Fatalf("Run: %v", err)
	}
	out := g.ReadBufferF32(c, n)
	for i := 0; i < n; i++ {
		if out[i] != float32(3*i) {
			t.Fatalf("c[%d] = %v", i, out[i])
		}
	}
}

func TestLaunchValidation(t *testing.T) {
	g := New(DefaultConfig())
	k := vecAddKernel(t, isa.SIMD16)
	if _, err := g.RunCtx(context.Background(), LaunchSpec{Kernel: nil, GlobalSize: 1, GroupSize: 1}); err == nil {
		t.Error("nil kernel accepted")
	}
	if _, err := g.RunCtx(context.Background(), LaunchSpec{Kernel: k, GlobalSize: 0, GroupSize: 16}); err == nil {
		t.Error("zero global size accepted")
	}
	// Workgroup larger than one EU's thread capacity.
	if _, err := g.RunCtx(context.Background(), LaunchSpec{Kernel: k, GlobalSize: 1024, GroupSize: 1024}); err == nil {
		t.Error("oversized workgroup accepted")
	}
	// More threads per EU than the timed core's ready mask holds.
	cfg := DefaultConfig()
	cfg.EU.ThreadsPerEU = eu.MaxThreads + 1
	if _, err := New(cfg).RunCtx(context.Background(), LaunchSpec{Kernel: k, GlobalSize: 64, GroupSize: 64}); err == nil {
		t.Error("timed run accepted more threads per EU than the ready mask holds")
	}
}

// wgSumKernel is a workgroup reduction: each thread stores its lanes'
// global ids into SLM, the workgroup meets at a barrier, and lane 0 of
// thread 0 sums the entries and writes the sum to out[group] (argument 0).
func wgSumKernel(t *testing.T) *isa.Kernel {
	t.Helper()
	b := kbuild.New("wgsum", isa.SIMD16)
	// Store per-lane global ids into SLM at local offsets.
	lid := b.Vec()
	// local id = gid - groupID*groupSize
	gsz := b.Vec()
	b.MovU(gsz, b.GroupSize())
	base := b.Vec()
	b.MulU(base, b.GroupID(), gsz)
	b.SubU(lid, b.GlobalID(), base)
	off := b.Vec()
	b.MulU(off, lid, b.U(4))
	b.StoreSLM(off, b.GlobalID())
	b.Barrier()
	// Lane 0 of thread 0 sums the workgroup's entries sequentially.
	isFirst := b.Vec()
	b.MovU(isFirst, b.LocalTID())
	b.CmpU(isa.F0, isa.CmpEQ, isFirst, b.U(0))
	// Only lanes of thread 0 with lid == 0 do the work: lid==0 check.
	b.CmpU(isa.F1, isa.CmpEQ, lid, b.U(0))
	b.If(isa.F0)
	b.If(isa.F1)
	sum := b.Vec()
	b.MovU(sum, b.U(0))
	i := b.Vec()
	b.MovU(i, b.U(0))
	b.Loop()
	cur := b.Vec()
	soff := b.Vec()
	b.MulU(soff, i, b.U(4))
	b.LoadSLM(cur, soff)
	b.AddU(sum, sum, cur)
	b.AddU(i, i, b.U(1))
	b.CmpU(isa.F1, isa.CmpLT, i, gsz)
	b.While(isa.F1)
	outAddr := b.Vec()
	b.MadU(outAddr, b.GroupID(), b.U(4), b.Arg(0))
	b.StoreScatter(outAddr, sum)
	b.EndIf()
	b.EndIf()
	b.SetSLMBytes(64 * 4)
	k, err := b.Build()
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	return k
}

// checkWGSums requires out[wg] to hold the sum of the global ids of
// workgroup wg's gsize items.
func checkWGSums(t *testing.T, g *GPU, out uint32, groups, gsize int) {
	t.Helper()
	got := g.ReadBufferU32(out, groups)
	for wg := 0; wg < groups; wg++ {
		want := uint32(0)
		for i := 0; i < gsize; i++ {
			want += uint32(wg*gsize + i)
		}
		if got[wg] != want {
			t.Fatalf("workgroup %d sum = %d, want %d", wg, got[wg], want)
		}
	}
}

func TestBarrierAndSLM(t *testing.T) {
	k := wgSumKernel(t)
	const groups, gsize = 3, 32
	g := New(DefaultConfig())
	out := g.AllocU32(groups, make([]uint32, groups))
	spec := LaunchSpec{Kernel: k, GlobalSize: groups * gsize, GroupSize: gsize, Args: []uint32{out}}
	run, err := g.RunCtx(context.Background(), spec)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	checkWGSums(t, g, out, groups, gsize)
	if run.Barriers == 0 {
		t.Fatal("barriers not recorded")
	}
	if run.Mem.SLMAccesses == 0 {
		t.Fatal("SLM accesses not recorded")
	}
}

func TestDC2FasterThanDC1OnMemoryBound(t *testing.T) {
	// A strided gather kernel (one line per lane) saturates the data
	// cluster; DC2 must finish faster.
	b := kbuild.New("strided", isa.SIMD16)
	stride := b.Vec()
	b.MulU(stride, b.GlobalID(), b.U(64))
	addr := b.Vec()
	b.AddU(addr, stride, b.Arg(0))
	v := b.Vec()
	b.LoadGather(v, addr)
	out := b.Addr(b.Arg(1), b.GlobalID(), 4)
	b.StoreScatter(out, v)
	k := b.MustBuild()

	const n = 512
	runWith := func(bw int) int64 {
		cfg := DefaultConfig()
		cfg.Mem.DCLinesPerCycle = bw
		cfg.Mem.PerfectL3 = true // isolate the data-cluster throttle from DRAM bandwidth
		g := New(cfg)
		in := g.Mem.Mem.Alloc(n * 64)
		outB := g.AllocU32(n, make([]uint32, n))
		spec := LaunchSpec{Kernel: k, GlobalSize: n, GroupSize: 64, Args: []uint32{in, outB}}
		run, err := g.RunCtx(context.Background(), spec)
		if err != nil {
			t.Fatalf("bw %d: %v", bw, err)
		}
		return run.TotalCycles
	}
	dc1 := runWith(1)
	dc2 := runWith(2)
	if dc2 >= dc1 {
		t.Fatalf("DC2 (%d cycles) not faster than DC1 (%d cycles)", dc2, dc1)
	}
}

func TestWithPolicy(t *testing.T) {
	cfg := DefaultConfig().WithPolicy(compaction.SCC)
	if cfg.EU.Policy != compaction.SCC {
		t.Fatal("WithPolicy did not apply")
	}
	if DefaultConfig().EU.Policy == compaction.SCC {
		t.Fatal("WithPolicy mutated the base config")
	}
}

func TestPayloadLayout(t *testing.T) {
	g := New(DefaultConfig())
	th := &eu.Thread{}
	spec := LaunchSpec{Kernel: vecAddKernel(t, isa.SIMD16), GlobalSize: 100, GroupSize: 32,
		Args: []uint32{0xA0, 0xB0, 0xC0}}
	initThread(th, &spec, nil, 2, 1, nil, nil)
	_ = g
	if got := th.GRF.ReadU32(eu.PayloadReg*32 + eu.R0GroupID); got != 2 {
		t.Errorf("group id = %d", got)
	}
	if got := th.GRF.ReadU32(eu.PayloadReg*32 + eu.R0LocalTID); got != 1 {
		t.Errorf("local tid = %d", got)
	}
	// Thread 1 of workgroup 2 with group size 32, SIMD16: lanes cover
	// global ids 2*32+16 .. +15.
	if got := th.GRF.ReadU32(eu.IDReg * 32); got != 80 {
		t.Errorf("lane 0 gid = %d, want 80", got)
	}
	if got := th.GRF.ReadU32(eu.IDReg*32 + 15*4); got != 95 {
		t.Errorf("lane 15 gid = %d, want 95", got)
	}
	if got := th.GRF.ReadU32(eu.ArgBase*32 + 4); got != 0xB0 {
		t.Errorf("arg 1 = %#x", got)
	}
	if th.Dispatch.PopCount() != 16 {
		t.Errorf("dispatch mask = %#x", th.Dispatch)
	}
	// Tail thread: global size 100, thread covering ids 96..111 keeps 4.
	initThread(th, &spec, nil, 3, 0, nil, nil)
	if th.Dispatch.PopCount() != 4 {
		t.Errorf("tail dispatch mask = %#x, want 4 lanes", th.Dispatch)
	}
}

// TestDecodeFaultFailsLaunch checks that both engines return the decode
// error of a kernel whose third instruction writes past the register
// file before any thread runs: the block store ahead of it never
// reaches memory, and no instruction is visited. The same kernel with
// the write moved to r126, which ends at the file's last byte, runs.
func TestDecodeFaultFailsLaunch(t *testing.T) {
	kernel := func(reg int) *isa.Kernel {
		return &isa.Kernel{Name: "fault", Width: isa.SIMD16, Program: isa.Program{
			{Op: isa.OpMov, Width: isa.SIMD16, DType: isa.U32, Dst: isa.GRF(20), Src0: isa.ImmU32(7)},
			{Op: isa.OpSend, Send: isa.SendStoreBlock, Width: isa.SIMD16, DType: isa.U32,
				Src0: isa.Scalar(eu.ArgBase, 0), Src1: isa.GRF(20)},
			{Op: isa.OpMov, Width: isa.SIMD16, DType: isa.U32, Dst: isa.GRF(reg), Src0: isa.ImmU32(1)},
			{Op: isa.OpHalt, Width: isa.SIMD16},
		}}
	}
	for _, timed := range []bool{false, true} {
		for _, reg := range []int{127, 126} {
			g := New(DefaultConfig())
			buf := g.AllocU32(16, nil)
			spec := LaunchSpec{Kernel: kernel(reg), GlobalSize: 16, GroupSize: 16, Args: []uint32{buf}}
			visited := 0
			var err error
			if timed {
				_, err = g.RunCtx(context.Background(), spec)
			} else {
				_, err = g.RunFunctionalCtx(context.Background(), spec, func(int, int, eu.ExecResult) { visited++ })
			}
			want := uint32(0)
			if reg == 127 {
				var de *eu.DecodeError
				if !errors.As(err, &de) || de.Kernel != "fault" || de.Index != 2 || de.Operand != "dst" {
					t.Fatalf("timed=%v r%d: got %v, want the decode error of instruction 2's dst", timed, reg, err)
				}
				if visited != 0 {
					t.Errorf("timed=%v: %d instructions ran before the decode error", timed, visited)
				}
			} else {
				if err != nil {
					t.Fatalf("timed=%v r%d: %v", timed, reg, err)
				}
				want = 7
			}
			for i, w := range g.ReadBufferU32(buf, 16) {
				if w != want {
					t.Fatalf("timed=%v r%d: word %d = %d, want %d", timed, reg, i, w, want)
				}
			}
		}
	}
}

// TestFunctionalReusesSLM checks that the functional engine gives each
// worker one scratchpad for all its workgroups: a 64-workgroup launch
// allocates far less than the 64 × 64 KB a scratchpad per workgroup
// would cost, serially and on two workers.
func TestFunctionalReusesSLM(t *testing.T) {
	for _, workers := range []int{1, 2} {
		g := New(DefaultConfig().WithWorkers(workers))
		spec, _, _, _ := launchVecAdd(t, g, vecAddKernel(t, isa.SIMD16), 64*64)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if _, err := g.RunFunctionalCtx(context.Background(), spec, nil); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		perWG := int(g.Cfg.Mem.SLMBytes)
		if got := after.TotalAlloc - before.TotalAlloc; got > uint64(16*perWG) {
			t.Errorf("workers=%d: a 64-workgroup launch allocated %d bytes; one %d-byte SLM per workgroup would explain it",
				workers, got, perWG)
		}
	}
}
