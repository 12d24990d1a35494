package gpu

import (
	"bytes"
	"context"
	"encoding/json"
	"reflect"
	"testing"

	"intrawarp/internal/compaction"
	"intrawarp/internal/eu"
	"intrawarp/internal/isa"
	"intrawarp/internal/kbuild"
	"intrawarp/internal/mask"
	"intrawarp/internal/stats"
)

// atomicDivergentKernel builds a kernel exercising everything the
// parallel engine must keep deterministic: data-dependent divergence, a
// workgroup barrier over SLM, a cross-workgroup atomic accumulator, and
// scattered stores. out[i] = in[i]*2 or *3 by parity; sum += in[i].
func atomicDivergentKernel(t *testing.T) *isa.Kernel {
	t.Helper()
	b := kbuild.New("pardet", isa.SIMD16)
	addrIn := b.Addr(b.Arg(0), b.GlobalID(), 4)
	addrOut := b.Addr(b.Arg(1), b.GlobalID(), 4)
	x := b.Vec()
	b.LoadGather(x, addrIn)

	// Stage through SLM with a barrier so workgroup coordination is
	// exercised too. Local id = global id mod the 32-item group size.
	slmOff := b.Vec()
	b.And(slmOff, b.GlobalID(), b.U(31))
	b.MulU(slmOff, slmOff, b.U(4))
	b.StoreSLM(slmOff, x)
	b.Barrier()
	b.LoadSLM(x, slmOff)

	odd := b.Vec()
	b.And(odd, b.GlobalID(), b.U(1))
	b.CmpU(isa.F0, isa.CmpEQ, odd, b.U(1))
	b.If(isa.F0)
	b.MulU(x, x, b.U(3))
	b.Else()
	b.MulU(x, x, b.U(2))
	b.EndIf()

	// Cross-workgroup atomic: every lane adds its value to one counter.
	accAddr := b.Vec()
	b.MovU(accAddr, b.Arg(2))
	old := b.Vec()
	b.AtomicAdd(old, accAddr, x)
	b.StoreScatter(addrOut, x)
	k, err := b.Build()
	if err != nil {
		t.Fatalf("building pardet kernel: %v", err)
	}
	return k
}

// runDeterminism executes the kernel functionally with the given worker
// count and returns the run plus the architectural results.
func runDeterminism(t *testing.T, p compaction.Policy, workers int, k *isa.Kernel, n int) (run interface{}, out []uint32, sum uint32) {
	t.Helper()
	g := New(DefaultConfig().WithPolicy(p).WithWorkers(workers))
	data := make([]uint32, n)
	for i := range data {
		data[i] = uint32(i%97 + 1)
	}
	in := g.AllocU32(n, data)
	outBuf := g.AllocU32(n, make([]uint32, n))
	acc := g.AllocU32(1, []uint32{0})
	r, err := g.RunFunctionalCtx(context.Background(), LaunchSpec{Kernel: k, GlobalSize: n, GroupSize: 32,
		Args: []uint32{in, outBuf, acc}}, nil)
	if err != nil {
		t.Fatalf("workers=%d: %v", workers, err)
	}
	return r, g.ReadBufferU32(outBuf, n), g.ReadBufferU32(acc, 1)[0]
}

// TestParallelFunctionalDeterminism is the engine's core guarantee: a
// parallel functional run produces statistics and architectural results
// bit-identical to a serial run, for every compaction policy.
func TestParallelFunctionalDeterminism(t *testing.T) {
	k := atomicDivergentKernel(t)
	const n = 1024
	for _, p := range compaction.Policies {
		serialRun, serialOut, serialSum := runDeterminism(t, p, 1, k, n)
		for _, workers := range []int{2, 4, 8} {
			parRun, parOut, parSum := runDeterminism(t, p, workers, k, n)
			if !reflect.DeepEqual(serialRun, parRun) {
				t.Fatalf("policy %s workers=%d: stats differ from serial\nserial: %+v\nparallel: %+v",
					p, workers, serialRun, parRun)
			}
			if !reflect.DeepEqual(serialOut, parOut) {
				t.Fatalf("policy %s workers=%d: architectural results differ", p, workers)
			}
			if parSum != serialSum {
				t.Fatalf("policy %s workers=%d: atomic sum %d != serial %d", p, workers, parSum, serialSum)
			}
		}
	}
}

// TestParallelMatchesDefaultWorkers checks the default worker count
// (GOMAXPROCS via Workers=0) also reproduces serial statistics.
func TestParallelMatchesDefaultWorkers(t *testing.T) {
	k := atomicDivergentKernel(t)
	const n = 512
	serialRun, _, _ := runDeterminism(t, compaction.SCC, 1, k, n)
	defRun, _, _ := runDeterminism(t, compaction.SCC, 0, k, n)
	if !reflect.DeepEqual(serialRun, defRun) {
		t.Fatal("default worker count produced different statistics than serial")
	}
}

// TestVisitorKeepsWorkgroupOrder pins the trace-capture contract at any
// worker count: a visitor sees each workgroup's instructions together,
// the workgroups in index order, and at Workers 4 the same record stream
// as at Workers 1. The visitor appends without a lock, so a run that
// called it from two goroutines also fails under the race detector.
func TestVisitorKeepsWorkgroupOrder(t *testing.T) {
	k := atomicDivergentKernel(t)
	const n, group = 1024, 32
	type record struct {
		wg, thread int
		op         isa.Opcode
		mask       mask.Mask
	}
	capture := func(workers int) []record {
		g := New(DefaultConfig().WithWorkers(workers))
		data := make([]uint32, n)
		for i := range data {
			data[i] = uint32(i%97 + 1)
		}
		spec := LaunchSpec{Kernel: k, GlobalSize: n, GroupSize: group, Args: []uint32{
			g.AllocU32(n, data), g.AllocU32(n, nil), g.AllocU32(1, nil)}}
		var recs []record
		_, err := g.RunFunctionalCtx(context.Background(), spec, func(wg, thread int, res eu.ExecResult) {
			recs = append(recs, record{wg, thread, res.Instr.Op, res.Mask})
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		return recs
	}
	one, four := capture(1), capture(4)
	if len(four) == 0 || four[0].wg != 0 || four[len(four)-1].wg != n/group-1 {
		t.Fatalf("workers=4: %d records, want workgroups 0 through %d", len(four), n/group-1)
	}
	for i := 1; i < len(four); i++ {
		if d := four[i].wg - four[i-1].wg; d != 0 && d != 1 {
			t.Fatalf("workers=4: record %d is workgroup %d's, after workgroup %d's", i, four[i].wg, four[i-1].wg)
		}
	}
	if !reflect.DeepEqual(one, four) {
		t.Fatal("the visitor saw another record stream at Workers 4 than at Workers 1")
	}
}

// TestTimedRunIgnoresWorkers documents that the cycle-level simulator is
// unaffected by the Workers knob: timing interleaves workgroups over
// shared EUs cycle by cycle and cannot shard.
func TestTimedRunIgnoresWorkers(t *testing.T) {
	k := atomicDivergentKernel(t)
	const n = 256
	var ref int64
	for i, workers := range []int{1, 8} {
		g := New(DefaultConfig().WithPolicy(compaction.BCC).WithWorkers(workers))
		data := make([]uint32, n)
		for j := range data {
			data[j] = uint32(j + 1)
		}
		in := g.AllocU32(n, data)
		out := g.AllocU32(n, make([]uint32, n))
		acc := g.AllocU32(1, []uint32{0})
		r, err := g.RunCtx(context.Background(), LaunchSpec{Kernel: k, GlobalSize: n, GroupSize: 32,
			Args: []uint32{in, out, acc}})
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			ref = r.TotalCycles
		} else if r.TotalCycles != ref {
			t.Fatalf("timed run changed with Workers: %d vs %d cycles", r.TotalCycles, ref)
		}
	}
}

// TestReturnedRunsFlushed pins that the timed engine and the functional
// engine, on one worker and on two, hand back runs with nothing left to cost: one
// more Flush leaves the marshaled run unchanged.
func TestReturnedRunsFlushed(t *testing.T) {
	k := atomicDivergentKernel(t)
	const n = 512
	for _, tc := range []struct {
		name    string
		workers int
		timed   bool
	}{
		{"timed", 1, true},
		{"functional serial", 1, false},
		{"functional parallel", 2, false},
	} {
		g := New(DefaultConfig().WithPolicy(compaction.SCC).WithWorkers(tc.workers))
		data := make([]uint32, n)
		for i := range data {
			data[i] = uint32(i%97 + 1)
		}
		spec := LaunchSpec{Kernel: k, GlobalSize: n, GroupSize: 32, Args: []uint32{
			g.AllocU32(n, data), g.AllocU32(n, nil), g.AllocU32(1, nil)}}
		var run *stats.Run
		var err error
		if tc.timed {
			run, err = g.RunCtx(context.Background(), spec)
		} else {
			run, err = g.RunFunctionalCtx(context.Background(), spec, nil)
		}
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if run.Instructions == 0 {
			t.Fatalf("%s: no instructions accounted", tc.name)
		}
		before, _ := json.Marshal(run)
		run.Flush()
		if after, _ := json.Marshal(run); !bytes.Equal(before, after) {
			t.Fatalf("%s: run returned with pending signatures:\n%s\n%s", tc.name, before, after)
		}
	}
}
