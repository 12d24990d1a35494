package gpu

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"runtime"
	"slices"
	"testing"

	"intrawarp/internal/isa"
	"intrawarp/internal/kbuild"
	"intrawarp/internal/stats"
)

// newGPUSink keeps New's result live so the allocation test measures it.
var newGPUSink *GPU

// TestNewAllocatesLittle pins what New builds: the memory system's
// headers and one page of device memory. EUs, cache arrays and
// scratchpads wait for the run that uses them.
func TestNewAllocatesLittle(t *testing.T) {
	const calls = 100
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < calls; i++ {
		newGPUSink = New(DefaultConfig())
	}
	runtime.ReadMemStats(&after)
	perCall := (after.TotalAlloc - before.TotalAlloc) / calls
	allocs := (after.Mallocs - before.Mallocs) / calls
	if perCall >= 16<<10 {
		t.Fatalf("New(DefaultConfig()) allocates %d bytes in %d allocations, want under 16 KiB", perCall, allocs)
	}
	if g := New(DefaultConfig()); g.EUs != nil || g.Mem.L3 == nil || g.Mem.LLC == nil {
		t.Fatalf("New built EUs %v, L3 %v, LLC %v; want no EUs and both cache headers", g.EUs, g.Mem.L3, g.Mem.LLC)
	}
}

// mixedKernel builds a kernel of the given width that computes
// out[gid] = in[gid]*2 or *3 by parity. With slm, each lane first loads
// its own SLM word, before anything in the launch has stored to it, and
// adds it to the result, then stores a nonzero marker there. So a word
// carried over from an earlier workgroup or launch changes the output.
func mixedKernel(t *testing.T, width isa.Width, slm bool) *isa.Kernel {
	t.Helper()
	b := kbuild.New(fmt.Sprintf("mixed%d-slm%v", width, slm), width)
	addrIn := b.Addr(b.Arg(0), b.GlobalID(), 4)
	addrOut := b.Addr(b.Arg(1), b.GlobalID(), 4)
	x := b.Vec()
	b.LoadGather(x, addrIn)
	odd := b.Vec()
	b.And(odd, x, b.U(1))
	b.CmpU(isa.F0, isa.CmpEQ, odd, b.U(1))
	b.If(isa.F0)
	b.MulU(x, x, b.U(3))
	b.Else()
	b.MulU(x, x, b.U(2))
	b.EndIf()
	if slm {
		gsz, base, off := b.Vec(), b.Vec(), b.Vec()
		b.MovU(gsz, b.GroupSize())
		b.MulU(base, b.GroupID(), gsz)
		b.SubU(off, b.GlobalID(), base)
		b.MulU(off, off, b.U(4))
		stale := b.Vec()
		b.LoadSLM(stale, off)
		b.AddU(x, x, stale)
		marker := b.Vec()
		b.AddU(marker, b.GlobalID(), b.U(1))
		b.StoreSLM(off, marker)
		b.Barrier()
	}
	b.StoreScatter(addrOut, x)
	k, err := b.Build()
	if err != nil {
		t.Fatalf("building mixed kernel: %v", err)
	}
	return k
}

// mixedStep is one launch of the mixed sequence.
type mixedStep struct {
	width   isa.Width
	threads int // EU threads per workgroup
	slm     bool
	timed   bool
}

// mixedBuffers allocates the sequence's input and output buffers. Every
// GPU of the test allocates them identically, so their addresses match.
func mixedBuffers(g *GPU, n int) (in, out uint32) {
	data := make([]uint32, n)
	for i := range data {
		data[i] = uint32(i*7 + 3)
	}
	return g.AllocU32(n, data), g.AllocU32(n, nil)
}

// runMixed runs one step on g and returns its report and its output.
func runMixed(t *testing.T, g *GPU, k *isa.Kernel, st mixedStep, in, out uint32, n int) ([]byte, []uint32) {
	t.Helper()
	g.WriteBufferU32(out, make([]uint32, n))
	spec := LaunchSpec{Kernel: k, GlobalSize: n, GroupSize: st.threads * st.width.Lanes(), Args: []uint32{in, out}}
	var run *stats.Run
	var err error
	if st.timed {
		run, err = g.RunCtx(context.Background(), spec)
	} else {
		run, err = g.RunFunctionalCtx(context.Background(), spec, nil)
	}
	if err != nil {
		t.Fatalf("%s: %v", k.Name, err)
	}
	rep, err := json.Marshal(run.Report())
	if err != nil {
		t.Fatal(err)
	}
	return rep, g.ReadBufferU32(out, n)
}

// TestMixedLaunchSequenceMatchesFresh runs one GPU through launches that
// alternate SIMD8, SIMD16 and SIMD32 kernels, workgroups of one to six
// EU threads, SLM and SLM-free kernels, and the functional and timed
// engines. Each functional launch must match a fresh GPU's byte for byte.
// Each timed launch must match a GPU that ran only the sequence's timed
// launches: caches, DRAM bandwidth and the arbiter deliberately persist
// across timed launches, and the functional launches in between must not
// disturb them. Every output must be the host reference, so no SLM word
// survives into a later workgroup or launch of either engine.
func TestMixedLaunchSequenceMatchesFresh(t *testing.T) {
	const n = 1000
	var steps []mixedStep
	for i, w := range []isa.Width{isa.SIMD8, isa.SIMD16, isa.SIMD32, isa.SIMD16, isa.SIMD8, isa.SIMD32} {
		steps = append(steps,
			mixedStep{width: w, threads: 1 + i, slm: i%2 == 0},
			mixedStep{width: w, threads: 6 - i, slm: i%2 == 1, timed: true},
			mixedStep{width: w, threads: 2, slm: i%2 == 0})
	}
	kernels := map[mixedStep]*isa.Kernel{}
	for _, st := range steps {
		key := mixedStep{width: st.width, slm: st.slm}
		if kernels[key] == nil {
			kernels[key] = mixedKernel(t, st.width, st.slm)
		}
	}
	kernel := func(st mixedStep) *isa.Kernel { return kernels[mixedStep{width: st.width, slm: st.slm}] }
	want := make([]uint32, n)
	for i := range want {
		x := uint32(i*7 + 3)
		if x%2 == 1 {
			want[i] = x * 3
		} else {
			want[i] = x * 2
		}
	}

	for _, workers := range []int{1, 2} {
		cfg := DefaultConfig().WithWorkers(workers)
		g, timedRef := New(cfg), New(cfg)
		in, out := mixedBuffers(g, n)
		mixedBuffers(timedRef, n)
		for i, st := range steps {
			k := kernel(st)
			got, gotOut := runMixed(t, g, k, st, in, out, n)
			if !slices.Equal(gotOut, want) {
				t.Fatalf("workers=%d step %d (%s, %d threads, timed %v): output differs from the host reference",
					workers, i, k.Name, st.threads, st.timed)
			}
			ref := timedRef
			if !st.timed {
				ref = New(cfg)
				mixedBuffers(ref, n)
			}
			wantRep, _ := runMixed(t, ref, k, st, in, out, n)
			if !bytes.Equal(got, wantRep) {
				t.Fatalf("workers=%d step %d (%s, %d threads, timed %v): report differs\nreused: %s\nreference: %s",
					workers, i, k.Name, st.threads, st.timed, got, wantRep)
			}
		}
	}
}
