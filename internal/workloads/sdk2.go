package workloads

import (
	"fmt"

	"intrawarp/internal/gpu"
	"intrawarp/internal/isa"
	"intrawarp/internal/kbuild"
)

// Fourth workload batch: an AES-style table-lookup cipher (coherent
// control, table-gather memory), a histogram with atomic bins (conflict
// divergence in the memory system), and a workgroup tree reduction in SLM
// (late-stage divergence).

func init() {
	register(&Spec{Name: "aes", Class: "coherent", Divergent: false, DefaultN: 1024, Setup: setupAES})
	register(&Spec{Name: "histogram", Class: "coherent", Divergent: false, DefaultN: 2048, Setup: setupHistogram})
	register(&Spec{Name: "reduce", Class: "hpc-div", Divergent: true, DefaultN: 1024, Setup: setupReduce})
}

// setupAES: a table-based substitution-permutation cipher in the style of
// the SDK's AES sample: each round gathers from a 256-entry T-table (the
// classic memory-divergent lookup), rotates, and mixes with a round key.
// Control flow is fully coherent; the interesting traffic is the gathers.
func setupAES(g *gpu.GPU, n int) (*Instance, error) {
	const rounds = 6
	// Deterministic "T-table" and round keys.
	r := rng(50)
	tbox := make([]uint32, 256)
	for i := range tbox {
		tbox[i] = r.Uint32()
	}
	keys := make([]uint32, rounds)
	for i := range keys {
		keys[i] = r.Uint32()
	}

	b := kbuild.New("aes", isa.SIMD16)
	// args: 0=plaintext 1=tbox 2=out
	pAddr := b.Addr(b.Arg(0), b.GlobalID(), 4)
	state := b.Vec()
	b.LoadGather(state, pAddr)
	for round := 0; round < rounds; round++ {
		// idx = state & 0xFF → gather T[idx]; state = rotl(state,8) ^ T ^ key.
		idx := b.Vec()
		b.And(idx, state, b.U(0xFF))
		tAddr := b.Addr(b.Arg(1), idx, 4)
		tv := b.Vec()
		b.LoadGather(tv, tAddr)
		hi := b.Vec()
		b.Shl(hi, state, b.U(8))
		lo := b.Vec()
		b.Shr(lo, state, b.U(24))
		b.Or(hi, hi, lo)
		b.Xor(hi, hi, tv)
		b.Xor(state, hi, b.U(keys[round]))
	}
	oAddr := b.Addr(b.Arg(2), b.GlobalID(), 4)
	b.StoreScatter(oAddr, state)
	k, err := b.Build()
	if err != nil {
		return nil, err
	}

	pt := make([]uint32, n)
	for i := range pt {
		pt[i] = r.Uint32()
	}
	bufP := g.AllocU32(n, pt)
	bufT := g.AllocU32(256, tbox)
	bufO := g.AllocU32(n, make([]uint32, n))
	spec := gpu.LaunchSpec{Kernel: k, GlobalSize: n, GroupSize: 64,
		Args: []uint32{bufP, bufT, bufO}}
	check := func() error {
		got := g.ReadBufferU32(bufO, n)
		for i := 0; i < n; i++ {
			state := pt[i]
			for round := 0; round < rounds; round++ {
				tv := tbox[state&0xFF]
				state = (state<<8 | state>>24) ^ tv ^ keys[round]
			}
			if got[i] != state {
				return fmt.Errorf("ct[%d] = %#x, want %#x", i, got[i], state)
			}
		}
		return nil
	}
	return Single(spec, check), nil
}

// setupHistogram: each work-item classifies its value into one of 16 bins
// and atomically increments the bin counter — coherent control, heavy
// atomic contention on a single cache line.
func setupHistogram(g *gpu.GPU, n int) (*Instance, error) {
	const bins = 16
	b := kbuild.New("histogram", isa.SIMD16)
	// args: 0=data 1=bins
	dAddr := b.Addr(b.Arg(0), b.GlobalID(), 4)
	v := b.Vec()
	b.LoadGather(v, dAddr)
	bin := b.Vec()
	b.Shr(bin, v, b.U(28)) // top 4 bits select the bin
	bAddr := b.Addr(b.Arg(1), bin, 4)
	one := b.Vec()
	b.MovU(one, b.U(1))
	old := b.Vec()
	b.AtomicAdd(old, bAddr, one)
	k, err := b.Build()
	if err != nil {
		return nil, err
	}

	r := rng(51)
	data := make([]uint32, n)
	for i := range data {
		data[i] = r.Uint32()
	}
	bufD := g.AllocU32(n, data)
	bufB := g.AllocU32(bins, make([]uint32, bins))
	spec := gpu.LaunchSpec{Kernel: k, GlobalSize: n, GroupSize: 64,
		Args: []uint32{bufD, bufB}}
	check := func() error {
		got := g.ReadBufferU32(bufB, bins)
		want := make([]uint32, bins)
		for _, v := range data {
			want[v>>28]++
		}
		for i := range want {
			if got[i] != want[i] {
				return fmt.Errorf("bin[%d] = %d, want %d", i, got[i], want[i])
			}
		}
		return nil
	}
	return Single(spec, check), nil
}

// setupReduce: per-workgroup tree reduction in SLM — the classic kernel
// whose active thread count halves every stage, so late stages run with
// mostly-dead masks (the textbook divergence example).
func setupReduce(g *gpu.GPU, n int) (*Instance, error) {
	const wg = 64
	b := kbuild.New("reduce", isa.SIMD16)
	// args: 0=in 1=out (one word per workgroup)
	lid := b.Vec()
	gsz := b.Vec()
	b.MovU(gsz, b.GroupSize())
	base := b.Vec()
	b.MulU(base, b.GroupID(), gsz)
	b.SubU(lid, b.GlobalID(), base)
	off := b.Vec()
	b.MulU(off, lid, b.U(4))
	inAddr := b.Addr(b.Arg(0), b.GlobalID(), 4)
	v := b.Vec()
	b.LoadGather(v, inAddr)
	b.StoreSLM(off, v)
	b.Barrier()
	for stride := wg / 2; stride >= 1; stride /= 2 {
		// Only lanes with lid < stride act: divergence doubles per stage.
		cur := b.Vec()
		b.CmpU(isa.F0, isa.CmpLT, lid, b.U(uint32(stride)))
		b.If(isa.F0)
		partner := b.Vec()
		b.AddU(partner, off, b.U(uint32(stride*4)))
		pv := b.Vec()
		b.LoadSLM(pv, partner)
		b.LoadSLM(cur, off)
		b.AddU(cur, cur, pv)
		b.EndIf()
		b.Barrier()
		b.CmpU(isa.F0, isa.CmpLT, lid, b.U(uint32(stride)))
		b.If(isa.F0)
		b.StoreSLM(off, cur)
		b.EndIf()
		b.Barrier()
	}
	// Lane with lid == 0 writes the workgroup total.
	b.CmpU(isa.F0, isa.CmpEQ, lid, b.U(0))
	b.If(isa.F0)
	res := b.Vec()
	zero := b.Vec()
	b.MovU(zero, b.U(0))
	b.LoadSLM(res, zero)
	outAddr := b.Addr(b.Arg(1), b.GroupID(), 4)
	b.StoreScatter(outAddr, res)
	b.EndIf()
	b.SetSLMBytes(wg * 4)
	k, err := b.Build()
	if err != nil {
		return nil, err
	}

	r := rng(52)
	in := make([]uint32, n)
	for i := range in {
		in[i] = uint32(r.Intn(1000))
	}
	// One sum per workgroup, the last one over a partial group when n is
	// not a multiple of wg.
	groups := (n + wg - 1) / wg
	bufIn := g.AllocU32(n, in)
	bufOut := g.AllocU32(groups, make([]uint32, groups))
	spec := gpu.LaunchSpec{Kernel: k, GlobalSize: n, GroupSize: wg,
		Args: []uint32{bufIn, bufOut}}
	check := func() error {
		got := g.ReadBufferU32(bufOut, groups)
		for wgI := 0; wgI < groups; wgI++ {
			var want uint32
			for _, v := range in[wgI*wg : min((wgI+1)*wg, n)] {
				want += v
			}
			if got[wgI] != want {
				return fmt.Errorf("sum[%d] = %d, want %d", wgI, got[wgI], want)
			}
		}
		return nil
	}
	return Single(spec, check), nil
}
