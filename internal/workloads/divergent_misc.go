package workloads

import (
	"fmt"
	"sort"

	"intrawarp/internal/gpu"
	"intrawarp/internal/isa"
	"intrawarp/internal/kbuild"
)

// Additional divergent OpenCL-SDK-style workloads from the paper's
// Fig. 3 population: binary search and a bitonic-sort phase.

func init() {
	register(&Spec{Name: "bsearch", Class: "hpc-div", Divergent: true, DefaultN: 1024, Setup: setupBSearch})
	registerWidthVariant("bsearch", setupBSearchW)
	register(&Spec{Name: "bitonic", Class: "hpc-div", Divergent: true, DefaultN: 1024, Setup: setupBitonic})
}

// setupBSearch: each work-item binary-searches a sorted table for its key;
// the loop trip count is uniform but the taken branch direction diverges
// per lane every iteration, and the early-exit BREAK diverges.
func setupBSearch(g *gpu.GPU, n int) (*Instance, error) {
	return setupBSearchW(g, n, isa.SIMD16)
}

func setupBSearchW(g *gpu.GPU, n int, width isa.Width) (*Instance, error) {
	const tableSize = 4096
	b := kbuild.New("bsearch", width)
	// args: 0=table 1=keys 2=out index
	kAddr := b.Addr(b.Arg(1), b.GlobalID(), 4)
	key := b.Vec()
	b.LoadGather(key, kAddr)
	lo := b.Vec()
	b.MovU(lo, b.U(0))
	hi := b.Vec()
	b.MovU(hi, b.U(tableSize))
	found := b.Vec()
	b.MovU(found, b.U(0xFFFFFFFF))
	b.Loop()
	{
		mid := b.Vec()
		b.AddU(mid, lo, hi)
		b.Shr(mid, mid, b.U(1))
		mAddr := b.Addr(b.Arg(0), mid, 4)
		mv := b.Vec()
		b.LoadGather(mv, mAddr)
		// Exact hit: record and break.
		b.CmpU(isa.F0, isa.CmpEQ, mv, key)
		b.If(isa.F0)
		b.MovU(found, mid)
		b.EndIf()
		b.Break(isa.F0)
		// Divergent halving.
		b.CmpU(isa.F1, isa.CmpLT, mv, key)
		b.If(isa.F1)
		b.AddU(lo, mid, b.U(1))
		b.Else()
		b.MovU(hi, mid)
		b.EndIf()
	}
	b.CmpU(isa.F0, isa.CmpLT, lo, hi)
	b.While(isa.F0)
	oAddr := b.Addr(b.Arg(2), b.GlobalID(), 4)
	b.StoreScatter(oAddr, found)
	k, err := b.Build()
	if err != nil {
		return nil, err
	}

	r := rng(20)
	table := make([]uint32, tableSize)
	v := uint32(0)
	for i := range table {
		v += uint32(1 + r.Intn(5))
		table[i] = v
	}
	keys := make([]uint32, n)
	for i := range keys {
		if r.Intn(2) == 0 {
			keys[i] = table[r.Intn(tableSize)] // present
		} else {
			keys[i] = uint32(r.Intn(int(v) + 100)) // maybe absent
		}
	}
	bufT := g.AllocU32(tableSize, table)
	bufK := g.AllocU32(n, keys)
	bufO := g.AllocU32(n, make([]uint32, n))
	spec := gpu.LaunchSpec{Kernel: k, GlobalSize: n, GroupSize: 4 * width.Lanes(), Args: []uint32{bufT, bufK, bufO}}
	check := func() error {
		got := g.ReadBufferU32(bufO, n)
		for i := 0; i < n; i++ {
			idx := sort.Search(tableSize, func(j int) bool { return table[j] >= keys[i] })
			want := uint32(0xFFFFFFFF)
			if idx < tableSize && table[idx] == keys[i] {
				// Any index holding the key is acceptable; the table is
				// strictly increasing so indices are unique.
				want = uint32(idx)
			}
			if got[i] != want {
				return fmt.Errorf("search[%d] (key %d) = %#x, want %#x", i, keys[i], got[i], want)
			}
		}
		return nil
	}
	return Single(spec, check), nil
}

// setupBitonic: full bitonic sort of a power-of-two array, one launch per
// (stage, pass). The ascending/descending comparison direction alternates
// per block, producing classic alternating-lane divergence. Any other
// size would pair elements past the end of the array.
func setupBitonic(g *gpu.GPU, n int) (*Instance, error) {
	if _, err := log2(n); err != nil {
		return nil, err
	}
	b := kbuild.New("bitonic-pass", isa.SIMD16)
	// args: 0=data 1=pairDistance(j) 2=blockSize(k)
	j := b.Vec()
	b.MovU(j, b.Arg(1))
	kk := b.Vec()
	b.MovU(kk, b.Arg(2))
	// partner = gid ^ j; only work-items with partner > gid act.
	partner := b.Vec()
	b.Xor(partner, b.GlobalID(), j)
	b.CmpU(isa.F0, isa.CmpGT, partner, b.GlobalID())
	b.If(isa.F0)
	{
		aAddr := b.Addr(b.Arg(0), b.GlobalID(), 4)
		bAddr := b.Addr(b.Arg(0), partner, 4)
		av, bv := b.Vec(), b.Vec()
		b.LoadGather(av, aAddr)
		b.LoadGather(bv, bAddr)
		// Ascending iff (gid & k) == 0.
		dir := b.Vec()
		b.And(dir, b.GlobalID(), kk)
		b.CmpU(isa.F1, isa.CmpEQ, dir, b.U(0))
		// Divergent branch on sort direction, as in the SDK kernel.
		b.If(isa.F1)
		{
			lo2, hi2 := b.Vec(), b.Vec()
			b.MinU(lo2, av, bv)
			b.MaxU(hi2, av, bv)
			b.StoreScatter(aAddr, lo2)
			b.StoreScatter(bAddr, hi2)
		}
		b.Else()
		{
			lo2, hi2 := b.Vec(), b.Vec()
			b.MinU(lo2, av, bv)
			b.MaxU(hi2, av, bv)
			b.StoreScatter(aAddr, hi2)
			b.StoreScatter(bAddr, lo2)
		}
		b.EndIf()
	}
	b.EndIf()
	k, err := b.Build()
	if err != nil {
		return nil, err
	}

	r := rng(21)
	data := make([]uint32, n)
	for i := range data {
		data[i] = uint32(r.Intn(1 << 20))
	}
	buf := g.AllocU32(n, data)

	// Launch schedule: for k = 2,4,..,n; for j = k/2 .. 1.
	var specs []gpu.LaunchSpec
	for kSize := 2; kSize <= n; kSize *= 2 {
		for jj := kSize / 2; jj >= 1; jj /= 2 {
			specs = append(specs, gpu.LaunchSpec{Kernel: k, GlobalSize: n, GroupSize: 64,
				Args: []uint32{buf, uint32(jj), uint32(kSize)}})
		}
	}
	inst := &Instance{
		Next: func(iter int) *gpu.LaunchSpec {
			if iter >= len(specs) {
				return nil
			}
			return &specs[iter]
		},
		Check: func() error {
			got := g.ReadBufferU32(buf, n)
			want := append([]uint32(nil), data...)
			sort.Slice(want, func(a, bI int) bool { return want[a] < want[bI] })
			for i := range want {
				if got[i] != want[i] {
					return fmt.Errorf("sorted[%d] = %d, want %d", i, got[i], want[i])
				}
			}
			return nil
		},
	}
	return inst, nil
}
