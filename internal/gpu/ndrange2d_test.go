package gpu

import (
	"context"
	"testing"

	"intrawarp/internal/isa"
	"intrawarp/internal/kbuild"
)

// idKernel2D writes y*globalX + x into out[y*globalX + x], proving every
// (x, y) work-item ran exactly once with the right coordinates.
func idKernel2D(t *testing.T) *isa.Kernel {
	t.Helper()
	b := kbuild.New("id2d", isa.SIMD16)
	idx := b.Vec()
	gx := b.Vec()
	b.MovU(gx, b.GlobalSizeX())
	b.MadU(idx, b.GlobalIDY(), gx, b.GlobalID())
	addr := b.Addr(b.Arg(0), idx, 4)
	b.StoreScatter(addr, idx)
	return b.MustBuild()
}

func TestLaunch2DCoversRange(t *testing.T) {
	const gx, gy = 40, 12 // deliberately not multiples of the group extents
	g := New(DefaultConfig())
	out := g.AllocU32(gx*gy, fill(gx*gy, 0xDEADBEEF))
	spec := LaunchSpec{
		Kernel: idKernel2D(t), GlobalSize: gx, GroupSize: 32,
		GlobalSizeY: gy, GroupSizeY: 2, Args: []uint32{out},
	}
	run, err := g.RunCtx(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	got := g.ReadBufferU32(out, gx*gy)
	for i := range got {
		if got[i] != uint32(i) {
			t.Fatalf("item %d = %#x, want %d", i, got[i], i)
		}
	}
	// X tail (40 % 16) masks lanes: efficiency below 1.
	if run.SIMDEfficiency() >= 1 {
		t.Fatalf("2-D tail masking missing: efficiency %v", run.SIMDEfficiency())
	}
}

func TestLaunch2DFunctionalMatchesTimed(t *testing.T) {
	const gx, gy = 24, 6
	k := idKernel2D(t)
	gT := New(DefaultConfig())
	outT := gT.AllocU32(gx*gy, fill(gx*gy, 0))
	if _, err := gT.RunCtx(context.Background(), LaunchSpec{Kernel: k, GlobalSize: gx, GroupSize: 16,
		GlobalSizeY: gy, GroupSizeY: 3, Args: []uint32{outT}}); err != nil {
		t.Fatal(err)
	}
	gF := New(DefaultConfig())
	outF := gF.AllocU32(gx*gy, fill(gx*gy, 0))
	if _, err := gF.RunFunctionalCtx(context.Background(), LaunchSpec{Kernel: k, GlobalSize: gx, GroupSize: 16,
		GlobalSizeY: gy, GroupSizeY: 3, Args: []uint32{outF}}, nil); err != nil {
		t.Fatal(err)
	}
	a := gT.ReadBufferU32(outT, gx*gy)
	b := gF.ReadBufferU32(outF, gx*gy)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("timed/functional 2-D mismatch at %d", i)
		}
	}
}

// A 2-D stencil using both coordinates: out[y][x] = in[y][x] + y*0 checks
// GroupIDX/GroupIDY consistency: each workgroup writes its flat index into
// a per-workgroup slot via its (wx, wy).
func TestLaunch2DGroupIDs(t *testing.T) {
	const gx, gy = 32, 8
	const gpx, gpy = 16, 2
	wgX, wgY := gx/gpx, gy/gpy
	b := kbuild.New("wgid2d", isa.SIMD16)
	// flat = wy*wgX + wx, written by the lane with x%gpx==0, y%gpy==0.
	flat := b.Vec()
	b.MadU(flat, b.GroupIDY(), b.U(uint32(wgX)), b.GroupIDX())
	lx := b.Vec()
	b.And(lx, b.GlobalID(), b.U(gpx-1))
	ly := b.Vec()
	b.And(ly, b.GlobalIDY(), b.U(gpy-1))
	b.Or(lx, lx, ly)
	b.CmpU(isa.F0, isa.CmpEQ, lx, b.U(0))
	b.If(isa.F0)
	addr := b.Addr(b.Arg(0), flat, 4)
	tag := b.Vec()
	b.AddU(tag, flat, b.U(100))
	b.StoreScatter(addr, tag)
	b.EndIf()
	k := b.MustBuild()

	g := New(DefaultConfig())
	out := g.AllocU32(wgX*wgY, fill(wgX*wgY, 0))
	if _, err := g.RunCtx(context.Background(), LaunchSpec{Kernel: k, GlobalSize: gx, GroupSize: gpx,
		GlobalSizeY: gy, GroupSizeY: gpy, Args: []uint32{out}}); err != nil {
		t.Fatal(err)
	}
	got := g.ReadBufferU32(out, wgX*wgY)
	for i := range got {
		if got[i] != uint32(i+100) {
			t.Fatalf("wg slot %d = %d, want %d", i, got[i], i+100)
		}
	}
}

func TestLaunch2DValidation(t *testing.T) {
	g := New(DefaultConfig())
	k32 := func() *isa.Kernel {
		b := kbuild.New("w32", isa.SIMD32)
		b.MovU(b.Vec(), b.GlobalID())
		return b.MustBuild()
	}()
	if _, err := g.RunCtx(context.Background(), LaunchSpec{Kernel: k32, GlobalSize: 64, GroupSize: 64,
		GlobalSizeY: 4, GroupSizeY: 1}); err == nil {
		t.Error("2-D SIMD32 launch accepted")
	}
	// Workgroup too large: 32/16 × 4 = 8 threads > 6.
	k16 := idKernel2D(t)
	if _, err := g.RunCtx(context.Background(), LaunchSpec{Kernel: k16, GlobalSize: 32, GroupSize: 32,
		GlobalSizeY: 8, GroupSizeY: 4}); err == nil {
		t.Error("oversized 2-D workgroup accepted")
	}
}

func fill(n int, v uint32) []uint32 {
	out := make([]uint32, n)
	for i := range out {
		out[i] = v
	}
	return out
}
