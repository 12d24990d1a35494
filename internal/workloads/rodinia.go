package workloads

import (
	"fmt"
	"math"

	"intrawarp/internal/gpu"
	"intrawarp/internal/isa"
	"intrawarp/internal/kbuild"
)

// The divergent Rodinia-style set of the paper's Fig. 12 timing study:
// hotspot, lavaMD, Needleman-Wunsch, particle filter — plus EigenValue
// from the AMD SDK set (Fig. 9/10). BFS lives in bfs.go.

func init() {
	register(&Spec{Name: "hotspot", Class: "rodinia", Divergent: true, DefaultN: 32, Setup: setupHotspot})
	register(&Spec{Name: "lavamd", Class: "rodinia", Divergent: true, DefaultN: 512, Setup: setupLavaMD})
	register(&Spec{Name: "nw", Class: "rodinia", Divergent: true, DefaultN: 48, Setup: setupNW})
	register(&Spec{Name: "particlefilter", Class: "rodinia", Divergent: true, DefaultN: 512, Setup: setupParticleFilter})
	registerWidthVariant("particlefilter", setupParticleFilterW)
	register(&Spec{Name: "eigenvalue", Class: "hpc-div", Divergent: true, DefaultN: 128, Setup: setupEigenValue})
}

// setupHotspot: one explicit-step thermal stencil over an n×n grid with
// per-direction boundary conditionals (the divergence source).
func setupHotspot(g *gpu.GPU, n int) (*Instance, error) {
	const (
		kCoef = 0.1
		steps = 4
	)
	shift, err := log2(n)
	if err != nil {
		return nil, err
	}
	build := func(name string, srcArg, dstArg int) (*isa.Kernel, error) {
		b := kbuild.New(name, isa.SIMD16)
		row, col := b.Vec(), b.Vec()
		b.Shr(row, b.GlobalID(), b.U(uint32(shift)))
		b.And(col, b.GlobalID(), b.U(uint32(n-1)))
		// Pyramid-halo validity check (Rodinia's IN_RANGE): the computed
		// region shrinks by one ring per step (arg 3), so halo lanes go
		// idle — the kernel's main divergence source.
		s := b.Vec()
		b.MovU(s, b.Arg(3))
		hiBound := b.Vec()
		b.MovU(hiBound, b.U(uint32(n)))
		b.SubU(hiBound, hiBound, s)
		inR := b.Vec()
		chk := func(v isa.Operand) {
			t1, t2 := b.Vec(), b.Vec()
			b.MovU(t1, b.U(0))
			b.MovU(t2, b.U(0))
			b.CmpU(isa.F0, isa.CmpGE, v, s)
			b.Sel(isa.F0, t1, b.U(1), b.U(0))
			b.CmpU(isa.F0, isa.CmpLT, v, hiBound)
			b.Sel(isa.F0, t2, b.U(1), b.U(0))
			b.And(t1, t1, t2)
			b.And(inR, inR, t1)
		}
		b.MovU(inR, b.U(1))
		chk(row)
		chk(col)
		b.CmpU(isa.F0, isa.CmpEQ, inR, b.U(1))
		b.If(isa.F0)
		center := b.Vec()
		cAddr := b.Addr(b.Arg(srcArg), b.GlobalID(), 4)
		b.LoadGather(center, cAddr)

		// Neighbor loads with clamped boundary handling: each direction
		// is a divergent IF/ELSE.
		neighbor := func(flagCond func(), inIdx, outIdx isa.Operand) isa.Operand {
			v := b.Vec()
			flagCond()
			b.If(isa.F0)
			addr := b.Addr(b.Arg(srcArg), inIdx, 4)
			b.LoadGather(v, addr)
			b.Else()
			b.MovU(v, center)
			b.EndIf()
			_ = outIdx
			return v
		}
		idxN, idxS, idxW, idxE := b.Vec(), b.Vec(), b.Vec(), b.Vec()
		b.SubU(idxN, b.GlobalID(), b.U(uint32(n)))
		b.AddU(idxS, b.GlobalID(), b.U(uint32(n)))
		b.SubU(idxW, b.GlobalID(), b.U(1))
		b.AddU(idxE, b.GlobalID(), b.U(1))
		vN := neighbor(func() { b.CmpU(isa.F0, isa.CmpGT, row, b.U(0)) }, idxN, isa.Null)
		vS := neighbor(func() { b.CmpU(isa.F0, isa.CmpLT, row, b.U(uint32(n-1))) }, idxS, isa.Null)
		vW := neighbor(func() { b.CmpU(isa.F0, isa.CmpGT, col, b.U(0)) }, idxW, isa.Null)
		vE := neighbor(func() { b.CmpU(isa.F0, isa.CmpLT, col, b.U(uint32(n-1))) }, idxE, isa.Null)

		sum := b.Vec()
		b.Add(sum, vN, vS)
		b.Add(sum, sum, vW)
		b.Add(sum, sum, vE)
		b.Mad(sum, center, b.F(-4), sum)
		out := b.Vec()
		b.Mad(out, sum, b.F(kCoef), center)
		// Power input.
		pAddr := b.Addr(b.Arg(2), b.GlobalID(), 4)
		p := b.Vec()
		b.LoadGather(p, pAddr)
		b.Add(out, out, p)
		oAddr := b.Addr(b.Arg(dstArg), b.GlobalID(), 4)
		b.StoreScatter(oAddr, out)
		b.Else()
		// Halo lanes carry the old value forward.
		old := b.Vec()
		oldAddr := b.Addr(b.Arg(srcArg), b.GlobalID(), 4)
		b.LoadGather(old, oldAddr)
		keepAddr := b.Addr(b.Arg(dstArg), b.GlobalID(), 4)
		b.StoreScatter(keepAddr, old)
		b.EndIf()
		return b.Build()
	}
	fwd, err := build("hotspot", 0, 1)
	if err != nil {
		return nil, err
	}
	bwd, err := build("hotspot-flip", 1, 0)
	if err != nil {
		return nil, err
	}

	r := rng(11)
	temp := make([]float32, n*n)
	power := make([]float32, n*n)
	for i := range temp {
		temp[i] = 20 + 10*r.Float32()
		power[i] = 0.1 * r.Float32()
	}
	bufA := g.AllocF32(n*n, temp)
	bufB := g.AllocF32(n*n, make([]float32, n*n))
	bufP := g.AllocF32(n*n, power)

	inst := &Instance{
		Next: func(iter int) *gpu.LaunchSpec {
			if iter >= steps {
				return nil
			}
			k := fwd
			if iter%2 == 1 {
				k = bwd
			}
			return &gpu.LaunchSpec{Kernel: k, GlobalSize: n * n, GroupSize: 64,
				Args: []uint32{bufA, bufB, bufP, uint32(iter)}}
		},
		Check: func() error {
			// Host reference for the same number of steps with the same
			// shrinking valid region.
			cur := append([]float32(nil), temp...)
			next := make([]float32, n*n)
			for s := 0; s < steps; s++ {
				for rI := 0; rI < n; rI++ {
					for cI := 0; cI < n; cI++ {
						if rI < s || rI >= n-s || cI < s || cI >= n-s {
							next[rI*n+cI] = cur[rI*n+cI]
							continue
						}
						at := func(rr, cc int) float32 {
							if rr < 0 || rr >= n || cc < 0 || cc >= n {
								return cur[rI*n+cI]
							}
							return cur[rr*n+cc]
						}
						c := cur[rI*n+cI]
						delta := at(rI-1, cI) + at(rI+1, cI) + at(rI, cI-1) + at(rI, cI+1) - 4*c
						next[rI*n+cI] = c + kCoef*delta + power[rI*n+cI]
					}
				}
				cur, next = next, cur
			}
			buf := bufA
			if steps%2 == 1 {
				buf = bufB
			}
			got := g.ReadBufferF32(buf, n*n)
			for i := range got {
				if !almostEqual(got[i], cur[i], 1e-3) {
					return fmt.Errorf("temp[%d] = %v, want %v", i, got[i], cur[i])
				}
			}
			return nil
		},
	}
	return inst, nil
}

// setupLavaMD: per-particle neighbor-list force accumulation with a
// cutoff conditional inside the loop — per-pair divergence.
func setupLavaMD(g *gpu.GPU, n int) (*Instance, error) {
	const (
		neighbors = 24
		cutoff2   = 0.15
	)
	b := kbuild.New("lavamd", isa.SIMD16)
	// Positions: x[i], y[i]; neighbor indices nbr[i*neighbors + j].
	xAddr := b.Addr(b.Arg(0), b.GlobalID(), 4)
	yAddr := b.Addr(b.Arg(1), b.GlobalID(), 4)
	x, y := b.Vec(), b.Vec()
	b.LoadGather(x, xAddr)
	b.LoadGather(y, yAddr)
	nbrPtr := b.Vec()
	b.MulU(nbrPtr, b.GlobalID(), b.U(neighbors*4))
	b.AddU(nbrPtr, nbrPtr, b.Arg(2))
	fx, fy := b.Vec(), b.Vec()
	b.Mov(fx, b.F(0))
	b.Mov(fy, b.F(0))
	j := b.Vec()
	b.MovU(j, b.U(0))
	b.Loop()
	{
		nb := b.Vec()
		b.LoadGather(nb, nbrPtr)
		nxAddr := b.Addr(b.Arg(0), nb, 4)
		nyAddr := b.Addr(b.Arg(1), nb, 4)
		nx, ny := b.Vec(), b.Vec()
		b.LoadGather(nx, nxAddr)
		b.LoadGather(ny, nyAddr)
		dx, dy := b.Vec(), b.Vec()
		b.Sub(dx, nx, x)
		b.Sub(dy, ny, y)
		d2 := b.Vec()
		b.Mul(d2, dx, dx)
		b.Mad(d2, dy, dy, d2)
		b.Cmp(isa.F0, isa.CmpLT, d2, b.F(cutoff2))
		b.If(isa.F0)
		// Inside cutoff: f += (cutoff² - d²) · d̂ — heavier math path.
		w := b.Vec()
		b.Mov(w, b.F(cutoff2))
		b.Sub(w, w, d2)
		inv := b.Vec()
		b.Add(inv, d2, b.F(1e-6))
		b.Rsqrt(inv, inv)
		b.Mul(w, w, inv)
		b.Mad(fx, dx, w, fx)
		b.Mad(fy, dy, w, fy)
		b.EndIf()
	}
	b.AddU(nbrPtr, nbrPtr, b.U(4))
	b.AddU(j, j, b.U(1))
	b.CmpU(isa.F1, isa.CmpLT, j, b.U(neighbors))
	b.While(isa.F1)
	oxAddr := b.Addr(b.Arg(3), b.GlobalID(), 4)
	oyAddr := b.Addr(b.Arg(4), b.GlobalID(), 4)
	b.StoreScatter(oxAddr, fx)
	b.StoreScatter(oyAddr, fy)
	k, err := b.Build()
	if err != nil {
		return nil, err
	}

	r := rng(12)
	px := make([]float32, n)
	py := make([]float32, n)
	nbr := make([]uint32, n*neighbors)
	for i := 0; i < n; i++ {
		px[i] = r.Float32()
		py[i] = r.Float32()
	}
	for i := range nbr {
		nbr[i] = uint32(r.Intn(n))
	}
	bufX := g.AllocF32(n, px)
	bufY := g.AllocF32(n, py)
	bufN := g.AllocU32(n*neighbors, nbr)
	bufFX := g.AllocF32(n, make([]float32, n))
	bufFY := g.AllocF32(n, make([]float32, n))
	spec := gpu.LaunchSpec{Kernel: k, GlobalSize: n, GroupSize: 64,
		Args: []uint32{bufX, bufY, bufN, bufFX, bufFY}}
	check := func() error {
		gotX := g.ReadBufferF32(bufFX, n)
		gotY := g.ReadBufferF32(bufFY, n)
		for i := 0; i < n; i++ {
			var wx, wy float32
			for jj := 0; jj < neighbors; jj++ {
				nb := nbr[i*neighbors+jj]
				dx := px[nb] - px[i]
				dy := py[nb] - py[i]
				d2 := dx * dx
				d2 = madf32(dy, dy, d2) // mirror the device's MUL+MAD rounding
				if d2 < cutoff2 {
					inv := d2 + float32(1e-6)
					w := (cutoff2 - d2) * float32(1/math.Sqrt(float64(inv)))
					wx = madf32(dx, w, wx)
					wy = madf32(dy, w, wy)
				}
			}
			if !almostEqual(gotX[i], wx, 2e-3) || !almostEqual(gotY[i], wy, 2e-3) {
				return fmt.Errorf("force[%d] = (%v,%v), want (%v,%v)", i, gotX[i], gotY[i], wx, wy)
			}
		}
		return nil
	}
	return Single(spec, check), nil
}

// setupNW: Needleman-Wunsch wavefront DP — one launch per anti-diagonal,
// bounds-check divergence in every launch.
func setupNW(g *gpu.GPU, m int) (*Instance, error) {
	const penalty = 2
	// Score matrix (m+1)×(m+1) of s32; similarity matrix m×m.
	b := kbuild.New("nw-diag", isa.SIMD16)
	// args: 0=score 1=similarity 2=diagonal d (scalar)
	rIdx := b.Vec()
	b.AddU(rIdx, b.GlobalID(), b.U(1)) // rows 1..m
	cIdx := b.Vec()
	d := b.Vec()
	b.MovU(d, b.Arg(2))
	b.SubU(cIdx, d, rIdx)
	// Valid when 1 <= c <= m (unsigned wrap makes c huge for c<1... use
	// signed comparisons).
	b.CmpS(isa.F0, isa.CmpGE, cIdx, b.S(1))
	b.CmpS(isa.F1, isa.CmpLE, cIdx, b.S(int32(m)))
	valid := b.Vec()
	vv := b.Vec()
	b.MovU(valid, b.U(0))
	b.MovU(vv, b.U(0))
	b.Sel(isa.F0, valid, b.U(1), b.U(0))
	b.Sel(isa.F1, vv, b.U(1), b.U(0))
	b.And(valid, valid, vv)
	b.CmpU(isa.F0, isa.CmpEQ, valid, b.U(1))
	b.If(isa.F0)
	{
		stride := uint32(m + 1)
		// idx = r*(m+1) + c
		idx := b.Vec()
		b.MadU(idx, rIdx, b.U(stride), cIdx)
		nwIdx, wIdx, nIdx := b.Vec(), b.Vec(), b.Vec()
		b.SubU(nwIdx, idx, b.U(stride+1))
		b.SubU(wIdx, idx, b.U(1))
		b.SubU(nIdx, idx, b.U(stride))
		load := func(i isa.Operand) isa.Operand {
			a := b.Addr(b.Arg(0), i, 4)
			v := b.Vec()
			b.LoadGather(v, a)
			return v
		}
		nw, w, nn := load(nwIdx), load(wIdx), load(nIdx)
		// similarity[r-1][c-1]
		simIdx := b.Vec()
		r1, c1 := b.Vec(), b.Vec()
		b.SubU(r1, rIdx, b.U(1))
		b.SubU(c1, cIdx, b.U(1))
		b.MadU(simIdx, r1, b.U(uint32(m)), c1)
		simAddr := b.Addr(b.Arg(1), simIdx, 4)
		sim := b.Vec()
		b.LoadGather(sim, simAddr)
		cand := b.Vec()
		b.AddS(cand, nw, sim)
		wp := b.Vec()
		b.AddS(wp, w, b.S(-penalty))
		np := b.Vec()
		b.AddS(np, nn, b.S(-penalty))
		best := b.Vec()
		b.Emit(isa.Instruction{Op: isa.OpMax, DType: isa.S32, Dst: best, Src0: cand, Src1: wp})
		b.Emit(isa.Instruction{Op: isa.OpMax, DType: isa.S32, Dst: best, Src0: best, Src1: np})
		outAddr := b.Addr(b.Arg(0), idx, 4)
		b.StoreScatter(outAddr, best)
	}
	b.EndIf()
	k, err := b.Build()
	if err != nil {
		return nil, err
	}

	r := rng(13)
	sim := make([]uint32, m*m) // s32 stored as u32
	for i := range sim {
		sim[i] = uint32(int32(r.Intn(21) - 10))
	}
	stride := m + 1
	score := make([]uint32, stride*stride)
	for i := 0; i <= m; i++ {
		score[i] = uint32(int32(-i * penalty))        // first row
		score[i*stride] = uint32(int32(-i * penalty)) // first column
	}
	scoreBuf := g.AllocU32(stride*stride, score)
	simBuf := g.AllocU32(m*m, sim)

	specs := make([]gpu.LaunchSpec, 0, 2*m-1)
	for dd := 2; dd <= 2*m; dd++ {
		specs = append(specs, gpu.LaunchSpec{Kernel: k, GlobalSize: m, GroupSize: 64,
			Args: []uint32{scoreBuf, simBuf, uint32(dd)}})
	}
	inst := &Instance{
		Next: func(iter int) *gpu.LaunchSpec {
			if iter >= len(specs) {
				return nil
			}
			return &specs[iter]
		},
		Check: func() error {
			ref := make([]int32, stride*stride)
			for i := 0; i <= m; i++ {
				ref[i] = int32(-i * penalty)
				ref[i*stride] = int32(-i * penalty)
			}
			for rI := 1; rI <= m; rI++ {
				for cI := 1; cI <= m; cI++ {
					cand := ref[(rI-1)*stride+cI-1] + int32(sim[(rI-1)*m+cI-1])
					wp := ref[rI*stride+cI-1] - penalty
					np := ref[(rI-1)*stride+cI] - penalty
					best := cand
					if wp > best {
						best = wp
					}
					if np > best {
						best = np
					}
					ref[rI*stride+cI] = best
				}
			}
			got := g.ReadBufferU32(scoreBuf, stride*stride)
			for i := range ref {
				if int32(got[i]) != ref[i] {
					return fmt.Errorf("score[%d] = %d, want %d", i, int32(got[i]), ref[i])
				}
			}
			return nil
		},
	}
	return inst, nil
}

// setupParticleFilter: likelihood evaluation (uniform loop) followed by a
// divergent linear CDF search for systematic resampling.
func setupParticleFilter(g *gpu.GPU, n int) (*Instance, error) {
	return setupParticleFilterW(g, n, isa.SIMD16)
}

func setupParticleFilterW(g *gpu.GPU, n int, width isa.Width) (*Instance, error) {
	const obs = 8
	b := kbuild.New("particlefilter", width)
	// args: 0=particle x, 1=observations, 2=cdf, 3=u (resampling points),
	// 4=out index, 5=out weight
	xAddr := b.Addr(b.Arg(0), b.GlobalID(), 4)
	x := b.Vec()
	b.LoadGather(x, xAddr)
	// Likelihood: product of gaussians over observations — accumulate the
	// exponent.
	expo := b.Vec()
	b.Mov(expo, b.F(0))
	oPtr := b.Vec()
	b.MovU(oPtr, b.Arg(1))
	j := b.Vec()
	b.MovU(j, b.U(0))
	b.Loop()
	{
		ov := b.Vec()
		b.LoadGather(ov, oPtr)
		dd := b.Vec()
		b.Sub(dd, x, ov)
		b.Mad(expo, dd, dd, expo)
	}
	b.AddU(oPtr, oPtr, b.U(4))
	b.AddU(j, j, b.U(1))
	b.CmpU(isa.F0, isa.CmpLT, j, b.U(obs))
	b.While(isa.F0)
	weight := b.Vec()
	b.Mul(weight, expo, b.F(-0.5*float32(math.Log2E)/obs))
	b.Exp(weight, weight)
	wAddr := b.Addr(b.Arg(5), b.GlobalID(), 4)
	b.StoreScatter(wAddr, weight)

	// Resampling: find the first CDF entry ≥ u[i] by divergent linear
	// search with BREAK.
	uAddr := b.Addr(b.Arg(3), b.GlobalID(), 4)
	u := b.Vec()
	b.LoadGather(u, uAddr)
	idx := b.Vec()
	b.MovU(idx, b.U(0))
	cPtr := b.Vec()
	b.MovU(cPtr, b.Arg(2))
	b.Loop()
	{
		cv := b.Vec()
		b.LoadGather(cv, cPtr)
		b.Cmp(isa.F0, isa.CmpGE, cv, u)
		b.Break(isa.F0)
		b.AddU(idx, idx, b.U(1))
		b.AddU(cPtr, cPtr, b.U(4))
	}
	b.CmpU(isa.F1, isa.CmpLT, idx, b.U(uint32(n-1)))
	b.While(isa.F1)
	iAddr := b.Addr(b.Arg(4), b.GlobalID(), 4)
	b.StoreScatter(iAddr, idx)
	k, err := b.Build()
	if err != nil {
		return nil, err
	}

	r := rng(14)
	px := make([]float32, n)
	for i := range px {
		px[i] = r.Float32()*4 - 2
	}
	obsArr := make([]float32, obs)
	for i := range obsArr {
		obsArr[i] = r.Float32()*2 - 1
	}
	// Host CDF (of uniform pre-weights, monotonically increasing 0..1).
	cdf := make([]float32, n)
	acc := float32(0)
	for i := range cdf {
		acc += 1.0 / float32(n)
		cdf[i] = acc
	}
	// Multinomial resampling: independent uniform draws per particle, so
	// per-lane CDF search lengths vary wildly (the divergence source).
	uArr := make([]float32, n)
	for i := range uArr {
		uArr[i] = r.Float32()
	}
	bufX := g.AllocF32(n, px)
	bufO := g.AllocF32(obs, obsArr)
	bufC := g.AllocF32(n, cdf)
	bufU := g.AllocF32(n, uArr)
	bufI := g.AllocU32(n, make([]uint32, n))
	bufW := g.AllocF32(n, make([]float32, n))
	spec := gpu.LaunchSpec{Kernel: k, GlobalSize: n, GroupSize: 4 * width.Lanes(),
		Args: []uint32{bufX, bufO, bufC, bufU, bufI, bufW}}
	check := func() error {
		gotI := g.ReadBufferU32(bufI, n)
		gotW := g.ReadBufferF32(bufW, n)
		for i := 0; i < n; i++ {
			var expoH float32
			for j := 0; j < obs; j++ {
				d := px[i] - obsArr[j]
				expoH = d*d + expoH
			}
			wantW := float32(math.Exp(float64(expoH) * -0.5 / obs))
			if !almostEqual(gotW[i], wantW, 1e-2) {
				return fmt.Errorf("weight[%d] = %v, want %v", i, gotW[i], wantW)
			}
			wantIdx := uint32(n - 1)
			for j := 0; j < n; j++ {
				if cdf[j] >= uArr[i] {
					wantIdx = uint32(j)
					break
				}
			}
			if gotI[i] != wantIdx {
				return fmt.Errorf("index[%d] = %d, want %d", i, gotI[i], wantIdx)
			}
		}
		return nil
	}
	return Single(spec, check), nil
}

// setupEigenValue: bisection with Sturm-sequence counting for a symmetric
// tridiagonal matrix — the inner sign-change loop branches per lane.
func setupEigenValue(g *gpu.GPU, n int) (*Instance, error) {
	const (
		mdim  = 16 // matrix dimension; work-item i finds eigenvalue i%mdim
		iters = 24
	)
	b := kbuild.New("eigenvalue", isa.SIMD16)
	// args: 0=diag 1=offdiag 2=out 3=gershgorin lo 4=gershgorin hi
	target := b.Vec()
	b.And(target, b.GlobalID(), b.U(mdim-1))
	lo, hi := b.Vec(), b.Vec()
	b.MovU(lo, b.Arg(3))
	b.MovU(hi, b.Arg(4))
	it := b.Vec()
	b.MovU(it, b.U(0))
	b.Loop()
	{
		mid := b.Vec()
		b.Add(mid, lo, hi)
		b.Mul(mid, mid, b.F(0.5))
		// Sturm count: number of eigenvalues < mid.
		count := b.Vec()
		b.MovU(count, b.U(0))
		q := b.Vec()
		b.Mov(q, b.F(1))
		dPtr := b.Vec()
		b.MovU(dPtr, b.Arg(0))
		ePtr := b.Vec()
		b.MovU(ePtr, b.Arg(1))
		i2 := b.Vec()
		b.MovU(i2, b.U(0))
		b.Loop()
		{
			dv := b.Vec()
			b.LoadGather(dv, dPtr)
			ev := b.Vec()
			b.LoadGather(ev, ePtr)
			e2 := b.Vec()
			b.Mul(e2, ev, ev)
			// q = d - mid - e²/q_prev (guard small q).
			absq := b.Vec()
			b.Abs(absq, q)
			b.Cmp(isa.F0, isa.CmpLT, absq, b.F(1e-6))
			b.If(isa.F0)
			b.Mov(q, b.F(1e-6))
			b.EndIf()
			frac := b.Vec()
			b.Div(frac, e2, q)
			b.Sub(q, dv, mid)
			b.Sub(q, q, frac)
			b.Cmp(isa.F1, isa.CmpLT, q, b.F(0))
			b.If(isa.F1)
			b.AddU(count, count, b.U(1))
			b.EndIf()
		}
		b.AddU(dPtr, dPtr, b.U(4))
		b.AddU(ePtr, ePtr, b.U(4))
		b.AddU(i2, i2, b.U(1))
		b.CmpU(isa.F0, isa.CmpLT, i2, b.U(mdim))
		b.While(isa.F0)
		// count <= target → lo = mid else hi = mid.
		b.CmpU(isa.F0, isa.CmpLE, count, target)
		b.Sel(isa.F0, lo, mid, lo)
		b.CmpU(isa.F1, isa.CmpGT, count, target)
		b.Sel(isa.F1, hi, mid, hi)
	}
	b.AddU(it, it, b.U(1))
	b.CmpU(isa.F0, isa.CmpLT, it, b.U(iters))
	b.While(isa.F0)
	outAddr := b.Addr(b.Arg(2), b.GlobalID(), 4)
	mid2 := b.Vec()
	b.Add(mid2, lo, hi)
	b.Mul(mid2, mid2, b.F(0.5))
	b.StoreScatter(outAddr, mid2)
	k, err := b.Build()
	if err != nil {
		return nil, err
	}

	r := rng(15)
	diag := make([]float32, mdim)
	off := make([]float32, mdim) // off[0] unused (e_0 = 0)
	for i := 0; i < mdim; i++ {
		diag[i] = r.Float32()*4 - 2
		if i > 0 {
			off[i] = r.Float32() - 0.5
		}
	}
	// Gershgorin bounds.
	loH, hiH := float32(math.Inf(1)), float32(math.Inf(-1))
	for i := 0; i < mdim; i++ {
		rad := float32(math.Abs(float64(off[i])))
		if i+1 < mdim {
			rad += float32(math.Abs(float64(off[i+1])))
		}
		if diag[i]-rad < loH {
			loH = diag[i] - rad
		}
		if diag[i]+rad > hiH {
			hiH = diag[i] + rad
		}
	}
	bufD := g.AllocF32(mdim, diag)
	bufE := g.AllocF32(mdim, off)
	bufOut := g.AllocF32(n, make([]float32, n))
	spec := gpu.LaunchSpec{Kernel: k, GlobalSize: n, GroupSize: 64,
		Args: []uint32{bufD, bufE, bufOut, isa.F32ToBits(loH), isa.F32ToBits(hiH)}}
	check := func() error {
		// Host reference: same bisection in float64.
		sturm := func(mid float64) int {
			count := 0
			q := 1.0
			for i := 0; i < mdim; i++ {
				if math.Abs(q) < 1e-6 {
					q = 1e-6
				}
				e2 := float64(off[i]) * float64(off[i])
				q = float64(diag[i]) - mid - e2/q
				if q < 0 {
					count++
				}
			}
			return count
		}
		got := g.ReadBufferF32(bufOut, n)
		for i := 0; i < n; i++ {
			tgt := i % mdim
			lo64, hi64 := float64(loH), float64(hiH)
			for it := 0; it < iters; it++ {
				mid := (lo64 + hi64) / 2
				if sturm(mid) <= tgt {
					lo64 = mid
				} else {
					hi64 = mid
				}
			}
			want := float32((lo64 + hi64) / 2)
			if !almostEqual(got[i], want, 1e-2) {
				return fmt.Errorf("ev[%d] = %v, want %v", i, got[i], want)
			}
		}
		return nil
	}
	return Single(spec, check), nil
}
