package workloads

import (
	"fmt"
	"math"

	"intrawarp/internal/gpu"
	"intrawarp/internal/isa"
	"intrawarp/internal/kbuild"
)

// Third batch of Table 1 workloads, in the style of the AMD/NVIDIA OpenCL
// SDK samples the paper uses: Floyd-Warshall, binomial option pricing,
// box filter, fast Walsh-Hadamard transform, Haar wavelet, Monte Carlo
// Asian option pricing, a rejection-sampling RNG, workgroup scan, and
// simple convolution.

func init() {
	register(&Spec{Name: "floydwarshall", Class: "hpc-div", Divergent: true, DefaultN: 32, Setup: setupFloydWarshall})
	register(&Spec{Name: "binomial", Class: "coherent", Divergent: false, DefaultN: 256, Setup: setupBinomial})
	register(&Spec{Name: "boxfilter", Class: "coherent", Divergent: false, DefaultN: 1024, Setup: setupBoxFilter})
	register(&Spec{Name: "fwht", Class: "coherent", Divergent: false, DefaultN: 512, Setup: setupFWHT})
	register(&Spec{Name: "dwt-haar", Class: "hpc-div", Divergent: true, DefaultN: 512, Setup: setupDWTHaar})
	register(&Spec{Name: "montecarlo", Class: "coherent", Divergent: false, DefaultN: 512, Setup: setupMonteCarlo})
	register(&Spec{Name: "urng", Class: "hpc-div", Divergent: true, DefaultN: 1024, Setup: setupURNG})
	registerWidthVariant("urng", setupURNGW)
	register(&Spec{Name: "scan", Class: "coherent", Divergent: false, DefaultN: 512, Setup: setupScan})
	register(&Spec{Name: "convolution", Class: "coherent", Divergent: false, DefaultN: 1024, Setup: setupConvolution})
}

// setupFloydWarshall: all-pairs shortest paths over an n-node dense
// graph; one launch per intermediate node k, with a divergent relaxation
// branch.
func setupFloydWarshall(g *gpu.GPU, n int) (*Instance, error) {
	shift, err := log2(n)
	if err != nil {
		return nil, err
	}
	b := kbuild.New("floydwarshall", isa.SIMD16)
	// args: 0=dist (n×n u32) 1=k
	row, col := b.Vec(), b.Vec()
	b.Shr(row, b.GlobalID(), b.U(uint32(shift)))
	b.And(col, b.GlobalID(), b.U(uint32(n-1)))
	kv := b.Vec()
	b.MovU(kv, b.Arg(1))
	ikIdx := b.Vec()
	b.MadU(ikIdx, row, b.U(uint32(n)), kv)
	kjIdx := b.Vec()
	b.MadU(kjIdx, kv, b.U(uint32(n)), col)
	ik, kj := b.Vec(), b.Vec()
	a1 := b.Addr(b.Arg(0), ikIdx, 4)
	b.LoadGather(ik, a1)
	a2 := b.Addr(b.Arg(0), kjIdx, 4)
	b.LoadGather(kj, a2)
	cand := b.Vec()
	b.AddU(cand, ik, kj)
	curIdx := b.Vec()
	b.MadU(curIdx, row, b.U(uint32(n)), col)
	curAddr := b.Addr(b.Arg(0), curIdx, 4)
	cur := b.Vec()
	b.LoadGather(cur, curAddr)
	b.CmpU(isa.F0, isa.CmpLT, cand, cur)
	b.If(isa.F0) // divergent relaxation
	b.StoreScatter(curAddr, cand)
	b.EndIf()
	k, err := b.Build()
	if err != nil {
		return nil, err
	}

	r := rng(40)
	const inf = 1 << 20
	dist := make([]uint32, n*n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			switch {
			case i == j:
				dist[i*n+j] = 0
			case r.Intn(4) == 0: // sparse edges
				dist[i*n+j] = uint32(1 + r.Intn(20))
			default:
				dist[i*n+j] = inf
			}
		}
	}
	hostD := append([]uint32(nil), dist...)
	buf := g.AllocU32(n*n, dist)

	inst := &Instance{
		Next: func(iter int) *gpu.LaunchSpec {
			if iter >= n {
				return nil
			}
			return &gpu.LaunchSpec{Kernel: k, GlobalSize: n * n, GroupSize: 64,
				Args: []uint32{buf, uint32(iter)}}
		},
		Check: func() error {
			for kk := 0; kk < n; kk++ {
				for i := 0; i < n; i++ {
					for j := 0; j < n; j++ {
						if c := hostD[i*n+kk] + hostD[kk*n+j]; c < hostD[i*n+j] {
							hostD[i*n+j] = c
						}
					}
				}
			}
			got := g.ReadBufferU32(buf, n*n)
			for i := range hostD {
				if got[i] != hostD[i] {
					return fmt.Errorf("dist[%d] = %d, want %d", i, got[i], hostD[i])
				}
			}
			return nil
		},
	}
	return inst, nil
}

// setupBinomial: European option pricing by backward induction on a
// binomial tree — uniform loops, fully coherent, EM-heavy.
func setupBinomial(g *gpu.GPU, n int) (*Instance, error) {
	const steps = 12
	const (
		rate = 0.02
		vol  = 0.3
		tExp = 1.0
	)
	dt := float32(tExp / steps)
	u := float32(math.Exp(vol * math.Sqrt(tExp/steps)))
	d := 1 / u
	pu := (float32(math.Exp(rate*float64(dt))) - d) / (u - d)
	pd := 1 - pu
	disc := float32(math.Exp(-rate * float64(dt)))

	b := kbuild.New("binomial", isa.SIMD16)
	// args: 0=spot 1=strike 2=scratch (n × (steps+1)) 3=out
	sAddr := b.Addr(b.Arg(0), b.GlobalID(), 4)
	xAddr := b.Addr(b.Arg(1), b.GlobalID(), 4)
	spot, strike := b.Vec(), b.Vec()
	b.LoadGather(spot, sAddr)
	b.LoadGather(strike, xAddr)
	// Terminal payoffs into scratch[gid*(steps+1) + j].
	scrBase := b.Vec()
	b.MulU(scrBase, b.GlobalID(), b.U((steps+1)*4))
	b.AddU(scrBase, scrBase, b.Arg(2))
	j := b.Vec()
	b.MovU(j, b.U(0))
	price := b.Vec()
	// price = spot * d^steps initially, multiplied by u² per j.
	b.Mov(price, spot)
	for i := 0; i < steps; i++ {
		b.Mul(price, price, b.F(d))
	}
	u2 := u * u
	b.Loop()
	{
		pay := b.Vec()
		b.Sub(pay, price, strike)
		b.Max(pay, pay, b.F(0))
		slot := b.Vec()
		b.MulU(slot, j, b.U(4))
		b.AddU(slot, slot, scrBase)
		b.StoreScatter(slot, pay)
		b.Mul(price, price, b.F(u2))
	}
	b.AddU(j, j, b.U(1))
	b.CmpU(isa.F0, isa.CmpLE, j, b.U(steps))
	b.While(isa.F0)
	// Backward induction.
	t := b.Vec()
	b.MovU(t, b.U(steps))
	b.Loop()
	{
		jj := b.Vec()
		b.MovU(jj, b.U(0))
		b.Loop()
		{
			loAddr := b.Vec()
			b.MulU(loAddr, jj, b.U(4))
			b.AddU(loAddr, loAddr, scrBase)
			hiAddr := b.Vec()
			b.AddU(hiAddr, loAddr, b.U(4))
			lo, hi := b.Vec(), b.Vec()
			b.LoadGather(lo, loAddr)
			b.LoadGather(hi, hiAddr)
			v := b.Vec()
			b.Mul(v, lo, b.F(pd))
			b.Mad(v, hi, b.F(pu), v)
			b.Mul(v, v, b.F(disc))
			b.StoreScatter(loAddr, v)
		}
		b.AddU(jj, jj, b.U(1))
		b.CmpU(isa.F0, isa.CmpLT, jj, t)
		b.While(isa.F0)
	}
	b.SubU(t, t, b.U(1))
	b.CmpU(isa.F1, isa.CmpGE, t, b.U(1))
	b.While(isa.F1)
	res := b.Vec()
	b.LoadGather(res, scrBase)
	oAddr := b.Addr(b.Arg(3), b.GlobalID(), 4)
	b.StoreScatter(oAddr, res)
	k, err := b.Build()
	if err != nil {
		return nil, err
	}

	r := rng(41)
	hSpot := make([]float32, n)
	hStrike := make([]float32, n)
	for i := range hSpot {
		hSpot[i] = 50 + 50*r.Float32()
		hStrike[i] = 50 + 50*r.Float32()
	}
	bufS := g.AllocF32(n, hSpot)
	bufX := g.AllocF32(n, hStrike)
	bufScr := g.AllocF32(n*(steps+1), make([]float32, n*(steps+1)))
	bufO := g.AllocF32(n, make([]float32, n))
	spec := gpu.LaunchSpec{Kernel: k, GlobalSize: n, GroupSize: 64,
		Args: []uint32{bufS, bufX, bufScr, bufO}}
	check := func() error {
		got := g.ReadBufferF32(bufO, n)
		for i := 0; i < n; i++ {
			// Host mirror of the same float32 induction.
			vals := make([]float32, steps+1)
			price := hSpot[i]
			for s := 0; s < steps; s++ {
				price *= d
			}
			for j := 0; j <= steps; j++ {
				pay := price - hStrike[i]
				if pay < 0 {
					pay = 0
				}
				vals[j] = pay
				price *= u * u
			}
			for t := steps; t >= 1; t-- {
				for j := 0; j < t; j++ {
					v := vals[j] * pd
					v = madf32(vals[j+1], pu, v)
					vals[j] = v * disc
				}
			}
			if !almostEqual(got[i], vals[0], 1e-3) {
				return fmt.Errorf("price[%d] = %v, want %v", i, got[i], vals[0])
			}
		}
		return nil
	}
	return Single(spec, check), nil
}

// setupBoxFilter: 1-D sliding-window mean with a radius-4 window over a
// padded signal — coherent.
func setupBoxFilter(g *gpu.GPU, n int) (*Instance, error) {
	const radius = 4
	b := kbuild.New("boxfilter", isa.SIMD16)
	// args: 0=in (padded by radius both sides) 1=out
	base := b.Vec()
	b.MovU(base, b.GlobalID()) // output i reads in[i .. i+2r]
	sum := b.Vec()
	b.Mov(sum, b.F(0))
	for t := 0; t <= 2*radius; t++ {
		idx := b.Vec()
		b.AddU(idx, base, b.U(uint32(t)))
		a := b.Addr(b.Arg(0), idx, 4)
		v := b.Vec()
		b.LoadGather(v, a)
		b.Add(sum, sum, v)
	}
	b.Mul(sum, sum, b.F(1.0/(2*radius+1)))
	oAddr := b.Addr(b.Arg(1), b.GlobalID(), 4)
	b.StoreScatter(oAddr, sum)
	k, err := b.Build()
	if err != nil {
		return nil, err
	}

	r := rng(42)
	in := make([]float32, n+2*radius)
	for i := range in {
		in[i] = r.Float32()
	}
	bufIn := g.AllocF32(len(in), in)
	bufOut := g.AllocF32(n, make([]float32, n))
	spec := gpu.LaunchSpec{Kernel: k, GlobalSize: n, GroupSize: 64,
		Args: []uint32{bufIn, bufOut}}
	check := func() error {
		got := g.ReadBufferF32(bufOut, n)
		for i := 0; i < n; i++ {
			var sum float32
			for t := 0; t <= 2*radius; t++ {
				sum += in[i+t]
			}
			want := sum * (1.0 / (2*radius + 1))
			if !almostEqual(got[i], want, 1e-4) {
				return fmt.Errorf("box[%d] = %v, want %v", i, got[i], want)
			}
		}
		return nil
	}
	return Single(spec, check), nil
}

// setupFWHT: fast Walsh-Hadamard transform, one butterfly pass per
// launch — coherent control with strided memory.
func setupFWHT(g *gpu.GPU, n int) (*Instance, error) {
	passes, err := log2(n)
	if err != nil {
		return nil, err
	}
	b := kbuild.New("fwht-pass", isa.SIMD16)
	// args: 0=data 1=half-stride h. Work-item i handles pair
	// (base, base+h) where base = (i/h)*2h + i%h.
	h := b.Vec()
	b.MovU(h, b.Arg(1))
	grp := b.Vec()
	b.Emit(isa.Instruction{Op: isa.OpDiv, DType: isa.U32, Dst: grp, Src0: b.GlobalID(), Src1: h})
	rem := b.Vec()
	b.MulU(rem, grp, h)
	b.SubU(rem, b.GlobalID(), rem)
	base := b.Vec()
	b.MulU(base, grp, h)
	b.AddU(base, base, base) // grp*2h
	b.AddU(base, base, rem)
	partner := b.Vec()
	b.AddU(partner, base, h)
	aAddr := b.Addr(b.Arg(0), base, 4)
	bAddr := b.Addr(b.Arg(0), partner, 4)
	av, bv := b.Vec(), b.Vec()
	b.LoadGather(av, aAddr)
	b.LoadGather(bv, bAddr)
	s, dd := b.Vec(), b.Vec()
	b.Add(s, av, bv)
	b.Sub(dd, av, bv)
	b.StoreScatter(aAddr, s)
	b.StoreScatter(bAddr, dd)
	k, err := b.Build()
	if err != nil {
		return nil, err
	}

	r := rng(43)
	data := make([]float32, n)
	for i := range data {
		data[i] = r.Float32()*2 - 1
	}
	buf := g.AllocF32(n, data)
	inst := &Instance{
		Next: func(iter int) *gpu.LaunchSpec {
			if iter >= passes {
				return nil
			}
			return &gpu.LaunchSpec{Kernel: k, GlobalSize: n / 2, GroupSize: 64,
				Args: []uint32{buf, uint32(1 << uint(iter))}}
		},
		Check: func() error {
			host := append([]float32(nil), data...)
			for h := 1; h < n; h *= 2 {
				for i := 0; i < n; i += 2 * h {
					for j := i; j < i+h; j++ {
						x, y := host[j], host[j+h]
						host[j], host[j+h] = x+y, x-y
					}
				}
			}
			got := g.ReadBufferF32(buf, n)
			for i := range host {
				if !almostEqual(got[i], host[i], 1e-3) {
					return fmt.Errorf("fwht[%d] = %v, want %v", i, got[i], host[i])
				}
			}
			return nil
		},
	}
	return inst, nil
}

// setupDWTHaar: one level of the Haar wavelet per launch, halving the
// active item count each time — coherent within a launch, tail-masked at
// small levels.
func setupDWTHaar(g *gpu.GPU, n int) (*Instance, error) {
	levels, err := log2(n)
	if err != nil {
		return nil, err
	}
	b := kbuild.New("dwt-haar", isa.SIMD16)
	// args: 0=src 1=dst approx base 2=dst detail base offset (elements)
	i2 := b.Vec()
	b.AddU(i2, b.GlobalID(), b.GlobalID())
	aAddr := b.Addr(b.Arg(0), i2, 4)
	i2p := b.Vec()
	b.AddU(i2p, i2, b.U(1))
	bAddr := b.Addr(b.Arg(0), i2p, 4)
	av, bv := b.Vec(), b.Vec()
	b.LoadGather(av, aAddr)
	b.LoadGather(bv, bAddr)
	apx, det := b.Vec(), b.Vec()
	const s2 = 0.7071067811865476
	b.Add(apx, av, bv)
	b.Mul(apx, apx, b.F(s2))
	b.Sub(det, av, bv)
	b.Mul(det, det, b.F(s2))
	oA := b.Addr(b.Arg(1), b.GlobalID(), 4)
	b.StoreScatter(oA, apx)
	dIdx := b.Vec()
	b.AddU(dIdx, b.GlobalID(), b.Arg(2))
	oD := b.Addr(b.Arg(1), dIdx, 4)
	b.StoreScatter(oD, det)
	k, err := b.Build()
	if err != nil {
		return nil, err
	}

	r := rng(44)
	data := make([]float32, n)
	for i := range data {
		data[i] = r.Float32()
	}
	bufA := g.AllocF32(n, data)
	bufB := g.AllocF32(n, make([]float32, n))
	inst := &Instance{
		Next: func(iter int) *gpu.LaunchSpec {
			if iter >= levels {
				return nil
			}
			half := n >> uint(iter+1)
			src, dst := bufA, bufB
			if iter%2 == 1 {
				src, dst = bufB, bufA
			}
			return &gpu.LaunchSpec{Kernel: k, GlobalSize: half, GroupSize: 64,
				Args: []uint32{src, dst, uint32(half)}}
		},
		Check: func() error {
			// Host mirror: each level transforms the first 2*half
			// elements of src into approx+detail in dst; untouched tail
			// elements of dst keep stale data, matching the device, so we
			// only verify the final level's outputs (2 elements) plus the
			// detail chains recorded at each level in the opposing buffer.
			srcH := append([]float32(nil), data...)
			var finalApx, finalDet float32
			for lvl := 0; lvl < levels; lvl++ {
				half := n >> uint(lvl+1)
				next := make([]float32, n)
				for i := 0; i < half; i++ {
					a, bb := srcH[2*i], srcH[2*i+1]
					next[i] = (a + bb) * float32(s2)
					next[half+i] = (a - bb) * float32(s2)
				}
				if lvl == levels-1 {
					finalApx, finalDet = next[0], next[1]
				}
				srcH = next
			}
			final := bufB
			if levels%2 == 0 {
				final = bufA
			}
			got := g.ReadBufferF32(final, 2)
			if !almostEqual(got[0], finalApx, 1e-3) || !almostEqual(got[1], finalDet, 1e-3) {
				return fmt.Errorf("dwt final = %v/%v, want %v/%v", got[0], got[1], finalApx, finalDet)
			}
			return nil
		},
	}
	return inst, nil
}

// setupMonteCarlo: Asian-option style Monte Carlo — each work-item walks
// a geometric Brownian path with an inline xorshift RNG; uniform control,
// EM-pipe heavy.
func setupMonteCarlo(g *gpu.GPU, n int) (*Instance, error) {
	const pathSteps = 16
	b := kbuild.New("montecarlo", isa.SIMD16)
	// args: 0=out
	state := b.Vec()
	b.MulU(state, b.GlobalID(), b.U(747796405))
	b.AddU(state, state, b.U(2891336453))
	s := b.Vec()
	b.Mov(s, b.F(100)) // spot
	avg := b.Vec()
	b.Mov(avg, b.F(0))
	i := b.Vec()
	b.MovU(i, b.U(0))
	tmp := b.Vec()
	b.Loop()
	{
		// xorshift step.
		b.Shl(tmp, state, b.U(13))
		b.Xor(state, state, tmp)
		b.Shr(tmp, state, b.U(17))
		b.Xor(state, state, tmp)
		b.Shl(tmp, state, b.U(5))
		b.Xor(state, state, tmp)
		// uniform in [0,1): state * 2^-32.
		uf := b.Vec()
		b.Emit(isa.Instruction{Op: isa.OpCvt, DType: isa.U32, Dst: uf, Src0: state})
		b.Mul(uf, uf, b.F(1.0/4294967296.0))
		// crude normal approx: z = 2(u-0.5) scaled; drift+diffusion step.
		z := b.Vec()
		b.Sub(z, uf, b.F(0.5))
		b.Mul(z, z, b.F(2))
		step := b.Vec()
		b.Mul(step, z, b.F(0.05))
		b.Add(step, step, b.F(0.001))
		b.Mul(step, step, b.F(float32(math.Log2E)))
		b.Exp(step, step)
		b.Mul(s, s, step)
		b.Add(avg, avg, s)
	}
	b.AddU(i, i, b.U(1))
	b.CmpU(isa.F0, isa.CmpLT, i, b.U(pathSteps))
	b.While(isa.F0)
	b.Mul(avg, avg, b.F(1.0/pathSteps))
	payoff := b.Vec()
	b.Sub(payoff, avg, b.F(100))
	b.Max(payoff, payoff, b.F(0))
	oAddr := b.Addr(b.Arg(0), b.GlobalID(), 4)
	b.StoreScatter(oAddr, payoff)
	k, err := b.Build()
	if err != nil {
		return nil, err
	}

	bufO := g.AllocF32(n, make([]float32, n))
	spec := gpu.LaunchSpec{Kernel: k, GlobalSize: n, GroupSize: 64, Args: []uint32{bufO}}
	check := func() error {
		got := g.ReadBufferF32(bufO, n)
		for idx := 0; idx < n; idx++ {
			state := uint32(idx)*747796405 + 2891336453
			s := float32(100)
			var avg float32
			for i := 0; i < pathSteps; i++ {
				state ^= state << 13
				state ^= state >> 17
				state ^= state << 5
				uf := float32(state) * (1.0 / 4294967296.0)
				z := (uf - 0.5) * 2
				step := z * 0.05
				step += 0.001
				step *= float32(math.Log2E)
				step = float32(math.Exp2(float64(step)))
				s *= step
				avg += s
			}
			avg *= 1.0 / pathSteps
			want := avg - 100
			if want < 0 {
				want = 0
			}
			if !almostEqual(got[idx], want, 1e-2) {
				return fmt.Errorf("mc[%d] = %v, want %v", idx, got[idx], want)
			}
		}
		return nil
	}
	return Single(spec, check), nil
}

// setupURNG: rejection sampling — each work-item draws xorshift values
// until one falls inside the unit disk, a data-dependent divergent loop.
func setupURNG(g *gpu.GPU, n int) (*Instance, error) {
	return setupURNGW(g, n, isa.SIMD16)
}

func setupURNGW(g *gpu.GPU, n int, width isa.Width) (*Instance, error) {
	b := kbuild.New("urng", width)
	// args: 0=out x 1=out y 2=out tries
	state := b.Vec()
	b.MulU(state, b.GlobalID(), b.U(2654435761))
	b.AddU(state, state, b.U(0x9E3779B9))
	tries := b.Vec()
	b.MovU(tries, b.U(0))
	x, y := b.Vec(), b.Vec()
	b.Mov(x, b.F(0))
	b.Mov(y, b.F(0))
	tmp := b.Vec()
	draw := func(dst isa.Operand) {
		b.Shl(tmp, state, b.U(13))
		b.Xor(state, state, tmp)
		b.Shr(tmp, state, b.U(17))
		b.Xor(state, state, tmp)
		b.Shl(tmp, state, b.U(5))
		b.Xor(state, state, tmp)
		b.Emit(isa.Instruction{Op: isa.OpCvt, DType: isa.U32, Dst: dst, Src0: state})
		b.Mul(dst, dst, b.F(2.0/4294967296.0))
		b.Sub(dst, dst, b.F(1))
	}
	b.Loop()
	{
		draw(x)
		draw(y)
		b.AddU(tries, tries, b.U(1))
		d2 := b.Vec()
		b.Mul(d2, x, x)
		b.Mad(d2, y, y, d2)
		b.Cmp(isa.F0, isa.CmpLT, d2, b.F(1))
		b.Break(isa.F0) // accepted: leave the loop (divergent)
	}
	b.CmpU(isa.F1, isa.CmpLT, tries, b.U(64))
	b.While(isa.F1)
	oX := b.Addr(b.Arg(0), b.GlobalID(), 4)
	oY := b.Addr(b.Arg(1), b.GlobalID(), 4)
	oT := b.Addr(b.Arg(2), b.GlobalID(), 4)
	b.StoreScatter(oX, x)
	b.StoreScatter(oY, y)
	b.StoreScatter(oT, tries)
	k, err := b.Build()
	if err != nil {
		return nil, err
	}

	bufX := g.AllocF32(n, make([]float32, n))
	bufY := g.AllocF32(n, make([]float32, n))
	bufT := g.AllocU32(n, make([]uint32, n))
	spec := gpu.LaunchSpec{Kernel: k, GlobalSize: n, GroupSize: 4 * width.Lanes(),
		Args: []uint32{bufX, bufY, bufT}}
	check := func() error {
		gx := g.ReadBufferF32(bufX, n)
		gy := g.ReadBufferF32(bufY, n)
		gt := g.ReadBufferU32(bufT, n)
		for i := 0; i < n; i++ {
			state := uint32(i)*2654435761 + 0x9E3779B9
			var x, y float32
			tries := uint32(0)
			for {
				for d := 0; d < 2; d++ {
					state ^= state << 13
					state ^= state >> 17
					state ^= state << 5
					v := float32(state)*(2.0/4294967296.0) - 1
					if d == 0 {
						x = v
					} else {
						y = v
					}
				}
				tries++
				d2 := x * x
				d2 = madf32(y, y, d2)
				if d2 < 1 || tries >= 64 {
					break
				}
			}
			if gt[i] != tries || gx[i] != x || gy[i] != y {
				return fmt.Errorf("urng[%d] = (%v,%v,%d), want (%v,%v,%d)",
					i, gx[i], gy[i], gt[i], x, y, tries)
			}
		}
		return nil
	}
	return Single(spec, check), nil
}

// setupScan: workgroup-level Hillis-Steele inclusive prefix sum in SLM —
// barriers every step, divergence as the add stride grows.
func setupScan(g *gpu.GPU, n int) (*Instance, error) {
	const wg = 64
	b := kbuild.New("scan", isa.SIMD16)
	// args: 0=in 1=out
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
	for stride := 1; stride < wg; stride *= 2 {
		// Read phase: every lane reads its own value; lanes past the
		// stride also read their partner and add. Barriers stay outside
		// the divergent region so every thread always reaches them.
		cur := b.Vec()
		b.LoadSLM(cur, off)
		b.CmpU(isa.F0, isa.CmpGE, lid, b.U(uint32(stride)))
		b.If(isa.F0) // divergent: grows with the stride
		src := b.Vec()
		srcOff := b.Vec()
		b.SubU(srcOff, off, b.U(uint32(stride*4)))
		b.LoadSLM(src, srcOff)
		b.AddU(cur, cur, src)
		b.EndIf()
		b.Barrier()
		b.StoreSLM(off, cur)
		b.Barrier()
	}
	res := b.Vec()
	b.LoadSLM(res, off)
	outAddr := b.Addr(b.Arg(1), b.GlobalID(), 4)
	b.StoreScatter(outAddr, res)
	b.SetSLMBytes(wg * 4)
	k, err := b.Build()
	if err != nil {
		return nil, err
	}

	r := rng(46)
	in := make([]uint32, n)
	for i := range in {
		in[i] = uint32(r.Intn(100))
	}
	bufIn := g.AllocU32(n, in)
	bufOut := g.AllocU32(n, make([]uint32, n))
	spec := gpu.LaunchSpec{Kernel: k, GlobalSize: n, GroupSize: wg,
		Args: []uint32{bufIn, bufOut}}
	check := func() error {
		got := g.ReadBufferU32(bufOut, n)
		for wgI := 0; wgI < n/wg; wgI++ {
			var acc uint32
			for i := 0; i < wg; i++ {
				acc += in[wgI*wg+i]
				if got[wgI*wg+i] != acc {
					return fmt.Errorf("scan[%d] = %d, want %d", wgI*wg+i, got[wgI*wg+i], acc)
				}
			}
		}
		return nil
	}
	return Single(spec, check), nil
}

// setupConvolution: 1-D convolution with a 9-tap kernel — coherent.
func setupConvolution(g *gpu.GPU, n int) (*Instance, error) {
	taps := []float32{0.05, 0.1, 0.15, 0.2, 0.25, 0.2, 0.15, 0.1, 0.05}
	b := kbuild.New("convolution", isa.SIMD16)
	// args: 0=in (padded by len(taps)-1) 1=out
	sum := b.Vec()
	b.Mov(sum, b.F(0))
	for t, w := range taps {
		idx := b.Vec()
		b.AddU(idx, b.GlobalID(), b.U(uint32(t)))
		a := b.Addr(b.Arg(0), idx, 4)
		v := b.Vec()
		b.LoadGather(v, a)
		b.Mad(sum, v, b.F(w), sum)
	}
	oAddr := b.Addr(b.Arg(1), b.GlobalID(), 4)
	b.StoreScatter(oAddr, sum)
	k, err := b.Build()
	if err != nil {
		return nil, err
	}

	r := rng(47)
	in := make([]float32, n+len(taps)-1)
	for i := range in {
		in[i] = r.Float32()
	}
	bufIn := g.AllocF32(len(in), in)
	bufOut := g.AllocF32(n, make([]float32, n))
	spec := gpu.LaunchSpec{Kernel: k, GlobalSize: n, GroupSize: 64,
		Args: []uint32{bufIn, bufOut}}
	check := func() error {
		got := g.ReadBufferF32(bufOut, n)
		for i := 0; i < n; i++ {
			var sum float32
			for t, w := range taps {
				sum = madf32(in[i+t], w, sum)
			}
			if !almostEqual(got[i], sum, 1e-4) {
				return fmt.Errorf("conv[%d] = %v, want %v", i, got[i], sum)
			}
		}
		return nil
	}
	return Single(spec, check), nil
}
