package workloads

import (
	"fmt"
	"math"

	"intrawarp/internal/gpu"
	"intrawarp/internal/isa"
	"intrawarp/internal/kbuild"
)

// The coherent set (paper Table 1, right half of Fig. 3): kernels with no
// data-dependent control flow, used to verify that intra-warp compaction
// leaves coherent applications untouched.

func init() {
	register(&Spec{Name: "vecadd", Class: "coherent", DefaultN: 4096, Setup: setupVecAdd})
	register(&Spec{Name: "dotproduct", Class: "coherent", DefaultN: 4096, Setup: setupDot})
	register(&Spec{Name: "mvm", Class: "coherent", DefaultN: 64, Setup: setupMVM})
	register(&Spec{Name: "matmul", Class: "coherent", DefaultN: 32, Setup: setupMatMul})
	register(&Spec{Name: "transpose", Class: "coherent", DefaultN: 64, Setup: setupTranspose})
	register(&Spec{Name: "blackscholes", Class: "coherent", DefaultN: 2048, Setup: setupBlackScholes})
	register(&Spec{Name: "dct8", Class: "coherent", DefaultN: 2048, Setup: setupDCT8})
	register(&Spec{Name: "mersenne", Class: "coherent", DefaultN: 2048, Setup: setupMersenne})
	register(&Spec{Name: "sobel", Class: "coherent", DefaultN: 64, Setup: setupSobel})
}

// setupVecAdd: c[i] = a[i] + b[i].
func setupVecAdd(g *gpu.GPU, n int) (*Instance, error) {
	b := kbuild.New("vecadd", isa.SIMD16)
	aAddr := b.Addr(b.Arg(0), b.GlobalID(), 4)
	bAddr := b.Addr(b.Arg(1), b.GlobalID(), 4)
	cAddr := b.Addr(b.Arg(2), b.GlobalID(), 4)
	va, vb := b.Vec(), b.Vec()
	b.LoadGather(va, aAddr)
	b.LoadGather(vb, bAddr)
	b.Add(va, va, vb)
	b.StoreScatter(cAddr, va)
	k, err := b.Build()
	if err != nil {
		return nil, err
	}

	r := rng(1)
	in1 := make([]float32, n)
	in2 := make([]float32, n)
	for i := range in1 {
		in1[i] = r.Float32()
		in2[i] = r.Float32()
	}
	bufA := g.AllocF32(n, in1)
	bufB := g.AllocF32(n, in2)
	bufC := g.AllocF32(n, make([]float32, n))
	spec := gpu.LaunchSpec{Kernel: k, GlobalSize: n, GroupSize: 64, Args: []uint32{bufA, bufB, bufC}}
	check := func() error {
		out := g.ReadBufferF32(bufC, n)
		for i := range out {
			if out[i] != in1[i]+in2[i] {
				return fmt.Errorf("c[%d] = %v, want %v", i, out[i], in1[i]+in2[i])
			}
		}
		return nil
	}
	return Single(spec, check), nil
}

// setupDot: integer dot product via per-lane products and an atomic
// accumulator.
func setupDot(g *gpu.GPU, n int) (*Instance, error) {
	b := kbuild.New("dotproduct", isa.SIMD16)
	aAddr := b.Addr(b.Arg(0), b.GlobalID(), 4)
	bAddr := b.Addr(b.Arg(1), b.GlobalID(), 4)
	va, vb := b.Vec(), b.Vec()
	b.LoadGather(va, aAddr)
	b.LoadGather(vb, bAddr)
	b.MulU(va, va, vb)
	acc := b.Vec()
	b.MovU(acc, b.Arg(2))
	old := b.Vec()
	b.AtomicAdd(old, acc, va)
	k, err := b.Build()
	if err != nil {
		return nil, err
	}

	r := rng(2)
	in1 := make([]uint32, n)
	in2 := make([]uint32, n)
	var want uint32
	for i := range in1 {
		in1[i] = uint32(r.Intn(100))
		in2[i] = uint32(r.Intn(100))
		want += in1[i] * in2[i]
	}
	bufA := g.AllocU32(n, in1)
	bufB := g.AllocU32(n, in2)
	bufC := g.AllocU32(1, []uint32{0})
	spec := gpu.LaunchSpec{Kernel: k, GlobalSize: n, GroupSize: 64, Args: []uint32{bufA, bufB, bufC}}
	check := func() error {
		got := g.ReadBufferU32(bufC, 1)[0]
		if got != want {
			return fmt.Errorf("dot = %d, want %d", got, want)
		}
		return nil
	}
	return Single(spec, check), nil
}

// setupMVM: y = A·x for an n×n matrix; one work-item per row, uniform
// inner loop.
func setupMVM(g *gpu.GPU, n int) (*Instance, error) {
	b := kbuild.New("mvm", isa.SIMD16)
	row := b.Vec()
	b.MovU(row, b.GlobalID())
	// aBase[lane] = A + row*n*4
	aPtr := b.Vec()
	b.MadU(aPtr, row, b.U(uint32(n*4)), b.Arg(0))
	xPtr := b.Vec()
	b.MovU(xPtr, b.Arg(1))
	sum := b.Vec()
	b.Mov(sum, b.F(0))
	j := b.Vec()
	b.MovU(j, b.U(0))
	b.Loop()
	aj, xj := b.Vec(), b.Vec()
	b.LoadGather(aj, aPtr)
	b.LoadGather(xj, xPtr)
	b.Mad(sum, aj, xj, sum)
	b.AddU(aPtr, aPtr, b.U(4))
	b.AddU(xPtr, xPtr, b.U(4))
	b.AddU(j, j, b.U(1))
	b.CmpU(isa.F0, isa.CmpLT, j, b.U(uint32(n)))
	b.While(isa.F0)
	yAddr := b.Addr(b.Arg(2), b.GlobalID(), 4)
	b.StoreScatter(yAddr, sum)
	k, err := b.Build()
	if err != nil {
		return nil, err
	}

	r := rng(3)
	A := make([]float32, n*n)
	x := make([]float32, n)
	for i := range A {
		A[i] = r.Float32()
	}
	for i := range x {
		x[i] = r.Float32()
	}
	bufA := g.AllocF32(n*n, A)
	bufX := g.AllocF32(n, x)
	bufY := g.AllocF32(n, make([]float32, n))
	spec := gpu.LaunchSpec{Kernel: k, GlobalSize: n, GroupSize: 32, Args: []uint32{bufA, bufX, bufY}}
	check := func() error {
		out := g.ReadBufferF32(bufY, n)
		for i := 0; i < n; i++ {
			var want float32
			for j := 0; j < n; j++ {
				want = A[i*n+j]*x[j] + want
			}
			if !almostEqual(out[i], want, 1e-4) {
				return fmt.Errorf("y[%d] = %v, want %v", i, out[i], want)
			}
		}
		return nil
	}
	return Single(spec, check), nil
}

// setupMatMul: C = A·B for n×n matrices, one work-item per output element.
func setupMatMul(g *gpu.GPU, n int) (*Instance, error) {
	shift, err := log2(n)
	if err != nil {
		return nil, err
	}
	b := kbuild.New("matmul", isa.SIMD16)
	// row = gid / n, col = gid % n.
	row, col := b.Vec(), b.Vec()
	b.Shr(row, b.GlobalID(), b.U(uint32(shift)))
	b.And(col, b.GlobalID(), b.U(uint32(n-1)))
	aPtr := b.Vec()
	b.MadU(aPtr, row, b.U(uint32(n*4)), b.Arg(0))
	bPtr := b.Vec()
	b.MadU(bPtr, col, b.U(4), b.Arg(1))
	sum := b.Vec()
	b.Mov(sum, b.F(0))
	kk := b.Vec()
	b.MovU(kk, b.U(0))
	b.Loop()
	av, bv := b.Vec(), b.Vec()
	b.LoadGather(av, aPtr)
	b.LoadGather(bv, bPtr)
	b.Mad(sum, av, bv, sum)
	b.AddU(aPtr, aPtr, b.U(4))
	b.AddU(bPtr, bPtr, b.U(uint32(n*4)))
	b.AddU(kk, kk, b.U(1))
	b.CmpU(isa.F0, isa.CmpLT, kk, b.U(uint32(n)))
	b.While(isa.F0)
	cAddr := b.Addr(b.Arg(2), b.GlobalID(), 4)
	b.StoreScatter(cAddr, sum)
	k, err := b.Build()
	if err != nil {
		return nil, err
	}

	r := rng(4)
	A := make([]float32, n*n)
	B := make([]float32, n*n)
	for i := range A {
		A[i] = r.Float32()
		B[i] = r.Float32()
	}
	bufA := g.AllocF32(n*n, A)
	bufB := g.AllocF32(n*n, B)
	bufC := g.AllocF32(n*n, make([]float32, n*n))
	spec := gpu.LaunchSpec{Kernel: k, GlobalSize: n * n, GroupSize: 64, Args: []uint32{bufA, bufB, bufC}}
	check := func() error {
		out := g.ReadBufferF32(bufC, n*n)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				var want float32
				for kx := 0; kx < n; kx++ {
					want = A[i*n+kx]*B[kx*n+j] + want
				}
				if !almostEqual(out[i*n+j], want, 1e-4) {
					return fmt.Errorf("C[%d,%d] = %v, want %v", i, j, out[i*n+j], want)
				}
			}
		}
		return nil
	}
	return Single(spec, check), nil
}

// setupTranspose: out[j*n+i] = in[i*n+j] — coherent control, divergent
// memory on the store side.
func setupTranspose(g *gpu.GPU, n int) (*Instance, error) {
	shift, err := log2(n)
	if err != nil {
		return nil, err
	}
	b := kbuild.New("transpose", isa.SIMD16)
	row, col := b.Vec(), b.Vec()
	b.Shr(row, b.GlobalID(), b.U(uint32(shift)))
	b.And(col, b.GlobalID(), b.U(uint32(n-1)))
	inAddr := b.Addr(b.Arg(0), b.GlobalID(), 4)
	v := b.Vec()
	b.LoadGather(v, inAddr)
	outIdx := b.Vec()
	b.MadU(outIdx, col, b.U(uint32(n)), row)
	outAddr := b.Addr(b.Arg(1), outIdx, 4)
	b.StoreScatter(outAddr, v)
	k, err := b.Build()
	if err != nil {
		return nil, err
	}

	in := make([]uint32, n*n)
	for i := range in {
		in[i] = uint32(i)
	}
	bufIn := g.AllocU32(n*n, in)
	bufOut := g.AllocU32(n*n, make([]uint32, n*n))
	spec := gpu.LaunchSpec{Kernel: k, GlobalSize: n * n, GroupSize: 64, Args: []uint32{bufIn, bufOut}}
	check := func() error {
		out := g.ReadBufferU32(bufOut, n*n)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if out[j*n+i] != in[i*n+j] {
					return fmt.Errorf("out[%d,%d] = %d", j, i, out[j*n+i])
				}
			}
		}
		return nil
	}
	return Single(spec, check), nil
}

// setupBlackScholes: branch-free European option pricing with the
// Abramowitz-Stegun CND approximation (call price only).
func setupBlackScholes(g *gpu.GPU, n int) (*Instance, error) {
	const (
		riskFree   = 0.02
		volatility = 0.30
	)
	b := kbuild.New("blackscholes", isa.SIMD16)
	sAddr := b.Addr(b.Arg(0), b.GlobalID(), 4) // spot
	xAddr := b.Addr(b.Arg(1), b.GlobalID(), 4) // strike
	tAddr := b.Addr(b.Arg(2), b.GlobalID(), 4) // time
	oAddr := b.Addr(b.Arg(3), b.GlobalID(), 4) // output
	s, x, tm := b.Vec(), b.Vec(), b.Vec()
	b.LoadGather(s, sAddr)
	b.LoadGather(x, xAddr)
	b.LoadGather(tm, tAddr)

	sqrtT := b.Vec()
	b.Sqrt(sqrtT, tm)
	// d1 = (ln(S/X) + (r + v²/2)·T) / (v·√T); ln via log2: ln(x) = log2(x)·ln2.
	ratio := b.Vec()
	b.Div(ratio, s, x)
	lnR := b.Vec()
	b.Log(lnR, ratio)
	b.Mul(lnR, lnR, b.F(float32(math.Ln2)))
	drift := b.Vec()
	b.Mov(drift, b.F(riskFree+0.5*volatility*volatility))
	b.Mad(lnR, drift, tm, lnR)
	denom := b.Vec()
	b.Mul(denom, sqrtT, b.F(volatility))
	d1 := b.Vec()
	b.Div(d1, lnR, denom)
	d2 := b.Vec()
	b.Sub(d2, d1, denom)

	cnd := func(dst, d isa.Operand) {
		// CND(d) ≈ 1 - n(d)·poly(k), k = 1/(1+0.2316419·|d|), then
		// reflected for negative d via Sel — branch-free like the paper's
		// coherent version.
		ad := b.Vec()
		b.Abs(ad, d)
		kk := b.Vec()
		b.Mad(kk, ad, b.F(0.2316419), b.F(1))
		b.Inv(kk, kk)
		poly := b.Vec()
		b.Mov(poly, b.F(1.330274429))
		b.Mad(poly, poly, kk, b.F(-1.821255978))
		b.Mad(poly, poly, kk, b.F(1.781477937))
		b.Mad(poly, poly, kk, b.F(-0.356563782))
		b.Mad(poly, poly, kk, b.F(0.319381530))
		b.Mul(poly, poly, kk)
		// pdf = exp(-d²/2) / √(2π); exp via exp2: e^y = 2^(y·log2 e).
		pdf := b.Vec()
		b.Mul(pdf, ad, ad)
		b.Mul(pdf, pdf, b.F(-0.5*float32(math.Log2E)))
		b.Exp(pdf, pdf)
		b.Mul(pdf, pdf, b.F(1/float32(math.Sqrt(2*math.Pi))))
		b.Mul(poly, poly, pdf)
		one := b.Vec()
		b.Mov(one, b.F(1))
		b.Sub(one, one, poly)
		// d < 0 → 1 - CND(|d|).
		b.Cmp(isa.F0, isa.CmpLT, d, b.F(0))
		refl := b.Vec()
		b.Mov(refl, b.F(1))
		b.Sub(refl, refl, one)
		b.Sel(isa.F0, dst, refl, one)
	}
	nd1, nd2 := b.Vec(), b.Vec()
	cnd(nd1, d1)
	cnd(nd2, d2)
	// call = S·N(d1) - X·e^(-rT)·N(d2).
	disc := b.Vec()
	b.Mul(disc, tm, b.F(-riskFree*float32(math.Log2E)))
	b.Exp(disc, disc)
	term2 := b.Vec()
	b.Mul(term2, x, disc)
	b.Mul(term2, term2, nd2)
	call := b.Vec()
	b.Mul(call, s, nd1)
	b.Sub(call, call, term2)
	b.StoreScatter(oAddr, call)
	k, err := b.Build()
	if err != nil {
		return nil, err
	}

	r := rng(5)
	spot := make([]float32, n)
	strike := make([]float32, n)
	tmv := make([]float32, n)
	for i := range spot {
		spot[i] = 10 + 90*r.Float32()
		strike[i] = 10 + 90*r.Float32()
		tmv[i] = 0.25 + 1.5*r.Float32()
	}
	bufS := g.AllocF32(n, spot)
	bufX := g.AllocF32(n, strike)
	bufT := g.AllocF32(n, tmv)
	bufO := g.AllocF32(n, make([]float32, n))
	spec := gpu.LaunchSpec{Kernel: k, GlobalSize: n, GroupSize: 64,
		Args: []uint32{bufS, bufX, bufT, bufO}}
	check := func() error {
		out := g.ReadBufferF32(bufO, n)
		cndHost := func(d float64) float64 {
			k1 := 1 / (1 + 0.2316419*math.Abs(d))
			poly := ((((1.330274429*k1-1.821255978)*k1+1.781477937)*k1-0.356563782)*k1 + 0.319381530) * k1
			v := 1 - math.Exp(-d*d/2)/math.Sqrt(2*math.Pi)*poly
			if d < 0 {
				return 1 - v
			}
			return v
		}
		for i := 0; i < n; i++ {
			sd, xd, td := float64(spot[i]), float64(strike[i]), float64(tmv[i])
			d1 := (math.Log(sd/xd) + (riskFree+0.5*volatility*volatility)*td) / (volatility * math.Sqrt(td))
			d2 := d1 - volatility*math.Sqrt(td)
			want := sd*cndHost(d1) - xd*math.Exp(-riskFree*td)*cndHost(d2)
			if !almostEqual(out[i], float32(want), 2e-2) {
				return fmt.Errorf("call[%d] = %v, want %v", i, out[i], want)
			}
		}
		return nil
	}
	return Single(spec, check), nil
}

// setupDCT8: 8-point DCT-II per work-item over its input segment.
func setupDCT8(g *gpu.GPU, n int) (*Instance, error) {
	if n%8 != 0 {
		return nil, fmt.Errorf("size %d is not a multiple of the 8-point block", n)
	}
	b := kbuild.New("dct8", isa.SIMD16)
	// Work-item i computes output coefficient (i%8) of block (i/8).
	block, coef := b.Vec(), b.Vec()
	b.Shr(block, b.GlobalID(), b.U(3))
	b.And(coef, b.GlobalID(), b.U(7))
	cf := b.Vec()
	b.ToF(cf, coef)
	inPtr := b.Vec()
	b.MulU(inPtr, block, b.U(8*4))
	b.AddU(inPtr, inPtr, b.Arg(0))
	sum := b.Vec()
	b.Mov(sum, b.F(0))
	j := b.Vec()
	b.MovU(j, b.U(0))
	b.Loop()
	xv := b.Vec()
	b.LoadGather(xv, inPtr)
	jf := b.Vec()
	b.ToF(jf, j)
	ang := b.Vec()
	b.Mad(ang, jf, b.F(2), b.F(1))
	b.Mul(ang, ang, cf)
	b.Mul(ang, ang, b.F(float32(math.Pi/16)))
	cosv := b.Vec()
	b.Cos(cosv, ang)
	b.Mad(sum, xv, cosv, sum)
	b.AddU(inPtr, inPtr, b.U(4))
	b.AddU(j, j, b.U(1))
	b.CmpU(isa.F0, isa.CmpLT, j, b.U(8))
	b.While(isa.F0)
	outAddr := b.Addr(b.Arg(1), b.GlobalID(), 4)
	b.StoreScatter(outAddr, sum)
	k, err := b.Build()
	if err != nil {
		return nil, err
	}

	r := rng(6)
	in := make([]float32, n)
	for i := range in {
		in[i] = r.Float32()*2 - 1
	}
	bufIn := g.AllocF32(n, in)
	bufOut := g.AllocF32(n, make([]float32, n))
	spec := gpu.LaunchSpec{Kernel: k, GlobalSize: n, GroupSize: 64, Args: []uint32{bufIn, bufOut}}
	check := func() error {
		out := g.ReadBufferF32(bufOut, n)
		for i := 0; i < n; i++ {
			blockIdx, c := i/8, i%8
			var want float64
			for j := 0; j < 8; j++ {
				want += float64(in[blockIdx*8+j]) * math.Cos(float64(2*j+1)*float64(c)*math.Pi/16)
			}
			if !almostEqual(out[i], float32(want), 1e-3) {
				return fmt.Errorf("dct[%d] = %v, want %v", i, out[i], want)
			}
		}
		return nil
	}
	return Single(spec, check), nil
}

// setupMersenne: a coherent PRNG stream — each work-item iterates an
// xorshift generator a fixed number of times.
func setupMersenne(g *gpu.GPU, n int) (*Instance, error) {
	const iters = 32
	b := kbuild.New("mersenne", isa.SIMD16)
	state := b.Vec()
	b.AddU(state, b.GlobalID(), b.U(0x9E3779B9))
	i := b.Vec()
	b.MovU(i, b.U(0))
	tmp := b.Vec()
	b.Loop()
	b.Shl(tmp, state, b.U(13))
	b.Xor(state, state, tmp)
	b.Shr(tmp, state, b.U(17))
	b.Xor(state, state, tmp)
	b.Shl(tmp, state, b.U(5))
	b.Xor(state, state, tmp)
	b.AddU(i, i, b.U(1))
	b.CmpU(isa.F0, isa.CmpLT, i, b.U(iters))
	b.While(isa.F0)
	outAddr := b.Addr(b.Arg(0), b.GlobalID(), 4)
	b.StoreScatter(outAddr, state)
	k, err := b.Build()
	if err != nil {
		return nil, err
	}

	bufOut := g.AllocU32(n, make([]uint32, n))
	spec := gpu.LaunchSpec{Kernel: k, GlobalSize: n, GroupSize: 64, Args: []uint32{bufOut}}
	check := func() error {
		out := g.ReadBufferU32(bufOut, n)
		for idx := 0; idx < n; idx++ {
			s := uint32(idx) + 0x9E3779B9
			for it := 0; it < iters; it++ {
				s ^= s << 13
				s ^= s >> 17
				s ^= s << 5
			}
			if out[idx] != s {
				return fmt.Errorf("rng[%d] = %#x, want %#x", idx, out[idx], s)
			}
		}
		return nil
	}
	return Single(spec, check), nil
}

// setupSobel: 3×3 gradient magnitude over an n×n image; interior only
// (borders pre-masked by the 2-D NDRange), so control stays coherent.
// This kernel uses the 2-dimensional launch: lanes carry (x, y) directly.
func setupSobel(g *gpu.GPU, n int) (*Instance, error) {
	b := kbuild.New("sobel", isa.SIMD16)
	// Work-items cover the (n-2)×(n-2) interior.
	inner := n - 2
	row, col := b.Vec(), b.Vec()
	b.AddU(row, b.GlobalIDY(), b.U(1))
	b.AddU(col, b.GlobalID(), b.U(1))

	pix := func(dr, dc int32) isa.Operand {
		rr, cc := b.Vec(), b.Vec()
		b.AddU(rr, row, b.U(uint32(dr))) // two's-complement wrap implements subtraction
		b.AddU(cc, col, b.U(uint32(dc)))
		idx := b.Vec()
		b.MadU(idx, rr, b.U(uint32(n)), cc)
		addr := b.Addr(b.Arg(0), idx, 4)
		v := b.Vec()
		b.LoadGather(v, addr)
		return v
	}
	gx, gy := b.Vec(), b.Vec()
	b.Mov(gx, b.F(0))
	b.Mov(gy, b.F(0))
	type tap struct {
		dr, dc int32
		wx, wy float32
	}
	taps := []tap{
		{-1, -1, -1, -1}, {-1, 0, 0, -2}, {-1, 1, 1, -1},
		{0, -1, -2, 0}, {0, 1, 2, 0},
		{1, -1, -1, 1}, {1, 0, 0, 2}, {1, 1, 1, 1},
	}
	for _, tp := range taps {
		mark := b.Mark()
		v := pix(tp.dr, tp.dc)
		if tp.wx != 0 {
			b.Mad(gx, v, b.F(tp.wx), gx)
		}
		if tp.wy != 0 {
			b.Mad(gy, v, b.F(tp.wy), gy)
		}
		b.Release(mark)
	}
	mag := b.Vec()
	b.Mul(gx, gx, gx)
	b.Mad(gx, gy, gy, gx)
	b.Sqrt(mag, gx)
	outIdx := b.Vec()
	b.MadU(outIdx, row, b.U(uint32(n)), col)
	outAddr := b.Addr(b.Arg(1), outIdx, 4)
	b.StoreScatter(outAddr, mag)
	k, err := b.Build()
	if err != nil {
		return nil, err
	}

	r := rng(7)
	img := make([]float32, n*n)
	for i := range img {
		img[i] = r.Float32()
	}
	bufIn := g.AllocF32(n*n, img)
	bufOut := g.AllocF32(n*n, make([]float32, n*n))
	spec := gpu.LaunchSpec{Kernel: k, GlobalSize: inner, GroupSize: 32,
		GlobalSizeY: inner, GroupSizeY: 2, Args: []uint32{bufIn, bufOut}}
	check := func() error {
		out := g.ReadBufferF32(bufOut, n*n)
		for rI := 1; rI < n-1; rI++ {
			for cI := 1; cI < n-1; cI++ {
				p := func(dr, dc int) float64 { return float64(img[(rI+dr)*n+cI+dc]) }
				gxH := -p(-1, -1) + p(-1, 1) - 2*p(0, -1) + 2*p(0, 1) - p(1, -1) + p(1, 1)
				gyH := -p(-1, -1) - 2*p(-1, 0) - p(-1, 1) + p(1, -1) + 2*p(1, 0) + p(1, 1)
				want := math.Sqrt(gxH*gxH + gyH*gyH)
				if !almostEqual(out[rI*n+cI], float32(want), 1e-3) {
					return fmt.Errorf("sobel[%d,%d] = %v, want %v", rI, cI, out[rI*n+cI], want)
				}
			}
		}
		return nil
	}
	return Single(spec, check), nil
}

// log2 returns the base-2 logarithm of the size n, or an error when n
// is not a power of two.
func log2(n int) (int, error) {
	l := 0
	for 1<<uint(l) < n {
		l++
	}
	if 1<<uint(l) != n {
		return 0, fmt.Errorf("size %d is not a power of two", n)
	}
	return l, nil
}
