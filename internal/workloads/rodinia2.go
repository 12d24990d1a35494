package workloads

import (
	"fmt"
	"math"

	"intrawarp/internal/gpu"
	"intrawarp/internal/isa"
	"intrawarp/internal/kbuild"
)

// Second batch of Table 1 workloads: Gaussian elimination, k-means,
// pathfinder, SRAD, back-propagation, and k-nearest neighbors.

func init() {
	register(&Spec{Name: "gauss", Class: "rodinia", Divergent: true, DefaultN: 32, Setup: setupGauss})
	register(&Spec{Name: "kmeans", Class: "rodinia", Divergent: true, DefaultN: 1024, Setup: setupKmeans})
	registerWidthVariant("kmeans", setupKmeansW)
	register(&Spec{Name: "pathfinder", Class: "rodinia", Divergent: false, DefaultN: 512, Setup: setupPathfinder})
	register(&Spec{Name: "srad", Class: "rodinia", Divergent: true, DefaultN: 32, Setup: setupSRAD})
	register(&Spec{Name: "backprop", Class: "rodinia", Divergent: false, DefaultN: 256, Setup: setupBackprop})
	register(&Spec{Name: "knn", Class: "hpc-div", Divergent: true, DefaultN: 512, Setup: setupKNN})
}

// setupGauss: Gaussian elimination without pivoting on a diagonally
// dominant n×n system. One launch pair per pivot: multipliers, then row
// updates. The active region shrinks with the pivot — heavy bounds-check
// divergence, like Rodinia's Gauss.
func setupGauss(g *gpu.GPU, n int) (*Instance, error) {
	shift, err := log2(n)
	if err != nil {
		return nil, err
	}
	// Kernel 1: m[i] = A[i,k] / A[k,k] for i > k.
	// args: 0=A 1=m 2=k
	b1 := kbuild.New("gauss-mult", isa.SIMD16)
	i := b1.Vec()
	b1.MovU(i, b1.GlobalID())
	kk := b1.Vec()
	b1.MovU(kk, b1.Arg(2))
	b1.CmpU(isa.F0, isa.CmpGT, i, kk)
	b1.If(isa.F0)
	{
		idx := b1.Vec()
		b1.MadU(idx, i, b1.U(uint32(n)), kk)
		aik := b1.Vec()
		aAddr := b1.Addr(b1.Arg(0), idx, 4)
		b1.LoadGather(aik, aAddr)
		pividx := b1.Vec()
		b1.MadU(pividx, kk, b1.U(uint32(n)), kk)
		pivAddr := b1.Addr(b1.Arg(0), pividx, 4)
		piv := b1.Vec()
		b1.LoadGather(piv, pivAddr)
		m := b1.Vec()
		b1.Div(m, aik, piv)
		mAddr := b1.Addr(b1.Arg(1), i, 4)
		b1.StoreScatter(mAddr, m)
	}
	b1.EndIf()
	kMult, err := b1.Build()
	if err != nil {
		return nil, err
	}

	// Kernel 2: A[i,j] -= m[i]*A[k,j] and b[i] -= m[i]*b[k] for i>k, j>k.
	// Work-item covers (i,j) over the full n×n grid; the shrinking valid
	// region is the divergence.
	// args: 0=A 1=m 2=k 3=rhs
	b2 := kbuild.New("gauss-update", isa.SIMD16)
	row, col := b2.Vec(), b2.Vec()
	b2.Shr(row, b2.GlobalID(), b2.U(uint32(shift)))
	b2.And(col, b2.GlobalID(), b2.U(uint32(n-1)))
	kv := b2.Vec()
	b2.MovU(kv, b2.Arg(2))
	b2.CmpU(isa.F0, isa.CmpGT, row, kv)
	b2.If(isa.F0)
	b2.CmpU(isa.F1, isa.CmpGT, col, kv)
	b2.If(isa.F1)
	{
		mAddr := b2.Addr(b2.Arg(1), row, 4)
		m := b2.Vec()
		b2.LoadGather(m, mAddr)
		srcIdx := b2.Vec()
		b2.MadU(srcIdx, kv, b2.U(uint32(n)), col)
		src := b2.Vec()
		sAddr := b2.Addr(b2.Arg(0), srcIdx, 4)
		b2.LoadGather(src, sAddr)
		dstIdx := b2.Vec()
		b2.MadU(dstIdx, row, b2.U(uint32(n)), col)
		dAddr := b2.Addr(b2.Arg(0), dstIdx, 4)
		dst := b2.Vec()
		b2.LoadGather(dst, dAddr)
		prod := b2.Vec()
		b2.Mul(prod, m, src)
		b2.Sub(dst, dst, prod)
		b2.StoreScatter(dAddr, dst)
	}
	b2.EndIf()
	// RHS update once per row: lanes with col == k+1 do it.
	kp1 := b2.Vec()
	b2.AddU(kp1, kv, b2.U(1))
	b2.CmpU(isa.F1, isa.CmpEQ, col, kp1)
	b2.If(isa.F1)
	{
		mAddr := b2.Addr(b2.Arg(1), row, 4)
		m := b2.Vec()
		b2.LoadGather(m, mAddr)
		bkAddr := b2.Addr(b2.Arg(3), kv, 4)
		bk := b2.Vec()
		b2.LoadGather(bk, bkAddr)
		biAddr := b2.Addr(b2.Arg(3), row, 4)
		bi := b2.Vec()
		b2.LoadGather(bi, biAddr)
		prod := b2.Vec()
		b2.Mul(prod, m, bk)
		b2.Sub(bi, bi, prod)
		b2.StoreScatter(biAddr, bi)
	}
	b2.EndIf()
	b2.EndIf()
	kUpd, err := b2.Build()
	if err != nil {
		return nil, err
	}

	r := rng(30)
	A := make([]float32, n*n)
	rhs := make([]float32, n)
	for ri := 0; ri < n; ri++ {
		var sum float32
		for ci := 0; ci < n; ci++ {
			if ri != ci {
				A[ri*n+ci] = r.Float32() - 0.5
				sum += float32(math.Abs(float64(A[ri*n+ci])))
			}
		}
		A[ri*n+ri] = sum + 1 // diagonally dominant: no pivoting needed
		rhs[ri] = r.Float32()
	}
	hostA := append([]float32(nil), A...)
	hostB := append([]float32(nil), rhs...)
	bufA := g.AllocF32(n*n, A)
	bufM := g.AllocF32(n, make([]float32, n))
	bufB := g.AllocF32(n, rhs)

	inst := &Instance{
		Next: func(iter int) *gpu.LaunchSpec {
			pivot := iter / 2
			if pivot >= n-1 {
				return nil
			}
			if iter%2 == 0 {
				return &gpu.LaunchSpec{Kernel: kMult, GlobalSize: n, GroupSize: 64,
					Args: []uint32{bufA, bufM, uint32(pivot)}}
			}
			return &gpu.LaunchSpec{Kernel: kUpd, GlobalSize: n * n, GroupSize: 64,
				Args: []uint32{bufA, bufM, uint32(pivot), bufB}}
		},
		Check: func() error {
			// Host elimination mirroring the device op order.
			for k := 0; k < n-1; k++ {
				piv := hostA[k*n+k]
				ms := make([]float32, n)
				for ri := k + 1; ri < n; ri++ {
					ms[ri] = hostA[ri*n+k] / piv
				}
				for ri := k + 1; ri < n; ri++ {
					for ci := k + 1; ci < n; ci++ {
						hostA[ri*n+ci] -= ms[ri] * hostA[k*n+ci]
					}
					hostB[ri] -= ms[ri] * hostB[k]
				}
			}
			gotA := g.ReadBufferF32(bufA, n*n)
			gotB := g.ReadBufferF32(bufB, n)
			for ri := 0; ri < n; ri++ {
				for ci := ri; ci < n; ci++ { // upper triangle is the result
					if !almostEqual(gotA[ri*n+ci], hostA[ri*n+ci], 1e-3) {
						return fmt.Errorf("U[%d,%d] = %v, want %v", ri, ci, gotA[ri*n+ci], hostA[ri*n+ci])
					}
				}
				if !almostEqual(gotB[ri], hostB[ri], 1e-3) {
					return fmt.Errorf("b[%d] = %v, want %v", ri, gotB[ri], hostB[ri])
				}
			}
			return nil
		},
	}
	return inst, nil
}

// setupKmeans: one assignment step — each point finds its nearest of K
// centroids in 2D; the running-min update is a divergent branch.
func setupKmeans(g *gpu.GPU, n int) (*Instance, error) {
	return setupKmeansW(g, n, isa.SIMD16)
}

func setupKmeansW(g *gpu.GPU, n int, width isa.Width) (*Instance, error) {
	const kClusters = 5
	b := kbuild.New("kmeans", width)
	// args: 0=px 1=py 2=cx 3=cy 4=out assignment
	pxAddr := b.Addr(b.Arg(0), b.GlobalID(), 4)
	pyAddr := b.Addr(b.Arg(1), b.GlobalID(), 4)
	px, py := b.Vec(), b.Vec()
	b.LoadGather(px, pxAddr)
	b.LoadGather(py, pyAddr)
	best := b.Vec()
	b.Mov(best, b.F(1e30))
	bestIdx := b.Vec()
	b.MovU(bestIdx, b.U(0))
	c := b.Vec()
	b.MovU(c, b.U(0))
	cxP, cyP := b.Vec(), b.Vec()
	b.MovU(cxP, b.Arg(2))
	b.MovU(cyP, b.Arg(3))
	b.Loop()
	{
		cx, cy := b.Vec(), b.Vec()
		b.LoadGather(cx, cxP)
		b.LoadGather(cy, cyP)
		dx, dy := b.Vec(), b.Vec()
		b.Sub(dx, px, cx)
		b.Sub(dy, py, cy)
		d2 := b.Vec()
		b.Mul(d2, dx, dx)
		b.Mad(d2, dy, dy, d2)
		b.Cmp(isa.F0, isa.CmpLT, d2, best)
		b.If(isa.F0) // divergent: new minimum per lane
		b.Mov(best, d2)
		b.MovU(bestIdx, c)
		b.EndIf()
	}
	b.AddU(cxP, cxP, b.U(4))
	b.AddU(cyP, cyP, b.U(4))
	b.AddU(c, c, b.U(1))
	b.CmpU(isa.F1, isa.CmpLT, c, b.U(kClusters))
	b.While(isa.F1)
	oAddr := b.Addr(b.Arg(4), b.GlobalID(), 4)
	b.StoreScatter(oAddr, bestIdx)
	k, err := b.Build()
	if err != nil {
		return nil, err
	}

	r := rng(31)
	hx := make([]float32, n)
	hy := make([]float32, n)
	for i := range hx {
		hx[i] = r.Float32() * 10
		hy[i] = r.Float32() * 10
	}
	cx := make([]float32, kClusters)
	cy := make([]float32, kClusters)
	for i := range cx {
		cx[i] = r.Float32() * 10
		cy[i] = r.Float32() * 10
	}
	bufPX := g.AllocF32(n, hx)
	bufPY := g.AllocF32(n, hy)
	bufCX := g.AllocF32(kClusters, cx)
	bufCY := g.AllocF32(kClusters, cy)
	bufOut := g.AllocU32(n, make([]uint32, n))
	spec := gpu.LaunchSpec{Kernel: k, GlobalSize: n, GroupSize: 4 * width.Lanes(),
		Args: []uint32{bufPX, bufPY, bufCX, bufCY, bufOut}}
	check := func() error {
		got := g.ReadBufferU32(bufOut, n)
		for i := 0; i < n; i++ {
			best := float32(1e30)
			want := uint32(0)
			for c := 0; c < kClusters; c++ {
				dx := hx[i] - cx[c]
				dy := hy[i] - cy[c]
				d2 := dx * dx
				d2 = madf32(dy, dy, d2)
				if d2 < best {
					best = d2
					want = uint32(c)
				}
			}
			if got[i] != want {
				return fmt.Errorf("assign[%d] = %d, want %d", i, got[i], want)
			}
		}
		return nil
	}
	return Single(spec, check), nil
}

// setupPathfinder: grid DP, one launch per row:
// dst[j] = grid[row][j] + min(src[j-1], src[j], src[j+1]) with edge
// clamping — mostly coherent (borders only), like the source benchmark at
// large widths.
func setupPathfinder(g *gpu.GPU, n int) (*Instance, error) {
	const rows = 8
	b := kbuild.New("pathfinder", isa.SIMD16)
	// args: 0=src 1=dst 2=grid row base
	j := b.Vec()
	b.MovU(j, b.GlobalID())
	mid := b.Vec()
	sAddr := b.Addr(b.Arg(0), j, 4)
	b.LoadGather(mid, sAddr)
	best := b.Vec()
	b.Mov(best, mid)
	// Left neighbor for j > 0.
	b.CmpU(isa.F0, isa.CmpGT, j, b.U(0))
	b.If(isa.F0)
	jm := b.Vec()
	b.SubU(jm, j, b.U(1))
	lAddr := b.Addr(b.Arg(0), jm, 4)
	l := b.Vec()
	b.LoadGather(l, lAddr)
	b.Min(best, best, l)
	b.EndIf()
	// Right neighbor for j < n-1.
	b.CmpU(isa.F0, isa.CmpLT, j, b.U(uint32(n-1)))
	b.If(isa.F0)
	jp := b.Vec()
	b.AddU(jp, j, b.U(1))
	rAddr := b.Addr(b.Arg(0), jp, 4)
	rv := b.Vec()
	b.LoadGather(rv, rAddr)
	b.Min(best, best, rv)
	b.EndIf()
	gAddr := b.Addr(b.Arg(2), j, 4)
	gv := b.Vec()
	b.LoadGather(gv, gAddr)
	b.Add(best, best, gv)
	dAddr := b.Addr(b.Arg(1), j, 4)
	b.StoreScatter(dAddr, best)
	k, err := b.Build()
	if err != nil {
		return nil, err
	}

	r := rng(32)
	grid := make([][]float32, rows)
	for ri := range grid {
		grid[ri] = make([]float32, n)
		for j := range grid[ri] {
			grid[ri][j] = float32(r.Intn(10))
		}
	}
	bufA := g.AllocF32(n, grid[0])
	bufB := g.AllocF32(n, make([]float32, n))
	rowBufs := make([]uint32, rows)
	for ri := 1; ri < rows; ri++ {
		rowBufs[ri] = g.AllocF32(n, grid[ri])
	}

	inst := &Instance{
		Next: func(iter int) *gpu.LaunchSpec {
			row := iter + 1
			if row >= rows {
				return nil
			}
			src, dst := bufA, bufB
			if iter%2 == 1 {
				src, dst = bufB, bufA
			}
			return &gpu.LaunchSpec{Kernel: k, GlobalSize: n, GroupSize: 64,
				Args: []uint32{src, dst, rowBufs[row]}}
		},
		Check: func() error {
			cur := append([]float32(nil), grid[0]...)
			for ri := 1; ri < rows; ri++ {
				next := make([]float32, n)
				for j := 0; j < n; j++ {
					best := cur[j]
					if j > 0 && cur[j-1] < best {
						best = cur[j-1]
					}
					if j < n-1 && cur[j+1] < best {
						best = cur[j+1]
					}
					next[j] = best + grid[ri][j]
				}
				cur = next
			}
			final := bufB
			if (rows-1)%2 == 0 {
				final = bufA
			}
			got := g.ReadBufferF32(final, n)
			for j := 0; j < n; j++ {
				if got[j] != cur[j] {
					return fmt.Errorf("path[%d] = %v, want %v", j, got[j], cur[j])
				}
			}
			return nil
		},
	}
	return inst, nil
}

// setupSRAD: one step of speckle-reducing anisotropic diffusion on an n×n
// image. The diffusion coefficient is clamped to [0,1] with divergent
// branches, and border handling adds more (Rodinia srad_kernel1 style).
func setupSRAD(g *gpu.GPU, n int) (*Instance, error) {
	const lambda = 0.125
	const q0sq = 0.05
	shift, err := log2(n)
	if err != nil {
		return nil, err
	}
	b := kbuild.New("srad", isa.SIMD16)
	// args: 0=in 1=out
	row, col := b.Vec(), b.Vec()
	b.Shr(row, b.GlobalID(), b.U(uint32(shift)))
	b.And(col, b.GlobalID(), b.U(uint32(n-1)))
	c := b.Vec()
	cAddr := b.Addr(b.Arg(0), b.GlobalID(), 4)
	b.LoadGather(c, cAddr)

	neighbor := func(cond func(), idx isa.Operand) isa.Operand {
		v := b.Vec()
		cond()
		b.If(isa.F0)
		a := b.Addr(b.Arg(0), idx, 4)
		b.LoadGather(v, a)
		b.Else()
		b.Mov(v, c)
		b.EndIf()
		return v
	}
	iN, iS, iW, iE := b.Vec(), b.Vec(), b.Vec(), b.Vec()
	b.SubU(iN, b.GlobalID(), b.U(uint32(n)))
	b.AddU(iS, b.GlobalID(), b.U(uint32(n)))
	b.SubU(iW, b.GlobalID(), b.U(1))
	b.AddU(iE, b.GlobalID(), b.U(1))
	vN := neighbor(func() { b.CmpU(isa.F0, isa.CmpGT, row, b.U(0)) }, iN)
	vS := neighbor(func() { b.CmpU(isa.F0, isa.CmpLT, row, b.U(uint32(n-1))) }, iS)
	vW := neighbor(func() { b.CmpU(isa.F0, isa.CmpGT, col, b.U(0)) }, iW)
	vE := neighbor(func() { b.CmpU(isa.F0, isa.CmpLT, col, b.U(uint32(n-1))) }, iE)

	// Gradient and Laplacian.
	dN, dS, dW, dE := b.Vec(), b.Vec(), b.Vec(), b.Vec()
	b.Sub(dN, vN, c)
	b.Sub(dS, vS, c)
	b.Sub(dW, vW, c)
	b.Sub(dE, vE, c)
	g2 := b.Vec()
	b.Mul(g2, dN, dN)
	b.Mad(g2, dS, dS, g2)
	b.Mad(g2, dW, dW, g2)
	b.Mad(g2, dE, dE, g2)
	lap := b.Vec()
	b.Add(lap, dN, dS)
	b.Add(lap, lap, dW)
	b.Add(lap, lap, dE)

	// q² = (0.5·g2/c² - (lap/(4c))²) / (1 + lap/(4c))², then the
	// coefficient 1/(1 + (q²-q0²)/(q0²(1+q0²))) clamped to [0,1] with
	// divergent branches.
	invC := b.Vec()
	b.Inv(invC, c)
	num := b.Vec()
	b.Mul(num, g2, invC)
	b.Mul(num, num, invC)
	b.Mul(num, num, b.F(0.5))
	l4 := b.Vec()
	b.Mul(l4, lap, invC)
	b.Mul(l4, l4, b.F(0.25))
	l4sq := b.Vec()
	b.Mul(l4sq, l4, l4)
	b.Sub(num, num, l4sq)
	den := b.Vec()
	b.Add(den, l4, b.F(1))
	b.Mul(den, den, den)
	qsq := b.Vec()
	b.Div(qsq, num, den)
	coefDen := b.Vec()
	b.Sub(coefDen, qsq, b.F(q0sq))
	b.Mul(coefDen, coefDen, b.F(1/(q0sq*(1+q0sq))))
	b.Add(coefDen, coefDen, b.F(1))
	coef := b.Vec()
	b.Inv(coef, coefDen)
	// Divergent clamps.
	b.Cmp(isa.F0, isa.CmpLT, coef, b.F(0))
	b.If(isa.F0)
	b.Mov(coef, b.F(0))
	b.EndIf()
	b.Cmp(isa.F0, isa.CmpGT, coef, b.F(1))
	b.If(isa.F0)
	b.Mov(coef, b.F(1))
	b.EndIf()

	outV := b.Vec()
	b.Mul(outV, coef, lap)
	b.Mad(outV, outV, b.F(lambda), c)
	oAddr := b.Addr(b.Arg(1), b.GlobalID(), 4)
	b.StoreScatter(oAddr, outV)
	k, err := b.Build()
	if err != nil {
		return nil, err
	}

	r := rng(33)
	img := make([]float32, n*n)
	for i := range img {
		img[i] = 0.2 + r.Float32()
	}
	bufIn := g.AllocF32(n*n, img)
	bufOut := g.AllocF32(n*n, make([]float32, n*n))
	spec := gpu.LaunchSpec{Kernel: k, GlobalSize: n * n, GroupSize: 64,
		Args: []uint32{bufIn, bufOut}}
	check := func() error {
		got := g.ReadBufferF32(bufOut, n*n)
		for ri := 0; ri < n; ri++ {
			for ci := 0; ci < n; ci++ {
				cV := img[ri*n+ci]
				at := func(rr, cc int) float32 {
					if rr < 0 || rr >= n || cc < 0 || cc >= n {
						return cV
					}
					return img[rr*n+cc]
				}
				dN := at(ri-1, ci) - cV
				dS := at(ri+1, ci) - cV
				dW := at(ri, ci-1) - cV
				dE := at(ri, ci+1) - cV
				g2H := dN * dN
				g2H = madf32(dS, dS, g2H)
				g2H = madf32(dW, dW, g2H)
				g2H = madf32(dE, dE, g2H)
				lapH := dN + dS + dW + dE
				invC := 1 / cV
				num := g2H * invC * invC * 0.5
				l4 := lapH * invC * 0.25
				num -= l4 * l4
				den := (l4 + 1) * (l4 + 1)
				qsq := num / den
				coef := 1 / ((qsq-q0sq)*(1/(q0sq*(1+q0sq))) + 1)
				if coef < 0 {
					coef = 0
				}
				if coef > 1 {
					coef = 1
				}
				want := madf32(coef*lapH, lambda, cV)
				if !almostEqual(got[ri*n+ci], want, 2e-2) {
					return fmt.Errorf("srad[%d,%d] = %v, want %v", ri, ci, got[ri*n+ci], want)
				}
			}
		}
		return nil
	}
	return Single(spec, check), nil
}

// setupBackprop: forward pass of a fully connected layer with sigmoid
// activation — a coherent MVM with EM-pipe math.
func setupBackprop(g *gpu.GPU, n int) (*Instance, error) {
	const inputs = 16
	b := kbuild.New("backprop", isa.SIMD16)
	// args: 0=weights (n×inputs) 1=input 2=out
	wPtr := b.Vec()
	b.MulU(wPtr, b.GlobalID(), b.U(inputs*4))
	b.AddU(wPtr, wPtr, b.Arg(0))
	iPtr := b.Vec()
	b.MovU(iPtr, b.Arg(1))
	sum := b.Vec()
	b.Mov(sum, b.F(0))
	j := b.Vec()
	b.MovU(j, b.U(0))
	b.Loop()
	{
		w, x := b.Vec(), b.Vec()
		b.LoadGather(w, wPtr)
		b.LoadGather(x, iPtr)
		b.Mad(sum, w, x, sum)
	}
	b.AddU(wPtr, wPtr, b.U(4))
	b.AddU(iPtr, iPtr, b.U(4))
	b.AddU(j, j, b.U(1))
	b.CmpU(isa.F0, isa.CmpLT, j, b.U(inputs))
	b.While(isa.F0)
	// sigmoid(x) = 1/(1+2^(-x·log2e))
	e := b.Vec()
	b.Mul(e, sum, b.F(-float32(math.Log2E)))
	b.Exp(e, e)
	b.Add(e, e, b.F(1))
	act := b.Vec()
	b.Inv(act, e)
	oAddr := b.Addr(b.Arg(2), b.GlobalID(), 4)
	b.StoreScatter(oAddr, act)
	k, err := b.Build()
	if err != nil {
		return nil, err
	}

	r := rng(34)
	w := make([]float32, n*inputs)
	in := make([]float32, inputs)
	for i := range w {
		w[i] = r.Float32() - 0.5
	}
	for i := range in {
		in[i] = r.Float32()
	}
	bufW := g.AllocF32(n*inputs, w)
	bufI := g.AllocF32(inputs, in)
	bufO := g.AllocF32(n, make([]float32, n))
	spec := gpu.LaunchSpec{Kernel: k, GlobalSize: n, GroupSize: 64,
		Args: []uint32{bufW, bufI, bufO}}
	check := func() error {
		got := g.ReadBufferF32(bufO, n)
		for i := 0; i < n; i++ {
			var sum float32
			for j := 0; j < inputs; j++ {
				sum = madf32(w[i*inputs+j], in[j], sum)
			}
			want := 1 / (1 + float32(math.Exp2(float64(sum*-float32(math.Log2E)))))
			if !almostEqual(got[i], want, 1e-3) {
				return fmt.Errorf("act[%d] = %v, want %v", i, got[i], want)
			}
		}
		return nil
	}
	return Single(spec, check), nil
}

// setupKNN: each query finds its 4 nearest reference points; the
// insertion into the running top-4 list is a cascade of divergent
// branches.
func setupKNN(g *gpu.GPU, n int) (*Instance, error) {
	const (
		refs = 64
		topK = 4
	)
	b := kbuild.New("knn", isa.SIMD16)
	// args: 0=qx 1=qy 2=rx 3=ry 4..7=out distances (k slots)
	qxAddr := b.Addr(b.Arg(0), b.GlobalID(), 4)
	qyAddr := b.Addr(b.Arg(1), b.GlobalID(), 4)
	qx, qy := b.Vec(), b.Vec()
	b.LoadGather(qx, qxAddr)
	b.LoadGather(qy, qyAddr)
	best := make([]isa.Operand, topK)
	for i := range best {
		best[i] = b.Vec()
		b.Mov(best[i], b.F(1e30))
	}
	j := b.Vec()
	b.MovU(j, b.U(0))
	rxP, ryP := b.Vec(), b.Vec()
	b.MovU(rxP, b.Arg(2))
	b.MovU(ryP, b.Arg(3))
	b.Loop()
	{
		rx, ry := b.Vec(), b.Vec()
		b.LoadGather(rx, rxP)
		b.LoadGather(ry, ryP)
		dx, dy := b.Vec(), b.Vec()
		b.Sub(dx, qx, rx)
		b.Sub(dy, qy, ry)
		d2 := b.Vec()
		b.Mul(d2, dx, dx)
		b.Mad(d2, dy, dy, d2)
		// Insertion bubble pass: the candidate swaps into each slot it
		// beats, carrying the displaced distance downward. Every swap is
		// a divergent branch.
		cur := b.Vec()
		b.Mov(cur, d2)
		for s := 0; s < topK; s++ {
			b.Cmp(isa.F0, isa.CmpLT, cur, best[s])
			b.If(isa.F0) // divergent: this candidate beats slot s
			tmp := b.Vec()
			b.Mov(tmp, best[s])
			b.Mov(best[s], cur)
			b.Mov(cur, tmp)
			b.EndIf()
		}
	}
	b.AddU(rxP, rxP, b.U(4))
	b.AddU(ryP, ryP, b.U(4))
	b.AddU(j, j, b.U(1))
	b.CmpU(isa.F1, isa.CmpLT, j, b.U(refs))
	b.While(isa.F1)
	for s := 0; s < topK; s++ {
		oAddr := b.Addr(b.Arg(4+s), b.GlobalID(), 4)
		b.StoreScatter(oAddr, best[s])
	}
	k, err := b.Build()
	if err != nil {
		return nil, err
	}

	r := rng(35)
	hqx := make([]float32, n)
	hqy := make([]float32, n)
	for i := range hqx {
		hqx[i] = r.Float32()
		hqy[i] = r.Float32()
	}
	rx := make([]float32, refs)
	ry := make([]float32, refs)
	for i := range rx {
		rx[i] = r.Float32()
		ry[i] = r.Float32()
	}
	bufQX := g.AllocF32(n, hqx)
	bufQY := g.AllocF32(n, hqy)
	bufRX := g.AllocF32(refs, rx)
	bufRY := g.AllocF32(refs, ry)
	outBufs := make([]uint32, topK)
	args := []uint32{bufQX, bufQY, bufRX, bufRY}
	for s := 0; s < topK; s++ {
		outBufs[s] = g.AllocF32(n, make([]float32, n))
		args = append(args, outBufs[s])
	}
	spec := gpu.LaunchSpec{Kernel: k, GlobalSize: n, GroupSize: 64, Args: args}
	check := func() error {
		var out [topK][]float32
		for s := range out {
			out[s] = g.ReadBufferF32(outBufs[s], n)
		}
		for i := 0; i < n; i++ {
			// Host insertion mirror (identical op order).
			best := [topK]float32{1e30, 1e30, 1e30, 1e30}
			for j := 0; j < refs; j++ {
				dx := hqx[i] - rx[j]
				dy := hqy[i] - ry[j]
				d2 := dx * dx
				d2 = madf32(dy, dy, d2)
				cur := d2
				for s := 0; s < topK; s++ {
					if cur < best[s] {
						best[s], cur = cur, best[s]
					}
				}
			}
			for s := 0; s < topK; s++ {
				if got := out[s][i]; got != best[s] {
					return fmt.Errorf("knn[%d] slot %d = %v, want %v", i, s, got, best[s])
				}
			}
		}
		return nil
	}
	return Single(spec, check), nil
}
