package experiments

import (
	"context"
	"fmt"
	"slices"

	"intrawarp/internal/compaction"
	"intrawarp/internal/isa"
	"intrawarp/internal/kbuild"
	"intrawarp/internal/workloads"
)

func init() {
	register(&Experiment{ID: "fig8", Title: "Ivy Bridge divergent-branch micro-benchmark (relative execution time vs enabled-lane pattern)", Run: runFig8})
	register(&Experiment{ID: "table2", Title: "Nested-branch benefit split: Ivy Bridge optimization, BCC, SCC", Run: runTable2})
	register(&Experiment{ID: "ablation-dtype", Title: "Ablation: compaction benefit vs operand datatype width (§4.1)", Run: runAblationDtype})
	register(&Experiment{ID: "ablation-issue", Title: "Ablation: front-end issue bandwidth sensitivity (§4.3)", Run: runAblationIssue})
	register(&Experiment{ID: "ablation-frontend", Title: "Ablation: instruction refetch (jump) penalty on a branchy divergent kernel", Run: runAblationFrontend})
}

// chainWork emits `chains` independent dependent-MAD chains of length
// `depth` on fresh accumulators, returning the accumulators.
func chainWork(b *kbuild.Builder, chains, depth int) []isa.Operand {
	accs := make([]isa.Operand, chains)
	for c := range accs {
		accs[c] = b.Vec()
		b.Mov(accs[c], b.F(float32(c)+1))
	}
	for d := 0; d < depth; d++ {
		for c := range accs {
			b.Mad(accs[c], accs[c], b.F(1.0001), b.F(0.5))
		}
	}
	return accs
}

// patternKernel builds the Fig. 8 micro-benchmark: an IF/ELSE whose taken
// lanes are exactly the bits of pattern, with equal work on both sides.
func patternKernel(pattern uint16, depth int) (*isa.Kernel, error) {
	b := kbuild.New(fmt.Sprintf("ubench-%04x", pattern), isa.SIMD16)
	lane := b.Vec()
	b.And(lane, b.GlobalID(), b.U(15))
	bit := b.Vec()
	b.Shr(bit, b.U(uint32(pattern)), lane)
	b.And(bit, bit, b.U(1))
	b.CmpU(isa.F0, isa.CmpEQ, bit, b.U(1))
	b.If(isa.F0)
	accA := chainWork(b, 4, depth)
	b.Else()
	accB := chainWork(b, 4, depth)
	b.EndIf()
	out := b.Vec()
	b.Add(out, accA[0], accB[0])
	oAddr := b.Addr(b.Arg(0), b.GlobalID(), 4)
	b.StoreScatter(oAddr, out)
	return b.Build()
}

// Fig8Patterns are the enabled-lane patterns of paper Fig. 8.
var Fig8Patterns = []uint16{0xFFFF, 0xF0F0, 0x00FF, 0xFF0F, 0xAAAA}

// Fig8Result holds relative execution time per pattern and policy.
type Fig8Result struct {
	Pattern  uint16
	Relative [compaction.NumPolicies]float64 // vs the 0xFFFF case under the same policy
}

// Fig8 computes the micro-benchmark results. The pattern × policy cells
// execute on a worker pool of the given size (below 1 selects GOMAXPROCS);
// normalization against the 0xFFFF reference happens after all cells land,
// so results are identical at any worker count.
func Fig8(ctx context.Context, quick bool, workers int) ([]Fig8Result, error) {
	n, depth := 4096, 24
	if quick {
		n, depth = 1024, 16
	}
	var cells []cell
	for _, pat := range Fig8Patterns {
		k, err := patternKernel(pat, depth)
		if err != nil {
			return nil, err
		}
		cells = append(cells, cell{spec: kernelSpec(k), size: n, timed: true}.eachPolicy(compaction.Policies[:]...)...)
	}
	runs, err := runCells(ctx, workers, cells)
	if err != nil {
		return nil, err
	}
	cycles := func(pi int, p compaction.Policy) float64 {
		return float64(runs[pi*compaction.NumPolicies+int(p)].TotalCycles)
	}
	ref := slices.Index(Fig8Patterns, 0xFFFF)
	out := make([]Fig8Result, len(Fig8Patterns))
	for pi, pat := range Fig8Patterns {
		out[pi].Pattern = pat
		for _, p := range compaction.Policies {
			out[pi].Relative[p] = cycles(pi, p) / cycles(ref, p)
		}
	}
	return out, nil
}

func runFig8(ctx *Context) error {
	results, err := Fig8(ctx.context(), ctx.Quick, ctx.Workers)
	if err != nil {
		return err
	}
	t := newTable("pattern", "baseline", "ivb (paper's HW)", "bcc", "scc", "meld", "resize", "its")
	for _, r := range results {
		t.add(fmt.Sprintf("0x%04X", r.Pattern),
			fmt.Sprintf("%.0f%%", 100*r.Relative[compaction.Baseline]),
			fmt.Sprintf("%.0f%%", 100*r.Relative[compaction.IvyBridge]),
			fmt.Sprintf("%.0f%%", 100*r.Relative[compaction.BCC]),
			fmt.Sprintf("%.0f%%", 100*r.Relative[compaction.SCC]),
			fmt.Sprintf("%.0f%%", 100*r.Relative[compaction.Melding]),
			fmt.Sprintf("%.0f%%", 100*r.Relative[compaction.Resize]),
			fmt.Sprintf("%.0f%%", 100*r.Relative[compaction.ITS]))
	}
	t.render(ctx.Out)
	ctx.printf("paper (ivb column): 0xFFFF=100%% 0xF0F0=200%% 0x00FF=100%% 0xFF0F~150%% 0xAAAA=200%%\n")
	return nil
}

// nestedKernel builds the Table 2 micro-benchmark: `levels` nested
// IF/ELSE splits on successive lane-index bits, with the work chain at
// every leaf.
func nestedKernel(levels, depth int) (*isa.Kernel, error) {
	b := kbuild.New(fmt.Sprintf("nested-l%d", levels), isa.SIMD16)
	lane := b.Vec()
	b.And(lane, b.GlobalID(), b.U(15))
	sink := b.Vec()
	b.Mov(sink, b.F(0))
	var nest func(level int)
	nest = func(level int) {
		if level == levels {
			mark := b.Mark()
			accs := chainWork(b, 2, depth)
			b.Add(sink, sink, accs[0])
			b.Release(mark)
			return
		}
		mark := b.Mark()
		bit := b.Vec()
		b.And(bit, lane, b.U(1<<uint(level)))
		b.CmpU(isa.F0, isa.CmpEQ, bit, b.U(0))
		b.Release(mark)
		b.If(isa.F0)
		nest(level + 1)
		b.Else()
		nest(level + 1)
		b.EndIf()
	}
	nest(0)
	oAddr := b.Addr(b.Arg(0), b.GlobalID(), 4)
	b.StoreScatter(oAddr, sink)
	return b.Build()
}

// Table2Row is the measured benefit split at one nesting level.
type Table2Row struct {
	Level         int
	IVBBenefit    float64 // cycle reduction of IVB vs baseline
	BCCAdditional float64 // additional reduction of BCC, as a fraction of baseline
	SCCAdditional float64 // additional reduction of SCC, as a fraction of baseline
}

// Table2 measures EU busy cycles of the nested micro-benchmark under all
// policies. The level × policy cells fan out over a worker pool.
func Table2(ctx context.Context, quick bool, workers int) ([]Table2Row, error) {
	n, depth := 2048, 24
	if quick {
		n, depth = 512, 16
	}
	const maxLevels = 4
	var cells []cell
	for levels := 1; levels <= maxLevels; levels++ {
		k, err := nestedKernel(levels, depth)
		if err != nil {
			return nil, err
		}
		cells = append(cells, cell{spec: kernelSpec(k), size: n, timed: true}.eachPolicy(compaction.Policies[:]...)...)
	}
	runs, err := runCells(ctx, workers, cells)
	if err != nil {
		return nil, err
	}
	var rows []Table2Row
	for levels := 1; levels <= maxLevels; levels++ {
		at := func(p compaction.Policy) float64 {
			return float64(runs[(levels-1)*compaction.NumPolicies+int(p)].EUBusy)
		}
		base := at(compaction.Baseline)
		rows = append(rows, Table2Row{
			Level:         levels,
			IVBBenefit:    (base - at(compaction.IvyBridge)) / base,
			BCCAdditional: (at(compaction.IvyBridge) - at(compaction.BCC)) / base,
			SCCAdditional: (at(compaction.BCC) - at(compaction.SCC)) / base,
		})
	}
	return rows, nil
}

func runTable2(ctx *Context) error {
	rows, err := Table2(ctx.context(), ctx.Quick, ctx.Workers)
	if err != nil {
		return err
	}
	t := newTable("nesting", "ivb benefit", "bcc additional", "scc additional")
	for _, r := range rows {
		t.add(fmt.Sprintf("L%d", r.Level), r.IVBBenefit, r.BCCAdditional, r.SCCAdditional)
	}
	t.render(ctx.Out)
	ctx.printf("paper: L1 scc 50%% | L2 scc 75%% | L3 bcc 50%% + scc 25%% | L4 ivb 50%% + bcc 25%%\n")
	ctx.printf("(measured values are diluted by the control-flow instructions themselves)\n")
	return nil
}

// DtypeRow is the datatype ablation result.
type DtypeRow struct {
	DType        isa.DataType
	BCCReduction float64 // EU-busy reduction of BCC vs baseline
}

// AblationDtype measures how the BCC benefit scales with operand width on
// a one-quad-active pattern: f64 executes more group cycles per
// instruction, so compaction has more to harvest per §4.1. The per-dtype
// measurements fan out over a worker pool.
func AblationDtype(ctx context.Context, quick bool, workers int) ([]DtypeRow, error) {
	n := 2048
	depth := 24
	if quick {
		n, depth = 512, 16
	}
	dtypes := []isa.DataType{isa.F16, isa.F32, isa.F64}
	var cells []cell
	for _, dt := range dtypes {
		b := kbuild.New("dtype-"+dt.String(), isa.SIMD16)
		lane := b.Vec()
		b.And(lane, b.GlobalID(), b.U(15))
		// Only lanes 0..3 active inside the branch: one group of f32,
		// half a group of f64, a quarter group of f16.
		b.CmpU(isa.F0, isa.CmpLT, lane, b.U(4))
		b.If(isa.F0)
		acc := b.VecTyped(dt)
		b.Emit(isa.Instruction{Op: isa.OpMov, DType: dt, Dst: acc, Src0: b.U(1)})
		for d := 0; d < depth; d++ {
			b.Emit(isa.Instruction{Op: isa.OpAdd, DType: dt, Dst: acc, Src0: acc, Src1: b.U(3)})
		}
		b.EndIf()
		oAddr := b.Addr(b.Arg(0), b.GlobalID(), 4)
		zero := b.Vec()
		b.MovU(zero, b.U(0))
		b.StoreScatter(oAddr, zero)
		k, err := b.Build()
		if err != nil {
			return nil, err
		}
		cells = append(cells, cell{spec: kernelSpec(k), size: n, timed: true}.eachPolicy(compaction.Baseline, compaction.BCC)...)
	}
	runs, err := runCells(ctx, workers, cells)
	if err != nil {
		return nil, err
	}
	rows := make([]DtypeRow, len(dtypes))
	for i, dt := range dtypes {
		base, bcc := runs[2*i].EUBusy, runs[2*i+1].EUBusy
		rows[i] = DtypeRow{DType: dt, BCCReduction: float64(base-bcc) / float64(base)}
	}
	return rows, nil
}

func runAblationDtype(ctx *Context) error {
	rows, err := AblationDtype(ctx.context(), ctx.Quick, ctx.Workers)
	if err != nil {
		return err
	}
	t := newTable("dtype", "group size", "bcc reduction vs baseline")
	for _, r := range rows {
		t.add(r.DType.String(), r.DType.GroupSize(), r.BCCReduction)
	}
	t.render(ctx.Out)
	ctx.printf("§4.1: wider datatypes (more execution cycles per instruction) benefit more\n")
	return nil
}

// AblationIssue compares kernel time at issue widths 1 and 2: cycle
// compression raises the demanded issue rate, so a narrower front end
// forfeits part of the benefit (§4.3's balance argument). The four
// (issue width, policy) cells fan out over a worker pool.
func AblationIssue(ctx context.Context, quick bool, workers int) (map[string]int64, error) {
	n, depth := 2048, 4
	if quick {
		n, depth = 512, 4
	}
	k, err := patternKernel(0x000F, depth)
	if err != nil {
		return nil, err
	}
	var cells []cell
	for _, iw := range []int{1, 2} {
		cells = append(cells, cell{spec: kernelSpec(k), size: n, timed: true, issue: iw}.eachPolicy(compaction.Baseline, compaction.SCC)...)
	}
	runs, err := runCells(ctx, workers, cells)
	if err != nil {
		return nil, err
	}
	out := map[string]int64{}
	for i, c := range cells {
		out[fmt.Sprintf("iw%d-%s", c.issue, c.policy)] = runs[i].TotalCycles
	}
	return out, nil
}

// FrontendRow is the jump-penalty ablation result for one penalty value.
type FrontendRow struct {
	Penalty      int
	BaseCycles   int64
	SCCCycles    int64
	SCCReduction float64
}

// AblationFrontend measures how a non-zero instruction-refetch penalty
// (paper §2.2 pipeline stage 1) erodes the total-time benefit of SCC on a
// branchy divergent workload: every loop back-edge and divergence jump
// stalls the thread's front end, and those stalls do not compress. The
// penalty × policy cells fan out over a worker pool; only the first cell
// verifies the device result (the rest are re-runs of the same compute).
func AblationFrontend(ctx context.Context, quick bool, workers int) ([]FrontendRow, error) {
	w, err := workloads.ByName("bsearch")
	if err != nil {
		return nil, err
	}
	n := 1024
	if quick {
		n = 256
	}
	pens := []int{0, 2, 4, 8}
	var cells []cell
	for _, pen := range pens {
		cells = append(cells, cell{spec: w, size: n, timed: true, jump: pen}.eachPolicy(compaction.IvyBridge, compaction.SCC)...)
	}
	cells[0].verify = true
	runs, err := runCells(ctx, workers, cells)
	if err != nil {
		return nil, err
	}
	var rows []FrontendRow
	for pi, pen := range pens {
		base, scc := runs[2*pi].TotalCycles, runs[2*pi+1].TotalCycles
		rows = append(rows, FrontendRow{Penalty: pen, BaseCycles: base, SCCCycles: scc,
			SCCReduction: compaction.Reduction(base, scc)})
	}
	return rows, nil
}

func runAblationFrontend(ctx *Context) error {
	rows, err := AblationFrontend(ctx.context(), ctx.Quick, ctx.Workers)
	if err != nil {
		return err
	}
	t := newTable("jump penalty", "ivb cycles", "scc cycles", "scc reduction")
	for _, r := range rows {
		t.add(r.Penalty, r.BaseCycles, r.SCCCycles, r.SCCReduction)
	}
	t.render(ctx.Out)
	ctx.printf("§2.2/§4.3: front-end refetch stalls do not compress, so a slower instruction\n")
	ctx.printf("supply erodes the wall-clock benefit of cycle compression on branchy code.\n")
	return nil
}

func runAblationIssue(ctx *Context) error {
	res, err := AblationIssue(ctx.context(), ctx.Quick, ctx.Workers)
	if err != nil {
		return err
	}
	t := newTable("issue width", "baseline cycles", "scc cycles", "scc speedup")
	for _, iw := range []int{1, 2} {
		base := res[fmt.Sprintf("iw%d-baseline", iw)]
		scc := res[fmt.Sprintf("iw%d-scc", iw)]
		t.add(iw, base, scc, fmt.Sprintf("%.2fx", float64(base)/float64(scc)))
	}
	t.render(ctx.Out)
	ctx.printf("§4.3: compression increases front-end demand; a narrow issue stage caps the gain\n")
	return nil
}
