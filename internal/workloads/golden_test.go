package workloads

import (
	"context"
	"math"
	"testing"

	"intrawarp/internal/gpu"
)

// Golden SIMD-efficiency regression table, captured at default problem
// sizes. All inputs are seeded, so efficiency is fully deterministic; a
// change here means a kernel's divergence character changed and Fig. 3/9/
// 10 shift with it — which should be a conscious decision.
var efficiencyGolden = map[string]float64{
	"dxtc":           0.9944,
	"hmm":            0.7769,
	"aes":            1.0000,
	"backprop":       0.9929,
	"bfs":            0.2623,
	"binomial":       0.9877,
	"bitonic":        0.6570,
	"blackscholes":   1.0000,
	"boxfilter":      1.0000,
	"bsearch":        0.6142,
	"convolution":    1.0000,
	"dct8":           0.9899,
	"dotproduct":     1.0000,
	"dwt-haar":       0.6142,
	"eigenvalue":     0.8224,
	"floydwarshall":  0.8715,
	"fwht":           1.0000,
	"gauss":          0.6767,
	"histogram":      1.0000,
	"hotspot":        0.8453,
	"kmeans":         0.8718,
	"knn":            0.5880,
	"lavamd":         0.7396,
	"matmul":         0.9962,
	"mersenne":       0.9966,
	"montecarlo":     0.9968,
	"mvm":            0.9981,
	"nw":             0.7255,
	"particlefilter": 0.4857,
	"pathfinder":     0.9990,
	"reduce":         0.6158,
	"rt-ao-al16":     0.3657,
	"rt-ao-al8":      0.4691,
	"rt-ao-bl16":     0.3247,
	"rt-ao-bl8":      0.4173,
	"rt-ao-wm16":     0.3944,
	"rt-ao-wm8":      0.5455,
	"rt-pr-al":       0.6602,
	"rt-pr-bl":       0.6346,
	"rt-pr-conf":     0.6420,
	"rt-pr-wm":       0.7118,
	"scan":           0.9617,
	"sobel":          0.9688,
	"srad":           0.8656,
	"transpose":      1.0000,
	"urng":           0.5302,
	"vecadd":         1.0000,
}

func TestEfficiencyGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("default-size sweep")
	}
	for _, s := range All() {
		s := s
		t.Run(s.Name, func(t *testing.T) {
			want, ok := efficiencyGolden[s.Name]
			if !ok {
				t.Fatalf("no golden entry for %s — add it to efficiencyGolden", s.Name)
			}
			g := gpu.New(gpu.DefaultConfig())
			run, err := ExecuteCtx(context.Background(), g, s, ExecOptions{})
			if err != nil {
				t.Fatal(err)
			}
			if got := run.SIMDEfficiency(); math.Abs(got-want) > 0.0005 {
				t.Fatalf("efficiency = %.4f, golden %.4f", got, want)
			}
		})
	}
}
