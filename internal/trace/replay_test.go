package trace_test

import (
	"bytes"
	"context"
	"encoding/json"
	"math/bits"
	"math/rand"
	"testing"

	"intrawarp/internal/experiments"
	"intrawarp/internal/mask"
	"intrawarp/internal/obs"
	"intrawarp/internal/oracle"
	"intrawarp/internal/stats"
	"intrawarp/internal/trace"
)

// analyzeRecords runs Analyze over an in-memory record slice.
func analyzeRecords(name string, recs []trace.Record) *stats.Run {
	return trace.Analyze(name, &trace.SliceSource{Records: recs})
}

// replay is a sweep cell's replay of recs without a probe.
func replay(name string, recs []trace.Record) *stats.Run {
	return trace.ReplayObserved(name, "scc", 0, recs, nil)
}

// reference derives a record stream's accounting without the engine:
// policy cycles from the independent oracle model, lane totals and
// quartile buckets from popcounts. Bucket q holds the instructions whose
// active lane count lies in (q*W/4, (q+1)*W/4].
func reference(name string, recs []trace.Record) *stats.Run {
	want := stats.NewRun(name, 0)
	for _, r := range recs {
		w, g := int(r.Width), int(r.Group)
		if g == 0 {
			g = 4 // legacy records default to the 32-bit-datatype group
		}
		want.Width = max(want.Width, w)
		pop := bits.OnesCount64(uint64(r.Mask) & (1<<w - 1))
		want.Instructions++
		want.ActiveLanes += int64(pop)
		want.TotalLanes += int64(w)
		h := want.Hist[w]
		if h == nil {
			h = &stats.WidthHist{Width: w}
			want.Hist[w] = h
		}
		if pop == 0 {
			h.Empty++
		} else {
			q := 0
			for stats.Quartiles*pop > (q+1)*w {
				q++
			}
			h.Buckets[q]++
		}
		for p, c := range oracle.AllCycles(uint32(r.Mask), w, g) {
			want.PolicyCycles[p] += int64(c)
		}
	}
	return want
}

// requireMatchesReference checks every exported field of a run against
// the independent reference of the records it was built from.
func requireMatchesReference(t *testing.T, got *stats.Run, recs []trace.Record) {
	t.Helper()
	want := reference(got.Name, recs)
	gj, err := json.Marshal(got)
	if err != nil {
		t.Fatal(err)
	}
	wj, err := json.Marshal(want)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gj, wj) {
		t.Fatalf("replayed run diverges from the reference:\ngot:\n%s\nwant:\n%s", got.Summary(), want.Summary())
	}
}

// requireFlushed checks that a returned run has nothing pending: one more
// Flush leaves its marshaled bytes unchanged.
func requireFlushed(t *testing.T, run *stats.Run) {
	t.Helper()
	before, _ := json.Marshal(run)
	run.Flush()
	if after, _ := json.Marshal(run); !bytes.Equal(before, after) {
		t.Fatalf("run %s was returned with pending signatures:\n%s\n%s", run.Name, before, after)
	}
}

// TestReplayExhaustiveSIMD16 replays every possible SIMD16 mask once and
// checks the whole run against the independent reference.
func TestReplayExhaustiveSIMD16(t *testing.T) {
	recs := make([]trace.Record, 0, 1<<16)
	for m := 0; m < 1<<16; m++ {
		recs = append(recs, trace.Record{Width: 16, Group: 4, Mask: mask.Mask(m)})
	}
	requireMatchesReference(t, replay("exh16", recs), recs)
}

// TestReplayExhaustiveSIMD8 does the same for every SIMD8 mask.
func TestReplayExhaustiveSIMD8(t *testing.T) {
	recs := make([]trace.Record, 0, 1<<8)
	for m := 0; m < 1<<8; m++ {
		recs = append(recs, trace.Record{Width: 8, Group: 4, Mask: mask.Mask(m)})
	}
	requireMatchesReference(t, replay("exh8", recs), recs)
}

// TestReplayMixedSegments drives randomized streams mixing every
// engine-reachable (width, group) shape — including the zero-group
// legacy encoding, SIMD32, and the f64/f16 group sizes — and checks the
// whole Run against the reference.
func TestReplayMixedSegments(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	widths := []uint8{1, 4, 8, 16, 32}
	groups := []uint8{0, 1, 2, 4, 8}
	for trial := 0; trial < 20; trial++ {
		n := 1 + rng.Intn(4000)
		recs := make([]trace.Record, n)
		w, g := widths[rng.Intn(len(widths))], groups[rng.Intn(len(groups))]
		for i := range recs {
			// Change shape rarely so runs of one shape have realistic
			// length, but often enough to interleave many shapes.
			if rng.Intn(50) == 0 {
				w, g = widths[rng.Intn(len(widths))], groups[rng.Intn(len(groups))]
			}
			recs[i] = trace.Record{Width: w, Group: g, Mask: mask.Mask(rng.Uint32())}
		}
		requireMatchesReference(t, replay("mixed", recs), recs)
	}
}

// TestReplayEmptyAndShort covers the degenerate inputs: no records, and a
// handful of records of different widths.
func TestReplayEmptyAndShort(t *testing.T) {
	requireMatchesReference(t, replay("empty", nil), nil)
	recs := []trace.Record{
		{Width: 16, Group: 4, Mask: 0x0F0F},
		{Width: 8, Group: 4, Mask: 0x03},
		{Width: 32, Group: 4, Mask: 0},
	}
	requireMatchesReference(t, replay("short", recs), recs)
}

// TestAnalyzeBoundedSignatures streams more distinct SIMD32 signatures
// than stats.MaxPending through Analyze, forcing the signature table to
// flush itself mid-stream, and checks the totals against the reference.
func TestAnalyzeBoundedSignatures(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	recs := make([]trace.Record, 3*stats.MaxPending+77)
	for i := range recs {
		recs[i] = trace.Record{Width: 32, Group: 4, Mask: mask.Mask(rng.Uint32())}
	}
	requireMatchesReference(t, analyzeRecords("bounded", recs), recs)
}

// TestReplayCostsMatchOracle pins a replay's per-policy costs of single
// records to the independent oracle model: exhaustively at SIMD8 and
// SIMD16, randomized at SIMD32.
func TestReplayCostsMatchOracle(t *testing.T) {
	check := func(m uint32, width int) {
		t.Helper()
		recs := []trace.Record{{Width: uint8(width), Group: 4, Mask: mask.Mask(m)}}
		run := replay("oracle", recs)
		want := oracle.AllCycles(m, width, 4)
		for p := 0; p < oracle.NumPolicies; p++ {
			if got := run.PolicyCycles[p]; got != int64(want[p]) {
				t.Fatalf("mask %#x width %d policy %s: replay=%d oracle=%d",
					m, width, oracle.PolicyName(p), got, want[p])
			}
		}
	}
	for m := 0; m < 1<<8; m++ {
		check(uint32(m), 8)
	}
	for m := 0; m < 1<<16; m++ {
		check(uint32(m), 16)
	}
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 5000; i++ {
		check(rng.Uint32(), 32)
	}
}

// TestReplayOracleCheckTrace runs the record-level oracle invariant
// checker over a randomized trace, covering the memoized SCC schedules
// the verification path exercises during sweeps.
func TestReplayOracleCheckTrace(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	recs := make([]trace.Record, 2000)
	for i := range recs {
		recs[i] = trace.Record{Width: 16, Group: 4, Mask: mask.Mask(rng.Uint32())}
	}
	if v, n := oracle.CheckTrace(&trace.SliceSource{Records: recs}, nil); v != nil {
		t.Fatalf("oracle violation after %d records: %v", n, v)
	}
}

// countProbe tallies launch events.
type countProbe struct {
	obs.NullProbe
	begins []obs.LaunchEvent
	ends   []int64
}

func (p *countProbe) LaunchBegin(e obs.LaunchEvent) { p.begins = append(p.begins, e) }
func (p *countProbe) LaunchEnd(c int64)             { p.ends = append(p.ends, c) }

// TestReplayObserved checks the launch-level probe contract: exactly one
// LaunchBegin/LaunchEnd pair, engine "trace-replay", the policy label
// threaded through, and no change to the replayed accounting.
func TestReplayObserved(t *testing.T) {
	recs := []trace.Record{
		{Width: 16, Group: 4, Mask: 0x00FF},
		{Width: 16, Group: 4, Mask: 0xFFFF},
	}
	p := &countProbe{}
	run := trace.ReplayObserved("bsearch", "scc", 16, recs, p)
	if len(p.begins) != 1 || len(p.ends) != 1 {
		t.Fatalf("got %d begins, %d ends; want 1 each", len(p.begins), len(p.ends))
	}
	b := p.begins[0]
	if b.Engine != "trace-replay" || b.Kernel != "bsearch" || b.Policy != "scc" || b.Width != 16 {
		t.Fatalf("unexpected LaunchBegin %+v", b)
	}
	if p.ends[0] != int64(len(recs)) {
		t.Fatalf("LaunchEnd records = %d, want %d", p.ends[0], len(recs))
	}
	requireMatchesReference(t, run, recs)
}

// TestReturnedRunsFlushed pins that Analyze and ReplayObserved hand back
// runs with nothing left to cost.
func TestReturnedRunsFlushed(t *testing.T) {
	recs := benchRecords(5000)
	requireFlushed(t, analyzeRecords("analyze", recs))
	requireFlushed(t, replay("replay", recs))
}

// benchRecords builds a divergent SIMD16 stream shaped like real
// workload traces (mixed full, partial, and empty masks).
func benchRecords(n int) []trace.Record {
	rng := rand.New(rand.NewSource(42))
	recs := make([]trace.Record, n)
	for i := range recs {
		var m mask.Mask
		switch rng.Intn(4) {
		case 0:
			m = mask.Full(16)
		case 1:
			m = mask.Mask(rng.Uint32()) & mask.Full(16)
		case 2:
			m = mask.Mask(rng.Uint32()) & mask.Mask(rng.Uint32()) & mask.Full(16)
		case 3:
			m = mask.Mask(1) << uint(rng.Intn(16))
		}
		recs[i] = trace.Record{Width: 16, Group: 4, Mask: m}
	}
	return recs
}

// BenchmarkReplay measures a replay over a random stream that averages
// about three records per distinct signature, far fewer than captured
// traces, so most of its time goes to costing signatures.
func BenchmarkReplay(b *testing.B) {
	recs := benchRecords(1 << 16)
	b.SetBytes(int64(len(recs)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		replay("bench", recs)
	}
}

// BenchmarkReplayCaptured measures a replay over a captured kernel trace —
// particlefilter's sweep-group capture — whose signatures repeat the way
// real workloads' do.
func BenchmarkReplayCaptured(b *testing.B) {
	res, err := experiments.ExecuteGroup(context.Background(), experiments.GroupSpec{Workload: "particlefilter"})
	if err != nil {
		b.Fatal(err)
	}
	recs := res.Records
	b.SetBytes(int64(len(recs)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		replay("particlefilter", recs)
	}
}

// BenchmarkAnalyze is Analyze through the Source interface over the same
// stream as BenchmarkReplay.
func BenchmarkAnalyze(b *testing.B) {
	recs := benchRecords(1 << 16)
	b.SetBytes(int64(len(recs)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		analyzeRecords("bench", recs)
	}
}
