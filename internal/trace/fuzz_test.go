package trace_test

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"testing"

	"intrawarp/internal/compaction"
	"intrawarp/internal/experiments"
	"intrawarp/internal/mask"
	"intrawarp/internal/stats"
	"intrawarp/internal/trace"
)

// encode writes records as a trace file.
func encode(tb testing.TB, recs []trace.Record) []byte {
	tb.Helper()
	var buf bytes.Buffer
	w, err := trace.NewWriter(&buf)
	if err != nil {
		tb.Fatal(err)
	}
	for _, r := range recs {
		if err := w.Write(r); err != nil {
			tb.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// costEach accounts records the slow way, costing each one on the spot
// with compaction.CostAll: the reference for Analyze's count-then-cost
// accounting.
func costEach(recs []trace.Record) *stats.Run {
	r := stats.NewRun("ref", 0)
	for _, rec := range recs {
		w := int(rec.Width)
		m := rec.Mask.Trunc(w)
		pop := int64(m.PopCount())
		r.Width = max(r.Width, w)
		r.Instructions++
		r.ActiveLanes += pop
		r.TotalLanes += int64(w)
		h := r.Hist[w]
		if h == nil {
			h = &stats.WidthHist{Width: w}
			r.Hist[w] = h
		}
		if pop == 0 {
			h.Empty++
		} else {
			h.Buckets[(pop*stats.Quartiles-1)/int64(w)]++
		}
		for p, c := range compaction.CostAll(m, w, int(rec.Group)) {
			r.PolicyCycles[p] += int64(c)
		}
	}
	return r
}

// FuzzTraceAnalyze feeds arbitrary bytes through NewReader, AsSource and
// Analyze, the path an untrusted trace file takes. Nothing may panic. A
// stream with a valid header must open; its records, decoded here
// independently, end at the first one whose width or group no engine
// writes, which must surface as a *RecordError naming it, or at a
// trailing partial record, which must surface as a read error. The
// records before that end must cost exactly as costing each on the spot
// does.
func FuzzTraceAnalyze(f *testing.F) {
	res, err := experiments.ExecuteGroup(context.Background(), experiments.GroupSpec{Workload: "mvm", Size: 8})
	if err != nil {
		f.Fatal(err)
	}
	header := encode(f, nil)
	f.Add(encode(f, res.Records))
	f.Add(header)
	f.Add(append([]byte("TRMX"), header[4:]...))
	f.Add(encode(f, []trace.Record{{Width: 16, Group: 4, Mask: 0xF0F0}, {Width: 3, Group: 4, Mask: 7}}))
	f.Fuzz(func(t *testing.T, b []byte) {
		r, err := trace.NewReader(bytes.NewReader(b))
		if err != nil {
			if len(b) >= len(header) && bytes.Equal(b[:len(header)], header) {
				t.Fatalf("a valid header failed to open: %v", err)
			}
			return
		}
		src, errp := trace.AsSource(r)
		run := trace.Analyze("fuzz", src)

		body := b[len(header):]
		var recs []trace.Record
		var bad *trace.Record
		for i := 0; i+8 <= len(body); i += 8 {
			rec := trace.Record{Width: body[i], Group: body[i+1], Pipe: body[i+2],
				Mask: mask.Mask(binary.LittleEndian.Uint32(body[i+4:]))}
			switch rec.Width {
			case 1, 4, 8, 16, 32:
			default:
				bad = &rec
			}
			if rec.Group < 1 || rec.Group > 32 {
				bad = &rec
			}
			if bad != nil {
				break
			}
			recs = append(recs, rec)
		}
		var re *trace.RecordError
		switch {
		case bad != nil:
			if !errors.As(*errp, &re) || re.Index != len(recs) || re.Record != *bad {
				t.Fatalf("record %d %+v: error %v, want a *RecordError naming it", len(recs), *bad, *errp)
			}
		case len(body)%8 != 0:
			if *errp == nil || errors.As(*errp, &re) {
				t.Fatalf("trailing partial record: error %v, want a read error", *errp)
			}
		case *errp != nil:
			t.Fatalf("%d whole valid records: error %v", len(recs), *errp)
		}
		if want := costEach(recs); !run.MaskCountsEqual(want) || run.Width != want.Width {
			t.Fatalf("%d records: Analyze diverges from per-record costing:\ngot:\n%s\nwant:\n%s",
				len(recs), run.Summary(), want.Summary())
		}
	})
}
