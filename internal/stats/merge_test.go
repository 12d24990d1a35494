package stats

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"intrawarp/internal/compaction"
	"intrawarp/internal/mask"
)

// synthInstr is one recorded instruction of the synthetic stream.
type synthInstr struct {
	width, group int
	m            mask.Mask
}

// synthStream builds a deterministic pseudo-random instruction stream
// mixing widths, empty masks, and divergence patterns.
func synthStream(n int, seed int64) []synthInstr {
	rng := rand.New(rand.NewSource(seed))
	widths := []int{8, 16, 32}
	out := make([]synthInstr, n)
	for i := range out {
		w := widths[rng.Intn(len(widths))]
		var m mask.Mask
		switch rng.Intn(4) {
		case 0: // fully coherent
			m = mask.Full(w)
		case 1: // empty
			m = 0
		default:
			m = mask.Mask(rng.Uint32())
		}
		out[i] = synthInstr{width: w, group: 4, m: m}
	}
	return out
}

// record plays a slice of the stream into a run, including the window
// counters a timed shard would carry.
func record(r *Run, stream []synthInstr, rng *rand.Rand) {
	for _, in := range stream {
		r.RecordInstr(in.width, in.group, in.m)
		r.Windows[StallKind(rng.Intn(int(NumStallKinds)))]++
	}
	r.LaneCycles += int64(len(stream)) * 3
	r.QuadFetches += int64(len(stream))
}

// TestMergeShardsEqualsUnsharded is the property the parallel engine
// depends on: merging per-shard accumulations in order produces exactly
// the same Run — WidthHist totals, stall windows, policy cycles, energy
// proxies — as accumulating the whole stream into one Run.
func TestMergeShardsEqualsUnsharded(t *testing.T) {
	for _, shards := range []int{1, 2, 3, 7, 16} {
		stream := synthStream(5000, 42)

		whole := NewRun("whole", 16)
		record(whole, stream, rand.New(rand.NewSource(7)))
		whole.Flush()

		// The window-kind sequence must match between the two runs, so
		// re-derive it shard by shard from the same seed.
		rng := rand.New(rand.NewSource(7))
		merged := NewRun("merged", 16)
		per := (len(stream) + shards - 1) / shards
		for lo := 0; lo < len(stream); lo += per {
			hi := lo + per
			if hi > len(stream) {
				hi = len(stream)
			}
			shard := NewRun("shard", 16)
			record(shard, stream[lo:hi], rng)
			merged.Merge(shard)
		}

		if whole.Instructions != merged.Instructions ||
			whole.ActiveLanes != merged.ActiveLanes ||
			whole.TotalLanes != merged.TotalLanes {
			t.Fatalf("shards=%d: lane counters diverge: %+v vs %+v", shards, whole, merged)
		}
		if whole.PolicyCycles != merged.PolicyCycles {
			t.Fatalf("shards=%d: policy cycles %v != %v", shards, whole.PolicyCycles, merged.PolicyCycles)
		}
		if whole.Windows != merged.Windows {
			t.Fatalf("shards=%d: windows %v != %v", shards, whole.Windows, merged.Windows)
		}
		for k := StallKind(0); k < NumStallKinds; k++ {
			if whole.WindowShare(k) != merged.WindowShare(k) {
				t.Fatalf("shards=%d: share(%s) %v != %v", shards, k, whole.WindowShare(k), merged.WindowShare(k))
			}
		}
		if whole.EnergyProxy() != merged.EnergyProxy() {
			t.Fatalf("shards=%d: energy %v != %v", shards, whole.EnergyProxy(), merged.EnergyProxy())
		}
		if len(whole.Hist) != len(merged.Hist) {
			t.Fatalf("shards=%d: hist widths %d != %d", shards, len(whole.Hist), len(merged.Hist))
		}
		for w, h := range whole.Hist {
			mh := merged.Hist[w]
			if mh == nil {
				t.Fatalf("shards=%d: merged lost width %d", shards, w)
			}
			if !reflect.DeepEqual(h.Buckets, mh.Buckets) || h.Empty != mh.Empty {
				t.Fatalf("shards=%d width %d: %+v != %+v", shards, w, h, mh)
			}
			if h.Total() != mh.Total() {
				t.Fatalf("shards=%d width %d: totals %d != %d", shards, w, h.Total(), mh.Total())
			}
		}
	}
}

// costed accumulates a stream by costing every instruction on the spot:
// the totals the signature table's deferred costing must reproduce.
func costed(stream []synthInstr) *Run {
	r := NewRun("ref", 16)
	for _, in := range stream {
		m := in.m.Trunc(in.width)
		pop := int64(m.PopCount())
		r.Instructions++
		r.ActiveLanes += pop
		r.TotalLanes += int64(in.width)
		h := r.Hist[in.width]
		if h == nil {
			h = &WidthHist{Width: in.width}
			r.Hist[in.width] = h
		}
		if pop == 0 {
			h.Empty++
		} else {
			h.Buckets[(pop*Quartiles-1)/int64(in.width)]++
		}
		for p, c := range compaction.CostAll(m, in.width, in.group) {
			r.PolicyCycles[p] += int64(c)
		}
	}
	return r
}

// TestPendingTableBounded records more distinct SIMD32 signatures than
// MaxPending: the table never holds more than the bound, in no more
// than twice as many slots, and the self-flushes it forces lose and
// double-count nothing.
func TestPendingTableBounded(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	stream := make([]synthInstr, 3*MaxPending+123)
	for i := range stream {
		stream[i] = synthInstr{width: 32, group: 4, m: mask.Mask(rng.Uint32())}
		if i%5 == 0 { // repeats too, not only fresh signatures
			stream[i] = stream[rng.Intn(i+1)]
		}
	}
	r := NewRun("ref", 16)
	for i, in := range stream {
		r.RecordInstr(in.width, in.group, in.m)
		if r.pending.used > MaxPending || len(r.pending.slots) > 2*MaxPending {
			t.Fatalf("record %d: %d pending signatures in %d slots, bound %d in %d",
				i, r.pending.used, len(r.pending.slots), MaxPending, 2*MaxPending)
		}
	}
	r.Flush()
	if want := costed(stream); !r.MaskCountsEqual(want) {
		t.Fatalf("bounded accounting diverges:\ngot:\n%s\nwant:\n%s", r.Summary(), want.Summary())
	}
}

// TestFlushIdempotent checks that a second Flush changes nothing, and
// that Merge flushes its argument: merging an unflushed shard equals
// merging the same shard flushed.
func TestFlushIdempotent(t *testing.T) {
	stream := synthStream(3000, 9)
	r := NewRun("r", 16)
	record(r, stream, rand.New(rand.NewSource(1)))
	r.Flush()
	once, _ := json.Marshal(r)
	r.Flush()
	if twice, _ := json.Marshal(r); !bytes.Equal(once, twice) {
		t.Fatalf("second Flush changed the run:\n%s\n%s", once, twice)
	}
	if want := costed(stream); !r.MaskCountsEqual(want) {
		t.Fatalf("flushed accounting diverges:\ngot:\n%s\nwant:\n%s", r.Summary(), want.Summary())
	}

	unflushed, flushed := NewRun("s", 16), NewRun("s", 16)
	record(unflushed, stream, rand.New(rand.NewSource(1)))
	record(flushed, stream, rand.New(rand.NewSource(1)))
	flushed.Flush()
	a, b := NewRun("m", 16), NewRun("m", 16)
	a.Merge(unflushed)
	b.Merge(flushed)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("Merge of an unflushed run differs from Merge of it flushed:\n%s\n%s", a.Summary(), b.Summary())
	}
}

// TestRepeatSignaturesFold records a stream whose signatures come in
// runs of repeats, the shape the held-signature fast path counts
// without a map access, through every point where the held count must
// reach the table: a MaxPending self-flush, Merge and Flush. The totals
// match costing each instruction on the spot, nothing stays held after
// Flush or in a merged shard, and a flushed run deep-equals one that
// recorded the same multiset of signatures in another order.
func TestRepeatSignaturesFold(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	var stream []synthInstr
	for len(stream) < 2*MaxPending {
		in := synthInstr{width: 32, group: 4, m: mask.Mask(rng.Uint32())}
		if rng.Intn(3) == 0 && len(stream) > 0 { // an earlier signature again
			in = stream[rng.Intn(len(stream))]
		}
		for n := 1 + rng.Intn(6); n > 0; n-- {
			stream = append(stream, in)
		}
	}
	r := NewRun("runs", 16)
	shard := NewRun("runs", 16)
	half := len(stream) / 2
	for _, in := range stream[:half] {
		r.RecordInstr(in.width, in.group, in.m)
	}
	for _, in := range stream[half:] {
		shard.RecordInstr(in.width, in.group, in.m)
	}
	if shard.heldN == 0 {
		t.Fatal("the shard holds no repeat count before Merge: the fast path never ran")
	}
	r.Merge(shard)
	if shard.heldN != 0 || shard.held != 0 || shard.pending.slots != nil || shard.pending.used != 0 {
		t.Fatalf("merged shard keeps accounting state: held %#x×%d, %d pending in %d slots",
			shard.held, shard.heldN, shard.pending.used, len(shard.pending.slots))
	}
	r.Flush()
	if r.heldN != 0 || r.held != 0 || r.pending.slots != nil || r.pending.used != 0 {
		t.Fatalf("flushed run keeps accounting state: held %#x×%d, %d pending in %d slots",
			r.held, r.heldN, r.pending.used, len(r.pending.slots))
	}
	if want := costed(stream); !r.MaskCountsEqual(want) {
		t.Fatalf("held repeats lost or double-counted:\ngot:\n%s\nwant:\n%s", r.Summary(), want.Summary())
	}

	shuffled := slices.Clone(stream)
	rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
	a, b := NewRun("r", 16), NewRun("r", 16)
	for i := range stream {
		a.RecordInstr(stream[i].width, stream[i].group, stream[i].m)
		b.RecordInstr(shuffled[i].width, shuffled[i].group, shuffled[i].m)
	}
	a.Flush()
	b.Flush()
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("flushed runs of one multiset differ by recording order:\n%s\n%s", a.Summary(), b.Summary())
	}
}

// mixedStream builds a seeded stream for checking the signature table
// against per-instruction costing: widths 1–32 (mostly the SIMD widths),
// groups 1, 2, 4 and 8, long runs of one repeated instruction, and more
// than three times MaxPending distinct SIMD32 masks, so every third of
// the stream forces a self-flush.
func mixedStream(seed int64) []synthInstr {
	rng := rand.New(rand.NewSource(seed))
	simd := []int{1, 4, 8, 16, 32}
	groups := []int{1, 2, 4, 8}
	seen := map[mask.Mask]bool{}
	var out []synthInstr
	for len(seen) < 3*MaxPending+MaxPending/2 {
		in := synthInstr{width: 32, group: groups[rng.Intn(len(groups))], m: mask.Mask(rng.Uint32())}
		switch rng.Intn(4) {
		case 0:
			in.width = 1 + rng.Intn(32)
		case 1:
			in.width = simd[rng.Intn(len(simd))]
			if rng.Intn(2) == 0 {
				in.m = mask.Full(in.width)
			}
		}
		if in.width == 32 {
			seen[in.m] = true
		}
		n := 1
		if rng.Intn(16) == 0 {
			n += rng.Intn(300)
		}
		for ; n > 0; n-- {
			out = append(out, in)
		}
	}
	return out
}

// TestRecordInstrMatchesPerInstructionCost records seeded mixed streams
// through RecordInstr, the middle third into a shard merged in before
// the last third, and checks every mask-derived counter and Hist bucket
// against costing each instruction on the spot with compaction.CostAll.
// Each third holds more than MaxPending distinct signatures, so the
// check covers probes past colliding slots, every table growth, and the
// self-flush, besides the held-repeat fast path and Merge's flush.
func TestRecordInstrMatchesPerInstructionCost(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		stream := mixedStream(seed)
		a, b := len(stream)/3, 2*len(stream)/3
		r, shard := NewRun("ref", 16), NewRun("ref", 16)
		for _, in := range stream[:a] {
			r.RecordInstr(in.width, in.group, in.m)
		}
		for _, in := range stream[a:b] {
			shard.RecordInstr(in.width, in.group, in.m)
		}
		r.Merge(shard)
		for _, in := range stream[b:] {
			r.RecordInstr(in.width, in.group, in.m)
		}
		r.Flush()
		if want := costed(stream); !r.MaskCountsEqual(want) {
			t.Fatalf("seed %d, %d instructions: accounting diverges from per-instruction costing:\ngot:\n%s\nwant:\n%s",
				seed, len(stream), r.Summary(), want.Summary())
		}
	}
}
