package memory

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"
	"testing/quick"
)

func TestFlatAllocAndAccess(t *testing.T) {
	f := NewFlat(256)
	a := f.Alloc(100)
	b := f.Alloc(100)
	if a == 0 || b == 0 {
		t.Fatal("Alloc returned reserved address 0")
	}
	if a%LineBytes != 0 || b%LineBytes != 0 {
		t.Fatal("allocations must be line aligned")
	}
	if b < a+100 {
		t.Fatal("allocations overlap")
	}
	f.WriteU32(a, 0xCAFE)
	f.WriteU32(b, 0xBEEF)
	if f.ReadU32(a) != 0xCAFE || f.ReadU32(b) != 0xBEEF {
		t.Fatal("read/write round trip failed")
	}
}

func TestFlatGrows(t *testing.T) {
	f := NewFlat(64)
	addr := f.Alloc(1 << 16)
	f.WriteU32(addr+1<<16-4, 7)
	if f.ReadU32(addr+1<<16-4) != 7 {
		t.Fatal("grown memory not accessible")
	}
	if f.Size() < 1<<16 {
		t.Fatal("Size below allocation high-water mark")
	}
}

// TestFlatGrowthKeepsContents allocates past the capacity several times
// from one page and checks every word written before each growth, the
// capacity doubling gives, and that one growth is one allocation.
func TestFlatGrowthKeepsContents(t *testing.T) {
	f := NewFlat(pageBytes)
	var bufs []uint32
	for i, size := range []int{100, 3000, 5000, 40000, 1 << 20} {
		buf := f.Alloc(size)
		bufs = append(bufs, buf)
		for j := range bufs {
			f.WriteU32(bufs[j]+uint32(4*i), uint32(1000*j+i))
		}
	}
	if c := 4 * len(f.words); c > pageBytes && c >= 2*f.Size() {
		t.Errorf("capacity %d for a %d-byte high-water mark; doubling from one page stays under twice it", c, f.Size())
	}
	// A growth past two doublings is one allocation.
	g := NewFlat(pageBytes)
	if n := testing.AllocsPerRun(1, func() { g.Alloc(8 * len(g.words)) }); n != 1 {
		t.Errorf("a growing Alloc made %.0f allocations, want 1", n)
	}
	for j, buf := range bufs {
		for i := j; i < len(bufs); i++ {
			if got, want := f.ReadU32(buf+uint32(4*i)), uint32(1000*j+i); got != want {
				t.Fatalf("buffer %d word %d = %d after growth, want %d", j, i, got, want)
			}
		}
	}
}

// TestFlatBoundsAtHighWaterMark checks that the bounds are the
// allocations, not the capacity: an access ending exactly at the
// high-water mark succeeds and one byte further panics, though the
// store's capacity extends well past both, in single-owner and in
// shared mode. At 100 bytes the access one byte past is unaligned; at
// 103 it is an aligned word whose last byte is past the mark.
func TestFlatBoundsAtHighWaterMark(t *testing.T) {
	for _, shared := range []bool{false, true} {
		for _, size := range []int{100, 103} {
			f := NewFlat(pageBytes)
			buf := f.Alloc(size)
			end := buf + uint32(size)
			if f.Size() != int(end) || 4*len(f.words) <= int(end)+4 {
				t.Fatalf("high-water mark %d, capacity %d; the test needs spare capacity past %d", f.Size(), 4*len(f.words), end)
			}
			f.SetShared(shared)
			f.WriteU32(end-4, 7)
			for _, tc := range []struct {
				name string
				op   func()
			}{
				{"ReadU32", func() { f.ReadU32(end - 3) }},
				{"WriteU32", func() { f.WriteU32(end-3, 1) }},
				{"AtomicAdd", func() { f.AtomicAdd(end-3, 1) }},
				{"AtomicMin", func() { f.AtomicMin(end-3, 1) }},
			} {
				func() {
					defer func() {
						if recover() == nil {
							t.Errorf("shared=%v size %d: %s one byte past the high-water mark did not panic", shared, size, tc.name)
						}
					}()
					tc.op()
				}()
			}
		}
	}
}

func TestFlatAtomics(t *testing.T) {
	f := NewFlat(256)
	a := f.Alloc(4)
	f.WriteU32(a, 10)
	if old := f.AtomicAdd(a, 5); old != 10 {
		t.Fatalf("AtomicAdd old = %d, want 10", old)
	}
	if f.ReadU32(a) != 15 {
		t.Fatalf("AtomicAdd result = %d, want 15", f.ReadU32(a))
	}
	if old := f.AtomicMin(a, 3); old != 15 {
		t.Fatalf("AtomicMin old = %d, want 15", old)
	}
	if f.ReadU32(a) != 3 {
		t.Fatalf("AtomicMin result = %d, want 3", f.ReadU32(a))
	}
	if f.AtomicMin(a, 100); f.ReadU32(a) != 3 {
		t.Fatal("AtomicMin must not raise the value")
	}
}

// TestFlatSharedAccessZeroAlloc checks that shared mode allocates
// nothing: every word access and atomic, aligned and unaligned.
func TestFlatSharedAccessZeroAlloc(t *testing.T) {
	f := NewFlat(64)
	f.Alloc(16 * LineBytes)
	f.SetShared(true)
	defer f.SetShared(false)

	var sink uint32
	for _, addr := range []uint32{5 * LineBytes, 5*LineBytes + 3} {
		for _, tc := range []struct {
			name string
			op   func()
		}{
			{"ReadU32", func() { sink += f.ReadU32(addr) }},
			{"WriteU32", func() { f.WriteU32(addr, sink) }},
			{"AtomicAdd", func() { sink += f.AtomicAdd(addr, 1) }},
			{"AtomicMin", func() { sink += f.AtomicMin(addr, 7) }},
		} {
			if allocs := testing.AllocsPerRun(100, tc.op); allocs != 0 {
				t.Errorf("shared-mode %s at %#x allocates %.1f times per call, want 0", tc.name, addr, allocs)
			}
		}
	}
}

// TestFlatSharedAtomicsConcurrent runs two goroutines against one word
// in shared mode. Each makes n AtomicAdd(a, 1) calls: the word ends at
// exactly 2n and the previous values returned are exactly 0..2n-1, so no
// add was lost or seen twice. Concurrent AtomicMin calls leave the
// minimum of every operand. Two goroutines storing one value to one word
// (bfs's continue flag) and making unaligned stores to disjoint bytes of
// shared words leave every write in place, with no data race under
// -race.
func TestFlatSharedAtomicsConcurrent(t *testing.T) {
	const n, slots = 20000, 16
	f := NewFlat(pageBytes)
	base := f.Alloc(4 * LineBytes)
	add, least, flag := base, base+4, base+8
	bytesAt := base + LineBytes
	f.WriteU32(least, ^uint32(0))
	f.SetShared(true)

	var wg sync.WaitGroup
	olds := make([][]uint32, 2)
	for g := range olds {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for i := 0; i < n; i++ {
				olds[g] = append(olds[g], f.AtomicAdd(add, 1))
				f.AtomicMin(least, 1000+uint32(rng.Intn(1<<20)))
				f.WriteU32(flag, 1)
				// Goroutine g stores g+1 to the four bytes at 8k+1+4g:
				// every inner word holds bytes of both goroutines.
				f.WriteU32(bytesAt+8*uint32(i%slots)+1+4*uint32(g), 0x01010101*uint32(g+1))
			}
		}()
	}
	wg.Wait()
	f.SetShared(false)

	if got := f.ReadU32(add); got != 2*n {
		t.Fatalf("word after 2x%d concurrent adds = %d, want %d", n, got, 2*n)
	}
	all := append(olds[0], olds[1]...)
	slices.Sort(all)
	for i, v := range all {
		if v != uint32(i) {
			t.Fatalf("sorted previous values [%d] = %d, want %d: an add was lost or seen twice", i, v, i)
		}
	}
	want := ^uint32(0)
	for g := range olds {
		rng := rand.New(rand.NewSource(int64(g)))
		for i := 0; i < n; i++ {
			want = min(want, 1000+uint32(rng.Intn(1<<20)))
		}
	}
	if got := f.ReadU32(least); got != want {
		t.Fatalf("word after concurrent AtomicMin = %d, want the minimum %d", got, want)
	}
	if got := f.ReadU32(flag); got != 1 {
		t.Fatalf("flag = %d after concurrent stores of 1", got)
	}
	bytesWant := make(byteRef, 8*slots+8)
	for k := 0; k < slots; k++ {
		for j := 0; j < 4; j++ {
			bytesWant[8*k+1+j], bytesWant[8*k+5+j] = 1, 2
		}
	}
	for a := uint32(0); a < uint32(len(bytesWant)); a += 4 {
		if got, want := f.ReadU32(bytesAt+a), bytesWant.read(a); got != want {
			t.Fatalf("word at +%d = %#x after unaligned stores to disjoint bytes, want %#x", a, got, want)
		}
	}
}

// byteRef is the byte-wise reference model of Flat's accessors: a
// little-endian byte slice with no notion of words.
type byteRef []byte

func (r byteRef) read(addr uint32) uint32     { return binary.LittleEndian.Uint32(r[addr:]) }
func (r byteRef) write(addr uint32, v uint32) { binary.LittleEndian.PutUint32(r[addr:], v) }

// TestFlatUnalignedMatchesBytes runs every accessor at byte offsets 0
// to 3 of a word, in single-owner and in shared mode, and checks each
// result and the whole store against the byte-wise reference.
func TestFlatUnalignedMatchesBytes(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	for _, shared := range []bool{false, true} {
		for off := uint32(0); off < 4; off++ {
			f := NewFlat(pageBytes)
			base := f.Alloc(4 * LineBytes)
			ref := make(byteRef, f.Size())
			rng.Read(ref[base:])
			for a := base; a < uint32(len(ref)); a += 4 {
				f.WriteU32(a, ref.read(a))
			}
			f.SetShared(shared)
			where := func(op string, addr uint32) string {
				return fmt.Sprintf("shared=%v offset %d: %s at %#x", shared, off, op, addr)
			}
			for i := 0; i < 200; i++ {
				addr := base + 4*uint32(rng.Intn(4*LineBytes/4-2)) + off
				v := rng.Uint32()
				switch i % 4 {
				case 0:
					if got, want := f.ReadU32(addr), ref.read(addr); got != want {
						t.Fatalf("%s = %#x, reference %#x", where("ReadU32", addr), got, want)
					}
				case 1:
					f.WriteU32(addr, v)
					ref.write(addr, v)
				case 2:
					old := ref.read(addr)
					ref.write(addr, old+v)
					if got := f.AtomicAdd(addr, v); got != old {
						t.Fatalf("%s returned %#x, reference %#x", where("AtomicAdd", addr), got, old)
					}
				case 3:
					old := ref.read(addr)
					ref.write(addr, min(old, v))
					if got := f.AtomicMin(addr, v); got != old {
						t.Fatalf("%s returned %#x, reference %#x", where("AtomicMin", addr), got, old)
					}
				}
			}
			f.SetShared(false)
			for a := base; a < uint32(len(ref)); a += 4 {
				if got, want := f.ReadU32(a), ref.read(a); got != want {
					t.Fatalf("shared=%v offset %d: word at %#x = %#x, byte-wise reference %#x", shared, off, a, got, want)
				}
			}
		}
	}
}

func TestFlatBadAccessPanics(t *testing.T) {
	f := NewFlat(128)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on address 0")
		}
	}()
	f.ReadU32(0)
}

func TestCoalesceLines(t *testing.T) {
	// 16 lanes reading consecutive floats: one line.
	var addrs []uint32
	for i := 0; i < 16; i++ {
		addrs = append(addrs, 0x1000+uint32(i)*4)
	}
	if got := CoalesceLines(addrs); len(got) != 1 || got[0] != 0x1000 {
		t.Fatalf("contiguous coalesce = %v", got)
	}
	// 16 lanes striding one line each: 16 lines.
	addrs = addrs[:0]
	for i := 0; i < 16; i++ {
		addrs = append(addrs, 0x1000+uint32(i)*LineBytes)
	}
	if got := CoalesceLines(addrs); len(got) != 16 {
		t.Fatalf("strided coalesce = %d lines, want 16", len(got))
	}
	if got := CoalesceLines(nil); len(got) != 0 {
		t.Fatal("empty coalesce must be empty")
	}
}

// Property: coalescing is idempotent and covers every input address.
func TestCoalesceProperty(t *testing.T) {
	f := func(raw []uint32) bool {
		lines := CoalesceLines(raw)
		set := map[uint32]bool{}
		for _, l := range lines {
			if l%LineBytes != 0 || set[l] {
				return false
			}
			set[l] = true
		}
		for _, a := range raw {
			if !set[LineAddr(a)] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestSLMConflicts(t *testing.T) {
	s := NewSLM(64<<10, 16)
	// All lanes to distinct banks: 1 cycle.
	var offs []uint32
	for i := 0; i < 16; i++ {
		offs = append(offs, uint32(i)*4)
	}
	if c := s.ConflictCycles(offs); c != 1 {
		t.Fatalf("conflict-free access = %d cycles, want 1", c)
	}
	// All lanes to the same word: broadcast, 1 cycle.
	offs = offs[:0]
	for i := 0; i < 16; i++ {
		offs = append(offs, 128)
	}
	if c := s.ConflictCycles(offs); c != 1 {
		t.Fatalf("broadcast access = %d cycles, want 1", c)
	}
	// All lanes to distinct words in the same bank: full serialization.
	offs = offs[:0]
	for i := 0; i < 8; i++ {
		offs = append(offs, uint32(i)*16*4)
	}
	if c := s.ConflictCycles(offs); c != 8 {
		t.Fatalf("same-bank access = %d cycles, want 8", c)
	}
	if s.ConflictCycles(nil) != 0 {
		t.Fatal("no lanes must cost 0 cycles")
	}
}

// TestSLMClearAfterReuse writes a pooled scratchpad's first and last
// words and one in between, clears it, and checks it is byte-identical
// to a fresh one with no dirty prefix left. A second round that writes
// only low words must clear as well.
func TestSLMClearAfterReuse(t *testing.T) {
	s := NewSLM(64<<10, 16)
	last := uint32(s.Size() - 4)
	for _, round := range [][]uint32{{0, 1000, last}, {8, 4}} {
		for _, off := range round {
			s.WriteU32(off, 0xdeadbeef)
		}
		if want := int(slices.Max(round)) + 4; s.dirty != want {
			t.Fatalf("dirty prefix %d after writes at %v, want %d", s.dirty, round, want)
		}
		s.Clear()
		if fresh := NewSLM(64<<10, 16); !bytes.Equal(s.data, fresh.data) || s.dirty != 0 {
			t.Fatalf("cleared SLM differs from a fresh one after writes at %v (dirty %d)", round, s.dirty)
		}
	}
}

func TestSLMReadWrite(t *testing.T) {
	s := NewSLM(1024, 16)
	s.WriteU32(100, 77)
	if s.ReadU32(100) != 77 {
		t.Fatal("SLM round trip failed")
	}
	if s.Size() != 1024 {
		t.Fatal("SLM size mismatch")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on out-of-range SLM access")
		}
	}()
	s.ReadU32(1022)
}

func TestCacheHitMiss(t *testing.T) {
	c := NewCache("t", 8<<10, 4, 1, 7)
	line := uint32(0x4000)
	hit, ready := c.Access(line, 100)
	if hit {
		t.Fatal("cold access must miss")
	}
	if ready != 107 {
		t.Fatalf("ready = %d, want 107", ready)
	}
	c.Fill(line)
	hit, _ = c.Access(line, 200)
	if !hit {
		t.Fatal("filled line must hit")
	}
	if c.Stats.Accesses != 2 || c.Stats.Hits != 1 || c.Stats.Misses != 1 {
		t.Fatalf("stats = %+v", c.Stats)
	}
	if c.HitRate() != 0.5 {
		t.Fatalf("hit rate = %v", c.HitRate())
	}
}

func TestCacheLRUEviction(t *testing.T) {
	// 2-way cache with enough lines to force set reuse: size 2 sets.
	c := NewCache("t", 4*LineBytes, 2, 1, 1)
	// Three lines mapping to set 0 (line numbers 0 mod 2): use lines 2,4,6
	// (even line numbers map to set 0 of 2 sets).
	l1, l2, l3 := uint32(2*LineBytes), uint32(4*LineBytes), uint32(6*LineBytes)
	c.Access(l1, 0)
	c.Fill(l1)
	c.Access(l2, 1)
	c.Fill(l2)
	// Touch l1 so l2 becomes LRU.
	c.Access(l1, 2)
	c.Access(l3, 3)
	c.Fill(l3)
	if !c.Contains(l1) {
		t.Fatal("recently used line evicted")
	}
	if c.Contains(l2) {
		t.Fatal("LRU line not evicted")
	}
	if !c.Contains(l3) {
		t.Fatal("filled line missing")
	}
}

func TestCacheBankSerialization(t *testing.T) {
	c := NewCache("t", 8<<10, 4, 1, 7) // single bank
	_, r1 := c.Access(0x1000, 50)
	_, r2 := c.Access(0x2000, 50)
	if r2 != r1+1 {
		t.Fatalf("same-cycle same-bank accesses: ready %d and %d, want serialization", r1, r2)
	}
	c4 := NewCache("t4", 8<<10, 4, 4, 7)
	_, ra := c4.Access(0*LineBytes, 50)
	_, rb := c4.Access(1*LineBytes, 50) // different bank
	if ra != rb {
		t.Fatalf("different banks serialized: %d vs %d", ra, rb)
	}
}

func TestCachePerfect(t *testing.T) {
	c := NewCache("t", 8<<10, 4, 1, 7)
	c.SetPerfect(true)
	hit, _ := c.Access(0xABC0, 0)
	if !hit {
		t.Fatal("perfect cache must always hit")
	}
	if !c.Contains(0xFFFFFFC0) {
		t.Fatal("perfect cache must contain everything")
	}
}

// Property: hits + misses == accesses for arbitrary access streams.
func TestCacheStatsProperty(t *testing.T) {
	f := func(lines []uint16) bool {
		c := NewCache("t", 4<<10, 4, 2, 3)
		for i, l := range lines {
			line := uint32(l) * LineBytes
			hit, _ := c.Access(line, int64(i))
			if !hit {
				c.Fill(line)
			}
		}
		return c.Stats.Hits+c.Stats.Misses == c.Stats.Accesses
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestSystemRequestCompletion(t *testing.T) {
	cfg := DefaultConfig()
	sys := NewSystem(cfg)
	var doneAt int64 = -1
	sys.RequestLines([]uint32{0x1000}, 0, DoneFunc(func(r int64) { doneAt = r }))
	// Cold miss path: L3 (7) + LLC (10) + DRAM (200).
	var now int64
	for doneAt < 0 && now < 10000 {
		sys.Tick(now)
		now++
	}
	if doneAt < 0 {
		t.Fatal("request never completed")
	}
	want := int64(cfg.L3Latency + cfg.LLCLatency + cfg.DRAMLatency)
	if doneAt != want {
		t.Fatalf("cold miss ready at %d, want %d", doneAt, want)
	}
	// Second access to the same line: L3 hit.
	doneAt = -1
	start := now
	sys.RequestLines([]uint32{0x1000}, now, DoneFunc(func(r int64) { doneAt = r }))
	for doneAt < 0 && now < start+10000 {
		sys.Tick(now)
		now++
	}
	if doneAt-start != int64(cfg.L3Latency) {
		t.Fatalf("warm access took %d cycles, want %d", doneAt-start, cfg.L3Latency)
	}
	if sys.Stats.LinesRequested != 2 || sys.Stats.DRAMLines != 1 {
		t.Fatalf("stats = %+v", sys.Stats)
	}
}

func TestSystemBandwidthThrottle(t *testing.T) {
	run := func(bw int) int64 {
		cfg := DefaultConfig()
		cfg.DCLinesPerCycle = bw
		cfg.PerfectL3 = true
		sys := NewSystem(cfg)
		lines := make([]uint32, 64)
		for i := range lines {
			lines[i] = uint32(0x1000 + i*LineBytes)
		}
		var doneAt int64 = -1
		sys.RequestLines(lines, 0, DoneFunc(func(r int64) { doneAt = r }))
		var now int64
		for doneAt < 0 && now < 100000 {
			sys.Tick(now)
			now++
		}
		if doneAt < 0 {
			t.Fatal("request never completed")
		}
		return doneAt
	}
	dc1 := run(1)
	dc2 := run(2)
	if dc2 >= dc1 {
		t.Fatalf("DC2 (%d) must finish before DC1 (%d)", dc2, dc1)
	}
	// 64 lines at 1/cycle vs 2/cycle: roughly 2x difference in queue time.
	if dc1-dc2 < 20 {
		t.Fatalf("bandwidth effect too small: dc1=%d dc2=%d", dc1, dc2)
	}
}

func TestSystemEmptyRequest(t *testing.T) {
	sys := NewSystem(DefaultConfig())
	var done bool
	sys.RequestLines(nil, 5, DoneFunc(func(int64) { done = true }))
	sys.Tick(5)
	if !done {
		t.Fatal("empty request must complete on the next tick")
	}
	if sys.InFlight() {
		t.Fatal("nothing should remain in flight")
	}
}

func TestSystemPerfectL3(t *testing.T) {
	cfg := DefaultConfig()
	cfg.PerfectL3 = true
	sys := NewSystem(cfg)
	var doneAt int64 = -1
	sys.RequestLines([]uint32{0x9000}, 0, DoneFunc(func(r int64) { doneAt = r }))
	for now := int64(0); doneAt < 0 && now < 100; now++ {
		sys.Tick(now)
	}
	if doneAt != int64(cfg.L3Latency) {
		t.Fatalf("perfect L3 ready at %d, want %d", doneAt, cfg.L3Latency)
	}
	if sys.Stats.DRAMLines != 0 {
		t.Fatal("perfect L3 must not touch DRAM")
	}
}

func TestSLMReadyAccounting(t *testing.T) {
	cfg := DefaultConfig()
	sys := NewSystem(cfg)
	slm := NewSLM(cfg.SLMBytes, cfg.SLMBanks)
	offs := []uint32{0, 64, 128} // distinct words, same bank (stride 16 words)
	ready := sys.SLMReady(slm, offs, 100)
	if ready != 100+int64(cfg.SLMLatency)+2 {
		t.Fatalf("SLM ready = %d", ready)
	}
	if sys.Stats.SLMAccesses != 1 || sys.Stats.SLMConflicts != 2 {
		t.Fatalf("SLM stats = %+v", sys.Stats)
	}
}

// refCache is a naive reference model: per set, an LRU-ordered slice.
type refCache struct {
	sets, ways int
	data       map[int][]uint32
}

func newRefCache(sizeBytes, ways int) *refCache {
	return &refCache{sets: sizeBytes / LineBytes / ways, ways: ways, data: map[int][]uint32{}}
}

func (r *refCache) access(line uint32) bool {
	s := int(line/LineBytes) % r.sets
	set := r.data[s]
	for i, l := range set {
		if l == line {
			// Move to MRU position.
			set = append(append(append([]uint32{}, set[:i]...), set[i+1:]...), line)
			r.data[s] = set
			return true
		}
	}
	set = append(set, line)
	if len(set) > r.ways {
		set = set[1:] // evict LRU
	}
	r.data[s] = set
	return false
}

// Differential test: the banked production cache must make the same
// hit/miss decision as the naive LRU reference on every access of random
// streams.
func TestCacheMatchesReferenceModel(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		r := rand.New(rand.NewSource(seed))
		c := NewCache("dut", 8<<10, 4, 4, 3)
		ref := newRefCache(8<<10, 4)
		for i := 0; i < 5000; i++ {
			// Line 0 is reserved (address 0 is never allocated), so the
			// production cache treats tag 0 as invalid; keep it out of
			// the stream like real traffic does.
			line := uint32(1+r.Intn(511)) * LineBytes
			hit, _ := c.Access(line, int64(i))
			wantHit := ref.access(line)
			if hit != wantHit {
				t.Fatalf("seed %d access %d line %#x: dut hit=%v ref hit=%v", seed, i, line, hit, wantHit)
			}
			if !hit {
				c.Fill(line)
			}
		}
	}
}
