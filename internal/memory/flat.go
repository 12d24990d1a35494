// Package memory models the GPU memory system of the studied architecture
// (paper §2.3 and Table 3): a flat functional backing store, banked shared
// local memory (SLM), a GPU L3 data cache, the last-level cache shared
// with the CPU cores, DRAM, and the data-cluster interface whose peak
// line-per-cycle bandwidth is the DC1/DC2 knob of the paper's execution
// time analysis (§5.4).
package memory

import (
	"encoding/binary"
	"fmt"
	"math"
	"sync/atomic"
)

// LineBytes is the cache line size used throughout the hierarchy.
const LineBytes = 64

// LineAddr returns the line-aligned address containing addr.
func LineAddr(addr uint32) uint32 { return addr &^ (LineBytes - 1) }

// Flat is the functional backing store: a flat, byte-addressable global
// memory with a bump allocator. Address 0 is reserved so that a zero
// pointer is always invalid. The store starts small and grows with Alloc,
// and every access must lie below the allocation high-water mark, so an
// access past the last buffer faults however much the store has grown.
// It holds little-endian 32-bit words, so an aligned 32-bit access is
// one word.
//
// By default Flat is single-owner and unsynchronized. The parallel
// functional engine executes workgroups from several goroutines against
// one store, entering shared mode via SetShared for the duration: every
// word access is then a sync/atomic operation on that word, which makes
// overlapping writes (idempotent flags) and cross-workgroup atomics
// well-defined with no lock. Atomicity is per aligned word: an unaligned
// 32-bit access touches each of the two words it spans atomically but
// not both at once, so an unaligned AtomicAdd or AtomicMin is
// indivisible only in single-owner mode. The words are plain uint32s
// rather than atomic.Uint32s so that single-owner mode, where nothing
// runs concurrently, stores without a locked instruction. Alloc remains
// single-owner — buffers are created during workload setup, never
// mid-launch.
type Flat struct {
	words  []uint32
	brk    uint32
	shared bool
}

// pageBytes is the initial capacity of a memory system's backing store.
// Alloc doubles the capacity until the new buffer fits, so a store past
// its first page holds less than twice its high-water mark.
const pageBytes = 4096

// NewFlat creates a backing store with the given initial capacity in
// bytes, rounded up to a whole line.
func NewFlat(capacity int) *Flat {
	capacity = max(capacity, LineBytes)
	return &Flat{words: make([]uint32, (capacity+3)/4), brk: LineBytes}
}

// Alloc reserves size bytes and returns the base address, aligned to a
// cache line so buffers never share lines. When the buffer does not fit,
// the capacity doubles until it does, in one allocation that keeps the
// contents.
func (f *Flat) Alloc(size int) uint32 {
	base := (f.brk + LineBytes - 1) &^ (LineBytes - 1)
	if size < 0 || uint64(base)+uint64(size) > math.MaxUint32 {
		panic(fmt.Sprintf("memory: Alloc(%d) at %#x overflows the 32-bit address space", size, base))
	}
	end := base + uint32(size)
	if need := (int(end) + 3) / 4; need > len(f.words) {
		n := len(f.words)
		for n < need {
			n *= 2
		}
		grown := make([]uint32, n)
		copy(grown, f.words)
		f.words = grown
	}
	f.brk = end
	return base
}

// Size returns the high-water mark of allocated memory.
func (f *Flat) Size() int { return int(f.brk) }

// word reports whether [addr, addr+4) is one aligned word inside the
// allocated memory, and returns its index. Every other 32-bit access
// takes the out-of-line path of its accessor.
func (f *Flat) word(addr uint32) (int, bool) {
	return int(addr >> 2), addr&3 == 0 && addr != 0 && addr <= f.brk-4
}

// check panics unless [addr, addr+n) lies inside the allocated memory:
// above the reserved address 0 and below the high-water mark.
func (f *Flat) check(addr uint32, n int) {
	if int(addr)+n > int(f.brk) || addr == 0 {
		panic(fmt.Sprintf("memory: access %#x+%d outside allocated memory (%d bytes)", addr, n, f.brk))
	}
}

// SetShared switches concurrent-access mode on or off. It must only be
// called while no accesses are in flight (before workers start / after
// they join; the goroutine fork and join order the flag itself).
func (f *Flat) SetShared(on bool) { f.shared = on }

// load reads word i, atomically in shared mode.
func (f *Flat) load(i int) uint32 {
	if f.shared {
		return atomic.LoadUint32(&f.words[i])
	}
	return f.words[i]
}

// store writes word i, atomically in shared mode.
func (f *Flat) store(i int, v uint32) {
	if f.shared {
		atomic.StoreUint32(&f.words[i], v)
		return
	}
	f.words[i] = v
}

// merge replaces the bits of word i that m selects with those of v,
// leaving the word's other bytes as they are; in shared mode it is one
// compare-and-swap loop on the word.
func (f *Flat) merge(i int, v, m uint32) {
	if !f.shared {
		f.words[i] = f.words[i]&^m | v&m
		return
	}
	for {
		old := atomic.LoadUint32(&f.words[i])
		if atomic.CompareAndSwapUint32(&f.words[i], old, old&^m|v&m) {
			return
		}
	}
}

// ReadU32 reads a 32-bit word.
func (f *Flat) ReadU32(addr uint32) uint32 {
	if i, ok := f.word(addr); ok {
		return f.load(i)
	}
	return f.readUnaligned(addr)
}

// WriteU32 writes a 32-bit word.
func (f *Flat) WriteU32(addr uint32, v uint32) {
	if i, ok := f.word(addr); ok {
		f.store(i, v)
		return
	}
	f.writeUnaligned(addr, v)
}

// AtomicAdd adds v to the word at addr and returns the previous value. In
// single-owner mode issue order defines atomicity; in shared mode an
// aligned word's read-modify-write is one atomic add.
func (f *Flat) AtomicAdd(addr uint32, v uint32) uint32 {
	i, ok := f.word(addr)
	if !ok {
		old := f.readUnaligned(addr)
		f.writeUnaligned(addr, old+v)
		return old
	}
	if f.shared {
		return atomic.AddUint32(&f.words[i], v) - v
	}
	old := f.words[i]
	f.words[i] = old + v
	return old
}

// AtomicMin stores min(old, v) (unsigned) at addr and returns the previous
// value. In shared mode an aligned word's update is a compare-and-swap
// loop.
func (f *Flat) AtomicMin(addr uint32, v uint32) uint32 {
	i, ok := f.word(addr)
	if !ok {
		old := f.readUnaligned(addr)
		if v < old {
			f.writeUnaligned(addr, v)
		}
		return old
	}
	if !f.shared {
		old := f.words[i]
		f.words[i] = min(old, v)
		return old
	}
	for {
		old := atomic.LoadUint32(&f.words[i])
		if v >= old || atomic.CompareAndSwapUint32(&f.words[i], old, v) {
			return old
		}
	}
}

// readUnaligned reads the 32-bit little-endian value at an unaligned
// address from the two words it spans, or panics on an access outside
// the allocated memory.
func (f *Flat) readUnaligned(addr uint32) uint32 {
	f.check(addr, 4)
	i, s := int(addr>>2), 8*(addr&3)
	return f.load(i)>>s | f.load(i+1)<<(32-s)
}

// writeUnaligned writes v at an unaligned address into the two words it
// spans, or panics on an access outside the allocated memory.
func (f *Flat) writeUnaligned(addr uint32, v uint32) {
	f.check(addr, 4)
	i, s := int(addr>>2), 8*(addr&3)
	f.merge(i, v<<s, ^uint32(0)<<s)
	f.merge(i+1, v>>(32-s), ^uint32(0)>>(32-s))
}

// SLM is the shared local memory of one workgroup: a small, fast,
// many-banked scratchpad (Table 3: 64KB, 5-cycle latency). Bank conflicts
// serialize accesses; the conflict degree is computed by ConflictCycles.
type SLM struct {
	data  []byte
	banks int
	// dirty is the end of the highest word written since the last Clear:
	// every byte from dirty on is still zero.
	dirty int

	// ConflictCycles scratch, reused across calls: the distinct words of
	// one access and the per-bank tallies. An SLM belongs to exactly one
	// workgroup and conflict accounting is serial, so plain fields are
	// safe.
	words   []uint32
	bankCnt []int
}

// NewSLM creates a scratchpad of the given size and bank count.
func NewSLM(size, banks int) *SLM {
	if banks <= 0 {
		banks = 16
	}
	return &SLM{data: make([]byte, size), banks: banks}
}

// Clear zeroes the scratchpad so a pooled SLM is indistinguishable from a
// fresh NewSLM allocation. Only the prefix up to the highest word written
// can be nonzero, so only that prefix is cleared.
func (s *SLM) Clear() {
	clear(s.data[:s.dirty])
	s.dirty = 0
}

// Size returns the scratchpad capacity in bytes.
func (s *SLM) Size() int { return len(s.data) }

// ReadU32 reads a 32-bit word at a byte offset.
func (s *SLM) ReadU32(off uint32) uint32 {
	if int(off)+4 > len(s.data) {
		panic(fmt.Sprintf("memory: SLM read %#x outside %d-byte scratchpad", off, len(s.data)))
	}
	return binary.LittleEndian.Uint32(s.data[off:])
}

// WriteU32 writes a 32-bit word at a byte offset.
func (s *SLM) WriteU32(off uint32, v uint32) {
	if int(off)+4 > len(s.data) {
		panic(fmt.Sprintf("memory: SLM write %#x outside %d-byte scratchpad", off, len(s.data)))
	}
	binary.LittleEndian.PutUint32(s.data[off:], v)
	if end := int(off) + 4; end > s.dirty {
		s.dirty = end
	}
}

// ConflictCycles returns the number of serialized access cycles for a set
// of per-lane word offsets: the maximum number of distinct words mapping
// to the same bank (lanes hitting the same word broadcast in one cycle).
// It reuses per-SLM scratch, so steady-state accounting is allocation-free.
func (s *SLM) ConflictCycles(offsets []uint32) int {
	if len(offsets) == 0 {
		return 0
	}
	// Dedup the words: one access covers at most one word per lane, so the
	// linear scan over ≤32 candidates beats a map.
	s.words = s.words[:0]
	for _, off := range offsets {
		word := off >> 2
		seen := false
		for _, w := range s.words {
			if w == word {
				seen = true
				break
			}
		}
		if !seen {
			s.words = append(s.words, word)
		}
	}
	if len(s.bankCnt) < s.banks {
		s.bankCnt = make([]int, s.banks)
	}
	worst := 1
	for _, w := range s.words {
		b := int(w) % s.banks
		s.bankCnt[b]++
		if s.bankCnt[b] > worst {
			worst = s.bankCnt[b]
		}
	}
	for _, w := range s.words {
		s.bankCnt[int(w)%s.banks] = 0
	}
	return worst
}

// CoalesceLines returns the distinct cache-line addresses touched by a set
// of per-lane byte addresses — the per-instruction memory divergence of
// the paper (§1). Order follows first appearance.
func CoalesceLines(addrs []uint32) []uint32 {
	return CoalesceLinesInto(make([]uint32, 0, 4), addrs)
}

// CoalesceLinesInto is CoalesceLines appending into dst's backing array
// (reset to length zero first), so per-instruction coalescing can reuse a
// scratch buffer. With at most one address per lane (≤32), the linear
// dedup scan beats a map and allocates nothing once dst has capacity.
func CoalesceLinesInto(dst, addrs []uint32) []uint32 {
	dst = dst[:0]
	for _, a := range addrs {
		l := LineAddr(a)
		seen := false
		for _, d := range dst {
			if d == l {
				seen = true
				break
			}
		}
		if !seen {
			dst = append(dst, l)
		}
	}
	return dst
}
