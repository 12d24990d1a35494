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
	"sync"
)

// LineBytes is the cache line size used throughout the hierarchy.
const LineBytes = 64

// LineAddr returns the line-aligned address containing addr.
func LineAddr(addr uint32) uint32 { return addr &^ (LineBytes - 1) }

// flatStripes is the number of lock stripes guarding shared-mode access.
// Stripes are keyed by cache-line address, so two accesses to the same
// line always serialize while accesses to different lines almost never
// contend.
const flatStripes = 256

// Flat is the functional backing store: a flat, byte-addressable global
// memory with a bump allocator. Address 0 is reserved so that a zero
// pointer is always invalid. The store starts small and grows with Alloc,
// and every access must lie below the allocation high-water mark, so an
// access past the last buffer faults however much the store has grown.
//
// By default Flat is single-owner and unsynchronized. The parallel
// functional engine executes workgroups from several goroutines against
// one store, entering shared mode via SetShared for the duration: every
// access then takes the lock stripe(s) of the line(s) it touches, which
// makes overlapping writes (idempotent flags) and cross-workgroup atomics
// well-defined. Alloc remains single-owner — buffers are created during
// workload setup, never mid-launch.
type Flat struct {
	data   []byte
	brk    uint32
	shared bool
	locks  [flatStripes]sync.Mutex
}

// pageBytes is the initial capacity of a memory system's backing store.
// Alloc doubles the capacity until the new buffer fits, so a store past
// its first page holds less than twice its high-water mark.
const pageBytes = 4096

// NewFlat creates a backing store with the given initial capacity.
func NewFlat(capacity int) *Flat {
	if capacity < LineBytes {
		capacity = LineBytes
	}
	return &Flat{data: make([]byte, capacity), brk: LineBytes}
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
	if int(end) > len(f.data) {
		n := len(f.data)
		for n < int(end) {
			n *= 2
		}
		grown := make([]byte, n)
		copy(grown, f.data[:f.brk])
		f.data = grown
	}
	f.brk = end
	return base
}

// Size returns the high-water mark of allocated memory.
func (f *Flat) Size() int { return int(f.brk) }

// check panics unless [addr, addr+n) lies inside the allocated memory:
// above the reserved address 0 and below the high-water mark.
func (f *Flat) check(addr uint32, n int) {
	if int(addr)+n > int(f.brk) || addr == 0 {
		panic(fmt.Sprintf("memory: access %#x+%d outside allocated memory (%d bytes)", addr, n, f.brk))
	}
}

// SetShared switches concurrent-access protection on or off. It must only
// be called while no accesses are in flight (before workers start /
// after they join; the goroutine fork and join order the flag itself).
func (f *Flat) SetShared(on bool) { f.shared = on }

// stripes names the lock stripes one shared-mode access holds: first
// through last, wrapping past the last stripe when first > last. The zero
// value (f == nil) holds nothing. It is a plain value, so taking and
// releasing a span allocates nothing.
type stripes struct {
	f           *Flat
	first, last int
}

// lockRange takes the lock stripes covering [addr, addr+n) in ascending
// stripe order, so concurrent range accesses cannot deadlock, and returns
// them for unlock. In single-owner mode, or for an empty range, it is
// free and holds nothing.
func (f *Flat) lockRange(addr uint32, n int) stripes {
	if !f.shared || n <= 0 {
		return stripes{}
	}
	lo := int(addr / LineBytes)
	hi := int((addr + uint32(n) - 1) / LineBytes)
	s := stripes{f: f, first: lo % flatStripes, last: hi % flatStripes}
	if hi-lo >= flatStripes { // huge block access: take every stripe
		s.first, s.last = 0, flatStripes-1
	}
	s.each((*sync.Mutex).Lock)
	return s
}

// unlock releases every stripe of the span.
func (s stripes) unlock() { s.each((*sync.Mutex).Unlock) }

// each applies op to the span's stripes in ascending stripe order.
func (s stripes) each(op func(*sync.Mutex)) {
	first, last := s.first, s.last
	if first > last { // wraps: stripes 0..last, then first..the end
		for i := 0; i <= last; i++ {
			op(&s.f.locks[i])
		}
		last = flatStripes - 1
	}
	for i := first; i <= last; i++ {
		op(&s.f.locks[i])
	}
}

// ReadU32 reads a 32-bit word.
func (f *Flat) ReadU32(addr uint32) uint32 {
	f.check(addr, 4)
	if held := f.lockRange(addr, 4); held.f != nil {
		defer held.unlock()
	}
	return binary.LittleEndian.Uint32(f.data[addr:])
}

// WriteU32 writes a 32-bit word.
func (f *Flat) WriteU32(addr uint32, v uint32) {
	f.check(addr, 4)
	if held := f.lockRange(addr, 4); held.f != nil {
		defer held.unlock()
	}
	binary.LittleEndian.PutUint32(f.data[addr:], v)
}

// AtomicAdd adds v to the word at addr and returns the previous value. In
// single-owner mode issue order defines atomicity; in shared mode the
// line's lock stripe makes the read-modify-write indivisible.
func (f *Flat) AtomicAdd(addr uint32, v uint32) uint32 {
	f.check(addr, 4)
	if held := f.lockRange(addr, 4); held.f != nil {
		defer held.unlock()
	}
	old := binary.LittleEndian.Uint32(f.data[addr:])
	binary.LittleEndian.PutUint32(f.data[addr:], old+v)
	return old
}

// AtomicMin stores min(old, v) (unsigned) at addr and returns the previous
// value.
func (f *Flat) AtomicMin(addr uint32, v uint32) uint32 {
	f.check(addr, 4)
	if held := f.lockRange(addr, 4); held.f != nil {
		defer held.unlock()
	}
	old := binary.LittleEndian.Uint32(f.data[addr:])
	if v < old {
		binary.LittleEndian.PutUint32(f.data[addr:], v)
	}
	return old
}

// WriteBytes copies src to memory at addr.
func (f *Flat) WriteBytes(addr uint32, src []byte) {
	f.check(addr, len(src))
	if held := f.lockRange(addr, len(src)); held.f != nil {
		defer held.unlock()
	}
	copy(f.data[addr:], src)
}

// ReadBytes copies memory at addr into dst.
func (f *Flat) ReadBytes(addr uint32, dst []byte) {
	f.check(addr, len(dst))
	if held := f.lockRange(addr, len(dst)); held.f != nil {
		defer held.unlock()
	}
	copy(dst, f.data[addr:])
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
