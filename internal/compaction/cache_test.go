package compaction

import (
	"sync"
	"testing"

	"intrawarp/internal/mask"
)

// schedulesEqual compares every observable field of two schedules.
func schedulesEqual(a, b *Schedule) bool {
	if a.Width != b.Width || a.Group != b.Group || a.Mask != b.Mask ||
		a.BCCOnly != b.BCCOnly || a.Swizzles() != b.Swizzles() ||
		len(a.Cycles) != len(b.Cycles) {
		return false
	}
	for c := range a.Cycles {
		if len(a.Cycles[c]) != len(b.Cycles[c]) {
			return false
		}
		for n := range a.Cycles[c] {
			if a.Cycles[c][n] != b.Cycles[c][n] {
				return false
			}
		}
	}
	return true
}

// TestScheduleCacheEquivalence exhaustively cross-checks the cached
// schedules against direct construction for every SIMD8 and SIMD16 mask,
// and checks interning: the same triple always yields the same pointer.
func TestScheduleCacheEquivalence(t *testing.T) {
	for _, width := range []int{8, 16} {
		top := 1<<uint(width) - 1
		for raw := 0; raw <= top; raw++ {
			m := mask.Mask(raw)
			cached := ScheduleFor(m, width, 4)
			direct := ComputeSchedule(m, width, 4)
			if !schedulesEqual(cached, direct) {
				t.Fatalf("SIMD%d mask %#x: cached schedule differs from ComputeSchedule:\n%s\nvs\n%s",
					width, raw, cached, direct)
			}
			if again := ScheduleFor(m, width, 4); again != cached {
				t.Fatalf("SIMD%d mask %#x: not interned (distinct pointers)", width, raw)
			}
		}
	}
}

// TestScheduleCacheFallbackTiers checks the sharded-map tier (non-group-4
// and SIMD32 shapes) for equivalence and interning.
func TestScheduleCacheFallbackTiers(t *testing.T) {
	cases := []struct {
		m            mask.Mask
		width, group int
	}{
		{0xAAAA, 16, 2}, {0x137F, 16, 2}, {0x0F0F, 16, 8},
		{0xAAAAAAAA, 32, 4}, {0x80000001, 32, 8}, {0xFFFFFFFF, 32, 2},
		{0xA, 4, 4}, {0, 16, 2},
	}
	for _, c := range cases {
		cached := ScheduleFor(c.m, c.width, c.group)
		direct := ComputeSchedule(c.m, c.width, c.group)
		if !schedulesEqual(cached, direct) {
			t.Errorf("mask %#x w%d g%d: cached differs from direct", uint32(c.m), c.width, c.group)
		}
		if again := ScheduleFor(c.m, c.width, c.group); again != cached {
			t.Errorf("mask %#x w%d g%d: not interned", uint32(c.m), c.width, c.group)
		}
	}
}

// TestScheduleCacheConcurrent hammers the cache from many goroutines over
// overlapping key ranges; run with -race it proves the fill paths are
// safe, and every returned schedule must still be structurally valid.
func TestScheduleCacheConcurrent(t *testing.T) {
	const goroutines = 16
	var wg sync.WaitGroup
	errs := make(chan string, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(seed int) {
			defer wg.Done()
			for i := 0; i < 4000; i++ {
				raw := uint32(i*2654435761 + seed)
				var s *Schedule
				switch i % 4 {
				case 0:
					s = ScheduleFor(mask.Mask(raw&0xFF), 8, 4)
				case 1:
					s = ScheduleFor(mask.Mask(raw&0xFFFF), 16, 4)
				case 2:
					s = ScheduleFor(mask.Mask(raw&0xFFFF), 16, 2)
				default:
					s = ScheduleFor(mask.Mask(raw), 32, 8)
				}
				if s.SwizzleCount() != s.Swizzles() {
					errs <- s.String()
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	if bad, ok := <-errs; ok {
		t.Fatalf("concurrent lookup returned inconsistent schedule:\n%s", bad)
	}
}

// The precomputed swizzle tally must match the cycle-walk recount for
// every SIMD16 mask.
func TestSwizzlesFieldMatchesRecount(t *testing.T) {
	for raw := 0; raw <= 0xFFFF; raw++ {
		s := ComputeSchedule(mask.Mask(raw), 16, 4)
		if s.Swizzles() != s.SwizzleCount() {
			t.Fatalf("mask %#x: Swizzles() = %d, SwizzleCount() = %d", raw, s.Swizzles(), s.SwizzleCount())
		}
	}
}

// ComputeScheduleInto must reuse its backing storage: steady-state
// construction performs zero heap allocations.
func TestComputeScheduleIntoZeroAlloc(t *testing.T) {
	var s Schedule
	ComputeScheduleInto(&s, 0xFFFF, 16, 4) // warm the arena at max size
	allocs := testing.AllocsPerRun(1000, func() {
		ComputeScheduleInto(&s, 0xAAAA, 16, 4)
		ComputeScheduleInto(&s, 0x137F, 16, 4)
		ComputeScheduleInto(&s, 0x0001, 16, 4)
	})
	if allocs != 0 {
		t.Fatalf("ComputeScheduleInto allocates %.1f times per run, want 0", allocs)
	}
}

// UnswizzleInto must not allocate once dst has capacity.
func TestUnswizzleIntoZeroAlloc(t *testing.T) {
	s := ComputeSchedule(0xAAAA, 16, 4)
	buf := make([]LaneAssign, 0, 8)
	allocs := testing.AllocsPerRun(1000, func() {
		for c := range s.Cycles {
			buf = s.UnswizzleInto(buf, c)
		}
	})
	if allocs != 0 {
		t.Fatalf("UnswizzleInto allocates %.1f times per run, want 0", allocs)
	}
}

// BenchmarkScheduleFor times warm lookups: it fills the schedule table
// for the 65,536 SIMD16 masks it visits before the timer starts, so a
// run on its own measures the same table as one after the unit tests.
func BenchmarkScheduleFor(b *testing.B) {
	for m := 0; m <= 0xFFFF; m++ {
		ScheduleFor(mask.Mask(m), 16, 4)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ScheduleFor(mask.Mask(uint32(i)&0xFFFF), 16, 4)
	}
}

func BenchmarkComputeScheduleInto(b *testing.B) {
	b.ReportAllocs()
	var s Schedule
	for i := 0; i < b.N; i++ {
		ComputeScheduleInto(&s, mask.Mask(uint32(i)&0xFFFF)|1, 16, 4)
	}
}
