package memory

import "fmt"

// CacheStats counts cache activity.
type CacheStats struct {
	Accesses int64
	Hits     int64
	Misses   int64
}

// Cache is a banked, set-associative, LRU, line-granular cache timing
// model. It tracks tags only — data lives in the functional backing store.
// The tag, LRU and bank arrays are built by the first Access, so a cache
// that no timed run reaches costs only its header.
type Cache struct {
	name    string
	ways    int
	sets    int
	banks   int
	latency int
	perfect bool

	tags []uint32 // sets × ways line addresses (0 = invalid: line 0 is never cached since address 0 is reserved)
	lru  []int64  // sets × ways last-touch stamps
	tick int64

	bankFree []int64 // next cycle each bank can accept a request

	Stats CacheStats
}

// NewCache builds a cache of the given total size, associativity, bank
// count and lookup latency.
func NewCache(name string, sizeBytes, ways, banks, latency int) *Cache {
	lines := sizeBytes / LineBytes
	if ways <= 0 || lines%ways != 0 {
		panic(fmt.Sprintf("memory: %s: %d lines not divisible by %d ways", name, lines, ways))
	}
	sets := lines / ways
	if banks <= 0 {
		banks = 1
	}
	return &Cache{name: name, ways: ways, sets: sets, banks: banks, latency: latency}
}

// build allocates the tag, LRU and bank arrays.
func (c *Cache) build() {
	lines := c.sets * c.ways
	c.tags = make([]uint32, lines)
	c.lru = make([]int64, lines)
	c.bankFree = make([]int64, c.banks)
}

// SetPerfect makes every access hit (the paper's "perfect L3" model in
// Fig. 12).
func (c *Cache) SetPerfect(p bool) { c.perfect = p }

// set returns the set index for a line address.
func (c *Cache) set(line uint32) int { return int(line/LineBytes) % c.sets }

// bank returns the bank index for a line address.
func (c *Cache) bank(line uint32) int { return int(line/LineBytes) % c.banks }

// Access performs a timing lookup of the line containing addr starting at
// cycle now. It returns whether the line hit and the cycle at which this
// level's lookup completes (bank availability + latency). On a miss the
// caller is responsible for consulting the next level and then calling
// Fill.
func (c *Cache) Access(line uint32, now int64) (hit bool, ready int64) {
	if c.tags == nil {
		c.build()
	}
	c.Stats.Accesses++
	c.tick++
	b := c.bank(line)
	start := now
	if c.bankFree[b] > start {
		start = c.bankFree[b]
	}
	c.bankFree[b] = start + 1 // one request per bank per cycle
	ready = start + int64(c.latency)

	if c.perfect {
		c.Stats.Hits++
		return true, ready
	}
	s := c.set(line)
	base := s * c.ways
	for w := 0; w < c.ways; w++ {
		if c.tags[base+w] == line {
			c.Stats.Hits++
			c.lru[base+w] = c.tick
			return true, ready
		}
	}
	c.Stats.Misses++
	return false, ready
}

// Fill installs a line, evicting the LRU way of its set.
func (c *Cache) Fill(line uint32) {
	if c.perfect {
		return
	}
	if c.tags == nil {
		c.build()
	}
	s := c.set(line)
	base := s * c.ways
	victim := base
	for w := 0; w < c.ways; w++ {
		if c.tags[base+w] == 0 {
			victim = base + w
			break
		}
		if c.lru[base+w] < c.lru[victim] {
			victim = base + w
		}
	}
	c.tick++
	c.tags[victim] = line
	c.lru[victim] = c.tick
}

// Contains reports whether the line is currently cached (testing hook).
func (c *Cache) Contains(line uint32) bool {
	if c.perfect {
		return true
	}
	if c.tags == nil {
		return false
	}
	s := c.set(line)
	base := s * c.ways
	for w := 0; w < c.ways; w++ {
		if c.tags[base+w] == line {
			return true
		}
	}
	return false
}

// HitRate returns hits/accesses, or 0 when idle.
func (c *Cache) HitRate() float64 {
	if c.Stats.Accesses == 0 {
		return 0
	}
	return float64(c.Stats.Hits) / float64(c.Stats.Accesses)
}
