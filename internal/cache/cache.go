// Package cache models set-associative caches with LRU replacement. The
// simulator uses it for the L1 instruction cache, the structure FDIP
// prefetches into and whose residency determines whether a BTB-missing
// branch is a shadow-decode opportunity (paper Figures 1 and 15).
//
// The model tracks, per line, whether it was brought in by a prefetch
// and whether it has been used by a demand access, so the harness can
// measure wrong-path pollution: prefetched lines evicted without ever
// being used.
package cache

import "fmt"

// Stats aggregates cache event counts.
type Stats struct {
	DemandHits     uint64
	DemandMisses   uint64
	PrefetchIssued uint64
	PrefetchHits   uint64 // prefetch found the line already resident
	PrefetchFills  uint64 // prefetch brought a new line in
	Evictions      uint64
	// PollutionEvicted counts prefetched lines evicted before any
	// demand use: wasted fills, typically from wrong-path prefetching.
	PollutionEvicted uint64
}

type line struct {
	tag        uint64
	valid      bool
	lru        uint64 // higher = more recently used
	prefetched bool   // filled by prefetch
	used       bool   // demand-accessed since fill
}

// Cache is a set-associative cache with true-LRU replacement. It is not
// safe for concurrent use.
type Cache struct {
	sets     [][]line
	ways     int
	lineBits uint
	setBits  uint
	setMask  uint64
	tick     uint64
	stats    Stats
}

// New builds a cache of sizeBytes capacity with the given associativity
// and line size. sizeBytes must be a positive multiple of ways*lineSize
// and the resulting set count must be a power of two.
func New(sizeBytes, ways, lineSize int) (*Cache, error) {
	if sizeBytes <= 0 || ways <= 0 || lineSize <= 0 {
		return nil, fmt.Errorf("cache: non-positive geometry %d/%d/%d", sizeBytes, ways, lineSize)
	}
	if lineSize&(lineSize-1) != 0 {
		return nil, fmt.Errorf("cache: line size %d not a power of two", lineSize)
	}
	nlines := sizeBytes / lineSize
	if nlines*lineSize != sizeBytes || nlines%ways != 0 {
		return nil, fmt.Errorf("cache: size %d not divisible into %d-way sets of %dB lines", sizeBytes, ways, lineSize)
	}
	nsets := nlines / ways
	if nsets&(nsets-1) != 0 {
		return nil, fmt.Errorf("cache: set count %d not a power of two", nsets)
	}
	lineBits := uint(0)
	for 1<<lineBits < lineSize {
		lineBits++
	}
	setBits := uint(0)
	for 1<<setBits < nsets {
		setBits++
	}
	c := &Cache{
		sets:     make([][]line, nsets),
		ways:     ways,
		lineBits: lineBits,
		setBits:  setBits,
		setMask:  uint64(nsets - 1),
	}
	for i := range c.sets {
		c.sets[i] = make([]line, ways)
	}
	return c, nil
}

// MustNew is New for static configurations where an error is a bug.
func MustNew(sizeBytes, ways, lineSize int) *Cache {
	c, err := New(sizeBytes, ways, lineSize)
	if err != nil {
		panic(err)
	}
	return c
}

// Clone returns an independent deep copy of the cache: same geometry,
// same resident lines and LRU state, same statistics.
func (c *Cache) Clone() *Cache {
	n := &Cache{
		ways:     c.ways,
		lineBits: c.lineBits,
		setBits:  c.setBits,
		setMask:  c.setMask,
		tick:     c.tick,
		stats:    c.stats,
		sets:     make([][]line, len(c.sets)),
	}
	for i, s := range c.sets {
		n.sets[i] = make([]line, len(s))
		copy(n.sets[i], s)
	}
	return n
}

func (c *Cache) index(addr uint64) (set int, tag uint64) {
	l := addr >> c.lineBits
	return int(l & c.setMask), l >> c.setBits
}

// find returns the way index of the line or -1.
func (c *Cache) find(set int, tag uint64) int {
	for w := range c.sets[set] {
		if c.sets[set][w].valid && c.sets[set][w].tag == tag {
			return w
		}
	}
	return -1
}

// victim returns the way to replace in set: an invalid way if any,
// otherwise the least recently used.
func (c *Cache) victim(set int) int {
	best, bestLRU := -1, ^uint64(0)
	for w := range c.sets[set] {
		if !c.sets[set][w].valid {
			return w
		}
		if c.sets[set][w].lru < bestLRU {
			best, bestLRU = w, c.sets[set][w].lru
		}
	}
	return best
}

// Demand performs a demand access to the line containing addr, filling
// on miss. It returns true on hit.
func (c *Cache) Demand(addr uint64) bool {
	c.tick++
	set, tag := c.index(addr)
	if w := c.find(set, tag); w >= 0 {
		ln := &c.sets[set][w]
		ln.lru = c.tick
		ln.used = true
		c.stats.DemandHits++
		return true
	}
	c.stats.DemandMisses++
	c.fill(set, tag, false)
	return false
}

// Prefetch brings the line containing addr into the cache without
// counting a demand event. It returns true if the line was already
// resident.
func (c *Cache) Prefetch(addr uint64) bool {
	c.tick++
	c.stats.PrefetchIssued++
	set, tag := c.index(addr)
	if w := c.find(set, tag); w >= 0 {
		c.sets[set][w].lru = c.tick
		c.stats.PrefetchHits++
		return true
	}
	c.stats.PrefetchFills++
	c.fill(set, tag, true)
	return false
}

// fill installs a line, evicting the LRU victim.
func (c *Cache) fill(set int, tag uint64, prefetched bool) {
	w := c.victim(set)
	ln := &c.sets[set][w]
	if ln.valid {
		c.stats.Evictions++
		if ln.prefetched && !ln.used {
			c.stats.PollutionEvicted++
		}
	}
	*ln = line{tag: tag, valid: true, lru: c.tick, prefetched: prefetched, used: !prefetched}
}

// Contains reports residency of the line containing addr without
// touching LRU state or statistics (a probe, not an access).
func (c *Cache) Contains(addr uint64) bool {
	set, tag := c.index(addr)
	return c.find(set, tag) >= 0
}

// Invalidate drops the line containing addr if present.
func (c *Cache) Invalidate(addr uint64) {
	set, tag := c.index(addr)
	if w := c.find(set, tag); w >= 0 {
		c.sets[set][w] = line{}
	}
}

// Stats returns a copy of the accumulated statistics.
func (c *Cache) Stats() Stats { return c.stats }

// ResetStats zeroes the statistics, keeping cache contents (used at the
// warmup/measurement boundary).
func (c *Cache) ResetStats() { c.stats = Stats{} }

// NumSets returns the number of sets.
func (c *Cache) NumSets() int { return len(c.sets) }

// Ways returns the associativity.
func (c *Cache) Ways() int { return c.ways }
