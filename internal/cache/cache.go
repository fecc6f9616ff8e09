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

import (
	"fmt"
	"slices"
)

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

// line keeps its flags after the words, so it packs into 24 bytes.
type line struct {
	tag        uint64
	lru        uint64 // higher = more recently used
	valid      bool
	prefetched bool // filled by prefetch
	used       bool // demand-accessed since fill
}

// Cache is a set-associative cache with true-LRU replacement. It is not
// safe for concurrent use.
type Cache struct {
	// lines holds every set's ways back to back: set i is
	// lines[i*ways:(i+1)*ways].
	lines    []line
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
	return &Cache{
		lines:    make([]line, nlines),
		ways:     ways,
		lineBits: lineBits,
		setBits:  setBits,
		setMask:  uint64(nsets - 1),
	}, nil
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
	return &Cache{
		lines:    slices.Clone(c.lines),
		ways:     c.ways,
		lineBits: c.lineBits,
		setBits:  c.setBits,
		setMask:  c.setMask,
		tick:     c.tick,
		stats:    c.stats,
	}
}

// index returns the ways of the set addr maps to and addr's tag.
func (c *Cache) index(addr uint64) (set []line, tag uint64) {
	l := addr >> c.lineBits
	i := int(l&c.setMask) * c.ways
	return c.lines[i : i+c.ways : i+c.ways], l >> c.setBits
}

// find returns the way index of the line or -1.
func find(set []line, tag uint64) int {
	for w := range set {
		if set[w].valid && set[w].tag == tag {
			return w
		}
	}
	return -1
}

// victim returns the way to replace in set: an invalid way if any,
// otherwise the least recently used.
func victim(set []line) int {
	best, bestLRU := -1, ^uint64(0)
	for w := range set {
		if !set[w].valid {
			return w
		}
		if set[w].lru < bestLRU {
			best, bestLRU = w, set[w].lru
		}
	}
	return best
}

// Demand performs a demand access to the line containing addr, filling
// on miss. It returns true on hit.
func (c *Cache) Demand(addr uint64) bool {
	c.tick++
	set, tag := c.index(addr)
	if w := find(set, tag); w >= 0 {
		ln := &set[w]
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
	if w := find(set, tag); w >= 0 {
		set[w].lru = c.tick
		c.stats.PrefetchHits++
		return true
	}
	c.stats.PrefetchFills++
	c.fill(set, tag, true)
	return false
}

// fill installs a line, evicting the LRU victim.
func (c *Cache) fill(set []line, tag uint64, prefetched bool) {
	ln := &set[victim(set)]
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
	return find(set, tag) >= 0
}

// Invalidate drops the line containing addr if present.
func (c *Cache) Invalidate(addr uint64) {
	set, tag := c.index(addr)
	if w := find(set, tag); w >= 0 {
		set[w] = line{}
	}
}

// Stats returns a copy of the accumulated statistics.
func (c *Cache) Stats() Stats { return c.stats }

// ResetStats zeroes the statistics, keeping cache contents (used at the
// warmup/measurement boundary).
func (c *Cache) ResetStats() { c.stats = Stats{} }

// NumSets returns the number of sets.
func (c *Cache) NumSets() int { return len(c.lines) / c.ways }

// Ways returns the associativity.
func (c *Cache) Ways() int { return c.ways }
