// The shadow-decode memo: memoizes Shadow Branch Decoder results. The
// paper keeps the SBD off the processor's critical path because
// length-decoding a line is expensive and redundant for resident lines
// (Section 3.2); the simulator pays that cost in software every time a
// line re-enters the FTQ. Program images are immutable after linking,
// so a (lineAddr, offset, head/tail) region always decodes to the same
// branches — memoizing the result is purely a simulator throughput
// optimization and must be invisible to every statistic.
//
// To stay invisible, each entry stores not just the extracted branches
// but the full observable side effect of the decode: the SBDStats
// deltas (region counted, discarded/no-valid-path flags, branch count)
// and the path-family count reported through the OnHeadPaths hook. A
// hit replays all of them, so a run with the memo enabled is
// bit-identical — report JSON included — to a run without it.
//
// The memo never forgets. The front end decodes only lines inside the
// program image, so it holds at most program lines × 64 offsets × 2
// kinds regions; a suite benchmark touches 2.1K–13.5K of them in 1M
// instructions, and dropping any would only make the simulator decode
// the same bytes again.
package core

import "repro/internal/program"

// regionKind distinguishes head from tail entries under one key space.
type regionKind uint8

const (
	regionHead regionKind = iota
	regionTail
)

// DecodeCacheStats counts memo lookups for observability and tests.
type DecodeCacheStats struct {
	Hits   uint64
	Misses uint64
}

// cachedDecode is one memoized head or tail decode. Its branches are
// DecodeCache.branches[lo:hi].
type cachedDecode struct {
	next      int32 // the line's next-older entry, -1 ends the chain
	off       int32
	kind      regionKind
	noValid   bool // head outcome: zero valid paths
	discarded bool // head outcome: over the MaxValidPaths cap
	nFamilies int32
	lo, hi    int32
}

// DecodeCache memoizes SBD head/tail decodes keyed by (lineAddr,
// offset, kind). Entries and their branches live in two append-only
// arenas; each line's entries are chained newest-first from lines. A
// line is entered from only a handful of distinct offsets (its
// basic-block entry points and post-branch tail starts), so a short
// chain walk beats a nested map, and a miss allocates only when an
// arena or the line index grows. It is not safe for concurrent use;
// each simulated core owns its own instance (mirroring how each core
// owns its SBD).
type DecodeCache struct {
	// lines is a dense index over the span of recorded lines: slot
	// lineAddr/LineSize - first holds 1 + the index of that line's
	// newest entry, 0 when it has none. The front end decodes only
	// program-image lines, so the span is bounded by the image. It
	// grows on demand and rebases when a line below first arrives.
	lines    []int32
	first    uint64
	entries  []cachedDecode
	branches []ShadowBranch
	stats    DecodeCacheStats
}

// NewDecodeCache builds an empty memo.
func NewDecodeCache() *DecodeCache {
	return &DecodeCache{}
}

// Clone returns an independent deep copy of the memo: same memoized
// decodes and statistics.
func (c *DecodeCache) Clone() *DecodeCache {
	return &DecodeCache{
		lines:    append([]int32(nil), c.lines...),
		first:    c.first,
		entries:  append([]cachedDecode(nil), c.entries...),
		branches: append([]ShadowBranch(nil), c.branches...),
		stats:    c.stats,
	}
}

// Stats returns accumulated lookup counters.
func (c *DecodeCache) Stats() DecodeCacheStats { return c.stats }

// Len returns the number of memoized regions.
func (c *DecodeCache) Len() int { return len(c.entries) }

// head returns the index of the newest entry memoized for the line at
// lineAddr, -1 when there is none.
func (c *DecodeCache) head(lineAddr uint64) int32 {
	if i := lineAddr/program.LineSize - c.first; i < uint64(len(c.lines)) {
		return c.lines[i] - 1
	}
	return -1
}

// lookup finds the memoized decode for (lineAddr, off, kind) and its
// branches.
//
//skia:noalloc
func (c *DecodeCache) lookup(lineAddr uint64, off int, kind regionKind) (*cachedDecode, []ShadowBranch, bool) {
	for i := c.head(lineAddr); i >= 0; i = c.entries[i].next {
		e := &c.entries[i]
		if e.off == int32(off) && e.kind == kind {
			c.stats.Hits++
			return e, c.branches[e.lo:e.hi], true
		}
	}
	c.stats.Misses++
	return nil, nil, false
}

// record memoizes a fresh decode's branches and replay metadata. The
// branches are copied into the arena: callers hand in a view of their
// scratch buffer.
func (c *DecodeCache) record(lineAddr uint64, off int, kind regionKind, branches []ShadowBranch, nFamilies int, noValid, discarded bool) {
	ln := lineAddr / program.LineSize
	if len(c.lines) == 0 {
		c.first = ln
	} else if ln < c.first {
		lines := make([]int32, c.first-ln+uint64(len(c.lines)))
		copy(lines[c.first-ln:], c.lines)
		c.lines, c.first = lines, ln
	}
	slot := ln - c.first
	if slot >= uint64(len(c.lines)) {
		c.lines = append(c.lines, make([]int32, slot+1-uint64(len(c.lines)))...)
	}
	next := c.lines[slot] - 1
	lo := len(c.branches)
	c.branches = append(c.branches, branches...)
	c.lines[slot] = int32(len(c.entries)) + 1
	c.entries = append(c.entries, cachedDecode{
		next:      next,
		off:       int32(off),
		kind:      kind,
		noValid:   noValid,
		discarded: discarded,
		nFamilies: int32(nFamilies),
		lo:        int32(lo),
		hi:        int32(len(c.branches)),
	})
	if invariantsEnabled {
		decodeCacheCheckInvariants(c, lineAddr)
	}
}
