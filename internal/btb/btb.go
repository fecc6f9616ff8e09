// Package btb models the Branch Target Buffer: the set-associative
// structure the Branch Prediction Unit consults to discover that a fetch
// region contains a branch and where that branch goes. Its capacity is
// the central bottleneck the paper attacks — contemporary commercial
// workloads overflow even an 8K-entry BTB, and the overflow victims are
// exactly the "cold" branches Skia recovers from cache-line shadows.
//
// Entry layout follows the paper's Figure 12: a 10-bit partial tag, a
// valid bit, per-way LRU state, 2 bits of branch type, and a full
// 64-bit target. Partial tags make aliasing possible (a hit that returns
// the wrong branch's target), which the front-end handles as a decode
// resteer, exactly like real hardware.
package btb

import (
	"fmt"

	"repro/internal/isa"
)

// Entry is one BTB entry's payload.
type Entry struct {
	// Target is the predicted branch target.
	Target uint64
	// FallThrough is the address of the instruction after the branch
	// (hardware stores this as a small end-offset; the IAG needs it to
	// continue past not-taken conditionals and to push return addresses
	// for calls).
	FallThrough uint64
	// Class is the branch type (2 bits in hardware).
	Class isa.Class
}

type way struct {
	tag   uint64
	valid bool
	lru   uint64
	e     Entry
}

// Config sizes a BTB.
type Config struct {
	// Entries is the total entry count (power of two).
	Entries int
	// Ways is the associativity.
	Ways int
	// TagBits is the partial tag width (paper: 10).
	TagBits int
	// Infinite disables capacity limits: every inserted branch is
	// retained with full-precision tags (the paper's "Infinite, Fully
	// Associative BTB" upper bound in Figure 3).
	Infinite bool
}

// DefaultConfig is the paper's nominal 8K-entry, 4-way BTB.
func DefaultConfig() Config {
	return Config{Entries: 8192, Ways: 4, TagBits: 10}
}

// StorageBits returns the hardware budget of the configured BTB in bits,
// using the paper's per-entry cost: tag + valid + LRU + 2-bit type +
// 64-bit target. An 8K-entry BTB costs 78KB, matching the paper.
func (c Config) StorageBits() int {
	if c.Infinite {
		return 0
	}
	perEntry := c.TagBits + 1 + 1 + 2 + 64
	return c.Entries * perEntry
}

// Stats counts BTB events.
type Stats struct {
	Lookups   uint64
	Hits      uint64
	Misses    uint64
	Inserts   uint64
	Updates   uint64 // insert found the entry present; target refreshed
	Evictions uint64
}

// infEntry is one slot of the infinite BTB's open-addressed table.
type infEntry struct {
	pc   uint64
	used bool
	e    Entry
}

// infTable is an open-addressed hash table with linear probing and
// backward-shift deletion, replacing the map[uint64]Entry the infinite
// configuration used to pay a hashed map access (plus per-bucket
// pointer chasing) for on every lookup of the simulator's hottest loop.
// Slots live in one flat slice: probes are sequential loads, inserts
// never allocate until the table grows, and deletion keeps probe chains
// intact without tombstones.
type infTable struct {
	slots []infEntry
	n     int
	shift uint // 64 - log2(len(slots)); Fibonacci-hash shift
}

const infInitialSlots = 1 << 12

func newInfTable() *infTable {
	t := &infTable{}
	t.init(infInitialSlots)
	return t
}

func (t *infTable) init(size int) {
	t.slots = make([]infEntry, size)
	t.shift = 64
	for s := 1; s < size; s <<= 1 {
		t.shift--
	}
}

func (t *infTable) home(pc uint64) uint64 {
	return (pc * 0x9E3779B97F4A7C15) >> t.shift
}

func (t *infTable) get(pc uint64) (Entry, bool) {
	mask := uint64(len(t.slots) - 1)
	for i := t.home(pc); ; i = (i + 1) & mask {
		s := &t.slots[i]
		if !s.used {
			return Entry{}, false
		}
		if s.pc == pc {
			return s.e, true
		}
	}
}

// put installs or refreshes pc's entry, reporting whether it was
// already present.
func (t *infTable) put(pc uint64, e Entry) bool {
	if t.n*4 >= len(t.slots)*3 {
		t.grow()
	}
	mask := uint64(len(t.slots) - 1)
	for i := t.home(pc); ; i = (i + 1) & mask {
		s := &t.slots[i]
		if !s.used {
			*s = infEntry{pc: pc, used: true, e: e}
			t.n++
			return false
		}
		if s.pc == pc {
			s.e = e
			return true
		}
	}
}

// del removes pc's entry with backward-shift deletion: subsequent slots
// in the probe chain move back to fill the hole so no chain is broken.
func (t *infTable) del(pc uint64) {
	mask := uint64(len(t.slots) - 1)
	i := t.home(pc)
	for {
		s := &t.slots[i]
		if !s.used {
			return
		}
		if s.pc == pc {
			break
		}
		i = (i + 1) & mask
	}
	t.n--
	j := i
	for {
		j = (j + 1) & mask
		if !t.slots[j].used {
			break
		}
		// The entry at j may move back into the hole at i only if its
		// home position does not lie (cyclically) between i and j —
		// otherwise the move would strand it before its home.
		home := t.home(t.slots[j].pc)
		if (j-home)&mask >= (j-i)&mask {
			t.slots[i] = t.slots[j]
			i = j
		}
	}
	t.slots[i] = infEntry{}
}

func (t *infTable) grow() {
	old := t.slots
	t.init(len(old) * 2)
	t.n = 0
	for i := range old {
		if old[i].used {
			t.put(old[i].pc, old[i].e)
		}
	}
}

// BTB is the branch target buffer. Not safe for concurrent use.
type BTB struct {
	cfg     Config
	sets    [][]way
	setMask uint64
	tagMask uint64
	tick    uint64
	inf     *infTable
	stats   Stats
}

// New builds a BTB from cfg.
func New(cfg Config) (*BTB, error) {
	if cfg.Infinite {
		return &BTB{cfg: cfg, inf: newInfTable()}, nil
	}
	if cfg.Entries <= 0 || cfg.Ways <= 0 || cfg.Entries%cfg.Ways != 0 {
		return nil, fmt.Errorf("btb: bad geometry %d entries / %d ways", cfg.Entries, cfg.Ways)
	}
	nsets := cfg.Entries / cfg.Ways
	if nsets&(nsets-1) != 0 {
		return nil, fmt.Errorf("btb: set count %d not a power of two", nsets)
	}
	if cfg.TagBits <= 0 || cfg.TagBits > 40 {
		return nil, fmt.Errorf("btb: tag width %d out of range", cfg.TagBits)
	}
	b := &BTB{
		cfg:     cfg,
		sets:    make([][]way, nsets),
		setMask: uint64(nsets - 1),
		tagMask: (1 << uint(cfg.TagBits)) - 1,
	}
	for i := range b.sets {
		b.sets[i] = make([]way, cfg.Ways)
	}
	return b, nil
}

// Clone returns an independent deep copy of the BTB: same geometry,
// same resident entries, LRU state, and statistics.
func (b *BTB) Clone() *BTB {
	n := &BTB{
		cfg:     b.cfg,
		setMask: b.setMask,
		tagMask: b.tagMask,
		tick:    b.tick,
		stats:   b.stats,
	}
	if b.inf != nil {
		n.inf = &infTable{
			slots: make([]infEntry, len(b.inf.slots)),
			n:     b.inf.n,
			shift: b.inf.shift,
		}
		copy(n.inf.slots, b.inf.slots)
	}
	if b.sets != nil {
		n.sets = make([][]way, len(b.sets))
		for i, s := range b.sets {
			n.sets[i] = make([]way, len(s))
			copy(n.sets[i], s)
		}
	}
	return n
}

// MustNew is New for static configurations.
func MustNew(cfg Config) *BTB {
	b, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return b
}

func (b *BTB) index(pc uint64) (int, uint64) {
	set := int(pc & b.setMask)
	tag := (pc >> uint(popcount(b.setMask))) & b.tagMask
	return set, tag
}

func popcount(x uint64) int {
	n := 0
	for ; x != 0; x &= x - 1 {
		n++
	}
	return n
}

// Lookup probes the BTB at pc, updating LRU on hit.
//
//skia:noalloc
func (b *BTB) Lookup(pc uint64) (Entry, bool) {
	b.stats.Lookups++
	if b.inf != nil {
		e, ok := b.inf.get(pc)
		if ok {
			b.stats.Hits++
		} else {
			b.stats.Misses++
		}
		return e, ok
	}
	set, tag := b.index(pc)
	for w := range b.sets[set] {
		wy := &b.sets[set][w]
		if wy.valid && wy.tag == tag {
			b.tick++
			wy.lru = b.tick
			b.stats.Hits++
			return wy.e, true
		}
	}
	b.stats.Misses++
	return Entry{}, false
}

// Probe checks presence without LRU update or stats, for measurement
// harnesses.
//
//skia:noalloc
func (b *BTB) Probe(pc uint64) (Entry, bool) {
	if b.inf != nil {
		return b.inf.get(pc)
	}
	set, tag := b.index(pc)
	for w := range b.sets[set] {
		wy := &b.sets[set][w]
		if wy.valid && wy.tag == tag {
			return wy.e, true
		}
	}
	return Entry{}, false
}

// Insert installs or refreshes the entry for the branch at pc.
//
//skia:noalloc
func (b *BTB) Insert(pc uint64, e Entry) {
	b.stats.Inserts++
	if b.inf != nil {
		if b.inf.put(pc, e) {
			b.stats.Updates++
		}
		return
	}
	set, tag := b.index(pc)
	b.tick++
	for w := range b.sets[set] {
		wy := &b.sets[set][w]
		if wy.valid && wy.tag == tag {
			wy.e = e
			wy.lru = b.tick
			b.stats.Updates++
			return
		}
	}
	// Replace invalid way first, else LRU.
	victim := -1
	var vlru uint64 = ^uint64(0)
	for w := range b.sets[set] {
		wy := &b.sets[set][w]
		if !wy.valid {
			victim = w
			break
		}
		if wy.lru < vlru {
			victim, vlru = w, wy.lru
		}
	}
	if b.sets[set][victim].valid {
		b.stats.Evictions++
	}
	b.sets[set][victim] = way{tag: tag, valid: true, lru: b.tick, e: e}
}

// Invalidate removes the entry for pc if present.
func (b *BTB) Invalidate(pc uint64) {
	if b.inf != nil {
		b.inf.del(pc)
		return
	}
	set, tag := b.index(pc)
	for w := range b.sets[set] {
		wy := &b.sets[set][w]
		if wy.valid && wy.tag == tag {
			*wy = way{}
		}
	}
}

// Stats returns accumulated counts.
func (b *BTB) Stats() Stats { return b.stats }

// ResetStats zeroes statistics, preserving contents.
func (b *BTB) ResetStats() { b.stats = Stats{} }

// Config returns the construction configuration.
func (b *BTB) Config() Config { return b.cfg }
