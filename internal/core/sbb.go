package core

import (
	"fmt"
	"slices"

	"repro/internal/isa"
	"repro/internal/program"
)

// SBBConfig sizes the Shadow Branch Buffer. The paper's default
// (Section 6.2) splits a 12.25KB budget into a 768-entry U-SBB for
// direct unconditional jumps and calls, and a 2024-entry R-SBB for
// returns, both 4-way with 10-bit tags.
type SBBConfig struct {
	// UEntries and UWays size the DirectUncond/Call buffer.
	UEntries, UWays int
	// REntries and RWays size the Return buffer.
	REntries, RWays int
	// TagBits is the partial-tag width (paper: 10).
	TagBits int
	// RetiredFirstEviction prefers evicting entries whose Retired bit
	// is clear — never-committed, possibly bogus branches — before
	// useful ones (paper Section 4.3). Disabling it is an ablation.
	RetiredFirstEviction bool
	// FilterBTBResident skips inserting branches that currently hit in
	// the BTB (ablation; the paper inserts unconditionally and lets the
	// replacement policy sort it out).
	FilterBTBResident bool
}

// DefaultSBBConfig returns the paper's preferred 12.25KB configuration.
func DefaultSBBConfig() SBBConfig {
	return SBBConfig{
		UEntries: 768, UWays: 4,
		REntries: 2024, RWays: 4,
		TagBits:              10,
		RetiredFirstEviction: true,
	}
}

// StorageBits returns the hardware budget in bits. U-SBB entries carry
// tag + valid + LRU + retired + 64-bit target (the paper's 78 bits)
// plus a call bit and a 4-bit length this implementation adds so shadow
// calls can push the RAS; R-SBB entries carry tag + valid + LRU +
// retired + 6-bit line offset (the paper's ~20 bits).
func (c SBBConfig) StorageBits() int {
	uBits := c.TagBits + 1 + 1 + 1 + 64 + 1 + 4
	rBits := c.TagBits + 1 + 1 + 1 + 6
	return c.UEntries*uBits + c.REntries*rBits
}

// UEntry is a U-SBB payload: a direct unconditional jump or a call.
type UEntry struct {
	// Target is the decoded branch target.
	Target uint64
	// IsCall distinguishes calls (which push the RAS) from jumps.
	IsCall bool
	// Len is the branch instruction length, for fall-through (return
	// address) computation.
	Len uint8
}

type uWay struct {
	tag     uint64
	valid   bool
	retired bool
	lru     uint64
	bornAt  uint64 // cycle the entry was installed (see SetCycle)
	pc      uint64 // full branch PC, simulator bookkeeping (see Departure)
	e       UEntry
}

type rWay struct {
	tag     uint64
	valid   bool
	retired bool
	lru     uint64
	bornAt  uint64 // cycle the entry was installed (see SetCycle)
	pc      uint64 // full branch PC, simulator bookkeeping (see Departure)
	offset  uint8  // byte offset of the return within its line
}

// Departure describes the entry an Insert displaced.
type Departure struct {
	// PC is the displaced branch's full PC. The hardware would not
	// store it (partial tags cannot reconstruct it); the front end uses
	// it to retire the PC from its probe-candidate sets.
	PC uint64
	// Evicted reports a capacity eviction; false means the new branch's
	// partial tag aliased the entry and overwrote it in place.
	Evicted bool
	// U selects the buffer: the U-SBB, or the R-SBB when false.
	U bool
	// Retired is the entry's retired bit: a useful entry lost rather
	// than a possibly-bogus one.
	Retired bool
	// Lifetime is the entry's age in cycles: the current SetCycle value
	// minus the one it was installed at.
	Lifetime uint64
}

// SBBStats counts buffer events.
type SBBStats struct {
	UInserts, RInserts     uint64
	UHits, RHits           uint64
	UMisses, RMisses       uint64
	UEvictions, REvictions uint64
	// FilteredBTBResident counts inserts skipped because the branch was
	// already BTB-resident (only with FilterBTBResident).
	FilteredBTBResident uint64
	// Invalidated counts entries removed after being exposed as bogus.
	Invalidated uint64
	// RetiredMarks counts commit-time retired-bit sets.
	RetiredMarks uint64
}

// SBB is the Shadow Branch Buffer: U-SBB indexed by branch PC, R-SBB
// indexed by cache-line address with a 6-bit in-line offset payload
// (paper Figure 12). Not safe for concurrent use.
type SBB struct {
	cfg SBBConfig
	// uWays and rWays hold each buffer's sets back to back: U-SBB set
	// i is uWays[i*cfg.UWays:(i+1)*cfg.UWays], and likewise for the
	// R-SBB. uSets and rSets are the set counts.
	uWays        []uWay
	rWays        []rWay
	uSets, rSets uint64
	tick         uint64
	// cycle stamps inserts and dates departures; the SBB has no clock
	// of its own, so its owner sets it (SetCycle).
	cycle uint64
	stats SBBStats
}

// Clone returns an independent deep copy of the SBB: same buffer
// contents, LRU state, cycle, and statistics.
func (s *SBB) Clone() *SBB {
	return &SBB{
		cfg:   s.cfg,
		uWays: slices.Clone(s.uWays),
		rWays: slices.Clone(s.rWays),
		uSets: s.uSets,
		rSets: s.rSets,
		tick:  s.tick,
		cycle: s.cycle,
		stats: s.stats,
	}
}

// SetCycle sets the cycle that stamps later inserts and dates the
// lifetimes of the entries they displace.
func (s *SBB) SetCycle(c uint64) { s.cycle = c }

// NewSBB builds a buffer from cfg.
func NewSBB(cfg SBBConfig) (*SBB, error) {
	if cfg.UEntries < 0 || cfg.REntries < 0 || cfg.UWays <= 0 || cfg.RWays <= 0 {
		return nil, fmt.Errorf("core: bad SBB geometry %+v", cfg)
	}
	if cfg.UEntries%cfg.UWays != 0 || cfg.REntries%cfg.RWays != 0 {
		return nil, fmt.Errorf("core: SBB entries not divisible by ways: %+v", cfg)
	}
	if cfg.TagBits <= 0 || cfg.TagBits > 40 {
		return nil, fmt.Errorf("core: SBB tag bits %d out of range", cfg.TagBits)
	}
	return &SBB{
		cfg:   cfg,
		uWays: make([]uWay, cfg.UEntries),
		rWays: make([]rWay, cfg.REntries),
		uSets: uint64(cfg.UEntries / cfg.UWays),
		rSets: uint64(cfg.REntries / cfg.RWays),
	}, nil
}

// MustNewSBB is NewSBB for static configurations.
func MustNewSBB(cfg SBBConfig) *SBB {
	s, err := NewSBB(cfg)
	if err != nil {
		panic(err)
	}
	return s
}

// Config returns the construction configuration.
func (s *SBB) Config() SBBConfig { return s.cfg }

// Stats returns accumulated counts.
func (s *SBB) Stats() SBBStats { return s.stats }

// ResetStats zeroes statistics, preserving contents.
func (s *SBB) ResetStats() { s.stats = SBBStats{} }

// uIndex maps a branch PC to its U-SBB set's ways and its tag. Set
// counts need not be powers of two (the paper's 2024-entry R-SBB is
// not), so indexing is modulo with the remaining bits as tag material.
func (s *SBB) uIndex(pc uint64) ([]uWay, uint64) {
	w := s.cfg.UWays
	i := int(pc%s.uSets) * w
	return s.uWays[i : i+w : i+w], (pc / s.uSets) & ((1 << uint(s.cfg.TagBits)) - 1)
}

func (s *SBB) rIndex(lineAddr uint64) ([]rWay, uint64) {
	l := lineAddr >> 6
	w := s.cfg.RWays
	i := int(l%s.rSets) * w
	return s.rWays[i : i+w : i+w], (l / s.rSets) & ((1 << uint(s.cfg.TagBits)) - 1)
}

// LookupU probes the U-SBB for a direct unconditional branch or call at
// pc, refreshing LRU on hit.
//
//skia:noalloc
func (s *SBB) LookupU(pc uint64) (UEntry, bool) {
	if s.uSets == 0 {
		return UEntry{}, false
	}
	set, tag := s.uIndex(pc)
	for w := range set {
		wy := &set[w]
		if wy.valid && wy.tag == tag {
			s.tick++
			wy.lru = s.tick
			s.stats.UHits++
			return wy.e, true
		}
	}
	s.stats.UMisses++
	return UEntry{}, false
}

// LookupR probes the R-SBB: does a return instruction start at pc?
//
//skia:noalloc
func (s *SBB) LookupR(pc uint64) bool {
	if s.rSets == 0 {
		return false
	}
	set, tag := s.rIndex(program.LineAddr(pc))
	off := uint8(program.LineOffset(pc))
	for w := range set {
		wy := &set[w]
		if wy.valid && wy.tag == tag && wy.offset == off {
			s.tick++
			wy.lru = s.tick
			s.stats.RHits++
			return true
		}
	}
	s.stats.RMisses++
	return false
}

// victimU picks a way to replace: invalid first, then (with
// RetiredFirstEviction) LRU among non-retired, then LRU overall.
func victimU(ways []uWay, retiredFirst bool) int {
	best, bestLRU := -1, ^uint64(0)
	bestNR, bestNRLRU := -1, ^uint64(0)
	for w := range ways {
		if !ways[w].valid {
			return w
		}
		if ways[w].lru < bestLRU {
			best, bestLRU = w, ways[w].lru
		}
		if !ways[w].retired && ways[w].lru < bestNRLRU {
			bestNR, bestNRLRU = w, ways[w].lru
		}
	}
	if retiredFirst && bestNR >= 0 {
		return bestNR
	}
	return best
}

func victimR(ways []rWay, retiredFirst bool) int {
	best, bestLRU := -1, ^uint64(0)
	bestNR, bestNRLRU := -1, ^uint64(0)
	for w := range ways {
		if !ways[w].valid {
			return w
		}
		if ways[w].lru < bestLRU {
			best, bestLRU = w, ways[w].lru
		}
		if !ways[w].retired && ways[w].lru < bestNRLRU {
			bestNR, bestNRLRU = w, ways[w].lru
		}
	}
	if retiredFirst && bestNR >= 0 {
		return bestNR
	}
	return best
}

// Insert installs a shadow branch produced by the SBD. btbResident
// reports whether the branch currently hits in the BTB (used only by
// the FilterBTBResident ablation). It returns the entry the insert
// displaced, if any: a capacity victim, or an entry whose partial tag
// the new branch aliased.
//
//skia:noalloc
func (s *SBB) Insert(sb ShadowBranch, btbResident bool) (d Departure, displaced bool) {
	if s.cfg.FilterBTBResident && btbResident {
		s.stats.FilteredBTBResident++
		return Departure{}, false
	}
	switch sb.Class {
	case isa.ClassDirectUncond, isa.ClassCall:
		d, displaced = s.insertU(sb)
	case isa.ClassReturn:
		d, displaced = s.insertR(sb.PC)
	}
	if invariantsEnabled {
		sbbCheckInvariants(s)
	}
	return d, displaced
}

//skia:noalloc
func (s *SBB) insertU(sb ShadowBranch) (Departure, bool) {
	if s.uSets == 0 {
		return Departure{}, false
	}
	set, tag := s.uIndex(sb.PC)
	s.tick++
	e := UEntry{
		Target: sb.Target,
		IsCall: sb.Class == isa.ClassCall,
		Len:    sb.Len,
	}
	for w := range set {
		wy := &set[w]
		if wy.valid && wy.tag == tag {
			// Refresh in place; keep the retired bit (re-decoding the
			// same shadow region is common). A differing stored PC means
			// the partial tag aliased: the old branch's entry is gone.
			var d Departure
			aliased := wy.pc != sb.PC
			if aliased {
				d = Departure{PC: wy.pc, U: true, Retired: wy.retired, Lifetime: s.cycle - wy.bornAt}
				wy.pc = sb.PC
			}
			wy.e = e
			wy.lru = s.tick
			return d, aliased
		}
	}
	w := victimU(set, s.cfg.RetiredFirstEviction)
	v := &set[w]
	var d Departure
	evicted := v.valid
	if evicted {
		s.stats.UEvictions++
		d = Departure{PC: v.pc, Evicted: true, U: true, Retired: v.retired, Lifetime: s.cycle - v.bornAt}
	}
	*v = uWay{tag: tag, valid: true, lru: s.tick, bornAt: s.cycle, pc: sb.PC, e: e}
	s.stats.UInserts++
	return d, evicted
}

//skia:noalloc
func (s *SBB) insertR(pc uint64) (Departure, bool) {
	if s.rSets == 0 {
		return Departure{}, false
	}
	set, tag := s.rIndex(program.LineAddr(pc))
	off := uint8(program.LineOffset(pc))
	s.tick++
	for w := range set {
		wy := &set[w]
		if wy.valid && wy.tag == tag && wy.offset == off {
			var d Departure
			aliased := wy.pc != pc
			if aliased {
				d = Departure{PC: wy.pc, Retired: wy.retired, Lifetime: s.cycle - wy.bornAt}
				wy.pc = pc
			}
			wy.lru = s.tick
			return d, aliased
		}
	}
	w := victimR(set, s.cfg.RetiredFirstEviction)
	v := &set[w]
	var d Departure
	evicted := v.valid
	if evicted {
		s.stats.REvictions++
		d = Departure{PC: v.pc, Evicted: true, Retired: v.retired, Lifetime: s.cycle - v.bornAt}
	}
	*v = rWay{tag: tag, valid: true, lru: s.tick, bornAt: s.cycle, pc: pc, offset: off}
	s.stats.RInserts++
	return d, evicted
}

// MarkRetired sets the Retired bit on the entry that supplied the
// committed branch at pc (paper Section 4.3).
func (s *SBB) MarkRetired(pc uint64, class isa.Class) {
	switch class {
	case isa.ClassReturn:
		if s.rSets == 0 {
			return
		}
		set, tag := s.rIndex(program.LineAddr(pc))
		off := uint8(program.LineOffset(pc))
		for w := range set {
			wy := &set[w]
			if wy.valid && wy.tag == tag && wy.offset == off {
				if !wy.retired {
					wy.retired = true
					s.stats.RetiredMarks++
				}
				return
			}
		}
	default:
		if s.uSets == 0 {
			return
		}
		set, tag := s.uIndex(pc)
		for w := range set {
			wy := &set[w]
			if wy.valid && wy.tag == tag {
				if !wy.retired {
					wy.retired = true
					s.stats.RetiredMarks++
				}
				return
			}
		}
	}
}

// Contains reports whether the SBB currently holds an entry for the
// branch at pc of the given class, without perturbing LRU state or
// hit/miss statistics. Observability probe only — the IAG path uses
// LookupU/LookupR.
func (s *SBB) Contains(pc uint64, class isa.Class) bool {
	if class == isa.ClassReturn {
		if s.rSets == 0 {
			return false
		}
		set, tag := s.rIndex(program.LineAddr(pc))
		off := uint8(program.LineOffset(pc))
		for w := range set {
			wy := &set[w]
			if wy.valid && wy.tag == tag && wy.offset == off {
				return true
			}
		}
		return false
	}
	if s.uSets == 0 {
		return false
	}
	set, tag := s.uIndex(pc)
	for w := range set {
		wy := &set[w]
		if wy.valid && wy.tag == tag {
			return true
		}
	}
	return false
}

// Invalidate removes the entries at pc after they have been exposed as
// bogus (the decode stage found no such branch on the true path) and
// returns their full PCs: gone[:n], one per buffer that held pc.
func (s *SBB) Invalidate(pc uint64) (gone [2]uint64, n int) {
	if s.uSets > 0 {
		set, tag := s.uIndex(pc)
		for w := range set {
			wy := &set[w]
			if wy.valid && wy.tag == tag {
				gone[n] = wy.pc
				n++
				*wy = uWay{}
				s.stats.Invalidated++
				break // Insert keeps tags unique within a set
			}
		}
	}
	if s.rSets > 0 {
		set, tag := s.rIndex(program.LineAddr(pc))
		off := uint8(program.LineOffset(pc))
		for w := range set {
			wy := &set[w]
			if wy.valid && wy.tag == tag && wy.offset == off {
				gone[n] = wy.pc
				n++
				*wy = rWay{}
				s.stats.Invalidated++
				break // Insert keeps (tag, offset) unique within a set
			}
		}
	}
	return gone, n
}
