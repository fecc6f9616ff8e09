package core

import (
	"fmt"

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

// UEntry is a U-SBB payload: a direct unconditional jump, a call, or —
// with the IncludeConditionals extension — a direct conditional.
type UEntry struct {
	// Target is the decoded branch target.
	Target uint64
	// IsCall distinguishes calls (which push the RAS) from jumps.
	IsCall bool
	// IsCond marks extension-mode conditionals, which need a direction
	// prediction before the target is followed.
	IsCond bool
	// Len is the branch instruction length, for fall-through (return
	// address) computation.
	Len uint8
}

type uWay struct {
	tag     uint64
	valid   bool
	retired bool
	lru     uint64
	bornAt  uint64 // Clock() cycle the entry was installed
	pc      uint64 // full branch PC, simulator bookkeeping (see OnRemove)
	e       UEntry
}

type rWay struct {
	tag     uint64
	valid   bool
	retired bool
	lru     uint64
	bornAt  uint64 // Clock() cycle the entry was installed
	pc      uint64 // full branch PC, simulator bookkeeping (see OnRemove)
	offset  uint8  // byte offset of the return within its line
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
	cfg   SBBConfig
	uSets [][]uWay
	rSets [][]rWay
	tick  uint64
	stats SBBStats

	// OnEvict, when non-nil, observes capacity evictions: isU selects
	// the buffer, retired reports the victim's retired bit (a useful
	// entry lost rather than a possibly-bogus one), and lifetime is the
	// victim's age in Clock cycles (0 without a Clock). Set by the
	// front-end's observability wiring; nil costs one comparison per
	// eviction.
	OnEvict func(isU, retired bool, lifetime uint64)

	// Clock, when non-nil, timestamps inserts so evictions can report
	// entry lifetimes. The SBB has no cycle counter of its own.
	Clock func() uint64

	// OnRemove, when non-nil, observes every entry leaving the buffer —
	// capacity evictions, invalidations, and tag-aliased overwrites —
	// with the departed entry's full branch PC. The PC is simulator
	// bookkeeping the hardware would not store (partial tags cannot
	// reconstruct it); the front-end uses the hook to retire the PC from
	// its probe-candidate sets so they track live SBB content instead of
	// growing monotonically.
	OnRemove func(pc uint64)
}

// Clone returns an independent deep copy of the SBB: same buffer
// contents, LRU state, and statistics. The OnEvict/Clock/OnRemove hooks
// are deliberately NOT copied — they are closures over the original
// owner's structures; whoever owns the clone must re-wire them.
func (s *SBB) Clone() *SBB {
	n := &SBB{
		cfg:   s.cfg,
		uSets: make([][]uWay, len(s.uSets)),
		rSets: make([][]rWay, len(s.rSets)),
		tick:  s.tick,
		stats: s.stats,
	}
	for i, set := range s.uSets {
		n.uSets[i] = make([]uWay, len(set))
		copy(n.uSets[i], set)
	}
	for i, set := range s.rSets {
		n.rSets[i] = make([]rWay, len(set))
		copy(n.rSets[i], set)
	}
	return n
}

// removed fires OnRemove for a departing entry.
func (s *SBB) removed(pc uint64) {
	if s.OnRemove != nil {
		s.OnRemove(pc)
	}
}

// now returns the current Clock cycle, or 0 without a Clock.
func (s *SBB) now() uint64 {
	if s.Clock == nil {
		return 0
	}
	return s.Clock()
}

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
	s := &SBB{cfg: cfg}
	if n := cfg.UEntries / cfg.UWays; n > 0 {
		s.uSets = make([][]uWay, n)
		for i := range s.uSets {
			s.uSets[i] = make([]uWay, cfg.UWays)
		}
	}
	if n := cfg.REntries / cfg.RWays; n > 0 {
		s.rSets = make([][]rWay, n)
		for i := range s.rSets {
			s.rSets[i] = make([]rWay, cfg.RWays)
		}
	}
	return s, nil
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

// uIndex maps a branch PC to its U-SBB set and tag. Set counts need not
// be powers of two (the paper's 2024-entry R-SBB is not), so indexing
// is modulo with the remaining bits as tag material.
func (s *SBB) uIndex(pc uint64) (int, uint64) {
	n := uint64(len(s.uSets))
	set := int(pc % n)
	tag := (pc / n) & ((1 << uint(s.cfg.TagBits)) - 1)
	return set, tag
}

func (s *SBB) rIndex(lineAddr uint64) (int, uint64) {
	n := uint64(len(s.rSets))
	l := lineAddr >> 6
	set := int(l % n)
	tag := (l / n) & ((1 << uint(s.cfg.TagBits)) - 1)
	return set, tag
}

// LookupU probes the U-SBB for a direct unconditional branch or call at
// pc, refreshing LRU on hit.
//
//skia:noalloc
func (s *SBB) LookupU(pc uint64) (UEntry, bool) {
	if len(s.uSets) == 0 {
		return UEntry{}, false
	}
	set, tag := s.uIndex(pc)
	for w := range s.uSets[set] {
		wy := &s.uSets[set][w]
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
	if len(s.rSets) == 0 {
		return false
	}
	set, tag := s.rIndex(program.LineAddr(pc))
	off := uint8(program.LineOffset(pc))
	for w := range s.rSets[set] {
		wy := &s.rSets[set][w]
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
// the FilterBTBResident ablation).
//
//skia:noalloc
func (s *SBB) Insert(sb ShadowBranch, btbResident bool) {
	if s.cfg.FilterBTBResident && btbResident {
		s.stats.FilteredBTBResident++
		return
	}
	switch sb.Class {
	case isa.ClassDirectUncond, isa.ClassCall, isa.ClassDirectCond:
		s.insertU(sb)
	case isa.ClassReturn:
		s.insertR(sb.PC)
	}
	if invariantsEnabled {
		sbbCheckInvariants(s)
	}
}

//skia:noalloc
func (s *SBB) insertU(sb ShadowBranch) {
	if len(s.uSets) == 0 {
		return
	}
	set, tag := s.uIndex(sb.PC)
	s.tick++
	e := UEntry{
		Target: sb.Target,
		IsCall: sb.Class == isa.ClassCall,
		IsCond: sb.Class == isa.ClassDirectCond,
		Len:    sb.Len,
	}
	for w := range s.uSets[set] {
		wy := &s.uSets[set][w]
		if wy.valid && wy.tag == tag {
			// Refresh in place; keep the retired bit (re-decoding the
			// same shadow region is common). A differing stored PC means
			// the partial tag aliased: the old branch's entry is gone.
			if wy.pc != sb.PC {
				s.removed(wy.pc)
				wy.pc = sb.PC
			}
			wy.e = e
			wy.lru = s.tick
			return
		}
	}
	w := victimU(s.uSets[set], s.cfg.RetiredFirstEviction)
	now := s.now()
	if s.uSets[set][w].valid {
		s.stats.UEvictions++
		if s.OnEvict != nil {
			s.OnEvict(true, s.uSets[set][w].retired, now-s.uSets[set][w].bornAt)
		}
		s.removed(s.uSets[set][w].pc)
	}
	s.uSets[set][w] = uWay{tag: tag, valid: true, lru: s.tick, bornAt: now, pc: sb.PC, e: e}
	s.stats.UInserts++
}

//skia:noalloc
func (s *SBB) insertR(pc uint64) {
	if len(s.rSets) == 0 {
		return
	}
	set, tag := s.rIndex(program.LineAddr(pc))
	off := uint8(program.LineOffset(pc))
	s.tick++
	for w := range s.rSets[set] {
		wy := &s.rSets[set][w]
		if wy.valid && wy.tag == tag && wy.offset == off {
			if wy.pc != pc {
				s.removed(wy.pc)
				wy.pc = pc
			}
			wy.lru = s.tick
			return
		}
	}
	w := victimR(s.rSets[set], s.cfg.RetiredFirstEviction)
	now := s.now()
	if s.rSets[set][w].valid {
		s.stats.REvictions++
		if s.OnEvict != nil {
			s.OnEvict(false, s.rSets[set][w].retired, now-s.rSets[set][w].bornAt)
		}
		s.removed(s.rSets[set][w].pc)
	}
	s.rSets[set][w] = rWay{tag: tag, valid: true, lru: s.tick, bornAt: now, pc: pc, offset: off}
	s.stats.RInserts++
}

// MarkRetired sets the Retired bit on the entry that supplied the
// committed branch at pc (paper Section 4.3).
func (s *SBB) MarkRetired(pc uint64, class isa.Class) {
	switch class {
	case isa.ClassReturn:
		if len(s.rSets) == 0 {
			return
		}
		set, tag := s.rIndex(program.LineAddr(pc))
		off := uint8(program.LineOffset(pc))
		for w := range s.rSets[set] {
			wy := &s.rSets[set][w]
			if wy.valid && wy.tag == tag && wy.offset == off {
				if !wy.retired {
					wy.retired = true
					s.stats.RetiredMarks++
				}
				return
			}
		}
	default:
		if len(s.uSets) == 0 {
			return
		}
		set, tag := s.uIndex(pc)
		for w := range s.uSets[set] {
			wy := &s.uSets[set][w]
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
		if len(s.rSets) == 0 {
			return false
		}
		set, tag := s.rIndex(program.LineAddr(pc))
		off := uint8(program.LineOffset(pc))
		for w := range s.rSets[set] {
			wy := &s.rSets[set][w]
			if wy.valid && wy.tag == tag && wy.offset == off {
				return true
			}
		}
		return false
	}
	if len(s.uSets) == 0 {
		return false
	}
	set, tag := s.uIndex(pc)
	for w := range s.uSets[set] {
		wy := &s.uSets[set][w]
		if wy.valid && wy.tag == tag {
			return true
		}
	}
	return false
}

// Invalidate removes the entry at pc after it has been exposed as bogus
// (the decode stage found no such branch on the true path).
func (s *SBB) Invalidate(pc uint64) {
	if len(s.uSets) > 0 {
		set, tag := s.uIndex(pc)
		for w := range s.uSets[set] {
			wy := &s.uSets[set][w]
			if wy.valid && wy.tag == tag {
				gone := wy.pc
				*wy = uWay{}
				s.stats.Invalidated++
				s.removed(gone)
			}
		}
	}
	if len(s.rSets) > 0 {
		set, tag := s.rIndex(program.LineAddr(pc))
		off := uint8(program.LineOffset(pc))
		for w := range s.rSets[set] {
			wy := &s.rSets[set][w]
			if wy.valid && wy.tag == tag && wy.offset == off {
				gone := wy.pc
				*wy = rWay{}
				s.stats.Invalidated++
				s.removed(gone)
			}
		}
	}
}
