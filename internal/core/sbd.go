// Package core implements the paper's contribution: Skia. It has two
// halves, matching Section 4:
//
//   - The Shadow Branch Decoder (SBD, this file): a minimal
//     boundary-only decoder that opportunistically decodes the unused
//     "shadow" bytes of instruction cache lines entering the FTQ — the
//     Head region before a basic block's entry point and the Tail
//     region after its exiting taken branch — and extracts the branches
//     whose targets need no runtime state: direct unconditional jumps,
//     direct calls, and returns.
//
//   - The Shadow Branch Buffer (SBB, sbb.go): a small structure probed
//     in parallel with the BTB that supplies targets for branches the
//     BTB has lost, letting FDIP keep running ahead instead of falling
//     through down the wrong path.
//
// Head decoding is ambiguous under a variable-length ISA: decoding
// backwards from a known entry point can yield several plausible
// instruction chains. The SBD resolves this with the paper's two-phase
// algorithm — Index Computation (length-decode every candidate start
// byte) and Path Validation (walk candidate chains, keep those that
// land exactly on the entry point) — with the paper's two throttles:
// lines with more than MaxValidPaths valid chains are discarded, and
// the start index is chosen by a configurable policy (First, the
// paper's winner; or Merge). The paper's third policy, Zero (start at
// byte 0 when its path is valid), is not modelled: byte 0 is the
// lowest candidate, so a valid byte-0 path is always First's pick too.
package core

import (
	"repro/internal/isa"
	"repro/internal/program"
)

// IndexPolicy selects which validated path the Head decoder follows
// (paper Section 3.2.2, "Valid Index").
type IndexPolicy int

const (
	// FirstIndex decodes from the lowest start byte that begins a valid
	// path — the paper's empirically best policy and the default.
	FirstIndex IndexPolicy = iota
	// MergeIndex decodes from the deepest index shared by the most
	// valid paths (the merge point).
	MergeIndex
)

// String implements fmt.Stringer.
func (p IndexPolicy) String() string {
	switch p {
	case FirstIndex:
		return "first"
	case MergeIndex:
		return "merge"
	}
	return "unknown"
}

// SBDConfig parameterizes the Shadow Branch Decoder.
type SBDConfig struct {
	// Head and Tail enable the two orthogonal decoders (Section 3.4).
	Head, Tail bool
	// MaxValidPaths discards a Head region with more valid decode
	// chains than this (paper: 6).
	MaxValidPaths int
	// Policy picks the start index among validated paths.
	Policy IndexPolicy
	// RequireCorroboration extracts a Head shadow branch only when its
	// start index lies on at least two validated paths (every true
	// instruction boundary is itself a valid path start, so real
	// branches past the first instruction are always corroborated,
	// while bogus pre-merge prefix decodes almost never are). This
	// keeps the bogus-branch rate in the paper's reported regime
	// despite VLX's denser valid-encoding space.
	RequireCorroboration bool
	// Latency is the number of cycles between a line entering the FTQ
	// and its shadow branches becoming visible in the SBB; the decode
	// is off the critical path (Section 3.2, footnote 2).
	Latency int
}

// DefaultSBDConfig returns the paper's configuration: both decoders on,
// six-path cap, First-Index policy, multi-cycle off-critical-path
// latency.
func DefaultSBDConfig() SBDConfig {
	return SBDConfig{
		Head: true, Tail: true,
		MaxValidPaths:        6,
		Policy:               FirstIndex,
		Latency:              4,
		RequireCorroboration: true,
	}
}

// ShadowBranch is one branch extracted from a shadow region.
type ShadowBranch struct {
	// PC is the branch instruction address implied by the decoded path
	// (which may be wrong — a bogus branch — if the path was plausible
	// but not the true decode).
	PC uint64
	// Class is DirectUncond, Call, or Return.
	Class isa.Class
	// Target is the decoded target for DirectUncond and Call; zero for
	// returns (their target comes from the RAS).
	Target uint64
	// Len is the decoded instruction length, needed to compute the
	// fall-through (return address) of shadow calls.
	Len uint8
}

// SBDStats counts decoder events.
type SBDStats struct {
	HeadRegions     uint64 // head regions examined
	HeadDiscarded   uint64 // regions over the valid-path cap
	HeadNoValidPath uint64 // regions with zero valid paths
	HeadBranches    uint64 // branches extracted from heads
	TailRegions     uint64
	TailBranches    uint64
}

// SBD is the Shadow Branch Decoder.
type SBD struct {
	cfg   SBDConfig
	stats SBDStats

	// headFamilies is the path-family count of the Head region the
	// last DecodeHead call examined, -1 when it examined none; see
	// HeadFamilies.
	headFamilies int

	// cache, when non-nil, memoizes head/tail decode results per
	// (lineAddr, offset); see decodecache.go. The program image is
	// immutable after linking, so an entry never goes stale.
	//skia:shared-ok Clone's contract: the owner clones the cache separately and re-attaches it (frontend.Clone does both)
	cache *DecodeCache

	// scratch buffers reused across calls to avoid allocation in the
	// simulator's hot loop.
	lengths [program.LineSize]int
	valid   [program.LineSize]bool
	visits  [program.LineSize]int
}

// Clone returns an independent deep copy of the decoder's config,
// statistics, and scratch state. The attached decode cache is NOT
// carried over: it must be cloned separately and re-attached so the
// copy does not share memo storage.
func (d *SBD) Clone() *SBD {
	n := &SBD{cfg: d.cfg, stats: d.stats, headFamilies: d.headFamilies}
	n.lengths = d.lengths
	n.valid = d.valid
	n.visits = d.visits
	return n
}

// AttachCache installs (or, with nil, removes) a decode cache. The
// cache memoizes DecodeHead/DecodeTail results so lines re-entering
// the FTQ skip re-length-decoding; replayed statistics are identical
// to what the fresh decode would have recorded.
func (d *SBD) AttachCache(c *DecodeCache) { d.cache = c }

// NewSBD builds a decoder from cfg.
func NewSBD(cfg SBDConfig) *SBD {
	if cfg.MaxValidPaths <= 0 {
		cfg.MaxValidPaths = 6
	}
	return &SBD{cfg: cfg, headFamilies: -1}
}

// Config returns the decoder configuration.
func (d *SBD) Config() SBDConfig { return d.cfg }

// Stats returns accumulated decoder statistics.
func (d *SBD) Stats() SBDStats { return d.stats }

// ResetStats zeroes the statistics.
func (d *SBD) ResetStats() { d.stats = SBDStats{} }

// HeadFamilies returns the path-family count of the Head region the
// last DecodeHead call examined (0 when no valid path exists), counted
// before the MaxValidPaths cap applies. ok is false when that call
// examined no region: Head decoding off, or an empty region. It feeds
// the attribution engine's valid-paths-per-line distribution.
func (d *SBD) HeadFamilies() (families int, ok bool) {
	return d.headFamilies, d.headFamilies >= 0
}

// DecodeHead decodes the Head shadow region of a cache line: bytes
// [0, entryOff) where entryOff is the basic block's entry byte within
// the line (the branch target that brought the line into the FTQ). It
// appends extracted branches to dst and returns the result. A nil
// return with no error means the region was discarded or empty.
//
//skia:noalloc
func (d *SBD) DecodeHead(line []byte, lineAddr uint64, entryOff int, dst []ShadowBranch) []ShadowBranch {
	d.headFamilies = -1
	if !d.cfg.Head || entryOff <= 0 || entryOff > len(line) {
		return dst
	}
	if d.cache != nil {
		if e, branches, ok := d.cache.lookup(lineAddr, entryOff, regionHead); ok {
			d.stats.HeadRegions++
			if e.noValid {
				d.stats.HeadNoValidPath++
			}
			if e.discarded {
				d.stats.HeadDiscarded++
			}
			d.stats.HeadBranches += uint64(len(branches))
			d.headFamilies = int(e.nFamilies)
			return append(dst, branches...)
		}
	}
	n0 := len(dst)
	dst, nFamilies, noValid, discarded := d.headCore(line, lineAddr, entryOff, dst)
	d.stats.HeadRegions++
	if noValid {
		d.stats.HeadNoValidPath++
	}
	if discarded {
		d.stats.HeadDiscarded++
	}
	d.stats.HeadBranches += uint64(len(dst) - n0)
	d.headFamilies = nFamilies
	if d.cache != nil {
		d.cache.record(lineAddr, entryOff, regionHead, dst[n0:], nFamilies, noValid, discarded)
	}
	return dst
}

// headCore is DecodeHead's side-effect-free body: it appends extracted
// branches to dst and reports the path-family count plus the two
// outcome flags, without touching d.stats or the recorded family count.
// The split exists so the decode cache can replay exactly the
// statistics a fresh decode would have produced.
//
//skia:noalloc
func (d *SBD) headCore(line []byte, lineAddr uint64, entryOff int, dst []ShadowBranch) (out []ShadowBranch, nFam int, noValid, discarded bool) {
	// Phase 1 — Index Computation: the length of the instruction
	// starting at every byte offset in the region (0 = undecodable).
	// The decoder sees the whole line: an instruction may extend past
	// the entry point, but any path containing it cannot align and
	// dies in validation.
	for off := 0; off < entryOff; off++ {
		d.lengths[off] = isa.LengthAt(line, off)
	}

	// Phase 2 — Path Validation: a start index is valid when repeatedly
	// adding decoded lengths lands exactly on the entry offset. Paths
	// that begin on an index already covered by a previously validated
	// path are "merging paths" (paper Section 3.2.2): they introduce no
	// new decoding ambiguity, so only path *families* — maximal
	// non-merging chains — count toward the MaxValidPaths cap. (Every
	// suffix of a valid chain is itself valid, so counting suffixes
	// would discard precisely the regions with the most real code.)
	nFamilies := 0
	firstValid := -1
	for i := range d.visits[:entryOff] {
		d.visits[i] = 0
	}
	for start := 0; start < entryOff; start++ {
		ok := false
		p := start
		for p < entryOff {
			l := d.lengths[p]
			if l == 0 {
				break
			}
			p += l
			if p == entryOff {
				ok = true
				break
			}
		}
		d.valid[start] = ok
		if ok {
			if d.visits[start] == 0 {
				nFamilies++
			}
			if firstValid < 0 {
				firstValid = start
			}
			// Record every index visited by this valid path: merging
			// detection and the Merge policy both need the counts.
			p = start
			for p < entryOff {
				d.visits[p]++
				p += d.lengths[p]
			}
		}
	}
	if firstValid < 0 {
		return dst, nFamilies, true, false
	}
	if nFamilies > d.cfg.MaxValidPaths {
		return dst, nFamilies, false, true
	}

	start := firstValid
	if d.cfg.Policy == MergeIndex {
		// The merge point: the deepest index visited by all valid
		// paths; pick the highest-visit-count index, breaking ties
		// toward the deepest.
		best, bestN := firstValid, 0
		for i := 0; i < entryOff; i++ {
			if d.valid[i] || d.visits[i] > 0 {
				if d.visits[i] >= bestN {
					best, bestN = i, d.visits[i]
				}
			}
		}
		start = best
	}

	// Walk the chosen path and extract supported branches.
	for p := start; p < entryOff; p += d.lengths[p] {
		if d.cfg.RequireCorroboration && d.visits[p] < 2 {
			continue
		}
		dst = d.extract(line, lineAddr, p, dst)
	}
	return dst, nFamilies, false, false
}

// DecodeTail decodes the Tail shadow region: bytes [startOff, lineEnd)
// following the taken branch that exits the line. The start byte is
// unambiguous (the exiting branch's end is known), so decoding is a
// single forward walk (Section 3.3). Decoding stops at an undecodable
// byte or an instruction crossing the line end.
//
//skia:noalloc
func (d *SBD) DecodeTail(line []byte, lineAddr uint64, startOff int, dst []ShadowBranch) []ShadowBranch {
	if !d.cfg.Tail || startOff < 0 || startOff >= len(line) {
		return dst
	}
	if d.cache != nil {
		if _, branches, ok := d.cache.lookup(lineAddr, startOff, regionTail); ok {
			d.stats.TailRegions++
			d.stats.TailBranches += uint64(len(branches))
			return append(dst, branches...)
		}
	}
	n0 := len(dst)
	for p := startOff; p < len(line); {
		l := isa.LengthAt(line, p)
		if l == 0 || p+l > len(line) {
			break
		}
		dst = d.extract(line, lineAddr, p, dst)
		p += l
	}
	d.stats.TailRegions++
	d.stats.TailBranches += uint64(len(dst) - n0)
	if d.cache != nil {
		d.cache.record(lineAddr, startOff, regionTail, dst[n0:], 0, false, false)
	}
	return dst
}

// extract decodes the instruction at line[off] and appends it to dst if
// it is a shadow-eligible branch fully contained in the line.
//
//skia:noalloc
func (d *SBD) extract(line []byte, lineAddr uint64, off int, dst []ShadowBranch) []ShadowBranch {
	in, ok := isa.TryDecode(line[off:], lineAddr+uint64(off))
	if !ok {
		return dst
	}
	if !in.Class.IsShadowEligible() {
		return dst
	}
	sb := ShadowBranch{PC: in.PC, Class: in.Class, Len: in.Len}
	if tgt, ok := in.BranchTarget(); ok {
		sb.Target = tgt
	}
	return append(dst, sb)
}
