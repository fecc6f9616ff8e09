//go:build skiainvariants

package core

import "fmt"

// invariantsEnabled reports that this build compiled in the cheap
// runtime assertions gated by the skiainvariants build tag. CI runs
// the test suite and a reduced figure sweep with the tag on; default
// builds compile the checks out entirely (the checker symbols are
// absent from the linked binary, see TestInvariantSymbolPresence).
const invariantsEnabled = true

// sbbCheckInvariants panics if the buffer's geometry or occupancy
// drifted from its configuration: each buffer's flat way storage must
// hold exactly the configured entry count, and the valid-entry
// population can never exceed the configured capacity. Marked noinline
// so the tagged build carries a findable symbol proving the assertions
// are present.
//
//go:noinline
func sbbCheckInvariants(s *SBB) {
	if len(s.uWays) != s.cfg.UEntries {
		panic(fmt.Sprintf("skiainvariants: U-SBB holds %d ways, configured %d", len(s.uWays), s.cfg.UEntries))
	}
	if len(s.rWays) != s.cfg.REntries {
		panic(fmt.Sprintf("skiainvariants: R-SBB holds %d ways, configured %d", len(s.rWays), s.cfg.REntries))
	}
	valid := 0
	for i := range s.uWays {
		if s.uWays[i].valid {
			valid++
		}
	}
	if valid > s.cfg.UEntries {
		panic(fmt.Sprintf("skiainvariants: U-SBB holds %d valid entries, capacity %d", valid, s.cfg.UEntries))
	}
	valid = 0
	for i := range s.rWays {
		if s.rWays[i].valid {
			valid++
		}
	}
	if valid > s.cfg.REntries {
		panic(fmt.Sprintf("skiainvariants: R-SBB holds %d valid entries, capacity %d", valid, s.cfg.REntries))
	}
}

// decodeCacheCheckInvariants panics if the chain of the line just
// recorded is malformed: a chain index or branch span outside the
// arenas, a link that does not point to an older entry (the chain
// could cycle), or a region memoized twice (record must only follow a
// lookup miss). Only that line is checked, so armed runs stay cheap.
//
//go:noinline
func decodeCacheCheckInvariants(c *DecodeCache, lineAddr uint64) {
	type region struct {
		off  int32
		kind regionKind
	}
	seen := make(map[region]bool)
	for i, prev := c.head(lineAddr), int32(len(c.entries)); i >= 0; prev, i = i, c.entries[i].next {
		if i >= prev {
			panic(fmt.Sprintf("skiainvariants: decode cache line %#x chain index %d not older than %d", lineAddr, i, prev))
		}
		e := c.entries[i]
		if e.lo < 0 || e.lo > e.hi || int(e.hi) > len(c.branches) {
			panic(fmt.Sprintf("skiainvariants: decode cache line %#x entry %d spans branches [%d, %d) outside the %d-branch arena", lineAddr, i, e.lo, e.hi, len(c.branches)))
		}
		r := region{e.off, e.kind}
		if seen[r] {
			panic(fmt.Sprintf("skiainvariants: decode cache line %#x memoizes region (off %d, kind %d) twice", lineAddr, e.off, e.kind))
		}
		seen[r] = true
	}
}
