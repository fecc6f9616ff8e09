package core

import (
	"math/rand"
	"testing"

	"repro/internal/program"
)

// randLine fills a line with a mix of plausible VLX bytes and noise so
// head decoding exercises valid, no-valid-path, and discarded regions.
func randLine(rng *rand.Rand) []byte {
	line := make([]byte, program.LineSize)
	rng.Read(line)
	// Seed stretches of decodable code so some paths validate: short
	// opcodes (nop, push/pop, ret) and rel8 jumps.
	common := []byte{0x90, 0x50, 0x58, 0xC3, 0xEB, 0x70, 0x40, 0xE9}
	for i := 0; i < len(line); i++ {
		if rng.Intn(2) == 0 {
			line[i] = common[rng.Intn(len(common))]
		}
	}
	return line
}

// TestDecodeCacheMatchesFreshDecodes is the property test: across
// randomized lines and offsets, a cached SBD must produce branch
// sequences, statistics, and OnHeadPaths observations identical to an
// uncached SBD — on the first (miss) and every repeated (hit) decode.
func TestDecodeCacheMatchesFreshDecodes(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	cfg := DefaultSBDConfig()

	cached := NewSBD(cfg)
	cached.AttachCache(NewDecodeCache())
	fresh := NewSBD(cfg)

	var cachedFam, freshFam []int
	cached.OnHeadPaths = func(n int) { cachedFam = append(cachedFam, n) }
	fresh.OnHeadPaths = func(n int) { freshFam = append(freshFam, n) }

	for trial := 0; trial < 200; trial++ {
		line := randLine(rng)
		lineAddr := uint64(trial) * program.LineSize
		entryOff := 1 + rng.Intn(program.LineSize)
		startOff := rng.Intn(program.LineSize)

		// Decode each region three times: miss, hit, hit.
		for rep := 0; rep < 3; rep++ {
			gotH := cached.DecodeHead(line, lineAddr, entryOff, nil)
			wantH := fresh.DecodeHead(line, lineAddr, entryOff, nil)
			if !sameBranches(gotH, wantH) {
				t.Fatalf("trial %d rep %d: head mismatch: cached %v fresh %v", trial, rep, gotH, wantH)
			}
			gotT := cached.DecodeTail(line, lineAddr, startOff, nil)
			wantT := fresh.DecodeTail(line, lineAddr, startOff, nil)
			if !sameBranches(gotT, wantT) {
				t.Fatalf("trial %d rep %d: tail mismatch: cached %v fresh %v", trial, rep, gotT, wantT)
			}
		}
		if cached.Stats() != fresh.Stats() {
			t.Fatalf("trial %d: stats diverged: cached %+v fresh %+v", trial, cached.Stats(), fresh.Stats())
		}
	}
	if len(cachedFam) != len(freshFam) {
		t.Fatalf("OnHeadPaths call counts differ: %d vs %d", len(cachedFam), len(freshFam))
	}
	for i := range cachedFam {
		if cachedFam[i] != freshFam[i] {
			t.Fatalf("OnHeadPaths observation %d differs: %d vs %d", i, cachedFam[i], freshFam[i])
		}
	}
	cs := cached.cache.Stats()
	if cs.Hits == 0 || cs.Misses == 0 {
		t.Fatalf("expected both hits and misses, got %+v", cs)
	}
}

func sameBranches(a, b []ShadowBranch) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestDecodeCacheRebase records regions at ascending line addresses,
// then at lower ones, each of which moves the base of the dense line
// index, and requires every earlier region to still hit with the
// branches a fresh decode gives. A clone taken after the rebase must
// stay independent: a region recorded in either copy — one that
// rebases the clone's index, one that grows the original's, one on a
// line both copies hold — misses in the other.
func TestDecodeCacheRebase(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	fresh := NewSBD(DefaultSBDConfig())
	type region struct {
		la   uint64
		off  int
		line []byte
	}
	decode := func(s *SBD, r region) (head, tail []ShadowBranch) {
		return s.DecodeHead(r.line, r.la, r.off, nil), s.DecodeTail(r.line, r.la, r.off, nil)
	}
	missAll := func(s *SBD, r region, when string) {
		t.Helper()
		before := s.cache.Stats()
		decode(s, r)
		if got := s.cache.Stats(); got.Misses != before.Misses+2 {
			t.Fatalf("%s: line %#x offset %d: memo stats %+v -> %+v, want two misses", when, r.la, r.off, before, got)
		}
	}
	recordAt := func(s *SBD, la uint64, off int) region {
		t.Helper()
		r := region{la, off, randLine(rng)}
		missAll(s, r, "first decode")
		return r
	}
	record := func(s *SBD, la uint64) region {
		t.Helper()
		return recordAt(s, la, 1+rng.Intn(program.LineSize-1))
	}
	hitAll := func(s *SBD, rs []region, when string) {
		t.Helper()
		for _, r := range rs {
			before := s.cache.Stats()
			h, tl := decode(s, r)
			if got := s.cache.Stats(); got.Hits != before.Hits+2 {
				t.Fatalf("%s: line %#x offset %d: memo stats %+v -> %+v, want two hits", when, r.la, r.off, before, got)
			}
			if wh, wt := decode(fresh, r); !sameBranches(h, wh) || !sameBranches(tl, wt) {
				t.Fatalf("%s: line %#x offset %d: memoized %v / %v, fresh %v / %v", when, r.la, r.off, h, tl, wh, wt)
			}
		}
	}

	const base = 0x40_0000
	orig := NewSBD(DefaultSBDConfig())
	orig.AttachCache(NewDecodeCache())
	var regions []region
	for k := uint64(0); k < 8; k++ {
		regions = append(regions, record(orig, base+3*k*program.LineSize))
	}
	for k := uint64(1); k <= 4; k++ {
		regions = append(regions, record(orig, base-5*k*program.LineSize))
	}
	hitAll(orig, regions, "after rebasing")

	clone := NewSBD(DefaultSBDConfig())
	clone.AttachCache(orig.cache.Clone())
	shared := recordAt(orig, regions[0].la, regions[0].off%(program.LineSize-1)+1)
	higher := record(orig, base+100*program.LineSize)
	lower := record(clone, base-100*program.LineSize)
	hitAll(orig, append(regions[:len(regions):len(regions)], higher, shared), "original after Clone")
	hitAll(clone, append(regions[:len(regions):len(regions)], lower), "clone")
	missAll(orig, lower, "original decoding the clone's region")
	missAll(clone, higher, "clone decoding the original's region")
	missAll(clone, shared, "clone decoding the original's region on a shared line")
}
