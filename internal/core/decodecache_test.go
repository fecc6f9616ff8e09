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
