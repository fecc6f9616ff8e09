package core

import (
	"testing"

	"repro/internal/program"
)

// FuzzDecodeCacheMatchesFresh decodes the head and tail regions of an
// arbitrary line twice through a memoizing SBD — a miss, then a hit —
// and requires branches, SBDStats, and recorded head family counts to
// match an SBD without a memo. Seeds live in testdata/fuzz; run
//
//	go test ./internal/core -run '^$' -fuzz FuzzDecodeCacheMatchesFresh
//
// to explore beyond them.
func FuzzDecodeCacheMatchesFresh(f *testing.F) {
	f.Fuzz(func(t *testing.T, raw []byte, headOff, tailOff uint8) {
		line := make([]byte, program.LineSize)
		copy(line, raw)
		entryOff := int(headOff) % (program.LineSize + 1)
		startOff := int(tailOff) % program.LineSize
		const lineAddr = 0x4000

		cached := NewSBD(DefaultSBDConfig())
		cached.AttachCache(NewDecodeCache())
		fresh := NewSBD(DefaultSBDConfig())

		for rep := 0; rep < 2; rep++ {
			gotH := cached.DecodeHead(line, lineAddr, entryOff, nil)
			wantH := fresh.DecodeHead(line, lineAddr, entryOff, nil)
			if !sameBranches(gotH, wantH) {
				t.Fatalf("rep %d: head at %d: cached %v fresh %v", rep, entryOff, gotH, wantH)
			}
			gotN, gotOK := cached.HeadFamilies()
			wantN, wantOK := fresh.HeadFamilies()
			if gotN != wantN || gotOK != wantOK {
				t.Fatalf("rep %d: head families at %d: cached %d,%v fresh %d,%v", rep, entryOff, gotN, gotOK, wantN, wantOK)
			}
			gotT := cached.DecodeTail(line, lineAddr, startOff, nil)
			wantT := fresh.DecodeTail(line, lineAddr, startOff, nil)
			if !sameBranches(gotT, wantT) {
				t.Fatalf("rep %d: tail at %d: cached %v fresh %v", rep, startOff, gotT, wantT)
			}
		}
		if cached.Stats() != fresh.Stats() {
			t.Fatalf("stats diverged: cached %+v fresh %+v", cached.Stats(), fresh.Stats())
		}
	})
}
