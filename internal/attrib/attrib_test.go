package attrib

import (
	"bufio"
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"repro/internal/isa"
	"repro/internal/program"
)

func TestClassifyPrecedence(t *testing.T) {
	e := NewEngine()
	line := uint64(0x1000)
	e.NoteHead(line, 16)       // bytes [0,16) are head shadow
	e.NoteTail(line, 40)       // bytes [40,64) are tail shadow
	e.NoteSBBInsert(line + 8)  // pc 0x1008 was once in the SBB
	e.NoteSBBInsert(line + 24) // outside both shadow masks

	cases := []struct {
		name     string
		pc       uint64
		class    isa.Class
		covered  bool
		resident bool
		inSBB    bool
		want     Cause
	}{
		{"covered wins", line + 8, isa.ClassDirectUncond, true, true, true, CauseSBBHit},
		{"cond ineligible", line + 4, isa.ClassDirectCond, false, true, false, CauseIneligible},
		{"indirect ineligible", line + 4, isa.ClassIndirect, false, true, false, CauseIneligible},
		{"inserted then gone", line + 8, isa.ClassDirectUncond, false, true, false, CauseEvicted},
		{"inserted still present", line + 24, isa.ClassDirectUncond, false, true, true, CauseResidentDecoded},
		{"not resident", line + 4, isa.ClassDirectUncond, false, false, false, CauseNotResident},
		{"head shadow", line + 4, isa.ClassDirectUncond, false, true, false, CauseShadowHead},
		{"tail shadow", line + 48, isa.ClassReturn, false, true, false, CauseShadowTail},
		{"decoded path", line + 20, isa.ClassDirectUncond, false, true, false, CauseResidentDecoded},
	}
	for _, c := range cases {
		if got := e.ClassifyMiss(c.pc, c.class, c.covered, c.resident, c.inSBB); got != c.want {
			t.Errorf("%s: got %v want %v", c.name, got, c.want)
		}
	}

	// Conservation: every classified miss landed in exactly one bucket.
	s := e.Summary()
	if s.BTBMisses != uint64(len(cases)) {
		t.Fatalf("BTBMisses = %d, want %d", s.BTBMisses, len(cases))
	}
	var sum uint64
	for _, cc := range s.Causes {
		sum += cc.Count
	}
	if sum != s.BTBMisses {
		t.Fatalf("cause counts sum to %d, want %d", sum, s.BTBMisses)
	}
	if len(s.Causes) != int(NumCauses) {
		t.Fatalf("Causes has %d rows, want %d (zeros kept)", len(s.Causes), NumCauses)
	}
}

func TestHeadTailOverlapPrefersHead(t *testing.T) {
	// A byte can sit in both a head and a tail region across different
	// block formations; classification must still be deterministic
	// (head checked first).
	e := NewEngine()
	line := uint64(0x2000)
	e.NoteHead(line, 32)
	e.NoteTail(line, 16)
	got := e.ClassifyMiss(line+20, isa.ClassDirectUncond, false, true, false)
	if got != CauseShadowHead {
		t.Fatalf("overlap byte classified %v, want %v", got, CauseShadowHead)
	}
}

func TestNoteRegionBounds(t *testing.T) {
	e := NewEngine()
	line := uint64(0x3000)
	e.NoteHead(line, 0)                  // empty head: no-op
	e.NoteHead(line, program.LineSize+5) // clamped to whole line
	e.NoteTail(line, program.LineSize)   // out of range: no-op
	e.NoteTail(line, -1)                 // out of range: no-op
	ls, ok := e.shadow[line]
	if !ok || ls.head != ^uint64(0) {
		t.Fatalf("clamped head mask = %#x, want all ones", ls.head)
	}
	if ls.tail != 0 {
		t.Fatalf("tail mask = %#x, want 0", ls.tail)
	}
}

func TestStallConservationAndShares(t *testing.T) {
	e := NewEngine()
	for i := 0; i < 7; i++ {
		e.StallCycle(StallResteerBTBMiss)
	}
	for i := 0; i < 3; i++ {
		e.StallCycle(StallFTQEmpty)
	}
	s := e.Summary()
	if s.StallCycles != 10 {
		t.Fatalf("StallCycles = %d, want 10", s.StallCycles)
	}
	var sum uint64
	var shares float64
	for _, sc := range s.Stalls {
		sum += sc.Count
		shares += sc.Share
	}
	if sum != s.StallCycles {
		t.Fatalf("stall counts sum to %d, want %d", sum, s.StallCycles)
	}
	if shares < 0.999 || shares > 1.001 {
		t.Fatalf("stall shares sum to %v, want ~1", shares)
	}
	if len(s.Stalls) != int(NumStallKinds) {
		t.Fatalf("Stalls has %d rows, want %d", len(s.Stalls), NumStallKinds)
	}
}

func TestShadowResidentShare(t *testing.T) {
	e := NewEngine()
	line := uint64(0x4000)
	e.NoteHead(line, 16)
	// 2 covered, 1 head-shadow, 1 not-resident: shadow share = 3/4.
	e.ClassifyMiss(line+1, isa.ClassDirectUncond, true, true, true)
	e.ClassifyMiss(line+2, isa.ClassReturn, true, true, true)
	e.ClassifyMiss(line+4, isa.ClassDirectUncond, false, true, false)
	e.ClassifyMiss(line+99, isa.ClassDirectUncond, false, false, false)
	s := e.Summary()
	if s.ShadowResidentShare != 0.75 {
		t.Fatalf("ShadowResidentShare = %v, want 0.75", s.ShadowResidentShare)
	}
	if s.HeadShare != 0.25 || s.TailShare != 0 {
		t.Fatalf("Head/TailShare = %v/%v, want 0.25/0", s.HeadShare, s.TailShare)
	}
}

func TestTopOffenders(t *testing.T) {
	e := NewEngine()
	e.TopN = 2
	for i := 0; i < 5; i++ {
		e.ClassifyMiss(0x100, isa.ClassDirectCond, false, true, false)
	}
	for i := 0; i < 3; i++ {
		e.ClassifyMiss(0x200, isa.ClassDirectUncond, false, false, false)
	}
	e.ClassifyMiss(0x300, isa.ClassReturn, false, false, false)
	s := e.Summary()
	if len(s.TopOffenders) != 2 {
		t.Fatalf("TopOffenders has %d rows, want 2", len(s.TopOffenders))
	}
	if s.TopOffenders[0].PC != 0x100 || s.TopOffenders[0].Count != 5 {
		t.Fatalf("top offender = %+v, want pc 0x100 count 5", s.TopOffenders[0])
	}
	if s.TopOffenders[0].TopCause != "ineligible" {
		t.Fatalf("top offender cause = %q, want ineligible", s.TopOffenders[0].TopCause)
	}
	if s.TopOffenders[1].PC != 0x200 {
		t.Fatalf("second offender = %+v, want pc 0x200", s.TopOffenders[1])
	}
}

func TestDistributions(t *testing.T) {
	e := NewEngine()
	for i := 0; i < 100; i++ {
		e.NoteCycle(i % 16)
	}
	e.NoteSBDPaths(3)
	e.NoteSBBLifetime(250)
	e.NoteResteer(0x1000, 0x1400)
	e.NoteResteer(0x2400, 0x2000) // distance is symmetric
	s := e.Summary()
	if s.FTQOccupancy.Count != 100 {
		t.Fatalf("FTQOccupancy.Count = %d, want 100", s.FTQOccupancy.Count)
	}
	if s.SBDValidPaths.Count != 1 || s.SBDValidPaths.Mean != 3 {
		t.Fatalf("SBDValidPaths = %+v, want count 1 mean 3", s.SBDValidPaths)
	}
	if s.SBBLifetime.Max != 250 {
		t.Fatalf("SBBLifetime.Max = %v, want 250", s.SBBLifetime.Max)
	}
	if s.ResteerDistance.Count != 2 || s.ResteerDistance.Max != 0x400 {
		t.Fatalf("ResteerDistance = %+v, want count 2 max 1024", s.ResteerDistance)
	}
}

func TestWriteNDJSON(t *testing.T) {
	e := NewEngine()
	e.ClassifyMiss(0x100, isa.ClassDirectUncond, false, false, false)
	e.StallCycle(StallFTQEmpty)
	e.NoteCycle(4)
	var buf bytes.Buffer
	if err := WriteNDJSON(&buf, "bench", "skia", e.Summary()); err != nil {
		t.Fatal(err)
	}
	types := map[string]int{}
	var total ndjsonTotal
	sc := bufio.NewScanner(&buf)
	for sc.Scan() {
		var row map[string]any
		if err := json.Unmarshal(sc.Bytes(), &row); err != nil {
			t.Fatalf("bad NDJSON row %q: %v", sc.Text(), err)
		}
		ty, _ := row["type"].(string)
		types[ty]++
		if row["benchmark"] != "bench" || row["label"] != "skia" {
			t.Fatalf("row missing identity: %q", sc.Text())
		}
		if ty == "total" {
			if err := json.Unmarshal(sc.Bytes(), &total); err != nil {
				t.Fatal(err)
			}
		}
		if ty == "offender" {
			if pc, _ := row["pc"].(string); !strings.HasPrefix(pc, "0x") {
				t.Fatalf("offender pc not hex: %q", pc)
			}
		}
	}
	if types["total"] != 1 || types["cause"] != int(NumCauses) ||
		types["stall"] != int(NumStallKinds) || types["dist"] != 4 || types["offender"] != 1 {
		t.Fatalf("row type counts = %v", types)
	}
	if total.BTBMisses != 1 || total.StallCycles != 1 {
		t.Fatalf("total row = %+v", total)
	}
}

func TestSummaryJSONRoundTrip(t *testing.T) {
	e := NewEngine()
	e.ClassifyMiss(0x100, isa.ClassReturn, true, true, true)
	s := e.Summary()
	b, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	var back Summary
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
	if back.BTBMisses != 1 || len(back.Causes) != int(NumCauses) {
		t.Fatalf("round-trip lost data: %+v", back)
	}
}
