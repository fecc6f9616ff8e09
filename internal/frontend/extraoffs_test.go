package frontend

import "testing"

// TestExtraOffsBounded checks the shadow-offset side table stays
// footprint-flat over a long run. Each entry exists only while a
// shadow-discovered branch from that line is live in the SBB — the
// front end prunes the bit when Insert or Invalidate reports the entry
// gone: eviction, invalidation, and refresh-with-a-different-PC — so
// the number of tracked lines can never exceed the SBB's capacity,
// however long the simulation runs.
func TestExtraOffsBounded(t *testing.T) {
	w := testWorkload(t, nil)
	cfg := smallCfg(true)
	f, err := New(cfg, w)
	if err != nil {
		t.Fatal(err)
	}
	bound := cfg.SBB.UEntries + cfg.SBB.REntries

	drive(t, f, 100_000) // warm: populate SBB and side table
	n1 := f.ExtraOffLines()
	if n1 > bound {
		t.Fatalf("extraOffs tracks %d lines after warmup, SBB holds at most %d entries", n1, bound)
	}
	// Real shadow branches are already in the workload's static branch
	// mask; the side table only tracks bogus ones (misaligned decode
	// paths), so small counts — including zero — are expected.
	t.Logf("extraOffs after warmup: %d lines (bound %d)", n1, bound)

	// Footprint must be flat from here: more simulated instructions
	// churn the SBB but cannot grow the table past its capacity bound.
	for i := 0; i < 4; i++ {
		drive(t, f, 100_000)
		if n := f.ExtraOffLines(); n > bound {
			t.Fatalf("after %d extra instructions: extraOffs tracks %d lines, bound %d",
				(i+1)*100_000, n, bound)
		}
	}
}

// TestExtraOffsBoundedSBDToBTB covers the ablation mode: with no SBB
// nothing prunes, so the side table may grow — but only to the number
// of branch-free-prefix lines in the program image, never with
// simulation length.
func TestExtraOffsBoundedSBDToBTB(t *testing.T) {
	w := testWorkload(t, nil)
	cfg := smallCfg(true)
	cfg.SBDToBTB = true
	f, err := New(cfg, w)
	if err != nil {
		t.Fatal(err)
	}
	drive(t, f, 200_000)
	n1 := f.ExtraOffLines()
	drive(t, f, 200_000)
	n2 := f.ExtraOffLines()
	// Growth must have saturated: the table is keyed by program line,
	// and the program does not grow.
	if n2 > n1+n1/10 {
		t.Errorf("extraOffs still growing in steady state: %d -> %d lines", n1, n2)
	}
	maxLines := len(w.Prog.Code)/64 + 1
	if n2 > maxLines {
		t.Errorf("extraOffs tracks %d lines, program only has %d", n2, maxLines)
	}
}
