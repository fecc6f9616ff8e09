package frontend

import (
	"testing"

	"repro/internal/emu"
	"repro/internal/program"
	"repro/internal/workload"
)

func voterWorkload(t *testing.T) *workload.Workload {
	t.Helper()
	p, err := workload.ByName("voter")
	if err != nil {
		t.Fatal(err)
	}
	w, err := workload.Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// TestDecodeCacheNeverForgets runs a warmed Skia front end long enough
// to cycle its L1-I many times over and requires every memo miss to
// have added a region: a line leaving the L1-I must not cost its
// decodes, so no region is ever decoded twice.
func TestDecodeCacheNeverForgets(t *testing.T) {
	cfg := SkiaConfig()
	f, err := New(cfg, voterWorkload(t))
	if err != nil {
		t.Fatal(err)
	}
	f.FastForwardWarm(50_000)
	drive(t, f, 300_000)

	l1iLines := uint64(cfg.L1ISize / program.LineSize)
	if ev := f.L1I().Stats().Evictions; ev < 4*l1iLines {
		t.Fatalf("only %d L1-I evictions; the run must cycle the %d-line L1-I", ev, l1iLines)
	}
	dc := f.DecodeCache()
	st := dc.Stats()
	if st.Hits == 0 {
		t.Fatal("memo never hit")
	}
	if st.Misses != uint64(dc.Len()) {
		t.Fatalf("%d misses for %d memoized regions: some region was decoded twice", st.Misses, dc.Len())
	}
}

// TestWarmDecodesShareDecodeCache checks that warm fast-forward and
// detail simulation share one memo: the first head region
// FastForwardWarm decodes, long since evicted from the L1-I, is a memo
// hit when the detail path's shadow-decode stage decodes it later.
func TestWarmDecodesShareDecodeCache(t *testing.T) {
	const warm = 200_000
	w := voterWorkload(t)

	// Find the first head region the warm skip decodes: the target line
	// of a taken branch, entered mid-line.
	em := emu.New(w)
	var la uint64
	off := 0
	for i := 0; i < warm && off == 0; i++ {
		st, err := em.Step()
		if err != nil {
			t.Fatal(err)
		}
		if st.Taken && program.LineOffset(st.NextPC) > 0 && w.Prog.Line(program.LineAddr(st.NextPC)) != nil {
			la, off = program.LineAddr(st.NextPC), program.LineOffset(st.NextPC)
		}
	}
	if off == 0 {
		t.Fatal("no head region in the warm window")
	}

	f, err := New(SkiaConfig(), w)
	if err != nil {
		t.Fatal(err)
	}
	f.FastForwardWarm(warm)
	dc := f.DecodeCache()
	before := dc.Stats()

	f.l1i.Prefetch(la)
	f.sbdQ.clear()
	f.sbdQ.push(f.cycle, sbdTask{atCycle: f.cycle + 1, head: true, lineAddr: la, off: off})
	f.cycle++ // as Step does: the decode falls due the next cycle
	f.runSBDTasks()

	after := dc.Stats()
	if after.Hits != before.Hits+1 || after.Misses != before.Misses {
		t.Fatalf("detail decode of warm region (%#x, %d): memo stats %+v -> %+v, want exactly one hit", la, off, before, after)
	}
}
