package frontend

import (
	"math/bits"
	"testing"

	"repro/internal/attrib"
	"repro/internal/emu"
	"repro/internal/workload"
)

// testWorkload generates a small but structurally complete benchmark.
func testWorkload(t testing.TB, mut func(*workload.Profile)) *workload.Workload {
	t.Helper()
	p, err := workload.ByName("voter")
	if err != nil {
		t.Fatal(err)
	}
	p.HotFuncs = 96
	p.ColdFuncs = 260
	if mut != nil {
		mut(&p)
	}
	w, err := workload.Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// drive runs the front-end for n decoded instructions.
func drive(t testing.TB, f *FrontEnd, n uint64) {
	t.Helper()
	var decoded uint64
	for decoded < n && !f.Done() {
		decoded += uint64(f.Step(64))
	}
	if err := f.Err(); err != nil {
		t.Fatal(err)
	}
}

func smallCfg(skia bool) Config {
	cfg := DefaultConfig()
	if skia {
		cfg = SkiaConfig()
	}
	// Small BTB so the shrunken test workload still overflows it.
	cfg.BTB.Entries = 1024
	return cfg
}

func TestDecodeMatchesEmulator(t *testing.T) {
	// The front-end must deliver exactly the emulator's instruction
	// stream, in order, regardless of mispredictions along the way.
	w := testWorkload(t, nil)
	f, err := New(smallCfg(false), w)
	if err != nil {
		t.Fatal(err)
	}
	ref := emu.New(w)
	var checked uint64
	for checked < 100_000 && !f.Done() {
		n := f.Step(64)
		for i := 0; i < n; i++ {
			want, err := ref.Step()
			if err != nil {
				t.Fatal(err)
			}
			_ = want
			checked++
		}
	}
	// The decode counter must match exactly what we pulled from ref.
	if got := f.Stats().Decoded; got != checked {
		t.Fatalf("frontend decoded %d, reference stepped %d", got, checked)
	}
	if f.Stats().ForcedResyncs != 0 {
		t.Fatalf("forced resyncs: %d (modeling bug)", f.Stats().ForcedResyncs)
	}
}

func TestBTBMissesOccurAndSBBCovers(t *testing.T) {
	w := testWorkload(t, nil)

	base, err := New(smallCfg(false), w)
	if err != nil {
		t.Fatal(err)
	}
	drive(t, base, 400_000)
	bs := base.Stats()
	if bs.BTBMissTotal() == 0 {
		t.Fatal("baseline produced no BTB misses; workload lacks pressure")
	}
	if bs.SBBCoveredTotal() != 0 {
		t.Error("baseline must not report SBB coverage")
	}

	skia, err := New(smallCfg(true), w)
	if err != nil {
		t.Fatal(err)
	}
	drive(t, skia, 400_000)
	ss := skia.Stats()
	if ss.SBBCoveredTotal() == 0 {
		t.Fatal("Skia covered no BTB misses")
	}
	if ss.SBBCoveredU == 0 {
		t.Error("no U-SBB coverage")
	}
	if ss.SBDInserts == 0 {
		t.Error("SBD inserted nothing")
	}
	// Re-steers must shrink: that is the whole mechanism.
	if ss.DecodeResteers >= bs.DecodeResteers {
		t.Errorf("decode resteers did not shrink: %d -> %d", bs.DecodeResteers, ss.DecodeResteers)
	}
}

func TestBTBMissL1IHitFractionHigh(t *testing.T) {
	// The paper's motivating observation: the majority of BTB misses
	// land on L1-I-resident lines.
	w := testWorkload(t, nil)
	f, err := New(smallCfg(false), w)
	if err != nil {
		t.Fatal(err)
	}
	drive(t, f, 400_000)
	s := f.Stats()
	if s.BTBMissTotal() < 100 {
		t.Skip("too few misses to measure the fraction")
	}
	frac := float64(s.BTBMissL1IHit) / float64(s.BTBMissTotal())
	if frac < 0.5 {
		t.Errorf("only %.0f%% of BTB misses were L1-I resident; paper reports ~75%%", frac*100)
	}
}

func TestSkiaNeverBreaksCorrectness(t *testing.T) {
	// Whatever the SBB contains (including bogus entries), the decoded
	// stream must stay identical to the architectural one; only timing
	// may differ.
	w := testWorkload(t, nil)
	f, err := New(smallCfg(true), w)
	if err != nil {
		t.Fatal(err)
	}
	drive(t, f, 300_000)
	if f.Stats().ForcedResyncs != 0 {
		t.Errorf("forced resyncs with Skia: %d", f.Stats().ForcedResyncs)
	}
	// Phantoms may occur (bogus SBB entries) but must be bounded.
	s := f.Stats()
	if s.PhantomBranches > s.Decoded/1000 {
		t.Errorf("phantom rate implausible: %d in %d insts", s.PhantomBranches, s.Decoded)
	}
}

func TestBogusInsertRateLow(t *testing.T) {
	// Section 3.2.2: bogus branches must be a tiny fraction of inserts.
	w := testWorkload(t, nil)
	f, err := New(smallCfg(true), w)
	if err != nil {
		t.Fatal(err)
	}
	drive(t, f, 400_000)
	s := f.Stats()
	if s.SBDInserts == 0 {
		t.Fatal("no inserts")
	}
	rate := float64(s.SBDBogusInserts) / float64(s.SBDInserts)
	if rate > 0.01 {
		t.Errorf("bogus insert rate %.4f too high (paper: ~0.000002)", rate)
	}
}

func TestResetStats(t *testing.T) {
	w := testWorkload(t, nil)
	f, err := New(smallCfg(true), w)
	if err != nil {
		t.Fatal(err)
	}
	drive(t, f, 50_000)
	f.ResetStats()
	s := f.Stats()
	if s.Decoded != 0 || s.BTBMissTotal() != 0 || s.DecodeResteers != 0 {
		t.Errorf("stats not reset: %+v", s)
	}
	// Learned state must survive: after reset, misses should be rarer
	// than in a cold run of the same length.
	drive(t, f, 50_000)
	warm := f.Stats().BTBMissTotal()
	cold, err := New(smallCfg(true), w)
	if err != nil {
		t.Fatal(err)
	}
	drive(t, cold, 50_000)
	if warm > cold.Stats().BTBMissTotal() {
		t.Errorf("warm run (%d misses) worse than cold run (%d)", warm, cold.Stats().BTBMissTotal())
	}
}

func TestDeterministicRuns(t *testing.T) {
	w := testWorkload(t, nil)
	run := func() Stats {
		f, err := New(smallCfg(true), w)
		if err != nil {
			t.Fatal(err)
		}
		drive(t, f, 200_000)
		return f.Stats()
	}
	a, b := run(), run()
	if a != b {
		t.Errorf("simulation is not deterministic:\n%+v\n%+v", a, b)
	}
}

func TestWrongPathBlocksExist(t *testing.T) {
	// Execute re-steers leave the IAG running down the wrong path; the
	// model must actually produce wrong-path FTQ entries.
	w := testWorkload(t, nil)
	f, err := New(smallCfg(false), w)
	if err != nil {
		t.Fatal(err)
	}
	drive(t, f, 200_000)
	s := f.Stats()
	if s.ExecResteers == 0 {
		t.Skip("no execute re-steers in window")
	}
	if s.WrongPathBlocks == 0 {
		t.Error("execute re-steers without wrong-path blocks: wrong-path modeling is off")
	}
}

func TestDecoderIdleAccounting(t *testing.T) {
	w := testWorkload(t, nil)
	f, err := New(smallCfg(false), w)
	if err != nil {
		t.Fatal(err)
	}
	drive(t, f, 200_000)
	s := f.Stats()
	if s.DecodeIdleCycles == 0 {
		t.Error("no decoder idle cycles in a front-end-bound workload")
	}
	if s.DecodeIdleFetchCycles+s.DecodeIdleResteerCycles != s.DecodeIdleCycles {
		t.Errorf("idle split %d+%d != total %d",
			s.DecodeIdleFetchCycles, s.DecodeIdleResteerCycles, s.DecodeIdleCycles)
	}
	if s.DecodeIdleCycles >= f.Cycle() {
		t.Errorf("idle cycles %d >= total cycles %d", s.DecodeIdleCycles, f.Cycle())
	}
}

func TestTailOnlyAndHeadOnly(t *testing.T) {
	w := testWorkload(t, nil)
	for _, variant := range []struct {
		name       string
		head, tail bool
	}{{"head", true, false}, {"tail", false, true}} {
		cfg := smallCfg(true)
		cfg.SBD.Head = variant.head
		cfg.SBD.Tail = variant.tail
		f, err := New(cfg, w)
		if err != nil {
			t.Fatal(err)
		}
		drive(t, f, 300_000)
		s := f.SBD().Stats()
		if variant.head && s.TailRegions != 0 {
			t.Errorf("%s: tail decoder ran", variant.name)
		}
		if variant.tail && s.HeadRegions != 0 {
			t.Errorf("%s: head decoder ran", variant.name)
		}
		if f.Stats().SBDInserts == 0 {
			t.Errorf("%s: no inserts", variant.name)
		}
	}
}

func TestSBDToBTBAblation(t *testing.T) {
	w := testWorkload(t, nil)
	cfg := smallCfg(true)
	cfg.SBDToBTB = true
	f, err := New(cfg, w)
	if err != nil {
		t.Fatal(err)
	}
	if f.SBB() != nil {
		t.Fatal("SBDToBTB ablation should not build an SBB")
	}
	drive(t, f, 200_000)
	if f.Stats().SBDInserts == 0 {
		t.Error("ablation inserted nothing into the BTB")
	}
	if f.Stats().SBBCoveredTotal() != 0 {
		t.Error("no SBB exists, so nothing can be SBB-covered")
	}
}

func TestCandidateMaskMerge(t *testing.T) {
	mask := func(offs ...uint8) uint64 {
		var m uint64
		for _, o := range offs {
			m |= 1 << o
		}
		return m
	}
	iterate := func(m uint64) []uint8 {
		var out []uint8
		for ; m != 0; m &= m - 1 {
			out = append(out, uint8(bits.TrailingZeros64(m)))
		}
		return out
	}
	cases := []struct {
		static, extra, want []uint8
	}{
		{[]uint8{1, 5, 9}, nil, []uint8{1, 5, 9}},
		{nil, []uint8{3}, []uint8{3}},
		{[]uint8{1, 5}, []uint8{3, 7}, []uint8{1, 3, 5, 7}},
		{[]uint8{1, 5}, []uint8{1, 5}, []uint8{1, 5}},
		{[]uint8{5}, []uint8{1}, []uint8{1, 5}},
	}
	for i, c := range cases {
		got := iterate(mask(c.static...) | mask(c.extra...))
		if len(got) != len(c.want) {
			t.Errorf("case %d: got %v want %v", i, got, c.want)
			continue
		}
		for j := range got {
			if got[j] != c.want[j] {
				t.Errorf("case %d: got %v want %v", i, got, c.want)
				break
			}
		}
	}
}

func TestInfiniteBTBEliminatesMisses(t *testing.T) {
	w := testWorkload(t, nil)
	cfg := smallCfg(false)
	cfg.BTB.Infinite = true
	f, err := New(cfg, w)
	if err != nil {
		t.Fatal(err)
	}
	drive(t, f, 100_000) // warm
	f.ResetStats()
	drive(t, f, 200_000)
	s := f.Stats()
	// After warmup, an infinite BTB only misses on first encounters.
	frac := float64(s.BTBMissTotal()) / float64(s.TakenBranches)
	if frac > 0.02 {
		t.Errorf("infinite BTB still misses %.1f%% of taken branches", frac*100)
	}
}

func BenchmarkFrontEndStep(b *testing.B) {
	w := testWorkload(b, nil)
	f, err := New(SkiaConfig(), w)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.Step(64)
		if f.Done() {
			b.Fatal("workload ended")
		}
	}
}

// TestSBBLifetimeCountsFromInsert warms a Skia front end with no
// observer attached, then attaches an attribution engine and keeps
// running: every evicted entry's lifetime must fit in the cycles since
// the first SBB insert. An SBB that stamped inserts only while an
// observer was attached would date warmup-born entries from cycle 0.
func TestSBBLifetimeCountsFromInsert(t *testing.T) {
	f, err := New(smallCfg(true), testWorkload(t, nil))
	if err != nil {
		t.Fatal(err)
	}
	inserts := func() uint64 { st := f.SBB().Stats(); return st.UInserts + st.RInserts }
	evictions := func() uint64 { st := f.SBB().Stats(); return st.UEvictions + st.REvictions }
	for inserts() == 0 {
		if f.Done() {
			t.Fatal("workload ended before the first SBB insert")
		}
		f.Step(64)
	}
	first := f.Cycle()
	drive(t, f, 100_000)

	e := attrib.NewEngine()
	f.SetAttribution(e)
	var decoded uint64
	for decoded < 200_000 && !f.Done() {
		ev := evictions()
		decoded += uint64(f.Step(64))
		if evictions() == ev {
			continue
		}
		// The lifetime maximum only grows, so checking it after every
		// evicting cycle checks every eviction.
		if life, elapsed := e.Summary().SBBLifetime.Max, f.Cycle()-first; life > float64(elapsed) {
			t.Fatalf("cycle %d: evicted entry lived %.0f cycles, but the first SBB insert was %d cycles ago", f.Cycle(), life, elapsed)
		}
	}
	if e.Summary().SBBLifetime.Count == 0 {
		t.Fatal("no SBB eviction observed")
	}
}
