package tage

import (
	"math/rand"
	"testing"
)

func smallConfig() Config {
	return Config{
		NumTables: 6,
		LogBase:   12,
		LogTagged: 9,
		TagBits:   9,
		MinHist:   4,
		MaxHist:   64,
		UseLoop:   true,
		UseSC:     true,
	}
}

// train runs the predictor over a synthetic branch stream and returns
// the mispredict rate over the last `measure` predictions.
func train(p *Predictor, pcs []uint64, outcome func(pc uint64, visit uint64) bool, total, measure int) float64 {
	visits := map[uint64]uint64{}
	misses := 0
	for i := 0; i < total; i++ {
		pc := pcs[i%len(pcs)]
		taken := outcome(pc, visits[pc])
		visits[pc]++
		pred := p.Predict(pc)
		p.SpecPush(pred.Taken, pc)
		if i >= total-measure && pred.Taken != taken {
			misses++
		}
		p.Update(pc, pred, taken)
		p.ArchPush(taken, pc)
		if pred.Taken != taken {
			p.SyncSpec()
		}
	}
	return float64(misses) / float64(measure)
}

func TestLearnsAlwaysTaken(t *testing.T) {
	p := New(smallConfig())
	rate := train(p, []uint64{0x400}, func(uint64, uint64) bool { return true }, 2000, 1000)
	if rate > 0.01 {
		t.Errorf("always-taken mispredict rate %.3f", rate)
	}
}

func TestLearnsAlternating(t *testing.T) {
	p := New(smallConfig())
	rate := train(p, []uint64{0x400}, func(_ uint64, v uint64) bool { return v%2 == 0 }, 4000, 1000)
	if rate > 0.02 {
		t.Errorf("alternating mispredict rate %.3f", rate)
	}
}

func TestLearnsShortLoop(t *testing.T) {
	p := New(smallConfig())
	// Loop with trip 5: taken 4, not-taken 1, repeat.
	rate := train(p, []uint64{0x1234}, func(_ uint64, v uint64) bool { return v%5 != 4 }, 8000, 2000)
	if rate > 0.03 {
		t.Errorf("trip-5 loop mispredict rate %.3f", rate)
	}
}

func TestLoopPredictorLearnsLongLoop(t *testing.T) {
	// Trip 40 exceeds plain TAGE history capture for a single branch;
	// the loop predictor should nail it.
	p := New(smallConfig())
	rate := train(p, []uint64{0x88}, func(_ uint64, v uint64) bool { return v%40 != 39 }, 40*400, 40*100)
	if rate > 0.05 {
		t.Errorf("trip-40 loop mispredict rate %.3f", rate)
	}
}

func TestRandomBranchNearChance(t *testing.T) {
	p := New(smallConfig())
	rng := rand.New(rand.NewSource(5))
	misses := 0
	const n = 20000
	for i := 0; i < n; i++ {
		taken := rng.Intn(2) == 0
		pred := p.Predict(0x999)
		p.SpecPush(pred.Taken, 0x999)
		if pred.Taken != taken {
			misses++
		}
		p.Update(0x999, pred, taken)
		p.ArchPush(taken, 0x999)
		if pred.Taken != taken {
			p.SyncSpec()
		}
	}
	rate := float64(misses) / n
	if rate < 0.35 || rate > 0.65 {
		t.Errorf("random branch mispredict rate %.3f, want ~0.5", rate)
	}
}

func TestManyBranchesHistoryCorrelated(t *testing.T) {
	// A branch whose outcome equals the outcome of the previous branch
	// in the stream: pure history correlation, bimodal alone cannot get
	// this but TAGE should.
	p := New(smallConfig())
	pcs := []uint64{0x100, 0x200, 0x300, 0x400}
	last := false
	misses, measured := 0, 0
	rng := rand.New(rand.NewSource(9))
	const n = 60000
	for i := 0; i < n; i++ {
		pc := pcs[i%len(pcs)]
		var taken bool
		if pc == 0x100 {
			taken = rng.Intn(2) == 0 // driver: random
		} else {
			taken = last // followers copy the driver
		}
		pred := p.Predict(pc)
		p.SpecPush(pred.Taken, pc)
		if pc != 0x100 && i > n/2 {
			measured++
			if pred.Taken != taken {
				misses++
			}
		}
		p.Update(pc, pred, taken)
		p.ArchPush(taken, pc)
		if pred.Taken != taken {
			p.SyncSpec()
		}
		if pc == 0x100 {
			last = taken
		}
	}
	rate := float64(misses) / float64(measured)
	if rate > 0.10 {
		t.Errorf("history-correlated mispredict rate %.3f", rate)
	}
}

func TestPredictIsPure(t *testing.T) {
	p := New(smallConfig())
	// Prime with some updates.
	for i := 0; i < 100; i++ {
		pred := p.Predict(0x10)
		p.SpecPush(pred.Taken, 0x10)
		p.Update(0x10, pred, i%3 != 0)
		p.ArchPush(i%3 != 0, 0x10)
		if pred.Taken != (i%3 != 0) {
			p.SyncSpec()
		}
	}
	a := p.Predict(0x20)
	for i := 0; i < 50; i++ {
		p.Predict(uint64(0x1000 + i*8)) // wrong-path probes
	}
	b := p.Predict(0x20)
	if a != b {
		t.Error("Predict mutated predictor state")
	}
}

func TestStats(t *testing.T) {
	p := New(smallConfig())
	for i := 0; i < 10; i++ {
		pred := p.Predict(4)
		p.Update(4, pred, true)
	}
	s := p.Stats()
	if s.Predicts != 10 {
		t.Errorf("predicts = %d", s.Predicts)
	}
	p.ResetStats()
	if p.Stats().Predicts != 0 {
		t.Error("stats not reset")
	}
}

func TestStorageBits(t *testing.T) {
	bits := DefaultConfig().StorageBits()
	kb := float64(bits) / 8 / 1024
	// Should be in the tens of KB, the paper's 64KB class.
	if kb < 16 || kb > 96 {
		t.Errorf("default TAGE storage %.1f KB implausible", kb)
	}
}

// directFold is the folded register's defining value: the XOR over
// ages i < origLen of history bit i (0 = newest) shifted to position
// i mod compLen. window holds the pushed bits, oldest first; bits
// before the first push are zero.
func directFold(window []uint64, origLen, compLen int) uint64 {
	var r uint64
	for i := 0; i < origLen && i < len(window); i++ {
		r ^= window[len(window)-1-i] << (i % compLen)
	}
	return r
}

// TestFoldedHistoryEquivalence checks, after every push, that each
// folded register equals the direct fold of its history window: for
// standalone registers covering origLen < compLen, origLen a multiple
// of compLen, and the general case, and for every register of
// predictors built with the TAGE and the ITTAGE default geometries, one
// whose index fold shares the second tag fold's width, and one with no
// widths in common. Registers with equal (histLen, compLen) are shared,
// so the default geometry keeps two per table instead of three.
func TestFoldedHistoryEquivalence(t *testing.T) {
	it := DefaultConfig()
	it.NumTables, it.LogTagged, it.TagBits, it.MinHist, it.MaxHist = 6, 9, 11, 4, 120
	tag2 := DefaultConfig()
	tag2.LogTagged, tag2.TagBits = 10, 11
	unshared := DefaultConfig()
	unshared.NumTables, unshared.LogTagged, unshared.TagBits, unshared.MinHist, unshared.MaxHist = 12, 13, 7, 3, 200
	preds := map[string]*Predictor{
		"tage-default": New(DefaultConfig()), "ittage-default": New(it),
		"index-shares-tag2": New(tag2), "unshared": New(unshared),
	}
	if n, want := len(preds["tage-default"].geom), 2*DefaultConfig().NumTables; n != want {
		t.Errorf("default geometry keeps %d folded registers, want %d (index and tag folds shared)", n, want)
	}
	if n, want := len(preds["unshared"].geom), 3*unshared.NumTables; n != want {
		t.Errorf("unshared geometry keeps %d folded registers, want %d", n, want)
	}
	pairs := [][2]int{{5, 11}, {22, 11}, {33, 11}, {23, 7}, {1, 1}, {64, 9}, {65, 9}, {160, 11}}
	var standalone Predictor
	regs := make([]uint8, len(pairs))
	for i, pr := range pairs {
		regs[i] = standalone.fold(pr[0], pr[1])
	}
	h := histState{ghist: make([]uint64, 3), folds: make([]uint32, len(standalone.geom))}
	rng := rand.New(rand.NewSource(11))
	var window []uint64
	for step := 0; step < 2000; step++ {
		b := uint64(rng.Intn(2))
		window = append(window, b)
		h.push(b, 0, standalone.geom)
		for i, pr := range pairs {
			if got, want := h.folds[regs[i]], directFold(window, pr[0], pr[1]); uint64(got) != want {
				t.Fatalf("step %d, origLen %d compLen %d: register %#x, direct fold %#x", step, pr[0], pr[1], got, want)
			}
		}
		for name, p := range preds {
			p.SpecPush(b == 1, uint64(step)*4)
			for ti, tb := range p.tables {
				widths := [3]int{p.cfg.LogTagged, p.cfg.TagBits, p.cfg.TagBits - 1}
				for k, r := range [3]uint8{tb.idx, tb.tag, tb.tag2} {
					if got, want := p.spec.folds[r], directFold(window, tb.histLen, widths[k]); uint64(got) != want {
						t.Fatalf("%s step %d, table %d fold %d (register %d, origLen %d compLen %d): register %#x, direct fold %#x",
							name, step, ti, k, r, tb.histLen, widths[k], got, want)
					}
				}
			}
		}
	}
}

// ageBit returns the history bit of age k (0 = newest) in h.
func ageBit(h *histState, k int) uint64 { return h.ghist[k/64] >> (k % 64) & 1 }

// TestShiftRegisterHistory checks that the history shift register holds
// the k-th newest push at age k for every k < MaxHist (zero before the
// first push reaches it), in the speculative and the architectural
// state, after SyncSpec copies one over the other, and in a clone and
// its original pushed apart.
func TestShiftRegisterHistory(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MaxHist = 130 // three words, the last partly used
	p := New(cfg)
	check := func(when string, h *histState, window []uint64) {
		t.Helper()
		for k := 0; k < cfg.MaxHist; k++ {
			var want uint64
			if k < len(window) {
				want = window[len(window)-1-k]
			}
			if got := ageBit(h, k); got != want {
				t.Fatalf("%s, %d pushes: bit of age %d = %d, want %d", when, len(window), k, got, want)
			}
		}
	}
	rng := rand.New(rand.NewSource(3))
	var spec, arch []uint64
	push := func(p *Predictor, spec, arch *[]uint64) {
		s, a := rng.Intn(2) == 1, rng.Intn(2) == 1
		p.SpecPush(s, 0)
		p.ArchPush(a, 0)
		*spec, *arch = append(*spec, b2u(s)), append(*arch, b2u(a))
	}
	for i := 0; i < 300; i++ {
		push(p, &spec, &arch)
		check("spec", &p.spec, spec)
		check("arch", &p.arch, arch)
		if i%97 == 50 {
			p.SyncSpec()
			spec = append([]uint64(nil), arch...)
			check("spec after SyncSpec", &p.spec, spec)
		}
	}
	c := p.Clone()
	cspec, carch := append([]uint64(nil), spec...), append([]uint64(nil), arch...)
	for i := 0; i < 200; i++ {
		push(c, &cspec, &carch)
		push(p, &spec, &arch)
		check("clone spec", &c.spec, cspec)
		check("clone arch", &c.arch, carch)
		check("original spec after Clone", &p.spec, spec)
		check("original arch after Clone", &p.arch, arch)
	}
}

func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

func TestSaturatingCounters(t *testing.T) {
	c := int8(0)
	for i := 0; i < 10; i++ {
		c = satUpdate3(c, true)
	}
	if c != 3 {
		t.Errorf("sat3 up = %d", c)
	}
	for i := 0; i < 20; i++ {
		c = satUpdate3(c, false)
	}
	if c != -4 {
		t.Errorf("sat3 down = %d", c)
	}
	b := int8(0)
	for i := 0; i < 10; i++ {
		b = satUpdate2(b, true)
	}
	if b != 1 {
		t.Errorf("sat2 up = %d", b)
	}
	for i := 0; i < 10; i++ {
		b = satUpdate2(b, false)
	}
	if b != -2 {
		t.Errorf("sat2 down = %d", b)
	}
	s := int8(0)
	for i := 0; i < 100; i++ {
		s = satUpdate(s, true, 63)
	}
	if s != 63 {
		t.Errorf("sat bound = %d", s)
	}
}

func TestGeometricHistoryLengths(t *testing.T) {
	p := New(DefaultConfig())
	prev := 0
	for i, tb := range p.tables {
		if tb.histLen <= prev {
			t.Errorf("table %d history %d not increasing (prev %d)", i, tb.histLen, prev)
		}
		prev = tb.histLen
	}
	if p.tables[0].histLen != DefaultConfig().MinHist {
		t.Errorf("first table history %d != MinHist", p.tables[0].histLen)
	}
	last := p.tables[len(p.tables)-1].histLen
	if last != DefaultConfig().MaxHist {
		t.Errorf("last table history %d != MaxHist", last)
	}
}

func BenchmarkPredictUpdate(b *testing.B) {
	p := New(DefaultConfig())
	rng := rand.New(rand.NewSource(2))
	pcs := make([]uint64, 256)
	for i := range pcs {
		pcs[i] = uint64(rng.Intn(1 << 20))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pc := pcs[i%len(pcs)]
		pred := p.Predict(pc)
		p.SpecPush(pred.Taken, pc)
		p.Update(pc, pred, i%3 != 0)
		p.ArchPush(i%3 != 0, pc)
		if pred.Taken != (i%3 != 0) {
			p.SyncSpec()
		}
	}
}

// TestStatsConservation trains on an unpredictable stream and checks
// the counter identities that make the stats exportable: mispredicts
// never exceed predicts, overrides never exceed predicts, and a
// misprediction-heavy stream allocates tagged entries.
func TestStatsConservation(t *testing.T) {
	p := New(smallConfig())
	rng := rand.New(rand.NewSource(7))
	const n = 2000
	for i := 0; i < n; i++ {
		pc := uint64(0x40 + (i%13)*4)
		pred := p.Predict(pc)
		taken := rng.Intn(2) == 1
		p.Update(pc, pred, taken)
		p.ArchPush(taken, pc)
		p.SyncSpec()
	}
	s := p.Stats()
	if s.Predicts != n {
		t.Fatalf("predicts = %d, want %d", s.Predicts, n)
	}
	if s.Mispredicts > s.Predicts {
		t.Errorf("mispredicts %d exceed predicts %d", s.Mispredicts, s.Predicts)
	}
	if s.LoopOverrides+s.SCOverrides > s.Predicts {
		t.Errorf("overrides %d+%d exceed predicts %d", s.LoopOverrides, s.SCOverrides, s.Predicts)
	}
	if s.Allocations == 0 {
		t.Error("random-direction training allocated no tagged entries")
	}
}
