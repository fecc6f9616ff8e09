package cpu

import (
	"encoding/json"
	"reflect"
	"testing"

	"repro/internal/workload"
)

// cloneConfigs enumerates the structurally distinct front-end shapes a
// checkpoint must capture: baseline (no SBB/SBD), full Skia (SBB + SBD
// + decode cache), Skia without the decode cache,
// the SBD-into-BTB ablation (no SBB), and a BTB large enough to
// trigger the access-latency config adjustment New applies.
func cloneConfigs() map[string]Config {
	skia := SkiaConfig()
	noCache := SkiaConfig()
	noCache.Frontend.NoDecodeCache = true
	toBTB := SkiaConfig()
	toBTB.Frontend.SBDToBTB = true
	bigBTB := SkiaConfig()
	bigBTB.Frontend.BTB.Entries = 65536
	return map[string]Config{
		"baseline":     DefaultConfig(),
		"skia":         skia,
		"skia-nocache": noCache,
		"sbd-to-btb":   toBTB,
		"big-btb":      bigBTB,
	}
}

func cloneWorkload(t *testing.T, name string) *workload.Workload {
	t.Helper()
	prof, err := workload.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	w, err := workload.Generate(prof)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// compareCores fails the test if the two cores' observable states
// diverge: the full result snapshot (which covers every component's
// statistics — front-end, L1I, L2, BTB, TAGE, ITTAGE, SBB, SBD), the
// interval sample, the decode-cache counters, and the probe-candidate
// footprint. The comparison is byte-level on the marshaled result, the
// strongest equality the ISSUE's "byte-identical" criterion asks for.
func compareCores(t *testing.T, label string, a, b *Core) {
	t.Helper()
	ra, rb := a.Result("w"), b.Result("w")
	ja, err := json.Marshal(ra)
	if err != nil {
		t.Fatal(err)
	}
	jb, err := json.Marshal(rb)
	if err != nil {
		t.Fatal(err)
	}
	if string(ja) != string(jb) {
		t.Errorf("%s: results not byte-identical:\n  a: %s\n  b: %s", label, ja, jb)
	}
	if !reflect.DeepEqual(a.Sample(), b.Sample()) {
		t.Errorf("%s: interval samples differ: %+v vs %+v", label, a.Sample(), b.Sample())
	}
	da, db := a.Frontend().DecodeCache(), b.Frontend().DecodeCache()
	if (da == nil) != (db == nil) {
		t.Fatalf("%s: decode cache presence differs", label)
	}
	if da != nil && da.Stats() != db.Stats() {
		t.Errorf("%s: decode cache stats differ: %+v vs %+v", label, da.Stats(), db.Stats())
	}
	if a.Frontend().ExtraOffLines() != b.Frontend().ExtraOffLines() {
		t.Errorf("%s: probe-candidate footprints differ: %d vs %d",
			label, a.Frontend().ExtraOffLines(), b.Frontend().ExtraOffLines())
	}
}

// TestSnapshotRestoreRunIdentical is the checkpointing determinism
// contract: Snapshot (Clone) → continue the original → continue the
// restored copy must be indistinguishable from the uninterrupted run,
// for every front-end shape. Each clone is taken mid-run, both cores
// then advance the same distance, and every component statistic must
// stay byte-identical.
func TestSnapshotRestoreRunIdentical(t *testing.T) {
	w := cloneWorkload(t, "voter")
	for name, cfg := range cloneConfigs() {
		t.Run(name, func(t *testing.T) {
			orig, err := New(cfg, w)
			if err != nil {
				t.Fatal(err)
			}
			orig.Run(120_000)
			snap := orig.Clone()
			compareCores(t, "at snapshot", orig, snap)

			orig.Run(120_000)
			snap.Run(120_000)
			compareCores(t, "after continue", orig, snap)
		})
	}
}

// TestCloneIndependence checks a clone and its original never alias
// state: running one must not move the other.
func TestCloneIndependence(t *testing.T) {
	w := cloneWorkload(t, "voter")
	c, err := New(SkiaConfig(), w)
	if err != nil {
		t.Fatal(err)
	}
	c.Run(80_000)
	before := c.Sample()
	cl := c.Clone()
	cl.Run(200_000)
	if got := c.Sample(); !reflect.DeepEqual(before, got) {
		t.Fatalf("running a clone mutated the original: %+v -> %+v", before, got)
	}
	// And the other direction: running the original leaves the clone's
	// position where the snapshot put it.
	mid := cl.Sample()
	c.Run(200_000)
	if got := cl.Sample(); !reflect.DeepEqual(mid, got) {
		t.Fatalf("running the original mutated the clone: %+v -> %+v", mid, got)
	}
}

// TestCloneRandomizedSnapshotPoints is the property test over snapshot
// positions: clone at pseudo-random points along a run (deterministic
// LCG, so the test itself is reproducible) and verify each clone,
// advanced to a common horizon, matches the uninterrupted reference
// exactly.
func TestCloneRandomizedSnapshotPoints(t *testing.T) {
	w := cloneWorkload(t, "voter")
	const horizon = 400_000

	for _, cfgName := range []string{"skia"} {
		cfg := cloneConfigs()[cfgName]
		t.Run(cfgName, func(t *testing.T) {
			ref, err := New(cfg, w)
			if err != nil {
				t.Fatal(err)
			}
			ref.Run(horizon)
			want := ref.Result("w")

			c, err := New(cfg, w)
			if err != nil {
				t.Fatal(err)
			}
			seed := uint64(0x9E3779B97F4A7C15)
			var pos uint64
			for i := 0; i < 6; i++ {
				seed = seed*6364136223846793005 + 1442695040888963407
				step := 10_000 + seed%90_000
				if pos+step > horizon {
					break
				}
				c.Run(step)
				pos = c.Retired()
				cl := c.Clone()
				cl.Run(horizon - pos)
				if got := cl.Result("w"); !reflect.DeepEqual(want, got) {
					t.Errorf("clone at %d instructions diverged from the uninterrupted run:\n  want %+v\n  got  %+v", pos, want, got)
				}
				if dc := cl.Frontend().DecodeCache(); dc != nil && dc.Stats() != ref.Frontend().DecodeCache().Stats() {
					t.Errorf("clone at %d instructions: decode cache counters diverged: %+v vs %+v",
						pos, dc.Stats(), ref.Frontend().DecodeCache().Stats())
				}
			}
		})
	}
}

// TestFastForwardResyncsToTruePath checks the functional-skip
// primitive: after FastForward the core must be positioned on the true
// path and able to continue simulating without forced resyncs or
// emulator errors.
func TestFastForwardResyncsToTruePath(t *testing.T) {
	w := cloneWorkload(t, "voter")
	c, err := New(SkiaConfig(), w)
	if err != nil {
		t.Fatal(err)
	}
	c.Run(50_000)
	skipped := c.FastForward(200_000)
	if skipped != 200_000 {
		t.Fatalf("FastForward skipped %d, want 200000", skipped)
	}
	c.ResetStats()
	if ran := c.Run(100_000); ran == 0 {
		t.Fatal("core would not run after FastForward")
	}
	if err := c.Frontend().Err(); err != nil {
		t.Fatal(err)
	}
	if fr := c.Result("w").FE.ForcedResyncs; fr != 0 {
		t.Fatalf("%d forced resyncs after FastForward", fr)
	}
}

// TestFastForwardMatchesDetailPosition checks FastForward lands on the
// same architectural point detail simulation reaches: a fast-forwarded
// core and a detail-run core, resynchronized at the same instruction
// position, must produce identical measurement windows... except that
// microarchitectural (cache/predictor) state legitimately differs.
// What must agree exactly is the functional position: PC-by-PC the two
// continue on the same true path, which this test asserts by checking
// the emulator cannot diverge (no errors, no forced resyncs) and both
// cores retire the full window.
func TestFastForwardMatchesDetailPosition(t *testing.T) {
	w := cloneWorkload(t, "noop")
	a, err := New(DefaultConfig(), w)
	if err != nil {
		t.Fatal(err)
	}
	b := a.Clone()
	a.Run(100_000) // detail
	b.FastForward(100_000)
	// Both cores continue; neither may error or force-resync.
	a.ResetStats()
	b.ResetStats()
	a.Run(50_000)
	b.Run(50_000)
	for name, c := range map[string]*Core{"detail": a, "fast-forward": b} {
		if err := c.Frontend().Err(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if fr := c.Result("w").FE.ForcedResyncs; fr != 0 {
			t.Fatalf("%s: %d forced resyncs", name, fr)
		}
	}
}
