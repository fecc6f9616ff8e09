package sim

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/attrib"
	"repro/internal/cpu"
	"repro/internal/metrics"
)

var update = flag.Bool("update", false, "rewrite the observer goldens under testdata/")

// TestObserverOutputGolden runs a short voter window under Skia with
// both front-end observers attached — the ring tracer and the
// attribution engine — and pins their exports byte-for-byte. The
// 64-entry U-SBB and R-SBB force capacity evictions, and the window is
// long enough for every miss cause to occur. Regenerate with:
//
//	go test ./internal/sim -run TestObserverOutputGolden -update
func TestObserverOutputGolden(t *testing.T) {
	cfg := cpu.SkiaConfig()
	cfg.Frontend.SBB.UEntries = 64
	cfg.Frontend.SBB.REntries = 64
	w, err := NewRunner().Workload("voter")
	if err != nil {
		t.Fatal(err)
	}
	c, err := cpu.New(cfg, w)
	if err != nil {
		t.Fatal(err)
	}
	// Both observers watch from the first cycle, so the trace holds
	// every SBB insert and eviction of the run.
	tr := metrics.NewRingTracer(1 << 14)
	eng := attrib.NewEngine()
	c.SetTracer(tr)
	c.AttachAttribution(eng)
	c.Run(4_000)
	if err := c.Frontend().Err(); err != nil {
		t.Fatal(err)
	}
	if tr.Dropped() != 0 {
		t.Fatalf("ring dropped %d events; the golden must hold the whole window", tr.Dropped())
	}
	// Every eviction names a branch an earlier shadow decode inserted
	// into the same buffer.
	inserted := map[metrics.EventKind]map[uint64]bool{
		metrics.EvSBBEvictU: {}, metrics.EvSBBEvictR: {},
	}
	var evictions int
	for _, ev := range tr.Events() {
		switch ev.Kind {
		case metrics.EvSBDInsertU:
			inserted[metrics.EvSBBEvictU][ev.PC] = true
		case metrics.EvSBDInsertR:
			inserted[metrics.EvSBBEvictR][ev.PC] = true
		case metrics.EvSBBEvictU, metrics.EvSBBEvictR:
			evictions++
			if !inserted[ev.Kind][ev.PC] {
				t.Errorf("cycle %d: %s of %#x, which was never inserted into that SBB", ev.Cycle, ev.Kind, ev.PC)
			}
		}
	}
	if evictions == 0 {
		t.Fatal("no SBB eviction in the window")
	}
	var trace, nd bytes.Buffer
	if err := tr.WriteChromeTrace(&trace); err != nil {
		t.Fatal(err)
	}
	if err := attrib.WriteNDJSON(&nd, "voter", "skia-sbb64", eng.Summary()); err != nil {
		t.Fatal(err)
	}
	for _, g := range []struct {
		file string
		got  []byte
	}{
		{"observers.trace.json", trace.Bytes()},
		{"observers.attrib.ndjson", nd.Bytes()},
	} {
		path := filepath.Join("testdata", g.file)
		if *update {
			if err := os.MkdirAll("testdata", 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, g.got, 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(g.got, want) {
			t.Errorf("%s differs from the golden (%d bytes, want %d); regenerate with -update only if the change is intended", path, len(g.got), len(want))
		}
	}
}
