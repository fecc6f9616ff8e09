package experiments

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the envelope goldens under testdata/")

// TestSectionsGolden pins a report envelope that carries every per-spec
// section — `intervals`, `attribution` and `sampling` (an exact echo) —
// byte for byte. Only the fields a run cannot reproduce are dropped:
// meta.sim (wall-clock timings), generated_at and git_describe.
// Regenerate with:
//
//	go test ./internal/experiments -run TestSectionsGolden -update
func TestSectionsGolden(t *testing.T) {
	rep, err := Fig14(Options{
		Warmup:     20_000,
		Measure:    100_000,
		Benchmarks: []string{"voter"},
		Interval:   30_000,
		Attrib:     true,
		SampleEcho: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Intervals) == 0 || len(rep.Attribution) == 0 || len(rep.Sampling) == 0 {
		t.Fatalf("sections missing: %d intervals, %d attribution, %d sampling",
			len(rep.Intervals), len(rep.Attribution), len(rep.Sampling))
	}
	rep.Meta.Sim, rep.Meta.GeneratedAt, rep.Meta.GitDescribe = nil, "", ""
	got, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	got = append(got, '\n')
	const path = "testdata/fig14.sections.golden.json"
	if *update {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s differs from the envelope this build writes (%d bytes, want %d); regenerate with -update only if the change is intended",
			path, len(got), len(want))
	}
}
