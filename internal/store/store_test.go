package store

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"repro/internal/experiments"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/workload"
)

// fakeReport builds a minimal valid report envelope whose numeric
// cells are under the test's control.
func fakeReport(t *testing.T, id string, speedup float64) (*experiments.Report, []byte) {
	t.Helper()
	tb := stats.NewTable("benchmark", "speedup").SetUnits("", stats.UnitSpeedup)
	tb.AddCells(stats.Str("voter"), stats.Num(speedup, "x"))
	tb.AddCells(stats.Str("kafka"), stats.Num(speedup+0.5, "x"))
	rep := &experiments.Report{
		ID:    id,
		Title: "test " + id,
		Table: tb,
		Meta: experiments.RunMeta{
			Benchmarks: []experiments.BenchmarkRef{
				{Name: "voter", Seed: 1}, {Name: "kafka", Seed: 2},
			},
			WarmupInstructions:  100_000,
			MeasureInstructions: 300_000,
			GeneratedAt:         "2026-08-07T00:00:00Z", // volatile: stripped by content hash
			GitDescribe:         "v0-test",
		},
	}
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	return rep, data
}

func stamp(sec int) PutMeta {
	return PutMeta{
		RecordedAt:  time.Date(2026, 8, 7, 12, 0, sec, 0, time.UTC),
		GitDescribe: "v0-test",
		Source:      "test",
	}
}

func TestPutDedupsIdenticalResults(t *testing.T) {
	a, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	rep, data := fakeReport(t, "fig14", 1.2)
	spec := SpecOfReport(rep)

	e1, added, err := a.PutReport(data, spec, stamp(0))
	if err != nil || !added {
		t.Fatalf("first put: added=%v err=%v", added, err)
	}

	// Same result, later wall clock, different volatile provenance:
	// must dedup to the same record.
	rep2 := *rep
	rep2.Meta.GeneratedAt = "2026-08-07T01:00:00Z"
	data2, _ := json.MarshalIndent(&rep2, "", "  ")
	e2, added, err := a.PutReport(data2, spec, stamp(30))
	if err != nil {
		t.Fatal(err)
	}
	if added {
		t.Error("identical result re-archived as a new record")
	}
	if e2.ID != e1.ID {
		t.Errorf("dedup returned a different record: %s vs %s", e2.ID, e1.ID)
	}
	if a.Len() != 1 {
		t.Errorf("archive has %d records, want 1", a.Len())
	}

	// A genuinely different result under the same spec is a new point
	// on the same trajectory.
	_, data3 := fakeReport(t, "fig14", 1.4)
	e3, added, err := a.PutReport(data3, spec, stamp(60))
	if err != nil || !added {
		t.Fatalf("changed result: added=%v err=%v", added, err)
	}
	if e3.SpecHash != e1.SpecHash {
		t.Error("same spec produced different spec hashes")
	}
	if e3.ContentHash == e1.ContentHash {
		t.Error("different results share a content hash")
	}
}

func TestLatestServesNewestPayloadByteIdentical(t *testing.T) {
	dir := t.TempDir()
	a, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	rep, data1 := fakeReport(t, "fig14", 1.2)
	spec := SpecOfReport(rep)
	if _, _, err := a.PutReport(data1, spec, stamp(0)); err != nil {
		t.Fatal(err)
	}
	_, data2 := fakeReport(t, "fig14", 1.4)
	if _, _, err := a.PutReport(data2, spec, stamp(60)); err != nil {
		t.Fatal(err)
	}

	// Reopen from disk: the index round-trips.
	b, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if b.Len() != 2 {
		t.Fatalf("reopened archive has %d records, want 2", b.Len())
	}
	rec, ok, err := b.Latest(spec.Hash())
	if err != nil || !ok {
		t.Fatalf("Latest: ok=%v err=%v", ok, err)
	}
	// The cache contract: the archived payload re-marshals to the
	// exact bytes the producer wrote (records store the compact form;
	// decode → indent restores the original).
	got, err := experiments.DecodeReport(rec.Payload)
	if err != nil {
		t.Fatal(err)
	}
	out, err := json.MarshalIndent(got, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out, data2) {
		t.Error("cache round-trip is not byte-identical to the newest archived report")
	}

	if _, ok, err := b.Latest("no-such-spec"); err != nil || ok {
		t.Errorf("Latest(miss): ok=%v err=%v, want miss", ok, err)
	}
}

func TestRecordFilesAreByteStable(t *testing.T) {
	dir := t.TempDir()
	a, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	rep, data := fakeReport(t, "fig14", 1.2)
	e, _, err := a.PutReport(data, SpecOfReport(rep), stamp(0))
	if err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(filepath.Join(dir, e.File))
	if err != nil {
		t.Fatal(err)
	}
	var rec Record
	if err := json.Unmarshal(raw, &rec); err != nil {
		t.Fatal(err)
	}
	out, err := json.Marshal(rec)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(append(out, '\n'), raw) {
		t.Error("record file does not re-marshal byte-identically")
	}
}

func TestPutRequiresStamp(t *testing.T) {
	a, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	rep, data := fakeReport(t, "fig14", 1.2)
	if _, _, err := a.PutReport(data, SpecOfReport(rep), PutMeta{}); err == nil {
		t.Error("Put accepted a zero RecordedAt")
	}
}

func TestSpecNormalization(t *testing.T) {
	// Default windows spelled out vs left zero hash identically.
	explicit := NewSpec("fig14", experiments.Options{
		Warmup: sim.DefaultWarmup, Measure: sim.DefaultMeasure,
	})
	implicit := NewSpec("fig14", experiments.Options{})
	if explicit.Hash() != implicit.Hash() {
		t.Error("default windows spelled out hash differently from defaults left implicit")
	}
	if implicit.WarmupInstructions != sim.DefaultWarmup {
		t.Errorf("warmup not resolved: %d", implicit.WarmupInstructions)
	}
	if len(implicit.Benchmarks) != len(workload.SuiteNames()) {
		t.Errorf("default suite not resolved: %d benchmarks", len(implicit.Benchmarks))
	}

	// Result-irrelevant knobs must not affect the hash.
	tuned := NewSpec("fig14", experiments.Options{Workers: 7, NoDecodeCache: true})
	if tuned.Hash() != implicit.Hash() {
		t.Error("workers/decode-cache knobs leaked into the spec hash")
	}

	// Different simulation-affecting knobs must change it.
	windows := NewSpec("fig14", experiments.Options{Warmup: 42})
	if windows.Hash() == implicit.Hash() {
		t.Error("warmup change did not change the spec hash")
	}
}

func TestSpecOfReportMatchesNewSpec(t *testing.T) {
	o := experiments.Options{
		Warmup: 100_000, Measure: 300_000,
		Benchmarks: []string{"voter", "kafka"},
	}
	rep, _ := fakeReport(t, "fig14", 1.2)
	// fakeReport stamps the same windows and benchmark refs a live run
	// would; seeds must match the registry for the hashes to agree.
	for i := range rep.Meta.Benchmarks {
		p, err := workload.ByName(rep.Meta.Benchmarks[i].Name)
		if err != nil {
			t.Fatal(err)
		}
		rep.Meta.Benchmarks[i].Seed = p.Seed
	}
	if got, want := SpecOfReport(rep).Hash(), NewSpec("fig14", o).Hash(); got != want {
		t.Errorf("SpecOfReport hash %s != NewSpec hash %s", got, want)
	}
}

func TestHistoryTrajectoriesAndRollups(t *testing.T) {
	a, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	rep, data1 := fakeReport(t, "fig14", 1.0)
	spec := SpecOfReport(rep)
	_, data2 := fakeReport(t, "fig14", 2.0)
	_, data3 := fakeReport(t, "fig14", 3.0)
	for i, d := range [][]byte{data1, data2, data3} {
		if _, _, err := a.PutReport(d, spec, stamp(i*30)); err != nil {
			t.Fatal(err)
		}
	}
	h, err := a.History("fig14")
	if err != nil {
		t.Fatal(err)
	}
	if len(h.Points) != 3 {
		t.Fatalf("history has %d points, want 3", len(h.Points))
	}
	for i := 1; i < len(h.Points); i++ {
		if h.Points[i-1].RecordedAt > h.Points[i].RecordedAt {
			t.Error("history points out of trajectory order")
		}
	}
	var ru *MetricRollup
	for i := range h.Rollups {
		if h.Rollups[i].Name == "voter/speedup" {
			ru = &h.Rollups[i]
		}
	}
	if ru == nil {
		t.Fatalf("no rollup for voter/speedup (have %v)", h.Rollups)
	}
	if ru.Count != 3 || ru.First != 1.0 || ru.Last != 3.0 || ru.Min != 1.0 || ru.Max != 3.0 {
		t.Errorf("rollup = %+v, want count 3, first 1, last 3, min 1, max 3", *ru)
	}
	if ru.Mean != 2.0 {
		t.Errorf("rollup mean = %v, want 2", ru.Mean)
	}
	if ru.Unit != stats.UnitSpeedup {
		t.Errorf("rollup unit = %q, want %q", ru.Unit, stats.UnitSpeedup)
	}

	// Determinism: assembling twice yields identical JSON.
	h2, err := a.History("fig14")
	if err != nil {
		t.Fatal(err)
	}
	j1, _ := json.Marshal(h)
	j2, _ := json.Marshal(h2)
	if !bytes.Equal(j1, j2) {
		t.Error("History is not deterministic across calls")
	}

	if got := a.Experiments(); !reflect.DeepEqual(got, []string{"fig14"}) {
		t.Errorf("Experiments() = %v", got)
	}

	series, err := a.Series("fig14")
	if err != nil {
		t.Fatal(err)
	}
	if len(series) != 1 || len(series[0].Records) != 3 {
		t.Fatalf("series shape wrong: %d series", len(series))
	}
	if series[0].Spec == nil || series[0].Spec.Experiment != "fig14" {
		t.Error("series lost its spec")
	}
}

func TestBenchHistory(t *testing.T) {
	a, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	env := map[string]any{
		"schema_version": 1,
		"generated_at":   "2026-08-07T00:00:00Z",
		"go_version":     "go1.x",
		"goos":           "linux", "goarch": "amd64", "num_cpu": 8,
		"entries": []map[string]any{
			{"name": "frontend-cycle", "iterations": 1000, "ns_per_op": 123.0,
				"allocs_per_op": 0, "bytes_per_op": 0},
		},
	}
	data, _ := json.Marshal(env)
	if _, added, err := a.PutBench(data, stamp(0)); err != nil || !added {
		t.Fatalf("PutBench: added=%v err=%v", added, err)
	}
	// Same measurements, new timestamp → dedup (content identical).
	env["generated_at"] = "2026-08-07T01:00:00Z"
	data2, _ := json.Marshal(env)
	if _, added, err := a.PutBench(data2, stamp(30)); err != nil || added {
		t.Fatalf("identical bench re-archived: added=%v err=%v", added, err)
	}
	pts, err := a.BenchHistory()
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 1 {
		t.Fatalf("bench history has %d points, want 1", len(pts))
	}
	if pts[0].Envelope.Entries[0].NsPerOp != 123.0 {
		t.Errorf("bench payload lost: %+v", pts[0].Envelope)
	}
}

// TestSpecSamplingNormalization pins the sampling half of the spec-
// hash contract: knobs that provably do not change results (shard
// count, warmup checkpointing) hash identically to their absence,
// equivalent plan spellings normalize to one hash, and the result-
// changing plan parameters — interval count, interval length, micro-
// warmup — each fork the trajectory. Exact and sampled runs of the
// same windows never share a hash, so the result cache cannot serve
// one for the other.
func TestSpecSamplingNormalization(t *testing.T) {
	exact := NewSpec("fig14", experiments.Options{})

	// Defaults spelled out vs left zero hash identically.
	implicit := NewSpec("fig14", experiments.Options{Sample: &sim.SamplePlan{}})
	spelled := NewSpec("fig14", experiments.Options{Sample: &sim.SamplePlan{
		Intervals:     sim.DefaultSampleIntervals,
		IntervalInsts: sim.DefaultMeasure / sim.DefaultSampleIntervals / 10,
		MicroWarmup:   sim.DefaultMeasure / sim.DefaultSampleIntervals / 20,
	}})
	if implicit.Hash() != spelled.Hash() {
		t.Error("default sample plan spelled out hashes differently from defaults left implicit")
	}

	// Sampled never collides with exact.
	if implicit.Hash() == exact.Hash() {
		t.Error("sampled and exact runs share a spec hash")
	}

	// Shards and checkpointing are result-invariant: same hash.
	sharded := NewSpec("fig14", experiments.Options{
		Sample: &sim.SamplePlan{Shards: 16}, Checkpoint: true, Workers: 3,
	})
	if sharded.Hash() != implicit.Hash() {
		t.Error("shards/checkpoint/workers leaked into the spec hash")
	}

	// Each result-changing plan parameter forks the hash.
	for name, p := range map[string]sim.SamplePlan{
		"intervals":    {Intervals: 7},
		"interval":     {IntervalInsts: 12_345},
		"micro-warmup": {MicroWarmup: 23_456},
	} {
		forked := NewSpec("fig14", experiments.Options{Sample: &sim.SamplePlan{
			Intervals:     p.Intervals,
			IntervalInsts: p.IntervalInsts,
			MicroWarmup:   p.MicroWarmup,
		}})
		if forked.Hash() == implicit.Hash() {
			t.Errorf("%s change did not change the spec hash", name)
		}
	}

	// SampleEcho changes the report's content, so it keys like Attrib —
	// but only on exact runs (sampled runs always carry the section).
	echo := NewSpec("fig14", experiments.Options{SampleEcho: true})
	if echo.Hash() == exact.Hash() {
		t.Error("sample-echo did not change the exact-run spec hash")
	}
	echoSampled := NewSpec("fig14", experiments.Options{SampleEcho: true, Sample: &sim.SamplePlan{}})
	if echoSampled.Hash() != implicit.Hash() {
		t.Error("sample-echo leaked into a sampled run's spec hash")
	}
}

// TestSpecOfReportRecoversSampling checks a sampled report's envelope
// hashes back to the producing spec, and an echoing exact report
// recovers its SampleEcho bit from the Exact sampling row.
func TestSpecOfReportRecoversSampling(t *testing.T) {
	o := experiments.Options{
		Warmup: 100_000, Measure: 300_000,
		Benchmarks: []string{"voter", "kafka"},
		Sample:     &sim.SamplePlan{Intervals: 4, Shards: 8},
	}
	rep, _ := fakeReport(t, "fig14", 1.2)
	for i := range rep.Meta.Benchmarks {
		p, err := workload.ByName(rep.Meta.Benchmarks[i].Name)
		if err != nil {
			t.Fatal(err)
		}
		rep.Meta.Benchmarks[i].Seed = p.Seed
	}
	pl := o.Sample.Normalized(o.Measure)
	rep.Meta.SampleIntervals = pl.Intervals
	rep.Meta.SampleIntervalInstructions = pl.IntervalInsts
	rep.Meta.SampleMicroWarmupInstructions = pl.MicroWarmup
	rep.Meta.SampleShards = pl.Shards
	if got, want := SpecOfReport(rep).Hash(), NewSpec("fig14", o).Hash(); got != want {
		t.Errorf("sampled SpecOfReport hash %s != NewSpec hash %s", got, want)
	}

	echoRep, _ := fakeReport(t, "fig14", 1.2)
	for i := range echoRep.Meta.Benchmarks {
		p, err := workload.ByName(echoRep.Meta.Benchmarks[i].Name)
		if err != nil {
			t.Fatal(err)
		}
		echoRep.Meta.Benchmarks[i].Seed = p.Seed
	}
	echoRep.Sampling = []sim.SpecSampling{{
		Benchmark: "voter",
		Summary:   sim.SampleSummary{Exact: true},
	}}
	oEcho := experiments.Options{
		Warmup: 100_000, Measure: 300_000,
		Benchmarks: []string{"voter", "kafka"},
		SampleEcho: true,
	}
	if got, want := SpecOfReport(echoRep).Hash(), NewSpec("fig14", oEcho).Hash(); got != want {
		t.Errorf("echo SpecOfReport hash %s != NewSpec hash %s", got, want)
	}
}
