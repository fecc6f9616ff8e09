package main

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"math/rand"
	"os"
	"reflect"
	"testing"
	"time"

	"repro/internal/experiments"
	"repro/internal/sim"
)

// sweepOnce runs one sweep in canonical order and fails the test on
// any run error or output-check failure.
func sweepOnce(t *testing.T, d workloadDef, workers int, seed int64) []sim.Result {
	t.Helper()
	sw, err := runSweep(d, workers, d.order(rand.New(rand.NewSource(seed))))
	if err != nil {
		t.Fatal(err)
	}
	if sw.err != nil {
		t.Fatal(sw.err)
	}
	if bad := check(d, sw.results); len(bad) > 0 {
		t.Fatalf("output checks failed: %v", bad)
	}
	return sw.results
}

func mustDigest(t *testing.T, res []sim.Result) string {
	t.Helper()
	dg, err := digest(res)
	if err != nil {
		t.Fatal(err)
	}
	return dg
}

func mustSimulated(t *testing.T, d workloadDef, res []sim.Result) fidelity {
	t.Helper()
	f, err := simulated(d, res)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// TestWorkloadsDeterministic checks that each workload's digest and
// simulated metrics repeat exactly across runs, submission orders, and
// 1 versus 2 workers.
func TestWorkloadsDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload three times")
	}
	for _, d := range workloads {
		t.Run(d.name, func(t *testing.T) {
			a := sweepOnce(t, d, 2, 1)
			b := sweepOnce(t, d, 2, 2)
			c := sweepOnce(t, d, 1, 3)
			da := mustDigest(t, a)
			if db, dc := mustDigest(t, b), mustDigest(t, c); db != da || dc != da {
				t.Fatalf("digests differ: 2 workers %s and %s, 1 worker %s", da, db, dc)
			}
			fa := mustSimulated(t, d, a)
			for _, f := range []fidelity{mustSimulated(t, d, b), mustSimulated(t, d, c)} {
				if !reflect.DeepEqual(f, fa) {
					t.Fatalf("simulated metrics differ: %+v vs %+v", f, fa)
				}
			}
		})
	}
}

// TestGainsMatchFig14 checks that the gains the benchmark computes
// equal experiments.Fig14's table for the same options.
func TestGainsMatchFig14(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the suite-sampled sweep twice")
	}
	for _, name := range []string{"suite-sampled", "fig14-exact"} {
		t.Run(name, func(t *testing.T) {
			d, err := workloadByName(name)
			if err != nil {
				t.Fatal(err)
			}
			f := mustSimulated(t, d, sweepOnce(t, d, 2, 1))
			rep, err := experiments.Fig14(experiments.Options{
				Warmup: d.warmup, Measure: d.measure, Benchmarks: d.benches,
				Workers: 2, Sample: d.sample, Checkpoint: d.sample != nil,
			})
			if err != nil {
				t.Fatal(err)
			}
			if n := rep.Table.NumRows(); n != len(d.benches)+1 {
				t.Fatalf("fig14 table has %d rows, want %d", n, len(d.benches)+1)
			}
			for i := range d.benches {
				row := rep.Table.Row(i)
				for j, v := range []string{"head", "tail", "both"} {
					if got, want := f.gains[v][i], row[j+1].Value; got != want {
						t.Errorf("%s %s gain %v, fig14 %v", d.benches[i], v, got, want)
					}
				}
			}
			geo := rep.Table.Row(len(d.benches))
			for j, v := range []string{"head", "tail", "both"} {
				if got, want := f.geomean[v], geo[j+1].Value; got != want {
					t.Errorf("geomean %s %v, fig14 %v", v, got, want)
				}
			}
		})
	}
}

// tiny returns small versions of the three workload shapes for the
// fast tests.
func tiny() []workloadDef {
	return []workloadDef{
		{name: "tiny-exact", benches: []string{"voter"}, warmup: 20_000, measure: 60_000},
		{name: "tiny-sampled", benches: []string{"voter"}, warmup: 20_000, measure: 400_000,
			sample: &sim.SamplePlan{Intervals: 3, IntervalInsts: 5_000, WarmWindow: 50_000}},
		{name: "tiny-observed", benches: []string{"kafka"}, warmup: 20_000, measure: 60_000, observed: true},
	}
}

// TestCheckCatchesBrokenOutputs corrupts valid results one way at a
// time and expects the output check to flag each.
func TestCheckCatchesBrokenOutputs(t *testing.T) {
	d := tiny()[2]
	res := sweepOnce(t, d, 2, 1)
	for name, corrupt := range map[string]func(r *sim.Result){
		"failed run":   func(r *sim.Result) { *r = sim.Result{} },
		"conservation": func(r *sim.Result) { r.Sampling.Counters.AdvancedInstructions++ },
		"short window": func(r *sim.Result) {
			r.Sampling.Counters.MeasuredInstructions = 1
			r.Sampling.Counters.AdvancedInstructions = 1
		},
		"cause sum":      func(r *sim.Result) { r.Attribution.Causes[0].Count++ },
		"stall sum":      func(r *sim.Result) { r.Attribution.StallCycles++ },
		"forced resyncs": func(r *sim.Result) { r.FE.ForcedResyncs = 1 },
	} {
		r := res[0]
		samp := *r.Sampling
		att := *r.Attribution
		att.Causes = append(att.Causes[:0:0], att.Causes...)
		r.Sampling, r.Attribution = &samp, &att
		corrupt(&r)
		if checkSpec(d, d.specs()[0], r) == "" {
			t.Errorf("%s: check passed a corrupted result", name)
		}
	}
	if bad := check(d, res); len(bad) != 0 {
		t.Fatalf("corrupting copies changed the originals: %v", bad)
	}
}

// TestEndToEndReportsEveryMetric runs the end-to-end pass on the tiny
// workloads for a moment and expects every end-to-end metric, with the
// host ones positive, and no failed check over several rounds.
func TestEndToEndReportsEveryMetric(t *testing.T) {
	for _, d := range tiny() {
		t.Run(d.name, func(t *testing.T) {
			var stderr bytes.Buffer
			rep, err := endToEnd(d, 3*time.Second, rand.New(rand.NewSource(1)), io.Discard, &stderr)
			if err != nil {
				t.Fatal(err)
			}
			if !rep.Correct || rep.Failed != 0 {
				t.Fatalf("failed %d of %d checks:\n%s", rep.Failed, rep.Attempted, stderr.String())
			}
			if n := len(d.specs()); rep.Attempted <= n {
				t.Fatalf("%d runs of %d specs: no second round", rep.Attempted, n)
			}
			if len(rep.Metrics) != len(e2eMetrics) {
				t.Fatalf("%d metrics, want %d", len(rep.Metrics), len(e2eMetrics))
			}
			for _, name := range []string{"sim_mips", "setup_s", "peak_rss_mb"} {
				if v := rep.Metrics[name].Value; !(v > 0) || math.IsInf(v, 0) {
					t.Errorf("%s = %v", name, v)
				}
			}
		})
	}
}

// TestCalibratorAllocatesNothing checks that a calibration reading
// allocates nothing once warm, so the collector, and through it the
// simulator's heap, cannot slow it.
func TestCalibratorAllocatesNothing(t *testing.T) {
	c := newCalibrator()
	if n := testing.AllocsPerRun(5, func() { c.measure() }); n != 0 {
		t.Fatalf("a calibration reading allocates %v times", n)
	}
}

// TestTracedEmitsEveryLayer runs the traced pass on the tiny workloads
// and expects every per-layer metric, finite, with no failed check.
func TestTracedEmitsEveryLayer(t *testing.T) {
	for _, d := range tiny() {
		t.Run(d.name, func(t *testing.T) {
			var stderr bytes.Buffer
			rep, err := traced(d, 2, rand.New(rand.NewSource(1)), t.TempDir(), "t", io.Discard, &stderr)
			if err != nil {
				t.Fatal(err)
			}
			if !rep.Correct || rep.Failed != 0 {
				t.Fatalf("traced pass failed %d of %d checks:\n%s", rep.Failed, rep.Attempted, stderr.String())
			}
			if len(rep.Metrics) != len(layerMetrics) {
				t.Fatalf("%d metrics, want %d", len(rep.Metrics), len(layerMetrics))
			}
			for _, m := range layerMetrics {
				v := rep.Metrics[m.name].Value
				if math.IsNaN(v) || math.IsInf(v, 0) {
					t.Errorf("%s = %v", m.name, v)
				}
			}
		})
	}
}

// TestBenchmarkJSONMatches checks that BENCHMARK.json names exactly the
// workloads and metrics the program prints, with the same units and
// directions.
func TestBenchmarkJSONMatches(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []struct {
			Name, Unit, Better string
		} `json:"end_to_end"`
		PerLayer []struct {
			Name, Unit, Better string
		} `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	var want []string
	for _, d := range workloads {
		want = append(want, d.name)
	}
	if !reflect.DeepEqual(names, want) {
		t.Errorf("BENCHMARK.json workloads %v, program %v", names, want)
	}
	same := func(kind string, got []struct{ Name, Unit, Better string }, defs []metricDef) {
		if len(got) != len(defs) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, program %d", kind, len(got), len(defs))
			return
		}
		for i, m := range defs {
			if g := got[i]; g.Name != m.name || g.Unit != m.unit || g.Better != m.better {
				t.Errorf("%s %d: BENCHMARK.json %+v, program %+v", kind, i, g, m)
			}
		}
	}
	same("end_to_end", spec.EndToEnd, e2eMetrics)
	same("per_layer", spec.PerLayer, layerMetrics)
}
