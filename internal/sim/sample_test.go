package sim

import (
	"encoding/json"
	"flag"
	"io"
	"math"
	"reflect"
	"strings"
	"testing"

	"repro/internal/cpu"
	"repro/internal/metrics"
)

// sampleSpec is the shared window for sampling tests: large enough for
// the workloads to leave transients, small enough to keep the suite
// fast.
func sampleSpec(bench string, skia bool) RunSpec {
	cfg := cpu.DefaultConfig()
	label := "base"
	if skia {
		cfg = cpu.SkiaConfig()
		label = "skia"
	}
	return RunSpec{
		Benchmark: bench,
		Config:    cfg,
		Warmup:    100_000,
		Measure:   1_000_000,
		Label:     bench + "/" + label,
	}
}

// TestSampledWithinCIOfExact is the headline accuracy contract: for
// every registered metric, the sampled point estimate must land within
// its own stated 95% confidence interval (plus a small tolerance floor
// for zero-variance metrics) of the exact value. This is the same gate
// skiacmp -sample-ci applies between report files in CI.
func TestSampledWithinCIOfExact(t *testing.T) {
	for _, bench := range []string{"voter", "noop"} {
		for _, skia := range []bool{false, true} {
			spec := sampleSpec(bench, skia)
			t.Run(spec.Label, func(t *testing.T) {
				r := NewRunner()
				exact, err := r.Run(spec)
				if err != nil {
					t.Fatal(err)
				}

				r.Sample = &SamplePlan{Intervals: 10}
				sampled, err := r.Run(spec)
				if err != nil {
					t.Fatal(err)
				}
				if sampled.Sampling == nil {
					t.Fatal("sampled run published no sampling summary")
				}

				exactVals := map[string]float64{}
				for _, m := range exactEcho(&exact.Result, 0).Metrics {
					exactVals[m.Name] = m.Mean
				}
				for _, m := range sampled.Sampling.Metrics {
					want := exactVals[m.Name]
					tol := m.CI + 0.01 + 0.05*math.Abs(want)
					if d := math.Abs(m.Mean - want); d > tol {
						t.Errorf("%s: sampled %.6g vs exact %.6g: |Δ|=%.6g exceeds CI+tol %.6g",
							m.Name, m.Mean, want, d, tol)
					}
				}
			})
		}
	}
}

// TestSampledShardCountInvariant: the same plan run serially and across
// shards must produce DeepEqual results — the whole Result, including
// the sampling summary, spliced intervals, and every counter. This is
// the sharding determinism contract the CI sampling job gates.
func TestSampledShardCountInvariant(t *testing.T) {
	spec := sampleSpec("voter", true)
	var results []Result
	for _, shards := range []int{1, 4, 16} {
		r := NewRunner()
		r.Interval = 50_000
		r.Sample = &SamplePlan{Intervals: 8, Shards: shards}
		res, err := r.Run(spec)
		if err != nil {
			t.Fatal(err)
		}
		results = append(results, res)
	}
	for i := 1; i < len(results); i++ {
		if !reflect.DeepEqual(results[0], results[i]) {
			t.Errorf("sharded run %d differs from serial run:\n  serial:  %+v\n  sharded: %+v",
				i, results[0], results[i])
		}
	}
}

// TestSampledRepeatable: two identical sampled runs are DeepEqual.
func TestSampledRepeatable(t *testing.T) {
	spec := sampleSpec("voter", true)
	run := func() (Result, error) {
		r := NewRunner()
		r.Sample = &SamplePlan{Intervals: 6, Shards: 3}
		return r.Run(spec)
	}
	a, err := run()
	if err != nil {
		t.Fatal(err)
	}
	b, err := run()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("sampled run not repeatable:\n  a: %+v\n  b: %+v", a, b)
	}
}

// TestSampleConservation checks the instruction accounting of a sampled
// run: the three phase counters partition the advanced total exactly,
// the planned window is echoed, and each phase is within its structural
// bounds (measured ≈ K·L up to retire-width overshoot per interval;
// skipped + micro-warmup equals the sum of interval start positions).
func TestSampleConservation(t *testing.T) {
	spec := sampleSpec("voter", true)
	plan := SamplePlan{Intervals: 8, Shards: 2}
	r := NewRunner()
	r.Sample = &plan
	res, err := r.Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	s := res.Sampling
	if s == nil {
		t.Fatal("no sampling summary")
	}
	c := s.Counters
	if got := c.SkippedInstructions + c.MicroWarmupInstructions + c.MeasuredInstructions; got != c.AdvancedInstructions {
		t.Errorf("conservation violated: skipped %d + micro-warmup %d + measured %d = %d, advanced %d",
			c.SkippedInstructions, c.MicroWarmupInstructions, c.MeasuredInstructions, got, c.AdvancedInstructions)
	}
	_, meas := Windows(spec.Warmup, spec.Measure)
	if c.PlannedWindow != meas {
		t.Errorf("planned window %d, want %d", c.PlannedWindow, meas)
	}

	np := plan.normalized(meas)
	// Every interval measures at least IntervalInsts and overshoots by
	// less than the retire width.
	K := uint64(np.Intervals)
	minMeasured := K * np.IntervalInsts
	slack := K * uint64(spec.Config.RetireWidth)
	if c.MeasuredInstructions < minMeasured || c.MeasuredInstructions >= minMeasured+slack {
		t.Errorf("measured %d outside [%d, %d)", c.MeasuredInstructions, minMeasured, minMeasured+slack)
	}
	// The skip pass is chained: one cursor walks the window once, so
	// the total skipped distance is the last interval's start minus its
	// micro-warmup — and in particular strictly less than the window,
	// never the Σ start_i a per-interval re-skip would pay.
	last := np.intervalStart(np.Intervals-1, meas)
	mw := np.MicroWarmup
	if mw > last {
		mw = last
	}
	if want := last - mw; c.SkippedInstructions != want {
		t.Errorf("skipped %d, want chained cursor distance %d", c.SkippedInstructions, want)
	}
	if c.SkippedInstructions >= meas {
		t.Errorf("skipped %d >= window %d: skip pass is not chained", c.SkippedInstructions, meas)
	}
	// The aggregate result's instruction count is the measured total.
	if res.Instructions != c.MeasuredInstructions {
		t.Errorf("aggregate instructions %d != measured %d", res.Instructions, c.MeasuredInstructions)
	}
}

// TestSampledIntervalSplice: interval rows from a sampled run are
// renumbered sequentially and rebased onto the measurement window's
// instruction axis — indices strictly increasing, instruction spans
// inside [0, meas), cycle spans monotonic.
func TestSampledIntervalSplice(t *testing.T) {
	spec := sampleSpec("voter", true)
	r := NewRunner()
	r.Interval = 25_000
	r.Sample = &SamplePlan{Intervals: 5}
	res, err := r.Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Intervals) == 0 {
		t.Fatal("no interval rows collected")
	}
	_, meas := Windows(spec.Warmup, spec.Measure)
	var prevCycle uint64
	for i, row := range res.Intervals {
		if row.Index != i {
			t.Fatalf("row %d has index %d", i, row.Index)
		}
		if row.EndInstruction <= row.StartInstruction {
			t.Fatalf("row %d: empty instruction span [%d, %d]", i, row.StartInstruction, row.EndInstruction)
		}
		if row.EndInstruction > meas+uint64(spec.Config.RetireWidth) {
			t.Fatalf("row %d: end instruction %d beyond window %d", i, row.EndInstruction, meas)
		}
		if row.StartCycle < prevCycle {
			t.Fatalf("row %d: cycle axis not monotonic: start %d < previous end %d", i, row.StartCycle, prevCycle)
		}
		if row.EndCycle < row.StartCycle {
			t.Fatalf("row %d: negative cycle span", i)
		}
		prevCycle = row.EndCycle
	}
}

// TestCheckpointExactBitIdentical: enabling warmup checkpointing must
// not change exact results at all — the clone is an exact state copy,
// so byte-identical JSON is required, for both fresh builds (the first
// run populating a cell) and checkpoint hits (subsequent runs cloning
// it).
func TestCheckpointExactBitIdentical(t *testing.T) {
	specs := []RunSpec{
		sampleSpec("voter", false),
		sampleSpec("voter", true),
		sampleSpec("noop", true),
	}
	plain := NewRunner()
	ckpt := NewRunner()
	ckpt.Checkpoint = true
	for _, spec := range specs {
		want, err := plain.Run(spec)
		if err != nil {
			t.Fatal(err)
		}
		// Twice: first run builds the checkpoint, second hits it.
		for pass := 0; pass < 2; pass++ {
			got, err := ckpt.Run(spec)
			if err != nil {
				t.Fatal(err)
			}
			jw, _ := json.Marshal(want)
			jg, _ := json.Marshal(got)
			if string(jw) != string(jg) {
				t.Errorf("%s pass %d: checkpointed run not byte-identical:\n  want %s\n  got  %s",
					spec.Label, pass, jw, jg)
			}
		}
	}
}

// TestCheckpointCacheSharedAcrossRunners: a CheckpointCache handed to
// two runners must let the second reuse the first's warmed master —
// observable as identical results plus the warmed instruction volume
// being booked against the first runner only once per cell.
func TestCheckpointCacheSharedAcrossRunners(t *testing.T) {
	spec := sampleSpec("voter", false)
	cache := NewCheckpointCache()
	a := NewRunner()
	a.Checkpoint = true
	a.Checkpoints = cache
	b := NewRunner()
	b.Checkpoint = true
	b.Checkpoints = cache
	want, err := a.Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	got, err := b.Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	jw, _ := json.Marshal(want)
	jg, _ := json.Marshal(got)
	if string(jw) != string(jg) {
		t.Errorf("shared-cache run not byte-identical:\n  want %s\n  got  %s", jw, jg)
	}
	warm, _ := Windows(spec.Warmup, spec.Measure)
	key, err := checkpointKey(spec, warm)
	if err != nil {
		t.Fatal(err)
	}
	cell := cache.cell(key)
	if cell.core == nil {
		t.Fatalf("shared cache has no warmed master under %q after two runs", key)
	}
	// A fresh runner on the same cache must hit, not re-warm: runs
	// continue on clones, so the parked master's retire count (warmup,
	// give or take the final cycle's retire width) never moves.
	parked := cell.core.Retired()
	if parked < warm {
		t.Fatalf("warmed master retired %d < warmup %d", parked, warm)
	}
	c := NewRunner()
	c.Checkpoint = true
	c.Checkpoints = cache
	if _, err := c.Run(spec); err != nil {
		t.Fatal(err)
	}
	if got := cell.core.Retired(); got != parked {
		t.Errorf("warmed master advanced from %d to %d retired; clones must leave it parked", parked, got)
	}
}

// TestCheckpointKeySeparatesConfigs: different configs, warmups, or
// benchmarks must never share a checkpoint cell.
func TestCheckpointKeySeparatesConfigs(t *testing.T) {
	a := sampleSpec("voter", false)
	b := sampleSpec("voter", true)
	c := a
	c.Warmup = 200_000
	d := sampleSpec("noop", false)
	keys := map[string]string{}
	for _, spec := range []RunSpec{a, b, c, d} {
		warm, _ := Windows(spec.Warmup, spec.Measure)
		k, err := checkpointKey(spec, warm)
		if err != nil {
			t.Fatal(err)
		}
		if prev, dup := keys[k]; dup {
			t.Errorf("specs %s and %s share checkpoint key %q", prev, spec.Label, k)
		}
		keys[k] = spec.Label
	}
	// The label must NOT affect the key: it cannot change warmed
	// state (nor can the runner's sampling plan, which is not an input).
	e := a
	e.Label = "other"
	warm, _ := Windows(a.Warmup, a.Measure)
	ka, _ := checkpointKey(a, warm)
	ke, _ := checkpointKey(e, warm)
	if ka != ke {
		t.Errorf("label changed checkpoint key: %q vs %q", ka, ke)
	}
}

// TestSampleEchoPublishesExactRow: with SampleEcho set, an exact run
// carries a sampling summary marked Exact whose means are the exact
// metric values with zero confidence intervals.
func TestSampleEchoPublishesExactRow(t *testing.T) {
	r := NewRunner()
	r.SampleEcho = true
	spec := sampleSpec("voter", true)
	res, err := r.Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	s := res.Sampling
	if s == nil {
		t.Fatal("SampleEcho produced no sampling summary")
	}
	if !s.Exact {
		t.Error("echo row not marked exact")
	}
	if len(s.Metrics) != len(sampleMetrics) {
		t.Fatalf("echo has %d metrics, want %d", len(s.Metrics), len(sampleMetrics))
	}
	for i, m := range s.Metrics {
		if m.CI != 0 {
			t.Errorf("%s: exact echo has nonzero CI %g", m.Name, m.CI)
		}
		if want := sampleMetrics[i].get(&res.Result); m.Mean != want {
			t.Errorf("%s: echo mean %g, exact value %g", m.Name, m.Mean, want)
		}
	}
	sums := r.SamplingSummaries()
	if len(sums) != 1 || !sums[0].Summary.Exact {
		t.Fatalf("runner summaries = %+v, want one exact row", sums)
	}
}

// TestSamplingRejectsTracerAndAttrib: the spliced stream has no single
// cycle axis and attribution summaries cannot be merged, so sampling
// must refuse both with a clear error rather than mis-report.
func TestSamplingRejectsTracerAndAttrib(t *testing.T) {
	spec := sampleSpec("voter", true)
	r := NewRunner()
	r.Sample = &SamplePlan{Intervals: 2}
	spec.Tracer = metrics.NewRingTracer(16)
	if _, err := r.Run(spec); err == nil || !strings.Contains(err.Error(), "tracing") {
		t.Errorf("tracer + sampling: got %v, want tracing error", err)
	}
	spec.Tracer = nil
	r.Attrib = true
	if _, err := r.Run(spec); err == nil || !strings.Contains(err.Error(), "attribution") {
		t.Errorf("attrib + sampling: got %v, want attribution error", err)
	}
}

// TestSamplePlanNormalization pins the plan defaulting rules.
func TestSamplePlanNormalization(t *testing.T) {
	np := SamplePlan{}.normalized(1_000_000)
	if np.Intervals != DefaultSampleIntervals {
		t.Errorf("default intervals %d, want %d", np.Intervals, DefaultSampleIntervals)
	}
	if want := uint64(1_000_000) / uint64(np.Intervals) / 10; np.IntervalInsts != want {
		t.Errorf("default interval insts %d, want %d", np.IntervalInsts, want)
	}
	if np.MicroWarmup != np.IntervalInsts/2 {
		t.Errorf("default micro-warmup %d, want %d", np.MicroWarmup, np.IntervalInsts/2)
	}
	if np.Shards != 1 {
		t.Errorf("default shards %d, want 1", np.Shards)
	}
	// Tiny windows still produce a positive detail length.
	if np := (SamplePlan{Intervals: 4}).normalized(8); np.IntervalInsts == 0 {
		t.Error("tiny window normalized to zero interval length")
	}
}

// TestRunnerSampleDefaultAndOverride: Runner.Sample applies to every
// spec; clearing it on the same runner makes the next Run exact, with
// no sampling row.
func TestRunnerSampleDefaultAndOverride(t *testing.T) {
	r := NewRunner()
	r.Sample = &SamplePlan{Intervals: 4}
	spec := sampleSpec("voter", true)
	res, err := r.Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if res.Sampling == nil || res.Sampling.Intervals != 4 {
		t.Fatalf("runner default plan not applied: %+v", res.Sampling)
	}
	r.Sample = nil
	res, err = r.Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if res.Sampling != nil {
		t.Fatalf("exact run after clearing Runner.Sample published sampling: %+v", res.Sampling)
	}
	if _, meas := Windows(spec.Warmup, spec.Measure); res.Instructions < meas {
		t.Fatalf("exact run measured %d instructions, want the whole %d window", res.Instructions, meas)
	}
}

// TestSampleFlagsImplySampling pins the one "any field implies
// sampling" rule: each -sample-* flag parsed alone yields a plan
// carrying its value, -sample alone yields the all-defaults plan, and
// no sample flag yields nil (exact simulation).
func TestSampleFlagsImplySampling(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want *SamplePlan
	}{
		{nil, nil},
		{[]string{"-sample"}, &SamplePlan{}},
		{[]string{"-sample-intervals", "7"}, &SamplePlan{Intervals: 7}},
		{[]string{"-sample-interval", "5000"}, &SamplePlan{IntervalInsts: 5000}},
		{[]string{"-sample-warmup", "300"}, &SamplePlan{MicroWarmup: 300}},
		{[]string{"-sample-warm-window", "90000"}, &SamplePlan{WarmWindow: 90000}},
		{[]string{"-sample-shards", "3"}, &SamplePlan{Shards: 3}},
	} {
		fs := flag.NewFlagSet("t", flag.ContinueOnError)
		fs.SetOutput(io.Discard)
		plan := SampleFlags(fs)
		if err := fs.Parse(tc.args); err != nil {
			t.Fatalf("%v: %v", tc.args, err)
		}
		if got := plan(); !reflect.DeepEqual(got, tc.want) {
			t.Errorf("%v: plan %+v, want %+v", tc.args, got, tc.want)
		}
	}
}
