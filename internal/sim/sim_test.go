package sim

import (
	"reflect"
	"strconv"
	"strings"
	"testing"

	"repro/internal/btb"
	"repro/internal/cpu"
	"repro/internal/metrics"
)

func quickSpec(label string, skia bool) RunSpec {
	cfg := cpu.DefaultConfig()
	if skia {
		cfg = cpu.SkiaConfig()
	}
	return RunSpec{
		Benchmark: "noop",
		Config:    cfg,
		Warmup:    50_000,
		Measure:   150_000,
		Label:     label,
	}
}

func TestWorkloadCache(t *testing.T) {
	r := NewRunner()
	w1, err := r.Workload("noop")
	if err != nil {
		t.Fatal(err)
	}
	w2, err := r.Workload("noop")
	if err != nil {
		t.Fatal(err)
	}
	if w1 != w2 {
		t.Error("workload not cached")
	}
	if _, err := r.Workload("nonexistent"); err == nil {
		t.Error("unknown benchmark accepted")
	}
}

func TestRunBasic(t *testing.T) {
	r := NewRunner()
	res, err := r.Run(quickSpec("base", false))
	if err != nil {
		t.Fatal(err)
	}
	if res.Label != "base" {
		t.Errorf("label = %q", res.Label)
	}
	if res.Instructions < 150_000 {
		t.Errorf("measured only %d instructions", res.Instructions)
	}
	if res.IPC <= 0 {
		t.Error("no IPC")
	}
}

// TestRunMatchesDirectCoreRun pins Runner.Run to one direct
// cpu.Core.Run call per window: same cycles, same IPC, same front-end
// counters. The windows are not multiples of any power-of-two slice
// (262,144 included), so a runner that advanced the core in slices and
// let each slice's retire-width overshoot compound would diverge.
func TestRunMatchesDirectCoreRun(t *testing.T) {
	spec := RunSpec{
		Benchmark: "voter",
		Config:    cpu.SkiaConfig(),
		Warmup:    262_144 + 12_345,
		Measure:   2*262_144 + 6_789,
		Label:     "skia",
	}
	a, err := NewRunner().Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	b := func() Result {
		r := NewRunner()
		w, err := r.Workload(spec.Benchmark)
		if err != nil {
			t.Fatal(err)
		}
		c, err := cpu.New(spec.Config, w)
		if err != nil {
			t.Fatal(err)
		}
		c.Run(spec.Warmup)
		c.ResetStats()
		c.Run(spec.Measure)
		return Result{Result: c.Result(spec.Benchmark), Label: spec.Label}
	}()
	if a.Cycles != b.Cycles || a.IPC != b.IPC {
		t.Errorf("runner diverged from direct core: cycles %d vs %d, IPC %v vs %v",
			a.Cycles, b.Cycles, a.IPC, b.IPC)
	}
	if a.FE != b.FE {
		t.Errorf("front-end stats diverged:\n%+v\n!=\n%+v", a.FE, b.FE)
	}
}

func TestRunDefaultsApplied(t *testing.T) {
	r := NewRunner()
	spec := quickSpec("d", false)
	spec.Warmup, spec.Measure = 0, 0
	spec.Benchmark = "noop"
	// Default windows are millions of instructions; just verify the
	// plumbing accepts zeros by using an explicit small sanity run
	// instead (the default-size run is exercised by the experiment
	// harnesses).
	spec.Warmup, spec.Measure = 10_000, 20_000
	res, err := r.Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if res.Instructions < 20_000 {
		t.Errorf("instructions = %d", res.Instructions)
	}
}

func TestRunUnknownBenchmark(t *testing.T) {
	r := NewRunner()
	spec := quickSpec("x", false)
	spec.Benchmark = "ghost"
	if _, err := r.Run(spec); err == nil {
		t.Error("unknown benchmark accepted")
	}
}

func TestRunAllOrderPreserved(t *testing.T) {
	r := NewRunner()
	specs := []RunSpec{quickSpec("a", false), quickSpec("b", true), quickSpec("c", false)}
	results, err := r.RunAll(specs)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 3 {
		t.Fatalf("got %d results", len(results))
	}
	for i, want := range []string{"a", "b", "c"} {
		if results[i].Label != want {
			t.Errorf("result %d label %q, want %q", i, results[i].Label, want)
		}
	}
}

func TestRunAllPropagatesErrors(t *testing.T) {
	r := NewRunner()
	specs := []RunSpec{quickSpec("ok", false), {Benchmark: "ghost", Config: cpu.DefaultConfig()}}
	if _, err := r.RunAll(specs); err == nil {
		t.Error("error not propagated")
	}
}

func TestRunAllSharedCacheDeterminism(t *testing.T) {
	// Two identical specs run concurrently over the shared cached
	// workload must produce identical results (the workload is
	// immutable; per-run state is private).
	r := NewRunner()
	r.Workers = 2
	specs := []RunSpec{quickSpec("x", true), quickSpec("x", true)}
	results, err := r.RunAll(specs)
	if err != nil {
		t.Fatal(err)
	}
	if results[0].Cycles != results[1].Cycles || results[0].FE != results[1].FE {
		t.Error("concurrent identical runs diverged: shared state leak")
	}
}

func TestBTBWithEntries(t *testing.T) {
	cfg := BTBWithEntries(2048)
	if cfg.Entries != 2048 || cfg.Ways != btb.DefaultConfig().Ways {
		t.Errorf("got %+v", cfg)
	}
}

func TestAugmentedBTB(t *testing.T) {
	base := btb.DefaultConfig() // 8192 entries, 4-way, 78b entries
	sbbBits := 100_000          // ~12.2KB
	aug := AugmentedBTB(base, sbbBits)
	if aug.Entries <= base.Entries {
		t.Errorf("no capacity added: %+v", aug)
	}
	if aug.Entries%aug.Ways != 0 {
		t.Errorf("broken geometry: %+v", aug)
	}
	sets := base.Entries / base.Ways
	if aug.Entries/aug.Ways != sets {
		t.Errorf("set count changed: %+v", aug)
	}
	// The added ways must be buildable.
	if _, err := btb.New(aug); err != nil {
		t.Errorf("augmented config rejected: %v", err)
	}
	// Infinite and degenerate configs pass through.
	inf := AugmentedBTB(btb.Config{Infinite: true}, sbbBits)
	if !inf.Infinite {
		t.Error("infinite config mangled")
	}
	// Tiny extra bits still grant at least one way.
	aug2 := AugmentedBTB(base, 100)
	if aug2.Entries <= base.Entries {
		t.Errorf("minimum grant missing: %+v", aug2)
	}
}

func TestRunAllAggregatesAllErrors(t *testing.T) {
	r := NewRunner()
	specs := []RunSpec{
		quickSpec("ok", false),
		{Benchmark: "ghost1", Config: cpu.DefaultConfig(), Label: "skia"},
		{Benchmark: "ghost2", Config: cpu.DefaultConfig(), Label: "base"},
	}
	results, err := r.RunAll(specs)
	if err == nil {
		t.Fatal("errors not propagated")
	}
	// Both failed specs must be named with benchmark and label, so one
	// bad spec no longer hides the rest of the suite.
	for _, want := range []string{"ghost1/skia", "ghost2/base"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("aggregated error lacks %q:\n%v", want, err)
		}
	}
	// The successful sibling's result must survive.
	if len(results) != 3 || results[0].Label != "ok" || results[0].Instructions == 0 {
		t.Errorf("successful sibling result discarded: %+v", results[:1])
	}
}

func TestRunnerStats(t *testing.T) {
	r := NewRunner()
	if st := r.Stats(); st.Runs != 0 || st.Instructions != 0 || st.WallSeconds != 0 {
		t.Errorf("fresh runner has stats: %+v", st)
	}
	if _, err := r.RunAll([]RunSpec{quickSpec("a", false), quickSpec("b", true)}); err != nil {
		t.Fatal(err)
	}
	st := r.Stats()
	if st.Runs != 2 {
		t.Errorf("Runs = %d", st.Runs)
	}
	// Each quickSpec simulates 50k warmup + 150k measured instructions.
	if st.Instructions != 2*200_000 {
		t.Errorf("Instructions = %d", st.Instructions)
	}
	if st.WallSeconds <= 0 || st.CPUSeconds <= 0 || st.InstructionsPerSec <= 0 {
		t.Errorf("timing not recorded: %+v", st)
	}
	if len(st.Specs) != 2 {
		t.Fatalf("Specs = %+v", st.Specs)
	}
	// Sorted by benchmark then label; both specs run "noop".
	if st.Specs[0].Label != "a" || st.Specs[1].Label != "b" {
		t.Errorf("spec timings not sorted: %+v", st.Specs)
	}
	for _, sp := range st.Specs {
		if sp.Benchmark != "noop" || sp.Instructions != 200_000 || sp.Seconds <= 0 {
			t.Errorf("bad spec timing: %+v", sp)
		}
	}
	// Failed runs must not book timings.
	bad := quickSpec("x", false)
	bad.Benchmark = "ghost"
	if _, err := r.Run(bad); err == nil {
		t.Fatal("ghost accepted")
	}
	if got := r.Stats().Runs; got != 2 {
		t.Errorf("failed run booked a timing: Runs = %d", got)
	}
}

// TestRunIntervalsSumToAggregate is the acceptance check for the
// observability layer: with interval collection enabled, the
// per-interval counter deltas (including the final partial interval)
// must sum exactly to the run's aggregate frontend.Stats and the
// interval widths to the measured window.
func TestRunIntervalsSumToAggregate(t *testing.T) {
	r := NewRunner()
	r.Interval = 40_000 // deliberately misaligned with 150k measured
	spec := quickSpec("iv", true)
	spec.Benchmark = "voter"
	res, err := r.Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Intervals) == 0 {
		t.Fatal("no intervals collected")
	}
	var insts, cycles, misses, covered, dec, exe, cond uint64
	for _, iv := range res.Intervals {
		insts += iv.Instructions
		cycles += iv.Cycles
		misses += iv.BTBMisses
		covered += iv.SBBCovered
		dec += iv.DecodeResteers
		exe += iv.ExecResteers
		cond += iv.CondMispredicts
	}
	if insts != res.Instructions || cycles != res.Cycles {
		t.Errorf("interval sums %d insts / %d cycles, aggregate %d / %d",
			insts, cycles, res.Instructions, res.Cycles)
	}
	fe := res.FE
	if misses != fe.BTBMissTotal() {
		t.Errorf("BTB miss sum %d, aggregate %d", misses, fe.BTBMissTotal())
	}
	if covered != fe.SBBCoveredTotal() {
		t.Errorf("SBB covered sum %d, aggregate %d", covered, fe.SBBCoveredTotal())
	}
	if dec != fe.DecodeResteers || exe != fe.ExecResteers {
		t.Errorf("resteer sums %d/%d, aggregate %d/%d", dec, exe, fe.DecodeResteers, fe.ExecResteers)
	}
	if cond != fe.CondMispredicts {
		t.Errorf("cond mispredict sum %d, aggregate %d", cond, fe.CondMispredicts)
	}
	// Intervals cover contiguous, strictly increasing ranges.
	for i := 1; i < len(res.Intervals); i++ {
		if res.Intervals[i].StartInstruction != res.Intervals[i-1].EndInstruction {
			t.Errorf("interval %d not contiguous: %+v after %+v",
				i, res.Intervals[i], res.Intervals[i-1])
		}
	}
}

// TestRunIntervalLargerThanWindow: a single partial interval covers the
// whole measured window.
func TestRunIntervalLargerThanWindow(t *testing.T) {
	r := NewRunner()
	r.Interval = 10_000_000
	res, err := r.Run(quickSpec("big", false))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Intervals) != 1 {
		t.Fatalf("intervals = %d, want 1", len(res.Intervals))
	}
	if res.Intervals[0].Instructions != res.Instructions {
		t.Errorf("partial interval %d insts, window %d",
			res.Intervals[0].Instructions, res.Instructions)
	}
}

// TestRunnerIntervalDefault: the runner-level knob enables collection
// for every spec, and each result's rows summarize at that window.
func TestRunnerIntervalDefault(t *testing.T) {
	r := NewRunner()
	r.Interval = 50_000
	results, err := r.RunAll([]RunSpec{quickSpec("a", false), quickSpec("b", true)})
	if err != nil {
		t.Fatal(err)
	}
	for _, res := range results {
		s := metrics.Summarize(r.Interval, res.Intervals)
		if res.Benchmark != "noop" || s.Count == 0 || s.Instructions == 0 {
			t.Errorf("%s: empty summary: %+v", res.Label, s)
		}
		if s.Every != 50_000 {
			t.Errorf("%s: every = %d", res.Label, s.Every)
		}
	}
	// Disabled runners collect nothing.
	res, err := NewRunner().Run(quickSpec("off", false))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Intervals) != 0 {
		t.Errorf("intervals collected while disabled: %+v", res.Intervals)
	}
}

// TestRunTracerRecordsEvents: a per-spec tracer sees the measurement
// window's re-steer and shadow-branch events.
func TestRunTracerRecordsEvents(t *testing.T) {
	r := NewRunner()
	spec := quickSpec("tr", true)
	spec.Benchmark = "voter"
	tr := metrics.NewRingTracer(1 << 16)
	spec.Tracer = tr
	res, err := r.Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Total() == 0 {
		t.Fatal("no events traced")
	}
	kinds := map[metrics.EventKind]uint64{}
	for _, e := range tr.Events() {
		kinds[e.Kind]++
	}
	// The traced decode re-steer count can only be bounded by the
	// aggregate (the ring may have dropped events); with a roomy ring
	// and this window nothing drops, so the counts must match.
	if tr.Dropped() == 0 && kinds[metrics.EvDecodeResteer] != res.FE.DecodeResteers {
		t.Errorf("traced %d decode re-steers, stats say %d",
			kinds[metrics.EvDecodeResteer], res.FE.DecodeResteers)
	}
	if res.FE.SBDInserts > 0 && kinds[metrics.EvSBDInsertU]+kinds[metrics.EvSBDInsertR] == 0 {
		t.Error("SBD inserted but no insert events traced")
	}
}

// TestRunAllCollectorsRaceFree runs many interval- and tracer-equipped
// specs concurrently; under `go test -race` (the CI race job) this
// fails loudly if per-spec capture shares state across workers.
func TestRunAllCollectorsRaceFree(t *testing.T) {
	r := NewRunner()
	r.Workers = 4
	r.Interval = 30_000
	var specs []RunSpec
	tracers := make([]*metrics.RingTracer, 6)
	for i := range tracers {
		tracers[i] = metrics.NewRingTracer(1 << 12)
		s := quickSpec("t"+strconv.Itoa(i), i%2 == 0)
		s.Tracer = tracers[i]
		specs = append(specs, s)
	}
	results, err := r.RunAll(specs)
	if err != nil {
		t.Fatal(err)
	}
	for i, res := range results {
		if len(res.Intervals) == 0 {
			t.Errorf("spec %d collected no intervals", i)
		}
	}
	if got := len(r.Stats().Specs); got != len(specs) {
		t.Errorf("timings = %d, want %d", got, len(specs))
	}
}

// TestAttributionConservation pins the attribution engine's two
// conservation laws end to end: every BTB miss lands in exactly one
// cause bucket (counts sum to the front-end's miss total) and every
// decoder-idle cycle lands in exactly one stall account (counts sum
// to DecodeIdleCycles).
func TestAttributionConservation(t *testing.T) {
	for _, skia := range []bool{false, true} {
		label := "base"
		if skia {
			label = "skia"
		}
		r := NewRunner()
		r.Attrib = true
		res, err := r.Run(quickSpec(label, skia))
		if err != nil {
			t.Fatal(err)
		}
		at := res.Attribution
		if at == nil {
			t.Fatalf("%s: Attrib runner returned nil Attribution", label)
		}
		var causeSum uint64
		for _, c := range at.Causes {
			causeSum += c.Count
		}
		if causeSum != at.BTBMisses {
			t.Errorf("%s: cause counts sum to %d, want %d", label, causeSum, at.BTBMisses)
		}
		if at.BTBMisses != res.FE.BTBMissTotal() {
			t.Errorf("%s: attribution saw %d misses, front-end counted %d",
				label, at.BTBMisses, res.FE.BTBMissTotal())
		}
		var stallSum uint64
		for _, s := range at.Stalls {
			stallSum += s.Count
		}
		if stallSum != at.StallCycles {
			t.Errorf("%s: stall counts sum to %d, want %d", label, stallSum, at.StallCycles)
		}
		if at.StallCycles != res.FE.DecodeIdleCycles {
			t.Errorf("%s: attribution saw %d stall cycles, front-end counted %d",
				label, at.StallCycles, res.FE.DecodeIdleCycles)
		}
		if skia {
			var sbbHit uint64
			for _, c := range at.Causes {
				if c.Cause == "sbb-hit" {
					sbbHit = c.Count
				}
			}
			if sbbHit != res.FE.SBBCoveredTotal() {
				t.Errorf("skia: sbb-hit cause = %d, SBBCoveredTotal = %d",
					sbbHit, res.FE.SBBCoveredTotal())
			}
		}
	}
}

// TestObserversDoNotChangeResults runs one Skia spec plain and with
// every observer attached — miss attribution, interval metrics and an
// event tracer — and requires identical result counters: observers
// only read what the SBB and SBD report, they never steer simulation.
// A small SBB makes the observed run evict and alias entries.
func TestObserversDoNotChangeResults(t *testing.T) {
	spec := quickSpec("obs", true)
	spec.Benchmark = "voter"
	spec.Config.Frontend.SBB.UEntries = 64
	spec.Config.Frontend.SBB.REntries = 64
	plain, err := NewRunner().Run(spec)
	if err != nil {
		t.Fatal(err)
	}

	r := NewRunner()
	r.Attrib = true
	r.Interval = 30_000
	tr := metrics.NewRingTracer(1 << 12)
	spec.Tracer = tr
	observed, err := r.Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if observed.Attribution == nil || observed.Attribution.SBBLifetime.Count == 0 ||
		len(observed.Intervals) == 0 || tr.Total() == 0 {
		t.Fatal("an attached observer saw nothing: the comparison would be vacuous")
	}
	if observed.SBB.UEvictions+observed.SBB.REvictions == 0 {
		t.Fatal("the SBB never evicted: the comparison would miss the eviction path")
	}
	if !reflect.DeepEqual(plain.Result, observed.Result) {
		t.Errorf("observers changed the result:\n  plain    %+v\n  observed %+v", plain.Result, observed.Result)
	}
}

// TestAttributionDisabledByDefault guards the unobserved fast path:
// no engine, no summary.
func TestAttributionDisabledByDefault(t *testing.T) {
	res, err := NewRunner().Run(quickSpec("plain", true))
	if err != nil {
		t.Fatal(err)
	}
	if res.Attribution != nil {
		t.Error("Attribution non-nil without Attrib")
	}
}
