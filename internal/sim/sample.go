// Sampled simulation: SimPoint-style interval sampling over the
// measurement window, warmup checkpointing, and intra-run sharding.
//
// The exact path simulates every instruction of warmup + measurement in
// detail. The sampled path pays detail only where it measures: after
// the (checkpointable) warmup, a single cursor fast-forwards across the
// measurement window — functionally warming predictors and caches on
// the committed path unless the plan opts out — and interval start
// states are cloned off it, so every skipped instruction is traversed
// exactly once no matter how many intervals sample the window. K short
// detail intervals (micro-warmup + measurement) then run on those
// snapshots. Because the snapshot pass is serial and deterministic and
// each interval is a pure function of its snapshot, the per-interval
// results are independent of how intervals are distributed over shard
// goroutines — sharded and serial sampled runs are DeepEqual by
// construction, which the CI sampling job gates.
//
// Point estimates are ratios of summed counters (not means of
// per-interval ratios); each reported metric carries a 95% confidence
// half-width from the per-interval spread, which skiacmp -sample-ci
// checks against an exact run.
package sim

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"reflect"
	"sync"

	"repro/internal/cpu"
	"repro/internal/metrics"
	"repro/internal/workload"
)

// DefaultSampleIntervals is the interval count a zero SamplePlan.K
// resolves to.
const DefaultSampleIntervals = 10

// SamplePlan configures sampled simulation for a run. The zero value
// of each field selects a default; a nil *SamplePlan means exact
// (full-detail) simulation.
type SamplePlan struct {
	// Intervals is K, the number of detail intervals spliced evenly
	// over the measurement window (0 = DefaultSampleIntervals).
	Intervals int
	// IntervalInsts is the measured detail length of each interval in
	// instructions (0 = a tenth of the per-interval window share, i.e.
	// 10% detail coverage).
	IntervalInsts uint64
	// MicroWarmup is the detail re-warmup run before each interval's
	// measurement, after the functional fast-forward (0 =
	// IntervalInsts/2). The first interval starts at the true warmup
	// boundary and needs none; its micro-warmup is clipped to zero.
	MicroWarmup uint64
	// Shards is the number of goroutines interval execution fans out
	// over within one run (0 = 1). Results are shard-count-invariant.
	Shards int
	// WarmWindow bounds the functional-warming horizon: when non-zero,
	// only the final WarmWindow instructions of each interval's
	// fast-forward run with functional warming; the distance before
	// that is skipped cold (emulator only). Predictor and cache state
	// has finite memory, so a horizon comfortably longer than it
	// approximates full-distance warming while long skips run at
	// cold-skip speed. Zero warms the entire skip distance (the most
	// accurate and slowest setting). Ignored under ColdSkip.
	WarmWindow uint64
	// ColdSkip disables functional warming during the fast-forward:
	// skipped instructions advance the emulator only, leaving predictors
	// and caches as the checkpoint left them. Faster per skipped
	// instruction, but biased whenever the workload's predictors are
	// still learning inside the measurement window; the default (warmed)
	// skip trains predictors and instruction caches on the skipped true
	// path (frontend.FastForwardWarm).
	ColdSkip bool
}

// Normalized resolves plan defaults against a measurement window,
// returning the effective K, interval length, micro-warmup, and shard
// count a run with this plan uses. Report metadata records the
// normalized plan so a sampled run is reproducible from its envelope.
func (p SamplePlan) Normalized(meas uint64) SamplePlan { return p.normalized(meas) }

// PlanIf is the one rule for when a run samples: it returns nil (exact
// simulation) unless sample is set or any plan field is non-zero —
// setting any sampling knob implies sampling.
func PlanIf(sample bool, plan SamplePlan) *SamplePlan {
	if !sample && plan == (SamplePlan{}) {
		return nil
	}
	return &plan
}

// SampleFlags registers -sample and the -sample-* plan flags on fs. The
// returned function, called after fs.Parse, yields the selected plan
// (PlanIf: nil unless -sample or any -sample-* flag was set).
func SampleFlags(fs *flag.FlagSet) func() *SamplePlan {
	on := fs.Bool("sample", false,
		"sampled simulation: splice K detail intervals over the measurement window instead of simulating it exactly; every headline metric gains a 95% confidence interval")
	var p SamplePlan
	fs.IntVar(&p.Intervals, "sample-intervals", 0,
		"detail intervals per sampled run (0 = default 10; implies -sample)")
	fs.Uint64Var(&p.IntervalInsts, "sample-interval", 0,
		"measured instructions per detail interval (0 = measure/K/10; implies -sample)")
	fs.Uint64Var(&p.MicroWarmup, "sample-warmup", 0,
		"detail micro-warmup instructions before each interval (0 = interval/2; implies -sample)")
	fs.Uint64Var(&p.WarmWindow, "sample-warm-window", 0,
		"bound functional warming to the final N instructions of each interval's skip; the rest skips cold (0 = warm the whole distance; implies -sample)")
	fs.IntVar(&p.Shards, "sample-shards", 0,
		"fan sampled intervals out over this many cores per run; results are identical to serial (0 = 1; implies -sample)")
	return func() *SamplePlan { return PlanIf(*on, p) }
}

// normalized resolves plan defaults against the measurement window.
func (p SamplePlan) normalized(meas uint64) SamplePlan {
	if p.Intervals <= 0 {
		p.Intervals = DefaultSampleIntervals
	}
	if p.IntervalInsts == 0 {
		p.IntervalInsts = meas / uint64(p.Intervals) / 10
		if p.IntervalInsts == 0 {
			p.IntervalInsts = 1
		}
	}
	if p.MicroWarmup == 0 {
		p.MicroWarmup = p.IntervalInsts / 2
	}
	if p.Shards <= 0 {
		p.Shards = 1
	}
	return p
}

// intervalStart returns interval i's offset from the measurement-window
// start: positions are meas*i/K, evenly spread with interval 0 pinned
// to the warmup boundary.
func (p SamplePlan) intervalStart(i int, meas uint64) uint64 {
	return meas * uint64(i) / uint64(p.Intervals)
}

// SampleStats conserves the sampled run's instruction accounting
// against the measurement window it stands in for: every instruction
// the run advanced past the warmup boundary is either functionally
// skipped, spent on detail micro-warmup, or measured —
// SkippedInstructions + MicroWarmupInstructions + MeasuredInstructions
// == AdvancedInstructions. The skip pass is chained (one cursor, each
// instruction skipped at most once), so SkippedInstructions equals the
// last interval's start position minus its micro-warmup — strictly
// less than the planned window, never the Σ start_i a per-interval
// re-skip would pay. Conservation is asserted by the sim tests and
// lint-checked by skialint's conserve analyzer.
type SampleStats struct {
	// PlannedWindow is the full measurement window being sampled.
	PlannedWindow uint64 `json:"planned_window"`
	// SkippedInstructions were advanced functionally (emulator only).
	SkippedInstructions uint64 `json:"skipped_instructions"`
	// MicroWarmupInstructions ran in detail before measurement began.
	MicroWarmupInstructions uint64 `json:"micro_warmup_instructions"`
	// MeasuredInstructions ran in detail inside measurement intervals.
	MeasuredInstructions uint64 `json:"measured_instructions"`
	// AdvancedInstructions is the cross-check total booked once per
	// interval; the three phase counters above must sum to it.
	AdvancedInstructions uint64 `json:"advanced_instructions"`
}

// MetricCI is one sampled metric: the point estimate computed from
// summed interval counters, and the 95% confidence half-width from the
// per-interval spread (1.96 * sd / sqrt(K); 0 for exact echoes and
// single-interval plans).
type MetricCI struct {
	Name string  `json:"name"`
	Mean float64 `json:"mean"`
	CI   float64 `json:"ci"`
}

// SampleSummary is one run's sampling outcome, embedded in report
// envelopes under the (additive, schema v5) `sampling` section.
type SampleSummary struct {
	// Intervals, IntervalInstructions, MicroWarmupInstructions, and
	// WarmWindowInstructions echo the normalized plan (all zero for
	// exact echoes; a zero warm window means the full skip distance was
	// warmed).
	Intervals               int    `json:"intervals"`
	IntervalInstructions    uint64 `json:"interval_instructions"`
	MicroWarmupInstructions uint64 `json:"micro_warmup_instructions"`
	WarmWindowInstructions  uint64 `json:"warm_window_instructions,omitempty"`
	// Exact marks an echo row from a full-detail run (Runner.SampleEcho):
	// the means are exact values and every CI is zero. skiacmp
	// -sample-ci uses such rows as the reference side.
	Exact bool `json:"exact,omitempty"`
	// Metrics lists every headline metric with its confidence interval,
	// in fixed registry order.
	Metrics []MetricCI `json:"metrics"`
	// Counters is the run's conservation accounting.
	Counters SampleStats `json:"counters"`
}

// sampleMetrics is the fixed registry of headline metrics reported
// with confidence intervals. Order is the report order.
var sampleMetrics = []struct {
	name string
	get  func(*cpu.Result) float64
}{
	{"ipc", func(r *cpu.Result) float64 { return r.IPC }},
	{"btb_miss_mpki", func(r *cpu.Result) float64 { return r.BTBMissMPKI }},
	{"effective_miss_mpki", func(r *cpu.Result) float64 { return r.EffectiveMissMPKI }},
	{"l1i_mpki", func(r *cpu.Result) float64 { return r.L1IMPKI }},
	{"cond_mpki", func(r *cpu.Result) float64 { return r.CondMPKI }},
	{"decode_idle_frac", func(r *cpu.Result) float64 { return r.DecodeIdleFrac }},
	{"btb_miss_l1i_hit_frac", func(r *cpu.Result) float64 { return r.BTBMissL1IHitFrac }},
}

// addCounters recursively adds every uint64 field of src into dst.
// cpu.Result nests only plain counter structs (frontend/cache/btb/
// tage/ittage/core stats), so uint64 fields are exactly the additive
// counters; strings, bools, and derived floats are left untouched.
func addCounters(dst, src reflect.Value) {
	switch dst.Kind() {
	case reflect.Struct:
		for i := 0; i < dst.NumField(); i++ {
			addCounters(dst.Field(i), src.Field(i))
		}
	case reflect.Uint64:
		dst.SetUint(dst.Uint() + src.Uint())
	}
}

// aggregateResults sums the counters of per-interval results and
// recomputes every derived metric from the sums, so point estimates
// are ratios of totals rather than means of ratios.
func aggregateResults(benchmark string, parts []cpu.Result) cpu.Result {
	var agg cpu.Result
	for i := range parts {
		addCounters(reflect.ValueOf(&agg).Elem(), reflect.ValueOf(&parts[i]).Elem())
	}
	agg.Benchmark = benchmark
	agg.Derive()
	return agg
}

// confidence95 returns the 95% confidence half-width of the mean of
// vals: 1.96 * sample-sd / sqrt(n). Zero for fewer than two values.
func confidence95(vals []float64) float64 {
	n := float64(len(vals))
	if len(vals) < 2 {
		return 0
	}
	var sum float64
	for _, v := range vals {
		sum += v
	}
	mean := sum / n
	var ss float64
	for _, v := range vals {
		d := v - mean
		ss += d * d
	}
	return 1.96 * math.Sqrt(ss/(n-1)) / math.Sqrt(n)
}

// exactEcho builds the sampling row a full-detail run publishes when
// Runner.SampleEcho is set: exact means, zero confidence intervals.
// It lets skiacmp -sample-ci gate a sampled run against an exact one
// over identical (benchmark, label, metric) keys.
func exactEcho(res *cpu.Result, meas uint64) *SampleSummary {
	s := &SampleSummary{Exact: true}
	s.Counters.PlannedWindow = meas
	s.Counters.MeasuredInstructions = res.Instructions
	s.Counters.AdvancedInstructions = res.Instructions
	for _, m := range sampleMetrics {
		s.Metrics = append(s.Metrics, MetricCI{Name: m.name, Mean: m.get(res)})
	}
	return s
}

// ckptCell holds one warmed master core, built once under its own lock
// so concurrent specs sharing a warmup prefix wait rather than re-warm.
type ckptCell struct {
	mu   sync.Mutex
	core *cpu.Core
}

// CheckpointCache stores warmed master cores keyed by (benchmark,
// warmup, config). A runner with Checkpoint set keeps one internally;
// handing the same cache to several runners (Runner.Checkpoints)
// stretches warmup reuse across sweeps — the exact/sampled pairing the
// sampling CI gate runs, repeated sweeps in a bench harness. Safe for
// concurrent use; each cell warms at most once.
type CheckpointCache struct {
	mu    sync.Mutex
	cells map[string]*ckptCell
}

// NewCheckpointCache returns an empty warmed-master store.
func NewCheckpointCache() *CheckpointCache { return &CheckpointCache{} }

// cell returns the (lazily created) cell for key.
func (cc *CheckpointCache) cell(key string) *ckptCell {
	cc.mu.Lock()
	defer cc.mu.Unlock()
	if cc.cells == nil {
		cc.cells = make(map[string]*ckptCell)
	}
	c, ok := cc.cells[key]
	if !ok {
		c = &ckptCell{}
		cc.cells[key] = c
	}
	return c
}

// checkpointKey identifies a reusable warmed state: benchmark, warmup
// length, and the full core configuration (canonical JSON — struct
// field order makes marshaling deterministic). Anything that cannot
// change warmed state (label, interval collection, sampling plan,
// worker count) is deliberately absent.
func checkpointKey(spec RunSpec, warm uint64) (string, error) {
	cfg, err := json.Marshal(spec.Config)
	if err != nil {
		return "", fmt.Errorf("sim: checkpoint key: %w", err)
	}
	return fmt.Sprintf("%s|%d|%s", spec.Benchmark, warm, cfg), nil
}

// warmCore produces a core advanced through the warmup window. Without
// Runner.Checkpoint it builds and warms a fresh core (the historical
// path, bit-identical to prior releases). With Checkpoint it keeps one
// warmed master per (benchmark, config, warmup) and returns clones, so
// a sweep re-visiting the same warmup prefix — an exact/sampled pair,
// a re-run, a multi-seed sweep — pays warmup once.
func (r *Runner) warmCore(spec RunSpec, w *workload.Workload, warm uint64) (*cpu.Core, error) {
	if !r.Checkpoint {
		c, err := cpu.New(spec.Config, w)
		if err != nil {
			return nil, err
		}
		c.Run(warm)
		return c, nil
	}
	key, err := checkpointKey(spec, warm)
	if err != nil {
		return nil, err
	}
	r.mu.Lock()
	if r.Checkpoints == nil {
		r.Checkpoints = NewCheckpointCache()
	}
	cc := r.Checkpoints
	r.mu.Unlock()
	cell := cc.cell(key)
	cell.mu.Lock()
	defer cell.mu.Unlock()
	if cell.core == nil {
		c, err := cpu.New(spec.Config, w)
		if err != nil {
			return nil, err
		}
		c.Run(warm)
		cell.core = c
		return c.Clone(), nil
	}
	return cell.core.Clone(), nil
}

// ffSlice is the instruction count of one fastForward call into the
// core. Every FastForwardWarm call resets its line filter and resyncs
// the RAS, TAGE and ITTAGE, so the slice length is part of the warmed
// state a sampled run measures from: changing it changes results.
const ffSlice = 2_097_152

// fastForward advances the core functionally by n instructions in
// ffSlice slices — with functional warming unless the plan opts out —
// and returns how many it skipped, fewer than n only if the workload
// halted.
func fastForward(c *cpu.Core, n uint64, cold bool) uint64 {
	var skipped uint64
	for skipped < n {
		step := n - skipped
		if step > ffSlice {
			step = ffSlice
		}
		var ran uint64
		if cold {
			ran = c.FastForward(step)
		} else {
			ran = c.FastForwardWarm(step)
		}
		skipped += ran
		if ran < step {
			break // workload halted
		}
	}
	return skipped
}

// intervalOutcome is one measurement interval's result and its
// instruction accounting.
type intervalOutcome struct {
	res   Result
	stats SampleStats
}

// buildSnapshots advances one cursor — the warmed master itself, which
// the caller owns exclusively — across the measurement window and
// clones the interval start states off it: snapshot i is the cursor
// paused at (start_i - microWarmup_i). Chaining matters for cost: the
// fast-forward between snapshots covers every skipped instruction
// exactly once, so a full-accuracy warmed skip costs one functional
// pass over the window instead of K re-warms of ever-longer prefixes
// (Σ start_i ≈ meas·(K-1)/2). The cursor pass is serial and fully
// deterministic, which is what makes the snapshot set — and therefore
// every downstream interval result — independent of the shard count.
// Returned deltas are the per-snapshot skip distances, for the
// conservation counters.
func buildSnapshots(master *cpu.Core, plan SamplePlan, meas uint64) ([]*cpu.Core, []uint64) {
	snaps := make([]*cpu.Core, plan.Intervals)
	deltas := make([]uint64, plan.Intervals)
	var pos uint64
	for i := range snaps {
		start := plan.intervalStart(i, meas)
		mw := plan.MicroWarmup
		if mw > start {
			mw = start
		}
		if target := start - mw; target > pos {
			d := target - pos
			warm := d
			if !plan.ColdSkip && plan.WarmWindow > 0 && plan.WarmWindow < d {
				// Bounded warming horizon: cover the far distance cold,
				// then warm the final WarmWindow instructions.
				cold := d - plan.WarmWindow
				deltas[i] += fastForward(master, cold, true)
				warm = plan.WarmWindow
			}
			deltas[i] += fastForward(master, warm, plan.ColdSkip)
			pos = target
		}
		// A zero-distance snapshot (interval 0 pinned at the warmup
		// boundary) clones the cursor untouched, in-flight state and
		// all, exactly like exact measurement continuing from warmup.
		snaps[i] = master.Clone()
	}
	return snaps, deltas
}

// runInterval executes one measurement interval on its prepared
// snapshot: detail micro-warmup, then the shared measurement body.
// Each snapshot is consumed by exactly one interval, and the outcome is
// a pure function of (snapshot, plan), which together with the serial
// snapshot pass makes sharding shard-count-invariant.
func (r *Runner) runInterval(spec RunSpec, c *cpu.Core, plan SamplePlan, meas uint64, i int) (intervalOutcome, error) {
	var out intervalOutcome
	start := plan.intervalStart(i, meas)
	mw := plan.MicroWarmup
	if mw > start {
		mw = start
	}
	before := c.Retired()
	c.Run(mw)
	out.stats.MicroWarmupInstructions = c.Retired() - before
	res, err := r.measure(spec, c, plan.IntervalInsts)
	if err != nil {
		return out, fmt.Errorf("interval %d: %w", i, err)
	}
	out.res = res
	out.stats.MeasuredInstructions = res.Instructions
	out.stats.AdvancedInstructions = out.stats.SkippedInstructions +
		out.stats.MicroWarmupInstructions + out.stats.MeasuredInstructions
	return out, nil
}

// runSampled is the sampled counterpart of the exact measurement body:
// it fans plan.Intervals detail intervals over plan.Shards goroutines,
// merges counters in interval order (deterministic regardless of
// scheduling), splices interval-metric rows onto the measurement
// window's instruction axis, and attaches per-metric confidence
// intervals. detailInsts is the detail work actually executed, for
// throughput accounting.
func (r *Runner) runSampled(spec RunSpec, master *cpu.Core, plan SamplePlan, meas uint64) (res Result, detailInsts uint64, err error) {
	if spec.Tracer != nil {
		return Result{}, 0, errors.New("sampling does not support tracing (the spliced stream has no single cycle axis)")
	}
	if r.Attrib {
		return Result{}, 0, errors.New("sampling does not support attribution; run exact for attribution studies")
	}
	K := plan.Intervals
	snaps, deltas := buildSnapshots(master, plan, meas)
	outs := make([]intervalOutcome, K)
	errs := make([]error, K)
	shards := plan.Shards
	if shards > K {
		shards = K
	}
	var wg sync.WaitGroup
	for s := 0; s < shards; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			for i := s; i < K; i += shards {
				outs[i], errs[i] = r.runInterval(spec, snaps[i], plan, meas, i)
				outs[i].stats.SkippedInstructions = deltas[i]
				outs[i].stats.AdvancedInstructions += deltas[i]
				snaps[i] = nil // release the snapshot's memory promptly
			}
		}(s)
	}
	wg.Wait()
	for _, e := range errs {
		if e != nil {
			return Result{}, 0, e
		}
	}

	// Merge in interval order: counters, conservation stats, and the
	// spliced interval-metric stream rebased onto the window axis.
	parts := make([]cpu.Result, K)
	sstats := SampleStats{PlannedWindow: meas}
	var rows []metrics.Interval
	var cycBase uint64
	idx := 0
	for i := range outs {
		parts[i] = outs[i].res.Result
		sstats.SkippedInstructions += outs[i].stats.SkippedInstructions
		sstats.MicroWarmupInstructions += outs[i].stats.MicroWarmupInstructions
		sstats.MeasuredInstructions += outs[i].stats.MeasuredInstructions
		sstats.AdvancedInstructions += outs[i].stats.AdvancedInstructions
		start := plan.intervalStart(i, meas)
		for _, row := range outs[i].res.Intervals {
			row.Index = idx
			idx++
			row.StartInstruction += start
			row.EndInstruction += start
			row.StartCycle += cycBase
			row.EndCycle += cycBase
			rows = append(rows, row)
		}
		if n := len(rows); n > 0 {
			cycBase = rows[n-1].EndCycle
		}
	}
	agg := aggregateResults(spec.Benchmark, parts)
	summary := &SampleSummary{
		Intervals:               K,
		IntervalInstructions:    plan.IntervalInsts,
		MicroWarmupInstructions: plan.MicroWarmup,
		WarmWindowInstructions:  plan.WarmWindow,
		Counters:                sstats,
	}
	vals := make([]float64, K)
	for _, m := range sampleMetrics {
		for i := range parts {
			vals[i] = m.get(&parts[i])
		}
		summary.Metrics = append(summary.Metrics, MetricCI{
			Name: m.name, Mean: m.get(&agg), CI: confidence95(vals),
		})
	}
	out := Result{Result: agg, Label: spec.Label, Intervals: rows, Sampling: summary}
	return out, sstats.MicroWarmupInstructions + sstats.MeasuredInstructions, nil
}
