package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"time"

	"repro/internal/cpu"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/workload"
)

// paperBothGainPct is the paper's Fig 14 geomean IPC gain with both
// shadow decoders on; gain_gap_pp is measured against it.
const paperBothGainPct = 5.64

// variant is one Fig 14 configuration: the baseline front end, or Skia
// with the head decoder, the tail decoder, or both.
type variant struct {
	name       string
	head, tail bool
	skia       bool
}

// fig14Variants mirrors experiments.Fig14's variants, in its order.
var fig14Variants = []variant{
	{"baseline", false, false, false},
	{"head", true, false, true},
	{"tail", false, true, true},
	{"both", true, true, true},
}

// workloadDef is one named benchmark workload: the Fig 14 sweep over a
// benchmark list with fixed windows and the runner features it turns on.
type workloadDef struct {
	name    string
	benches []string
	warmup  uint64
	measure uint64
	// sample, when non-nil, runs every spec sampled from warmup
	// checkpoints; nil runs exact.
	sample *sim.SamplePlan
	// observed attaches miss attribution and interval metrics.
	observed bool
}

// observedInterval is the interval-metrics row length on observed.
const observedInterval = 50_000

var workloads = []workloadDef{
	{
		name:    "fig14-exact",
		benches: []string{"voter", "kafka", "dotty", "finagle-chirper"},
		warmup:  200_000,
		measure: 600_000,
	},
	{
		name:    "suite-sampled",
		benches: workload.SuiteNames(),
		warmup:  50_000,
		measure: 3_000_000,
		sample: &sim.SamplePlan{
			Intervals:     4,
			IntervalInsts: 15_000,
			MicroWarmup:   7_500,
			WarmWindow:    200_000,
		},
	},
	{
		name:     "observed",
		benches:  []string{"voter", "kafka"},
		warmup:   200_000,
		measure:  600_000,
		observed: true,
	},
}

func workloadByName(name string) (workloadDef, error) {
	for _, d := range workloads {
		if d.name == name {
			return d, nil
		}
	}
	return workloadDef{}, fmt.Errorf("unknown workload %q", name)
}

// specs builds the sweep in experiments.Fig14's order: variants outer,
// benchmarks inner.
func (d workloadDef) specs() []sim.RunSpec {
	var out []sim.RunSpec
	for _, v := range fig14Variants {
		for _, b := range d.benches {
			cfg := cpu.DefaultConfig()
			if v.skia {
				cfg = cpu.SkiaConfig()
				cfg.Frontend.SBD.Head = v.head
				cfg.Frontend.SBD.Tail = v.tail
			}
			out = append(out, sim.RunSpec{
				Benchmark: b, Config: cfg,
				Warmup: d.warmup, Measure: d.measure, Label: v.name,
			})
		}
	}
	return out
}

// order returns a submission order for the sweep: every Skia spec
// before every baseline spec, each group shuffled by rng. Skia specs
// cost about twice a baseline spec, so submitting them first keeps the
// sweep's tail — one worker idle while the other finishes — short and
// alike from seed to seed.
func (d workloadDef) order(rng *rand.Rand) []int {
	var skia, base []int
	for i, s := range d.specs() {
		if s.Label == "baseline" {
			base = append(base, i)
		} else {
			skia = append(skia, i)
		}
	}
	rng.Shuffle(len(skia), func(i, j int) { skia[i], skia[j] = skia[j], skia[i] })
	rng.Shuffle(len(base), func(i, j int) { base[i], base[j] = base[j], base[i] })
	return append(skia, base...)
}

// covered is the instruction volume one spec stands for: warmup plus
// the whole measurement window, whether run in detail or skipped.
func (d workloadDef) covered() uint64 {
	return uint64(len(fig14Variants)*len(d.benches)) * (d.warmup + d.measure)
}

// runner builds a fresh runner with the workload's features on. Exact
// runs echo a sampling row so every spec carries conservation counters.
func (d workloadDef) runner(workers int) *sim.Runner {
	r := sim.NewRunner()
	r.Workers = workers
	r.Sample = d.sample
	r.Checkpoint = d.sample != nil
	r.SampleEcho = d.sample == nil
	r.Attrib = d.observed
	if d.observed {
		r.Interval = observedInterval
	}
	return r
}

// setUp generates every workload through r (so the timed sweep finds
// them cached) and constructs one core per spec, discarding it.
func setUp(r *sim.Runner, specs []sim.RunSpec) error {
	for _, s := range specs {
		w, err := r.Workload(s.Benchmark)
		if err != nil {
			return err
		}
		if _, err := cpu.New(s.Config, w); err != nil {
			return fmt.Errorf("%s/%s: %w", s.Benchmark, s.Label, err)
		}
	}
	return nil
}

// sweepRun is one set-up plus timed sweep.
type sweepRun struct {
	wall time.Duration
	// results are in d.specs() order; err is RunAll's joined error.
	results []sim.Result
	err     error
}

// runSweep sets up a fresh runner and times one RunAll over the specs
// in the given order. Results come back in canonical order.
func runSweep(d workloadDef, workers int, order []int) (sweepRun, error) {
	specs := d.specs()
	r := d.runner(workers)
	if err := setUp(r, specs); err != nil {
		return sweepRun{}, err
	}
	var out sweepRun
	runtime.GC()
	permuted := make([]sim.RunSpec, len(specs))
	for i, j := range order {
		permuted[i] = specs[j]
	}
	//skia:nondet-ok wall clock times the sweep, the measurement itself; no simulated state depends on it
	t1 := time.Now()
	res, err := r.RunAll(permuted)
	//skia:nondet-ok wall clock times the sweep, the measurement itself; no simulated state depends on it
	out.wall = time.Since(t1)
	out.err = err
	out.results = make([]sim.Result, len(specs))
	for i, j := range order {
		out.results[j] = res[i]
	}
	return out, nil
}

// check validates one sweep's outputs and returns one problem string
// per failed spec (empty when all pass).
func check(d workloadDef, res []sim.Result) []string {
	var bad []string
	for i, s := range d.specs() {
		if p := checkSpec(d, s, res[i]); p != "" {
			bad = append(bad, fmt.Sprintf("%s/%s: %s", s.Benchmark, s.Label, p))
		}
	}
	return bad
}

// checkSpec returns why one spec's result is wrong, or "". A failed run
// leaves a zero-valued slot; RunAll's error says why.
func checkSpec(d workloadDef, s sim.RunSpec, r sim.Result) string {
	if r.Label != s.Label || r.Benchmark != s.Benchmark {
		return "run failed"
	}
	if r.FE.ForcedResyncs > 0 {
		return fmt.Sprintf("%d forced resyncs", r.FE.ForcedResyncs)
	}
	if r.Sampling == nil {
		return "no sampling counters"
	}
	c := r.Sampling.Counters
	if c.SkippedInstructions+c.MicroWarmupInstructions+c.MeasuredInstructions != c.AdvancedInstructions {
		return fmt.Sprintf("conservation: skipped %d + micro-warmup %d + measured %d != advanced %d",
			c.SkippedInstructions, c.MicroWarmupInstructions, c.MeasuredInstructions, c.AdvancedInstructions)
	}
	if d.sample == nil && c.MeasuredInstructions < d.measure {
		return fmt.Sprintf("measured %d < window %d", c.MeasuredInstructions, d.measure)
	}
	if d.sample != nil && c.AdvancedInstructions > d.measure {
		return fmt.Sprintf("advanced %d > window %d", c.AdvancedInstructions, d.measure)
	}
	if r.IPC <= 0 {
		return "zero IPC"
	}
	if !d.observed {
		return ""
	}
	a := r.Attribution
	if a == nil || len(r.Intervals) == 0 {
		return "missing attribution or intervals"
	}
	var causes, stalls uint64
	for _, c := range a.Causes {
		causes += c.Count
	}
	for _, st := range a.Stalls {
		stalls += st.Count
	}
	if causes != a.BTBMisses || a.BTBMisses != r.FE.BTBMissTotal() {
		return fmt.Sprintf("attribution: causes %d, engine misses %d, front-end misses %d",
			causes, a.BTBMisses, r.FE.BTBMissTotal())
	}
	if stalls != a.StallCycles {
		return fmt.Sprintf("attribution: stall kinds %d != stall cycles %d", stalls, a.StallCycles)
	}
	return ""
}

// digest hashes every simulated counter of a sweep, in canonical spec
// order, so two builds can be compared exactly.
func digest(res []sim.Result) (string, error) {
	h := sha256.New()
	enc := json.NewEncoder(h)
	for i := range res {
		if err := enc.Encode(res[i]); err != nil {
			return "", fmt.Errorf("digest: %w", err)
		}
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// fidelity holds the simulated end-to-end metrics of one sweep.
type fidelity struct {
	gains        map[string][]float64 // variant -> per-benchmark gain
	geomean      map[string]float64   // variant -> geomean gain
	gainGapPP    float64
	losing       int
	l1iMPKIErrPc float64
}

// simulated computes the fidelity metrics from one sweep's results: the
// Fig 14 gains over baseline and the Fig 13 aggregate L1-I MPKI error.
func simulated(d workloadDef, res []sim.Result) (fidelity, error) {
	ipc := map[string][]float64{}
	var simL1I, target float64
	for i, s := range d.specs() {
		ipc[s.Label] = append(ipc[s.Label], res[i].IPC)
		if s.Label == "baseline" {
			p, err := workload.ByName(s.Benchmark)
			if err != nil {
				return fidelity{}, err
			}
			simL1I += res[i].L1IMPKI
			target += p.L1IMPKITarget
		}
	}
	f := fidelity{gains: map[string][]float64{}, geomean: map[string]float64{}}
	base := ipc["baseline"]
	for _, v := range fig14Variants[1:] {
		for i, x := range ipc[v.name] {
			f.gains[v.name] = append(f.gains[v.name], stats.Speedup(x, base[i]))
		}
		f.geomean[v.name] = stats.GeomeanSpeedup(ipc[v.name], base)
	}
	for _, g := range f.gains["both"] {
		if g < 0 {
			f.losing++
		}
	}
	f.gainGapPP = math.Abs(f.geomean["both"]*100 - paperBothGainPct)
	f.l1iMPKIErrPc = math.Abs(simL1I-target) / target * 100
	return f, nil
}
