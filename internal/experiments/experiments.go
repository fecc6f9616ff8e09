// Package experiments contains one harness per table and figure in the
// paper's evaluation (Section 6), plus the ablations DESIGN.md calls
// out. Each harness declares its configuration variants, runs every
// variant on every benchmark through one sweep, and renders the same
// rows/series the paper reports.
// Absolute numbers differ from the paper's gem5 testbed; the harnesses
// exist to reproduce the shapes: who wins, by roughly what factor, and
// where the crossovers fall.
//
// Every Report renders both as aligned plain text (Report.String) and
// as machine-readable JSON (Report.MarshalJSON): a versioned envelope
// carrying run metadata — benchmarks and seeds, instruction windows,
// config labels, git version, simulator throughput — around a typed
// table whose numeric cells keep their float values alongside the
// rendered text. cmd/skiaexp writes these files with -json/-out and
// cmd/skiacmp diffs two result sets as a regression gate. The schema
// is documented field by field in EXPERIMENTS.md ("Results schema").
//
// Catalog exposes every harness by ID for driving experiments by
// name: cmd/skiaexp iterates it for batch runs.
package experiments

import (
	"fmt"

	"repro/internal/attrib"
	"repro/internal/cpu"
	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/workload"
)

// Options tunes an experiment run.
type Options struct {
	// Warmup and Measure override the per-run instruction windows
	// (zero = sim defaults).
	Warmup, Measure uint64
	// Benchmarks overrides the benchmark list (default: the paper's
	// 16-benchmark suite).
	Benchmarks []string
	// Workers bounds simulation concurrency (0 = GOMAXPROCS).
	Workers int
	// Interval, when nonzero, collects interval metrics (one row per
	// this many retired instructions) on every run; per-spec summaries
	// are embedded in the report envelope's `intervals` section.
	Interval uint64
	// Attrib enables miss attribution on every run; per-spec summaries
	// are embedded in the report envelope's `attribution` section.
	Attrib bool
	// Sample, when non-nil, switches every run to sampled simulation
	// (see sim.SamplePlan): K detail intervals spliced evenly across
	// the measurement window, skipped-over stretches covered by
	// functionally-warmed fast-forward. Every headline metric gains a
	// 95% confidence interval, embedded in the report envelope's
	// `sampling` section. Table cells then hold sampled estimates, not
	// exact counts.
	Sample *sim.SamplePlan
	// Checkpoint enables warmup checkpointing: specs sharing a
	// (benchmark, warmup, config) prefix pay detail warmup once and
	// continue from clones of the warmed core. Bit-identical results,
	// less wall-clock.
	Checkpoint bool
	// Checkpoints, when non-nil (with Checkpoint set), is the warmed-
	// master store runs draw from. Passing the same cache to several
	// harness calls shares warmups across them — e.g. an exact
	// reference sweep followed by a sampled sweep of the same figure
	// pays each (benchmark, config, warmup) cell once. nil keeps the
	// store private to this call.
	Checkpoints *sim.CheckpointCache
	// SampleEcho makes exact (non-sampled) runs publish a CI-free
	// sampling summary row too, so an exact reference report carries
	// the values a sampled report's confidence intervals are gated
	// against (skiacmp -sample-ci).
	SampleEcho bool
}

func (o Options) benchmarks() []string {
	if len(o.Benchmarks) > 0 {
		return o.Benchmarks
	}
	return workload.SuiteNames()
}

func (o Options) runner() *sim.Runner {
	r := sim.NewRunner()
	r.Workers = o.Workers
	r.Interval = o.Interval
	r.Attrib = o.Attrib
	r.Sample = o.Sample
	r.Checkpoint = o.Checkpoint
	r.Checkpoints = o.Checkpoints
	r.SampleEcho = o.SampleEcho
	return r
}

// Report is a rendered experiment result.
type Report struct {
	// ID is the paper artifact this regenerates (e.g. "fig14").
	ID string
	// Title describes the experiment.
	Title string
	// Table holds the rendered rows.
	Table *stats.Table
	// Notes carries shape checks and caveats.
	Notes []string
	// Meta is the run-metadata envelope serialized with the JSON
	// form; harnesses fill it via Options.stamp and cmd/skiaexp adds
	// the git version and timestamp.
	Meta RunMeta
	// Intervals holds one interval-metrics summary per simulated spec
	// when the run collected interval timeseries (Options.Interval);
	// nil otherwise. Serialized as the envelope's optional `intervals`
	// section (schema v2).
	Intervals []Spec[metrics.Summary]
	// Attribution holds one miss-attribution summary per simulated
	// spec when the run enabled it (Options.Attrib); nil otherwise.
	// Serialized as the envelope's optional `attribution` section
	// (schema v3).
	Attribution []Spec[attrib.Summary]
	// Sampling holds one sampled-simulation summary per simulated spec
	// when the run sampled (Options.Sample) or echoed exact values
	// (Options.SampleEcho); nil otherwise. Serialized as the
	// envelope's optional `sampling` section (schema v5).
	Sampling []Spec[sim.SampleSummary]
}

// Spec is one entry of a per-spec envelope section: a simulated spec's
// summary under its identity, the benchmark and config label.
type Spec[T any] struct {
	Benchmark string `json:"benchmark"`
	Label     string `json:"label,omitempty"`
	Summary   T      `json:"summary"`
}

// String renders the report.
func (r *Report) String() string {
	s := fmt.Sprintf("== %s: %s ==\n%s", r.ID, r.Title, r.Table)
	for _, n := range r.Notes {
		s += "note: " + n + "\n"
	}
	return s
}

// variant is one configuration a sweep runs on every benchmark; label
// names it in the report envelope's config_labels.
type variant struct {
	label string
	cfg   cpu.Config
}

// baseline is the paper's Table 1 core; skia is the default Skia core.
func baseline() variant { return variant{"baseline", cpu.DefaultConfig()} }
func skia() variant     { return variant{"skia", cpu.SkiaConfig()} }

// vary returns c changed by set, labelled label.
func vary(label string, c cpu.Config, set func(*cpu.Config)) variant {
	set(&c)
	return variant{label, c}
}

// sweep is a finished variant × benchmark grid: res[v][b] is variant v
// run on benchmark b.
type sweep struct {
	o       Options
	r       *sim.Runner
	benches []string
	res     [][]sim.Result
}

// sweep runs every variant on every benchmark through one RunAll.
func (o Options) sweep(benches []string, vs ...variant) (*sweep, error) {
	var specs []sim.RunSpec
	for _, v := range vs {
		for _, b := range benches {
			specs = append(specs, sim.RunSpec{Benchmark: b, Config: v.cfg,
				Warmup: o.Warmup, Measure: o.Measure, Label: v.label})
		}
	}
	s := &sweep{o: o, r: o.runner(), benches: benches}
	flat, err := s.r.RunAll(specs)
	if err != nil {
		return nil, err
	}
	n := len(benches)
	for v := range vs {
		s.res = append(s.res, flat[v*n:(v+1)*n])
	}
	return s, nil
}

// gain is variant v's geomean IPC speedup over variant 0.
func (s *sweep) gain(v int) float64 {
	ipcs := func(v int) []float64 {
		out := make([]float64, len(s.res[v]))
		for i, res := range s.res[v] {
			out[i] = res.IPC
		}
		return out
	}
	return stats.GeomeanSpeedup(ipcs(v), ipcs(0))
}

// sum totals one counter over variant v's benchmarks.
func (s *sweep) sum(v int, f func(sim.Result) uint64) uint64 {
	var n uint64
	for _, res := range s.res[v] {
		n += f(res)
	}
	return n
}

// pct formats a fraction as a percentage string.
func pct(f float64) string { return fmt.Sprintf("%.2f%%", f*100) }

// f3 formats with three decimals.
func f3(f float64) string { return fmt.Sprintf("%.3f", f) }

// f2 formats with two decimals.
func f2(f float64) string { return fmt.Sprintf("%.2f", f) }

// Typed-cell constructors: each keeps the exact rendering the plain
// text tables have always used while preserving the numeric value for
// the JSON form.

// cStr builds a label cell.
func cStr(s string) stats.Cell { return stats.Str(s) }

// cPct builds a numeric cell holding a fraction, rendered as a percent.
func cPct(f float64) stats.Cell { return stats.Num(f, pct(f)) }

// cF3 and cF2 build numeric cells with three/two-decimal rendering.
func cF3(f float64) stats.Cell { return stats.Num(f, f3(f)) }
func cF2(f float64) stats.Cell { return stats.Num(f, f2(f)) }

// cInt builds a numeric cell from an integer count.
func cInt[T int | int64 | uint64](n T) stats.Cell {
	return stats.Num(float64(n), fmt.Sprint(n))
}
