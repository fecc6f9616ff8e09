package experiments

import (
	"encoding/json"
	"fmt"

	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/workload"
)

// SchemaVersion identifies the JSON envelope format emitted by
// Report.MarshalJSON and consumed by cmd/skiacmp. Bump it on any
// incompatible change and teach DecodeReport the migration.
//
// Version history:
//
//	1 — initial envelope: id/title/meta/table/notes.
//	2 — adds the optional `intervals` section (per-spec interval
//	    metrics summaries). Purely additive: v1 reports decode as v2
//	    reports with no intervals.
//	3 — adds the optional `attribution` section (per-spec BTB-miss
//	    cause taxonomy, stall accounts, offenders, distributions).
//	    Purely additive: v1/v2 reports decode as v3 reports with no
//	    attribution.
//	4 — adds meta.interval_instructions: the effective interval-metrics
//	    collection window, recorded so a report's simulation-affecting
//	    spec is fully recoverable from the envelope alone. Purely
//	    additive: older reports decode as v4 reports with a zero
//	    (collection off) interval.
//	5 — adds the optional `sampling` section (per-spec sampled-
//	    simulation summaries: metric point estimates with 95%
//	    confidence intervals, interval/skip accounting) and the
//	    meta.sample_* fields recording the effective sample plan.
//	    Purely additive: older reports decode as v5 reports with no
//	    sampling (exact simulation).
const SchemaVersion = 5

// minSchemaVersion is the oldest envelope DecodeReport still reads.
const minSchemaVersion = 1

// BenchmarkRef names one workload in a run together with the
// generation seed that makes it bit-for-bit reproducible.
type BenchmarkRef struct {
	Name string `json:"name"`
	Seed int64  `json:"seed"`
}

// RunMeta is the run-metadata envelope wrapped around every JSON
// report: enough provenance to reproduce the run (benchmarks and
// seeds, instruction windows, configuration labels, repo version) and
// enough instrumentation to track simulator throughput over time.
type RunMeta struct {
	// Benchmarks lists the workloads simulated, with their seeds.
	Benchmarks []BenchmarkRef `json:"benchmarks,omitempty"`
	// WarmupInstructions and MeasureInstructions are the effective
	// per-run windows (defaults resolved).
	WarmupInstructions  uint64 `json:"warmup_instructions,omitempty"`
	MeasureInstructions uint64 `json:"measure_instructions,omitempty"`
	// IntervalInstructions is the effective interval-metrics window
	// (Options.Interval): one interval row per this many retired
	// instructions, 0 when collection was off. Schema v4; recorded so
	// the run's simulation-affecting spec is recoverable from the
	// envelope.
	IntervalInstructions uint64 `json:"interval_instructions,omitempty"`
	// SampleIntervals, SampleIntervalInstructions,
	// SampleMicroWarmupInstructions, and SampleWarmWindowInstructions
	// are the effective sampled-simulation plan (Options.Sample,
	// defaults resolved): K detail intervals of this many instructions
	// each, preceded by this much detail re-warmup, with functional
	// warming bounded to the final warm-window instructions of each
	// skip (0 = the whole distance warms). All zero when the run was
	// exact. These change the simulated result, so they are part of
	// the recoverable spec. Schema v5.
	SampleIntervals               int    `json:"sample_intervals,omitempty"`
	SampleIntervalInstructions    uint64 `json:"sample_interval_instructions,omitempty"`
	SampleMicroWarmupInstructions uint64 `json:"sample_micro_warmup_instructions,omitempty"`
	SampleWarmWindowInstructions  uint64 `json:"sample_warm_window_instructions,omitempty"`
	// SampleShards is the intra-run sharding width the sampled run fan
	// out over. Recorded for provenance only: shard count never
	// changes the result (sharded and serial runs are DeepEqual), so
	// it is not part of the spec. Schema v5.
	SampleShards int `json:"sample_shards,omitempty"`
	// ConfigLabels lists the distinct RunSpec labels simulated
	// (e.g. ["baseline","both","head","tail"]), in the runner's
	// sorted spec order.
	ConfigLabels []string `json:"config_labels,omitempty"`
	// GitDescribe is `git describe --always --dirty --tags` of the
	// tree that produced the report (filled by cmd/skiaexp).
	GitDescribe string `json:"git_describe,omitempty"`
	// GeneratedAt is the RFC 3339 wall-clock timestamp of the run
	// (filled by cmd/skiaexp).
	GeneratedAt string `json:"generated_at,omitempty"`
	// Sim carries the runner's timing and throughput counters.
	Sim *sim.RunnerStats `json:"sim,omitempty"`
}

// benchmarkRefs pairs each named workload with its registry seed, in
// order (a name the registry does not know gets seed 0).
func benchmarkRefs(names []string) []BenchmarkRef {
	var refs []BenchmarkRef
	for _, n := range names {
		ref := BenchmarkRef{Name: n}
		if p, err := workload.ByName(n); err == nil {
			ref.Seed = p.Seed
		}
		refs = append(refs, ref)
	}
	return refs
}

// meta resolves the options into the run metadata a report over
// benches records: the effective windows, the interval window, the
// normalized sample plan (zero when exact) and the benchmark refs with
// their seeds.
func (o Options) meta(benches []string) RunMeta {
	warm, meas := sim.Windows(o.Warmup, o.Measure)
	m := RunMeta{WarmupInstructions: warm, MeasureInstructions: meas,
		IntervalInstructions: o.Interval, Benchmarks: benchmarkRefs(benches)}
	if o.Sample != nil {
		p := o.Sample.Normalized(meas)
		m.SampleIntervals = p.Intervals
		m.SampleIntervalInstructions = p.IntervalInsts
		m.SampleMicroWarmupInstructions = p.MicroWarmup
		m.SampleWarmWindowInstructions = p.WarmWindow
		m.SampleShards = p.Shards
	}
	return m
}

// stamp fills the report's run-metadata envelope from the options, the
// benchmark list actually simulated, and the runner that executed the
// specs (nil for static tables). It returns the report for use in
// return statements.
func (o Options) stamp(rep *Report, r *sim.Runner, benches []string) *Report {
	m := o.meta(benches)
	if r != nil {
		st := r.Stats()
		m.Sim = &st
		seen := make(map[string]bool)
		for _, sp := range st.Specs {
			if !seen[sp.Label] {
				seen[sp.Label] = true
				m.ConfigLabels = append(m.ConfigLabels, sp.Label)
			}
		}
		rep.Intervals = r.IntervalSummaries()
		rep.Attribution = r.AttributionSummaries()
		rep.Sampling = r.SamplingSummaries()
	}
	rep.Meta = m
	return rep
}

// reportJSON is the on-disk envelope. Field order here is the field
// order in the emitted JSON; EXPERIMENTS.md ("Results schema")
// documents it field by field.
type reportJSON struct {
	SchemaVersion int                   `json:"schema_version"`
	ID            string                `json:"id"`
	Title         string                `json:"title"`
	Meta          RunMeta               `json:"meta"`
	Table         *stats.Table          `json:"table"`
	Notes         []string              `json:"notes,omitempty"`
	Intervals     []sim.SpecIntervals   `json:"intervals,omitempty"`
	Attribution   []sim.SpecAttribution `json:"attribution,omitempty"`
	Sampling      []sim.SpecSampling    `json:"sampling,omitempty"`
}

// MarshalJSON wraps the report in the versioned run-metadata envelope.
func (r *Report) MarshalJSON() ([]byte, error) {
	return json.Marshal(reportJSON{
		SchemaVersion: SchemaVersion,
		ID:            r.ID,
		Title:         r.Title,
		Meta:          r.Meta,
		Table:         r.Table,
		Notes:         r.Notes,
		Intervals:     r.Intervals,
		Attribution:   r.Attribution,
		Sampling:      r.Sampling,
	})
}

// UnmarshalJSON is the inverse of MarshalJSON. It reads every schema
// version back to minSchemaVersion — older envelopes simply lack the
// later optional sections — and rejects unknown future versions rather
// than silently misreading them. Unknown fields are ignored, so newer
// additive envelopes still diff against reports this build wrote.
func (r *Report) UnmarshalJSON(b []byte) error {
	var j reportJSON
	if err := json.Unmarshal(b, &j); err != nil {
		return err
	}
	if j.SchemaVersion < minSchemaVersion || j.SchemaVersion > SchemaVersion {
		return fmt.Errorf("experiments: report schema version %d, this build reads %d..%d",
			j.SchemaVersion, minSchemaVersion, SchemaVersion)
	}
	if j.Table == nil {
		return fmt.Errorf("experiments: report %q has no table", j.ID)
	}
	*r = Report{ID: j.ID, Title: j.Title, Table: j.Table, Notes: j.Notes, Meta: j.Meta,
		Intervals: j.Intervals, Attribution: j.Attribution, Sampling: j.Sampling}
	return nil
}

// DecodeReport parses one JSON report produced by Report.MarshalJSON
// (for example a skiaexp -json -out file).
func DecodeReport(data []byte) (*Report, error) {
	var r Report
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, err
	}
	return &r, nil
}
