package store

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"

	"repro/internal/experiments"
	"repro/internal/sim"
	"repro/internal/workload"
)

// Spec is the normalized, simulation-affecting identity of a run: the
// experiment plus every option that changes the result table, with
// defaults resolved so "default windows" and "windows spelled out
// explicitly" hash identically. Knobs that cannot change the result
// (worker count, timeouts, the decode-cache toggle — reports are
// identical either way) are deliberately absent.
//
// Field order is the canonical JSON order; the hash is SHA-256 over
// encoding/json's marshal of this struct, which is deterministic
// because struct fields marshal in declaration order.
type Spec struct {
	// Experiment is the catalog ID ("fig14", "table1", …).
	Experiment string `json:"experiment"`
	// WarmupInstructions and MeasureInstructions are the effective
	// per-run windows, defaults resolved (never zero).
	WarmupInstructions  uint64 `json:"warmup_instructions"`
	MeasureInstructions uint64 `json:"measure_instructions"`
	// Benchmarks lists the workloads simulated with their registry
	// seeds, in run order (the suite default resolved).
	Benchmarks []experiments.BenchmarkRef `json:"benchmarks,omitempty"`
	// IntervalInstructions is the interval-metrics window (0 = off).
	IntervalInstructions uint64 `json:"interval_instructions,omitempty"`
	// Attrib records whether BTB-miss attribution was collected.
	Attrib bool `json:"attrib,omitempty"`
	// SampleIntervals, SampleIntervalInstructions,
	// SampleMicroWarmupInstructions, and SampleWarmWindowInstructions
	// are the normalized sampled-simulation plan, all zero for exact
	// runs (a zero warm window means full-distance warming). These
	// change the simulated numbers, so they key the archive. Knobs
	// that provably do not change results — shard count, warmup
	// checkpointing, worker count — are deliberately absent: a sharded
	// and a serial run of the same plan share one trajectory.
	SampleIntervals               int    `json:"sample_intervals,omitempty"`
	SampleIntervalInstructions    uint64 `json:"sample_interval_instructions,omitempty"`
	SampleMicroWarmupInstructions uint64 `json:"sample_micro_warmup_instructions,omitempty"`
	SampleWarmWindowInstructions  uint64 `json:"sample_warm_window_instructions,omitempty"`
	// SampleEcho records whether an exact run published reference
	// sampling rows; like Attrib it changes the report's content (the
	// `sampling` section), so cached reports must not cross it.
	SampleEcho bool `json:"sample_echo,omitempty"`
}

// NewSpec normalizes harness options into a Spec, resolving the
// default instruction windows and the default benchmark suite (with
// registry seeds) so equivalent option spellings produce one hash.
func NewSpec(experiment string, o experiments.Options) Spec {
	return specOf(experiment, o.Meta(o.Benchmarks), o.Attrib, o.Sample == nil && o.SampleEcho)
}

// SpecOfReport recovers the spec from a report envelope's metadata.
// Schema v5 envelopes carry everything (the interval window and the
// sample plan included); older envelopes normalize with those features
// off. The recovered spec hashes identically to the NewSpec the
// producer would have built, so `skiaboard put` imports join the same
// trajectory as live skiaserve archives.
func SpecOfReport(rep *experiments.Report) Spec {
	echo := false
	for _, row := range rep.Sampling {
		if row.Summary.Exact {
			echo = true
			break
		}
	}
	return specOf(rep.ID, rep.Meta, len(rep.Attribution) > 0, echo)
}

// specOf builds the spec from run metadata — live options resolved by
// Options.Meta, or a report's envelope — resolving the windows an older
// envelope may leave zero, and an empty benchmark list to the default
// suite (static-table reports stamp none).
func specOf(experiment string, m experiments.RunMeta, attrib, echo bool) Spec {
	warm, meas := sim.Windows(m.WarmupInstructions, m.MeasureInstructions)
	s := Spec{
		Experiment:           experiment,
		WarmupInstructions:   warm,
		MeasureInstructions:  meas,
		Benchmarks:           m.Benchmarks,
		IntervalInstructions: m.IntervalInstructions,
		Attrib:               attrib,

		SampleIntervals:               m.SampleIntervals,
		SampleIntervalInstructions:    m.SampleIntervalInstructions,
		SampleMicroWarmupInstructions: m.SampleMicroWarmupInstructions,
		SampleWarmWindowInstructions:  m.SampleWarmWindowInstructions,
		SampleEcho:                    echo,
	}
	if len(s.Benchmarks) == 0 {
		s.Benchmarks = experiments.BenchmarkRefs(workload.SuiteNames())
	}
	return s
}

// Hash is the spec's canonical-JSON SHA-256, hex-encoded: the key the
// archive, the serve-layer result cache, and skiaboard's trajectory
// grouping all share.
func (s Spec) Hash() string {
	data, err := json.Marshal(s)
	if err != nil {
		// Spec is plain data (strings, integers, bool); Marshal cannot
		// fail on it.
		panic("store: spec marshal: " + err.Error())
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:])
}
