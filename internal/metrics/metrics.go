// Package metrics is the simulator's observability layer: an interval
// timeseries collector that turns the core's monotonically increasing
// counters into per-interval rows (IPC, miss MPKI, SBB coverage,
// decode-idle breakdown, cache hit rates), the front end's event
// vocabulary (Event, EventKind), a ring-buffered tracer whose
// recordings export as Chrome trace_event JSON (loadable in Perfetto
// or chrome://tracing), and pprof/runtime-trace profiling hooks for the
// CLIs.
//
// The paper's headline claims are time-varying front-end phenomena —
// FDIP running ahead, BTB-miss re-steers stalling decode, the SBB
// absorbing misses — that end-of-run aggregates average away. The
// collector exposes phase behaviour and warmup convergence; the tracer
// exposes individual re-steers and shadow-decode events on a timeline.
//
// Everything here is designed to cost nothing when disabled: the core
// nil-checks its collector once per cycle, and the front end's one
// event stream, which feeds the ring tracer and the attribution engine
// (internal/attrib) alike, costs one comparison per site when neither
// is attached.
package metrics

import (
	"encoding/json"
	"fmt"
	"io"
)

// DefaultEvery is the default interval width in instructions.
const DefaultEvery = 100_000

// Sample is a snapshot of the core's cumulative counters at one point
// in simulated time. The collector differences successive samples into
// intervals; the fields mirror the aggregate statistics the simulator
// already keeps (frontend.Stats plus cache and cycle counters), mapped
// here so this package stays a leaf the front-end itself can import.
type Sample struct {
	// Cycles and Instructions are the core's cumulative counters.
	Cycles       uint64
	Instructions uint64

	// BTBMisses counts taken branches the BTB failed to identify;
	// SBBCovered counts the subset the SBB absorbed (no re-steer).
	BTBMisses  uint64
	SBBCovered uint64

	// Resteers by resolving stage.
	DecodeResteers uint64
	ExecResteers   uint64

	// CondMispredicts counts direction mispredictions.
	CondMispredicts uint64

	// Decoder idle cycles, split by cause.
	DecodeIdleCycles        uint64
	DecodeIdleFetchCycles   uint64
	DecodeIdleResteerCycles uint64

	// Cache accesses (demand + prefetch combined) by outcome.
	L1IHits, L1IMisses uint64
	L2Hits, L2Misses   uint64
}

// Interval is one timeseries row: the difference between two samples,
// with the derived rates the analyses plot. Raw deltas are kept
// alongside the rates so consumers can re-derive or re-aggregate; the
// per-interval deltas of every counter sum exactly to the run's
// aggregate statistics.
type Interval struct {
	// Index numbers intervals from 0 within one run.
	Index int `json:"index"`
	// StartInstruction/EndInstruction delimit the interval in retired
	// instructions [start, end); StartCycle/EndCycle likewise in
	// cycles. Boundaries are aligned to retire-width granularity, so
	// interval widths can exceed the configured width by a few
	// instructions.
	StartInstruction uint64 `json:"start_instruction"`
	EndInstruction   uint64 `json:"end_instruction"`
	StartCycle       uint64 `json:"start_cycle"`
	EndCycle         uint64 `json:"end_cycle"`

	// Instructions and Cycles are the interval's deltas.
	Instructions uint64 `json:"instructions"`
	Cycles       uint64 `json:"cycles"`
	// IPC is Instructions/Cycles for this interval alone.
	IPC float64 `json:"ipc"`

	// Raw event deltas.
	BTBMisses       uint64 `json:"btb_misses"`
	SBBCovered      uint64 `json:"sbb_covered"`
	DecodeResteers  uint64 `json:"decode_resteers"`
	ExecResteers    uint64 `json:"exec_resteers"`
	CondMispredicts uint64 `json:"cond_mispredicts"`

	// Derived rates.
	BTBMissMPKI float64 `json:"btb_miss_mpki"`
	// EffectiveMissMPKI subtracts SBB-covered misses: the misses that
	// still cost a re-steer.
	EffectiveMissMPKI float64 `json:"effective_miss_mpki"`
	// SBBCoverage is SBBCovered/BTBMisses (0 when no misses).
	SBBCoverage float64 `json:"sbb_coverage"`
	CondMPKI    float64 `json:"cond_mpki"`

	// Decode-idle breakdown as fractions of interval cycles.
	DecodeIdleFrac        float64 `json:"decode_idle_frac"`
	DecodeIdleFetchFrac   float64 `json:"decode_idle_fetch_frac"`
	DecodeIdleResteerFrac float64 `json:"decode_idle_resteer_frac"`

	// Cache hit rates over the interval's accesses (1 when idle).
	L1IHitRate float64 `json:"l1i_hit_rate"`
	L2HitRate  float64 `json:"l2_hit_rate"`
}

// Collector accumulates interval rows from the core's counter samples.
// The core calls Record each time retired instructions cross the next
// interval boundary and Finish once at the end of the measurement
// window; the collector differences each sample against the previous
// one. Not safe for concurrent use: attach one collector per core.
//
//skia:serial
type Collector struct {
	every uint64
	next  uint64
	base  Sample
	ivs   []Interval
}

// NewCollector returns a collector cutting intervals every `every`
// retired instructions (0 selects DefaultEvery).
func NewCollector(every uint64) *Collector {
	if every == 0 {
		every = DefaultEvery
	}
	return &Collector{every: every}
}

// Every returns the configured interval width.
func (c *Collector) Every() uint64 { return c.every }

// Reset establishes the baseline sample (the measurement-window start)
// and discards any recorded intervals.
func (c *Collector) Reset(base Sample) {
	c.base = base
	c.next = base.Instructions + c.every
	c.ivs = c.ivs[:0]
}

// Next returns the instruction count at which the caller should take
// the next sample and call Record.
func (c *Collector) Next() uint64 { return c.next }

// Record closes the current interval at s. The next boundary advances
// past s, so a single call always produces exactly one non-empty
// interval even when s overshoots several boundaries at once.
func (c *Collector) Record(s Sample) {
	c.push(s)
	for c.next <= s.Instructions {
		c.next += c.every
	}
}

// Finish closes the final partial interval, if any instructions
// retired since the last boundary. Runs shorter than one interval
// yield a single partial row; empty windows yield none.
func (c *Collector) Finish(s Sample) {
	if s.Instructions > c.base.Instructions {
		c.push(s)
	}
}

func (c *Collector) push(s Sample) {
	b := c.base
	iv := Interval{
		Index:            len(c.ivs),
		StartInstruction: b.Instructions,
		EndInstruction:   s.Instructions,
		StartCycle:       b.Cycles,
		EndCycle:         s.Cycles,
		Instructions:     s.Instructions - b.Instructions,
		Cycles:           s.Cycles - b.Cycles,
		BTBMisses:        s.BTBMisses - b.BTBMisses,
		SBBCovered:       s.SBBCovered - b.SBBCovered,
		DecodeResteers:   s.DecodeResteers - b.DecodeResteers,
		ExecResteers:     s.ExecResteers - b.ExecResteers,
		CondMispredicts:  s.CondMispredicts - b.CondMispredicts,
	}
	if iv.Cycles > 0 {
		iv.IPC = float64(iv.Instructions) / float64(iv.Cycles)
		idle := s.DecodeIdleCycles - b.DecodeIdleCycles
		iv.DecodeIdleFrac = float64(idle) / float64(iv.Cycles)
		iv.DecodeIdleFetchFrac = float64(s.DecodeIdleFetchCycles-b.DecodeIdleFetchCycles) / float64(iv.Cycles)
		iv.DecodeIdleResteerFrac = float64(s.DecodeIdleResteerCycles-b.DecodeIdleResteerCycles) / float64(iv.Cycles)
	}
	if iv.Instructions > 0 {
		k := float64(iv.Instructions) / 1000
		iv.BTBMissMPKI = float64(iv.BTBMisses) / k
		iv.EffectiveMissMPKI = float64(iv.BTBMisses-iv.SBBCovered) / k
		iv.CondMPKI = float64(iv.CondMispredicts) / k
	}
	if iv.BTBMisses > 0 {
		iv.SBBCoverage = float64(iv.SBBCovered) / float64(iv.BTBMisses)
	}
	iv.L1IHitRate = hitRate(s.L1IHits-b.L1IHits, s.L1IMisses-b.L1IMisses)
	iv.L2HitRate = hitRate(s.L2Hits-b.L2Hits, s.L2Misses-b.L2Misses)
	c.ivs = append(c.ivs, iv)
	c.base = s
}

// hitRate returns hits/(hits+misses), defaulting to 1 for an idle
// interval (no accesses means nothing missed).
func hitRate(hits, misses uint64) float64 {
	if hits+misses == 0 {
		return 1
	}
	return float64(hits) / float64(hits+misses)
}

// Intervals returns the recorded rows in order.
func (c *Collector) Intervals() []Interval { return c.ivs }

// Summary condenses the recorded intervals for embedding in report
// envelopes where full NDJSON rows would be noise.
func (c *Collector) Summary() Summary { return Summarize(c.every, c.ivs) }

// Summary is the compact per-run digest of an interval timeseries:
// enough to spot phase behaviour and warmup convergence (first vs last
// interval IPC, min/max spread) without carrying every row.
type Summary struct {
	// Every is the configured interval width in instructions.
	Every uint64 `json:"every"`
	// Count is the number of intervals recorded (the last may be
	// partial).
	Count int `json:"count"`
	// Instructions and Cycles total the covered window.
	Instructions uint64 `json:"instructions"`
	Cycles       uint64 `json:"cycles"`
	// IPCMin/IPCMax bound per-interval IPC; IPCMean is the
	// cycle-weighted mean (the window's aggregate IPC).
	IPCMin  float64 `json:"ipc_min"`
	IPCMean float64 `json:"ipc_mean"`
	IPCMax  float64 `json:"ipc_max"`
	// IPCFirst and IPCLast are the first and last intervals' IPC — a
	// quick warmup-convergence check.
	IPCFirst float64 `json:"ipc_first"`
	IPCLast  float64 `json:"ipc_last"`
	// BTBMissMPKIMax is the worst interval's BTB-miss MPKI (burst
	// detector).
	BTBMissMPKIMax float64 `json:"btb_miss_mpki_max"`
	// SBBCoverage is the window-wide SBB coverage: total covered misses
	// over total BTB misses (0 when the window had none). Computed from
	// the summed raw deltas, not averaged per-interval rates, so it
	// matches the run's aggregate coverage.
	SBBCoverage float64 `json:"sbb_coverage"`
}

// Summarize digests interval rows into a Summary.
func Summarize(every uint64, ivs []Interval) Summary {
	s := Summary{Every: every, Count: len(ivs)}
	if len(ivs) == 0 {
		return s
	}
	s.IPCMin = ivs[0].IPC
	s.IPCFirst = ivs[0].IPC
	s.IPCLast = ivs[len(ivs)-1].IPC
	var misses, covered uint64
	for _, iv := range ivs {
		s.Instructions += iv.Instructions
		s.Cycles += iv.Cycles
		misses += iv.BTBMisses
		covered += iv.SBBCovered
		if iv.IPC < s.IPCMin {
			s.IPCMin = iv.IPC
		}
		if iv.IPC > s.IPCMax {
			s.IPCMax = iv.IPC
		}
		if iv.BTBMissMPKI > s.BTBMissMPKIMax {
			s.BTBMissMPKIMax = iv.BTBMissMPKI
		}
	}
	if s.Cycles > 0 {
		s.IPCMean = float64(s.Instructions) / float64(s.Cycles)
	}
	if misses > 0 {
		s.SBBCoverage = float64(covered) / float64(misses)
	}
	return s
}

// WriteNDJSON writes one JSON object per interval, newline-delimited —
// the format dataframe loaders ingest directly.
func WriteNDJSON(w io.Writer, ivs []Interval) error {
	for i := range ivs {
		data, err := json.Marshal(&ivs[i])
		if err != nil {
			return fmt.Errorf("metrics: interval %d: %w", i, err)
		}
		if _, err := w.Write(append(data, '\n')); err != nil {
			return err
		}
	}
	return nil
}
