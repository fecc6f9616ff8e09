package serve

import (
	"context"
	"fmt"
	"sync/atomic"
	"time"

	"repro/internal/experiments"
	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/workload"
)

// JobSpec is the submit-request body: which experiment to run and
// under which windows. It deliberately reuses the report envelope's
// vocabulary — `schema_version` follows experiments.SchemaVersion and
// the options live in the same `meta` object (RunMeta) the result
// envelope carries, so a spec is readable as "the meta I want the
// report to come back with". Decoders accept schema versions 1
// through experiments.SchemaVersion; fields later versions added
// (interval, attrib) are simply absent from older specs.
//
// API.md ("Job spec") documents the JSON field by field; a doc-sync
// test fails the build when the two drift.
type JobSpec struct {
	// SchemaVersion is the envelope schema the submitter speaks,
	// 1..experiments.SchemaVersion. Zero means latest.
	SchemaVersion int `json:"schema_version,omitempty"`
	// Experiment is a catalog ID (skiaexp -list): "fig14", "table1", …
	Experiment string `json:"experiment"`
	// Meta carries the run options in report-envelope form. Honored
	// fields: warmup_instructions, measure_instructions, benchmarks
	// (names only; seeds are implied by the registry). Everything else
	// (git_describe, sim, …) is report output and ignored on input.
	Meta experiments.RunMeta `json:"meta"`
	// Interval, when nonzero, collects interval metrics every N
	// retired instructions; per-spec summaries stream back as
	// `intervals` events and land in the report envelope. Requires
	// schema version >= 2.
	Interval uint64 `json:"interval,omitempty"`
	// Attrib enables per-cause BTB-miss attribution (report envelope
	// `attribution` section). Requires schema version >= 3.
	Attrib bool `json:"attrib,omitempty"`
	// Sample switches every run to sampled simulation (report envelope
	// `sampling` section): K detail intervals spliced over the
	// measurement window, each headline metric with a 95% CI. The plan
	// comes from the meta sample_* fields (sample_intervals,
	// sample_interval_instructions, sample_micro_warmup_instructions,
	// sample_warm_window_instructions, sample_shards), defaults
	// resolved; setting any of those implies Sample. Requires schema
	// version >= 5.
	Sample bool `json:"sample,omitempty"`
	// Checkpoint shares detail warmup between the job's runs with the
	// same (benchmark, warmup, config): bit-identical results, less
	// wall-clock. Requires schema version >= 5.
	Checkpoint bool `json:"checkpoint,omitempty"`
	// SampleEcho makes exact runs publish CI-free `sampling` rows, the
	// reference side of a skiacmp -sample-ci gate. Requires schema
	// version >= 5.
	SampleEcho bool `json:"sample_echo,omitempty"`
	// TimeoutSeconds bounds the job's wall-clock run time; expiry
	// cancels the simulation and fails the job with a non-retriable
	// timeout error. Zero uses the server default.
	TimeoutSeconds float64 `json:"timeout_seconds,omitempty"`
}

// Validate checks the spec against the catalog and the workload
// registry so bad requests fail at submit time (HTTP 400), not as
// failed jobs.
func (s JobSpec) Validate() error {
	if s.SchemaVersion < 0 || s.SchemaVersion > experiments.SchemaVersion {
		return fmt.Errorf("schema_version %d outside 1..%d", s.SchemaVersion, experiments.SchemaVersion)
	}
	if s.Experiment == "" {
		return fmt.Errorf("experiment is required")
	}
	if _, ok := experiments.Catalog()[s.Experiment]; !ok {
		return fmt.Errorf("unknown experiment %q (have %v)", s.Experiment, experiments.IDs())
	}
	for _, b := range s.Meta.Benchmarks {
		if _, err := workload.ByName(b.Name); err != nil {
			return fmt.Errorf("benchmark %q: %w", b.Name, err)
		}
	}
	if s.SchemaVersion != 0 && s.SchemaVersion < 2 && s.Interval != 0 {
		return fmt.Errorf("interval requires schema_version >= 2 (got %d)", s.SchemaVersion)
	}
	if s.SchemaVersion != 0 && s.SchemaVersion < 3 && s.Attrib {
		return fmt.Errorf("attrib requires schema_version >= 3 (got %d)", s.SchemaVersion)
	}
	if s.SchemaVersion != 0 && s.SchemaVersion < 5 && s.sampling() {
		return fmt.Errorf("sample/checkpoint/sample_echo require schema_version >= 5 (got %d)", s.SchemaVersion)
	}
	if s.Meta.SampleIntervals < 0 || s.Meta.SampleShards < 0 {
		return fmt.Errorf("sample_intervals and sample_shards must be >= 0")
	}
	if s.TimeoutSeconds < 0 {
		return fmt.Errorf("timeout_seconds must be >= 0")
	}
	return nil
}

// plan is the spec's sample plan: Sample or any meta sample_* field
// selects sampling (sim.PlanIf); nil means exact simulation.
func (s JobSpec) plan() *sim.SamplePlan {
	return sim.PlanIf(s.Sample, sim.SamplePlan{
		Intervals:     s.Meta.SampleIntervals,
		IntervalInsts: s.Meta.SampleIntervalInstructions,
		MicroWarmup:   s.Meta.SampleMicroWarmupInstructions,
		WarmWindow:    s.Meta.SampleWarmWindowInstructions,
		Shards:        s.Meta.SampleShards,
	})
}

// sampling reports whether the spec asks for any schema-v5 sampling
// feature: a sample plan or the checkpoint / sample_echo toggles.
func (s JobSpec) sampling() bool {
	return s.plan() != nil || s.Checkpoint || s.SampleEcho
}

// options translates the spec into harness options. Per-job simulation
// concurrency comes from the server (jobWorkers), not the spec: the
// worker pool owns the machine's parallelism budget.
func (s JobSpec) options(jobWorkers int) experiments.Options {
	o := experiments.Options{
		Warmup:     s.Meta.WarmupInstructions,
		Measure:    s.Meta.MeasureInstructions,
		Workers:    jobWorkers,
		Interval:   s.Interval,
		Attrib:     s.Attrib,
		Sample:     s.plan(),
		Checkpoint: s.Checkpoint,
		SampleEcho: s.SampleEcho,
	}
	for _, b := range s.Meta.Benchmarks {
		o.Benchmarks = append(o.Benchmarks, b.Name)
	}
	return o
}

// Job states, in lifecycle order.
const (
	StatusQueued   = "queued"
	StatusRunning  = "running"
	StatusDone     = "done"
	StatusFailed   = "failed"
	StatusCanceled = "canceled"
)

// JobStatus is the status JSON returned by submit, GET /v1/jobs/{id},
// and the stream's `job` events.
type JobStatus struct {
	JobID      string `json:"job_id"`
	Experiment string `json:"experiment"`
	Status     string `json:"status"`
	// Shard is the worker-pool shard the job was enqueued on.
	Shard int `json:"shard"`
	// QueueDepth is the shard's queue occupancy observed at submit
	// time (submit response only).
	QueueDepth int `json:"queue_depth,omitempty"`
	// Error and Retriable describe terminal failures. Retriable means
	// resubmitting the identical spec may succeed (shutdown, queue
	// pressure) as opposed to a deterministic failure (bad benchmark,
	// simulation error, timeout).
	Error     string `json:"error,omitempty"`
	Retriable bool   `json:"retriable,omitempty"`
	// Timestamps are RFC 3339 with subsecond precision; unset phases
	// are omitted.
	EnqueuedAt  string  `json:"enqueued_at,omitempty"`
	StartedAt   string  `json:"started_at,omitempty"`
	FinishedAt  string  `json:"finished_at,omitempty"`
	WallSeconds float64 `json:"wall_seconds,omitempty"`
	// Rows counts the result table's data rows once the job is done.
	Rows int `json:"rows,omitempty"`
	// TraceID is the W3C trace the job's spans belong to: the
	// submitter's trace when the request carried a valid `traceparent`
	// header, otherwise a self-rooted one derived from the job ID.
	TraceID string `json:"trace_id,omitempty"`
	// SpecHash is the canonical spec hash of (experiment, normalized
	// options) — the key the run-history archive (internal/store) and
	// the result cache share. Stamped at submit on every job.
	SpecHash string `json:"spec_hash,omitempty"`
	// Cached marks a done job whose report was served from the archive
	// on a spec-hash match instead of being re-simulated.
	Cached bool `json:"cached,omitempty"`
	// Progress carries live execution progress (instructions retired,
	// simulated MIPS, ETA) once the job has a plan; nil while queued.
	Progress *JobProgress `json:"progress,omitempty"`
}

// JobProgress is live execution progress: the payload of stream
// `progress` events and the `progress` field of a running or terminal
// job's status. Counts come from the simulator's instruction-chunk
// checkpoints (every 262,144 retired instructions), so a long window
// updates a few times per simulated second at typical MIPS.
type JobProgress struct {
	// InstructionsRetired and InstructionsPlanned are cumulative over
	// every simulation the job runs; planned is registered up front so
	// Fraction's denominator is stable from the first checkpoint.
	InstructionsRetired uint64 `json:"instructions_retired"`
	InstructionsPlanned uint64 `json:"instructions_planned,omitempty"`
	// Fraction is retired/planned clamped to [0, 1]; 0 when the plan is
	// unknown.
	Fraction float64 `json:"fraction"`
	// SimMIPS is the job's simulated throughput: millions of retired
	// instructions per wall-clock second of run time so far.
	SimMIPS float64 `json:"sim_mips,omitempty"`
	// ETASeconds estimates remaining run time from SimMIPS and the
	// unretired remainder; omitted when the rate is still unknown.
	ETASeconds float64 `json:"eta_seconds,omitempty"`
	// QueueSeconds and RunSeconds split the job's wall clock at the
	// moment the snapshot was taken: time spent waiting on the shard
	// queue versus time spent simulating.
	QueueSeconds float64 `json:"queue_seconds,omitempty"`
	RunSeconds   float64 `json:"run_seconds,omitempty"`
}

// Row is one result-table row in a stream `row` event. Index is the
// 0-based row position in the report table; cells align with the
// preceding `columns` event.
type Row struct {
	Index int          `json:"index"`
	Cells []stats.Cell `json:"cells"`
}

// JobError is the stream `error` event payload.
type JobError struct {
	Message string `json:"message"`
	// Retriable marks transient failures (shutdown drain); resubmit
	// the same spec. Deterministic failures (timeout, simulation
	// error) are not retriable.
	Retriable bool `json:"retriable"`
}

// JobManifest is the stream's final event: the job's closing summary.
// Every stream ends with exactly one manifest, success or failure, so
// a client that counts manifests reconciles jobs exactly.
type JobManifest struct {
	SchemaVersion int    `json:"schema_version"`
	JobID         string `json:"job_id"`
	Experiment    string `json:"experiment"`
	Status        string `json:"status"`
	// Rows is the number of `row` events the stream carried.
	Rows        int     `json:"rows"`
	WallSeconds float64 `json:"wall_seconds"`
	// QueueSeconds and RunSeconds split WallSeconds into shard-queue
	// wait and simulation time, so latency regressions attribute to the
	// right component without scraping /metrics.
	QueueSeconds float64 `json:"queue_seconds,omitempty"`
	RunSeconds   float64 `json:"run_seconds,omitempty"`
	// TraceID links the manifest to the job's spans (see
	// GET /v1/jobs/{id}/trace).
	TraceID string `json:"trace_id,omitempty"`
	// SpecHash joins the manifest to the job's archive records and
	// history trajectory (see JobStatus.SpecHash).
	SpecHash string `json:"spec_hash,omitempty"`
	// Cached marks a result served from the archive without
	// re-simulating.
	Cached    bool   `json:"cached,omitempty"`
	Error     string `json:"error,omitempty"`
	Retriable bool   `json:"retriable,omitempty"`
}

// StreamEvent is one NDJSON line of a job result stream. Type selects
// which payload field is set:
//
//	"job"       → Job: status snapshot (first line of every stream)
//	"progress"  → Progress: live progress heartbeat while the job waits
//	              or runs (rate-limited; only while the stream blocks)
//	"columns"   → Columns: result-table column descriptors
//	"row"       → Row: one result-table row
//	"intervals" → Intervals: one spec's interval-metrics summary
//	"sampling"  → Sampling: one spec's sampled-simulation summary
//	"report"    → Report: the full versioned report envelope
//	"error"     → Error: terminal failure description
//	"manifest"  → Manifest: closing summary (always the last line)
type StreamEvent struct {
	Type      string              `json:"type"`
	Job       *JobStatus          `json:"job,omitempty"`
	Progress  *JobProgress        `json:"progress,omitempty"`
	Columns   []stats.Column      `json:"columns,omitempty"`
	Row       *Row                `json:"row,omitempty"`
	Intervals *sim.SpecIntervals  `json:"intervals,omitempty"`
	Sampling  *sim.SpecSampling   `json:"sampling,omitempty"`
	Report    *experiments.Report `json:"report,omitempty"`
	Error     *JobError           `json:"error,omitempty"`
	Manifest  *JobManifest        `json:"manifest,omitempty"`
}

// job is the server-side job record. Mutable fields are guarded by the
// server mutex; result fields are written once before done closes and
// only read after.
type job struct {
	id    string
	spec  JobSpec
	shard int
	// specHash is the canonical store.Spec hash, fixed at submit.
	specHash string

	// Trace identity, fixed at submit: the trace the job's spans join
	// (the client's, or self-rooted from the job ID), the client span
	// that parents the submit span ("" when self-rooted), and the
	// submit span's ID, which parents the queue/run/stream spans.
	traceID    string
	parentSpan string
	submitSpan string

	// Progress counters, written by simulation worker goroutines at
	// instruction-chunk boundaries and read lock-free by status and
	// stream handlers.
	progressDone    atomic.Uint64
	progressPlanned atomic.Uint64

	// Guarded by Server.mu.
	status     string
	cached     bool // report served from the archive, not simulated
	errMsg     string
	retriable  bool
	enqueuedAt time.Time
	startedAt  time.Time
	finishedAt time.Time
	rows       int
	spans      []metrics.Span

	// runCtx is canceled by DELETE /v1/jobs/{id} and by shutdown
	// grace expiry; the worker threads it (plus the per-job timeout)
	// into the simulation loop.
	runCtx context.Context
	cancel func()
	// done closes when the job reaches a terminal state; report/runErr
	// are immutable afterwards.
	done   chan struct{}
	report *experiments.Report
	runErr error
}

// rfc3339 renders a timestamp for status JSON ("" when unset).
func rfc3339(t time.Time) string {
	if t.IsZero() {
		return ""
	}
	return t.UTC().Format(time.RFC3339Nano)
}
