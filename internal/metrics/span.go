package metrics

import (
	"encoding/json"
	"io"
	"sort"
	"sync"
	"time"
)

// Span is one timed host-side phase around the simulator, such as a
// workload generation, a core warmup or a sweep (perfbench's traced
// pass records one per call it times). Spans live in wall-clock time —
// unlike Event, which lives in simulated cycles — because they measure
// the harness around the simulator, not the simulator itself.
type Span struct {
	// TraceID is shared by every span of one trace.
	TraceID string `json:"trace_id"`
	// SpanID is this span's ID; ParentID is the enclosing span's (""
	// for a root).
	SpanID   string `json:"span_id"`
	ParentID string `json:"parent_id,omitempty"`
	// Name is the phase, e.g. "setup", "sweep", "Core.Clone".
	Name string `json:"name"`
	// Scope groups spans belonging to one logical unit (a benchmark or
	// spec).
	Scope string `json:"scope,omitempty"`
	// Start and End bracket the phase in wall-clock time.
	Start time.Time `json:"start"`
	End   time.Time `json:"end"`
	// Attrs carries small string attributes (status, shard, …).
	Attrs map[string]string `json:"attrs,omitempty"`
}

// Duration returns the span's wall-clock extent.
func (s Span) Duration() time.Duration { return s.End.Sub(s.Start) }

// SpanRing records the most recent spans in a fixed-capacity ring,
// bounding memory no matter how long the capture runs. Unlike
// RingTracer it is safe for concurrent use: spans arrive from sweep
// worker goroutines.
type SpanRing struct {
	mu    sync.Mutex
	buf   []Span
	next  int
	total uint64
}

// NewSpanRing returns a ring holding up to capacity spans (at least
// one).
func NewSpanRing(capacity int) *SpanRing {
	if capacity < 1 {
		capacity = 1
	}
	return &SpanRing{buf: make([]Span, 0, capacity)}
}

// RecordSpan records a completed span, overwriting the oldest once the
// ring is full.
func (r *SpanRing) RecordSpan(s Span) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.buf) < cap(r.buf) {
		r.buf = append(r.buf, s)
	} else {
		r.buf[r.next] = s
		r.next = (r.next + 1) % len(r.buf)
	}
	r.total++
}

// Dropped counts spans lost to ring wraparound.
func (r *SpanRing) Dropped() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.total - uint64(len(r.buf))
}

// Spans returns the retained spans oldest-first.
func (r *SpanRing) Spans() []Span {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]Span, 0, len(r.buf))
	out = append(out, r.buf[r.next:]...)
	out = append(out, r.buf[:r.next]...)
	return out
}

// WriteSpanChromeTrace exports spans as Chrome trace_event JSON: one
// thread per phase name (sorted, so the track layout is
// deterministic), one "X" complete event per span with ts/dur in
// microseconds relative to the earliest span start. meta carries
// capture provenance (trace IDs, drop counts); nil or empty omits the
// block. Perfetto and chrome://tracing load the output directly, the
// same as the simulator's cycle traces.
func WriteSpanChromeTrace(w io.Writer, spans []Span, meta map[string]any) error {
	out := chromeTrace{DisplayTimeUnit: "ms"}
	if len(meta) > 0 {
		out.Metadata = meta
	}
	out.TraceEvents = append(out.TraceEvents, chromeEvent{
		Name: "process_name", Phase: "M", PID: 1,
		Args: map[string]any{"name": "spans"},
	})
	// One thread per distinct phase name, in sorted order.
	names := make([]string, 0, 4)
	seen := make(map[string]int)
	for _, s := range spans {
		if _, ok := seen[s.Name]; !ok {
			seen[s.Name] = 0
			names = append(names, s.Name)
		}
	}
	sort.Strings(names)
	for i, n := range names {
		seen[n] = i + 1
		out.TraceEvents = append(out.TraceEvents,
			chromeEvent{
				Name: "thread_name", Phase: "M", PID: 1, TID: i + 1,
				Args: map[string]any{"name": n},
			},
			chromeEvent{
				Name: "thread_sort_index", Phase: "M", PID: 1, TID: i + 1,
				Args: map[string]any{"sort_index": i},
			})
	}
	var epoch time.Time
	for _, s := range spans {
		if epoch.IsZero() || s.Start.Before(epoch) {
			epoch = s.Start
		}
	}
	for _, s := range spans {
		args := map[string]any{
			"trace_id": s.TraceID,
			"span_id":  s.SpanID,
		}
		if s.ParentID != "" {
			args["parent_id"] = s.ParentID
		}
		if s.Scope != "" {
			args["scope"] = s.Scope
		}
		for k, v := range s.Attrs {
			args[k] = v
		}
		out.TraceEvents = append(out.TraceEvents, chromeEvent{
			Name:  s.Name,
			Phase: "X",
			TS:    uint64(s.Start.Sub(epoch) / time.Microsecond),
			Dur:   uint64(s.Duration() / time.Microsecond),
			PID:   1,
			TID:   seen[s.Name],
			Args:  args,
		})
	}
	enc := json.NewEncoder(w)
	return enc.Encode(out)
}
