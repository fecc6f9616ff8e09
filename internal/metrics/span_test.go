package metrics

import (
	"bytes"
	"encoding/json"
	"fmt"
	"sync"
	"testing"
	"time"
)

// span builds a test span n microseconds long starting at offset o.
func testSpan(name, scope string, o, n time.Duration) Span {
	base := time.Date(2026, 8, 7, 12, 0, 0, 0, time.UTC)
	return Span{
		TraceID: "0af7651916cd43dd8448eb211c80319c",
		SpanID:  fmt.Sprintf("%016x", n),
		Name:    name,
		Scope:   scope,
		Start:   base.Add(o),
		End:     base.Add(o + n),
	}
}

func TestSpanRingWraparound(t *testing.T) {
	r := NewSpanRing(4)
	for i := 0; i < 10; i++ {
		r.RecordSpan(testSpan("run", fmt.Sprintf("job-%d", i), 0, time.Duration(i+1)*time.Microsecond))
	}
	if r.Dropped() != 6 {
		t.Errorf("Dropped = %d", r.Dropped())
	}
	spans := r.Spans()
	if len(spans) != 4 {
		t.Fatalf("retained %d spans", len(spans))
	}
	// Oldest-first: jobs 6..9 survive.
	for i, s := range spans {
		if want := fmt.Sprintf("job-%d", i+6); s.Scope != want {
			t.Errorf("span %d scope = %q, want %q", i, s.Scope, want)
		}
	}
}

// TestSpanRingConcurrent exercises the ring from many goroutines; run
// with -race this is the concurrency contract RingTracer does not make.
func TestSpanRingConcurrent(t *testing.T) {
	r := NewSpanRing(64)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				r.RecordSpan(testSpan("submit", "job", 0, time.Microsecond))
			}
		}()
	}
	wg.Wait()
	if r.Dropped() != 800-64 || len(r.Spans()) != 64 {
		t.Errorf("Dropped = %d, retained %d; want 736, 64", r.Dropped(), len(r.Spans()))
	}
}

// TestWriteSpanChromeTrace holds the export to the trace_event schema:
// "X" complete events with ts/dur in microseconds relative to the
// earliest span, one named thread per phase, metadata preserved.
func TestWriteSpanChromeTrace(t *testing.T) {
	spans := []Span{
		testSpan("submit", "job-1", 0, 50*time.Microsecond),
		testSpan("queue", "job-1", 50*time.Microsecond, 200*time.Microsecond),
		testSpan("run", "job-1", 250*time.Microsecond, 1000*time.Microsecond),
		testSpan("stream", "job-1", 1250*time.Microsecond, 30*time.Microsecond),
	}
	spans[1].ParentID = spans[0].SpanID
	var buf bytes.Buffer
	if err := WriteSpanChromeTrace(&buf, spans, map[string]any{"job_id": "job-1"}); err != nil {
		t.Fatal(err)
	}
	var out struct {
		TraceEvents []struct {
			Name  string         `json:"name"`
			Phase string         `json:"ph"`
			TS    uint64         `json:"ts"`
			Dur   uint64         `json:"dur"`
			TID   int            `json:"tid"`
			Args  map[string]any `json:"args"`
		} `json:"traceEvents"`
		Metadata map[string]any `json:"metadata"`
	}
	if err := json.Unmarshal(buf.Bytes(), &out); err != nil {
		t.Fatal(err)
	}
	if out.Metadata["job_id"] != "job-1" {
		t.Errorf("metadata = %v", out.Metadata)
	}
	var complete, threads int
	threadNames := map[string]bool{}
	for _, e := range out.TraceEvents {
		switch e.Phase {
		case "X":
			complete++
			if e.Name == "queue" {
				if e.TS != 50 || e.Dur != 200 {
					t.Errorf("queue span ts=%d dur=%d, want 50/200", e.TS, e.Dur)
				}
				if e.Args["parent_id"] != spans[0].SpanID {
					t.Errorf("queue parent = %v", e.Args["parent_id"])
				}
			}
			if e.Args["trace_id"] != spans[0].TraceID {
				t.Errorf("span %s lacks trace id: %v", e.Name, e.Args)
			}
		case "M":
			if e.Name == "thread_name" {
				threads++
				threadNames[fmt.Sprint(e.Args["name"])] = true
			}
		}
	}
	if complete != 4 {
		t.Errorf("complete events = %d, want 4", complete)
	}
	for _, n := range []string{"submit", "queue", "run", "stream"} {
		if !threadNames[n] {
			t.Errorf("no thread for phase %q (have %v)", n, threadNames)
		}
	}
	if threads != 4 {
		t.Errorf("threads = %d", threads)
	}
}
