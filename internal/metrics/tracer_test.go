package metrics

import (
	"bytes"
	"encoding/json"
	"testing"
	"unsafe"
)

// TestEventSize pins Event at 32 bytes: Class and Flags must stay in
// the padding after Kind, so carrying the attribution fields costs the
// stream no extra copying.
func TestEventSize(t *testing.T) {
	if n := unsafe.Sizeof(Event{}); n != 32 {
		t.Fatalf("Event is %d bytes, want 32", n)
	}
}

// TestRingTracerDropsAttributionKinds checks that the tracer records
// only the traced kinds: attribution-only events neither enter the
// ring nor count toward Total.
func TestRingTracerDropsAttributionKinds(t *testing.T) {
	tr := NewRingTracer(4)
	for k := EventKind(0); k < numEventKinds; k++ {
		tr.Emit(Event{Kind: k})
	}
	if got, want := tr.Total(), uint64(EvShadowHead); got != want {
		t.Fatalf("tracer kept %d events, want the %d traced kinds", got, want)
	}
}

func TestRingTracerBasics(t *testing.T) {
	tr := NewRingTracer(4)
	for i := uint64(0); i < 3; i++ {
		tr.Emit(Event{Cycle: i, Kind: EvBTBMiss, PC: 0x1000 + i})
	}
	if tr.Total() != 3 || tr.Dropped() != 0 {
		t.Errorf("total/dropped = %d/%d", tr.Total(), tr.Dropped())
	}
	evs := tr.Events()
	if len(evs) != 3 || evs[0].Cycle != 0 || evs[2].Cycle != 2 {
		t.Errorf("events = %+v", evs)
	}
}

func TestRingTracerWraparound(t *testing.T) {
	tr := NewRingTracer(4)
	for i := uint64(0); i < 10; i++ {
		tr.Emit(Event{Cycle: i, Kind: EvDecodeResteer})
	}
	if tr.Total() != 10 || tr.Dropped() != 6 {
		t.Errorf("total/dropped = %d/%d", tr.Total(), tr.Dropped())
	}
	evs := tr.Events()
	if len(evs) != 4 {
		t.Fatalf("kept %d events, want 4", len(evs))
	}
	// Oldest-first: cycles 6,7,8,9.
	for i, e := range evs {
		if e.Cycle != uint64(6+i) {
			t.Errorf("event %d cycle = %d, want %d", i, e.Cycle, 6+i)
		}
	}
}

func TestRingTracerDefaultCapacity(t *testing.T) {
	if c := cap(NewRingTracer(0).buf); c != DefaultRingCapacity {
		t.Errorf("default capacity = %d", c)
	}
}

// TestEventKindsNamed ensures every kind carries a display name and a
// track, so a new kind cannot silently export as an empty row.
func TestEventKindsNamed(t *testing.T) {
	for k := EventKind(0); k < numEventKinds; k++ {
		if k.String() == "" {
			t.Errorf("kind %d has no name", k)
		}
		if k.Track() >= numTracks || k.Track().String() == "" {
			t.Errorf("kind %s has bad track", k)
		}
	}
}

// TestWriteChromeTrace schema-checks the exported file: a JSON object
// with a traceEvents array whose entries carry the fields the Chrome
// trace_event format requires, with metadata rows naming every track.
func TestWriteChromeTrace(t *testing.T) {
	events := []Event{
		{Cycle: 10, Kind: EvDecodeResteer, PC: 0x400100},
		{Cycle: 20, Kind: EvSBBHitU, PC: 0x400200, Arg: 0x400300},
		{Cycle: 30, Kind: EvSBBEvictR, Arg: 250, Flags: FlagRetired},
		{Cycle: 40, Kind: EvPhantom, PC: 0x400400, Arg: 0x400410},
	}
	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, events); err != nil {
		t.Fatal(err)
	}
	var top struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &top); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	if len(top.TraceEvents) == 0 {
		t.Fatal("no traceEvents")
	}
	threads := map[string]bool{}
	var instants int
	for i, e := range top.TraceEvents {
		for _, k := range []string{"name", "ph", "pid", "tid", "ts"} {
			if _, ok := e[k]; !ok {
				t.Fatalf("event %d lacks required key %q: %v", i, k, e)
			}
		}
		switch e["ph"] {
		case "M":
			if e["name"] == "thread_name" {
				args := e["args"].(map[string]any)
				threads[args["name"].(string)] = true
			}
		case "i":
			instants++
			if e["s"] != "t" {
				t.Errorf("instant event %d lacks thread scope: %v", i, e)
			}
			args, ok := e["args"].(map[string]any)
			if !ok || args["pc"] == nil {
				t.Errorf("instant event %d lacks pc arg: %v", i, e)
			}
		default:
			t.Errorf("event %d has unexpected phase %v", i, e["ph"])
		}
	}
	if instants != len(events) {
		t.Errorf("instant events = %d, want %d", instants, len(events))
	}
	for _, want := range []string{"fetch", "decode", "BTB", "U-SBB", "R-SBB", "RAS"} {
		if !threads[want] {
			t.Errorf("no thread_name metadata for track %q", want)
		}
	}
}

// TestRingTracerChromeTraceMetadata exercises the wrap path end to
// end: overflow a tiny ring, export it, and require the metadata block
// to report the drop count so the truncated trace is self-identifying.
func TestRingTracerChromeTraceMetadata(t *testing.T) {
	tr := NewRingTracer(4)
	for i := 0; i < 10; i++ {
		tr.Emit(Event{Cycle: uint64(i), Kind: EvBTBMiss, PC: uint64(0x1000 + i)})
	}
	if tr.Dropped() != 6 {
		t.Fatalf("Dropped = %d, want 6", tr.Dropped())
	}
	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var top struct {
		TraceEvents []map[string]any `json:"traceEvents"`
		Metadata    map[string]any   `json:"metadata"`
	}
	if err := json.Unmarshal(buf.Bytes(), &top); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	if top.Metadata == nil {
		t.Fatal("no metadata block")
	}
	if got := top.Metadata["events_total"]; got != float64(10) {
		t.Errorf("events_total = %v, want 10", got)
	}
	if got := top.Metadata["events_dropped"]; got != float64(6) {
		t.Errorf("events_dropped = %v, want 6", got)
	}
	if got := top.Metadata["ring_capacity"]; got != float64(4) {
		t.Errorf("ring_capacity = %v, want 4", got)
	}
	var instants int
	for _, e := range top.TraceEvents {
		if e["ph"] == "i" {
			instants++
		}
	}
	if instants != 4 {
		t.Errorf("retained instants = %d, want 4 (ring capacity)", instants)
	}
}

// TestWriteChromeTraceNoMetadataByDefault pins the plain writer's
// output shape: no metadata key unless provided.
func TestWriteChromeTraceNoMetadataByDefault(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, []Event{{Kind: EvBTBMiss}}); err != nil {
		t.Fatal(err)
	}
	var top map[string]any
	if err := json.Unmarshal(buf.Bytes(), &top); err != nil {
		t.Fatal(err)
	}
	if _, ok := top["metadata"]; ok {
		t.Error("metadata emitted without being provided")
	}
}
