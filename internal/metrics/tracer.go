package metrics

import (
	"encoding/json"
	"fmt"
	"io"

	"repro/internal/isa"
)

// EventKind classifies one front-end event. It is the one vocabulary
// the front end publishes to its observers: the ring tracer records the
// traced kinds, the attribution engine accounts the kinds it needs.
type EventKind uint8

const (
	// EvDecodeResteer is an early re-steer raised at decode; PC is the
	// re-steer target and Arg the speculative PC the IAG had reached.
	EvDecodeResteer EventKind = iota
	// EvExecResteer is a late re-steer raised at execute (PC and Arg
	// as for EvDecodeResteer).
	EvExecResteer
	// EvForcedResync is the safety-valve resync after implausibly long
	// decoder starvation (indicates a modeling bug).
	EvForcedResync
	// EvBTBMiss is a taken true-path branch the BTB failed to identify;
	// Class and the FlagCovered, FlagResident and FlagInSBB flags carry
	// what the miss taxonomy needs.
	EvBTBMiss
	// EvSBBHitU / EvSBBHitR are SBB lookups that steered the IAG.
	EvSBBHitU
	EvSBBHitR
	// EvSBDInsertU / EvSBDInsertR are shadow-decode results installed
	// into the corresponding SBB (FlagInSBB set) or, under the SBDToBTB
	// ablation, straight into the BTB.
	EvSBDInsertU
	EvSBDInsertR
	// EvSBBEvictU / EvSBBEvictR are SBB capacity evictions of the
	// branch at PC; Arg is the entry's lifetime in cycles, and
	// FlagRetired marks an entry that had its retired bit set (a useful
	// entry lost, not a possibly-bogus one).
	EvSBBEvictU
	EvSBBEvictR
	// EvPhantom is a predicted-taken terminator exposed as not a branch
	// on the true path (BTB alias or bogus SBB entry).
	EvPhantom
	// EvReturnMispredict is a RAS-supplied target proven wrong.
	EvReturnMispredict

	// The kinds below feed attribution only; the ring tracer drops them.

	// EvShadowHead / EvShadowTail record a formed block's shadow region
	// in the line at PC: the Head bytes [0, Arg) before a mid-line
	// branch-target entry, or the Tail bytes [Arg, LineSize) after a
	// taken exit.
	EvShadowHead
	EvShadowTail
	// EvFTQSample is the end-of-cycle FTQ occupancy, Arg entries.
	EvFTQSample
	// EvStall is one decoder-idle cycle; Arg is its attrib.StallKind.
	EvStall
	// EvSBDPaths is the valid path-family count (Arg) of one examined
	// head region.
	EvSBDPaths

	numEventKinds
)

// EventFlags carries an event's kind-specific booleans.
type EventFlags uint8

const (
	// FlagCovered marks a BTB miss the SBB supplied in time, so no
	// re-steer was paid.
	FlagCovered EventFlags = 1 << iota
	// FlagResident marks a BTB miss whose line was L1-I resident when
	// its block was formed.
	FlagResident
	// FlagInSBB marks a PC the SBB holds: on a BTB miss, at decode; on
	// a shadow-decode insert, because the insert went into the SBB.
	FlagInSBB
	// FlagRetired marks an evicted SBB entry whose retired bit was set.
	FlagRetired
)

// Track is a timeline row in the exported trace: one per front-end
// component, matching the paper's block diagram.
type Track uint8

const (
	TrackFetch Track = iota
	TrackDecode
	TrackBTB
	TrackUSBB
	TrackRSBB
	TrackRAS

	numTracks
)

var trackNames = [numTracks]string{
	TrackFetch:  "fetch",
	TrackDecode: "decode",
	TrackBTB:    "BTB",
	TrackUSBB:   "U-SBB",
	TrackRSBB:   "R-SBB",
	TrackRAS:    "RAS",
}

// String returns the track's display name.
func (t Track) String() string { return trackNames[t] }

var kindInfo = [numEventKinds]struct {
	name  string
	track Track
}{
	EvDecodeResteer:    {"decode-resteer", TrackDecode},
	EvExecResteer:      {"exec-resteer", TrackFetch},
	EvForcedResync:     {"forced-resync", TrackFetch},
	EvBTBMiss:          {"btb-miss", TrackBTB},
	EvSBBHitU:          {"sbb-hit", TrackUSBB},
	EvSBBHitR:          {"sbb-hit", TrackRSBB},
	EvSBDInsertU:       {"sbd-insert", TrackUSBB},
	EvSBDInsertR:       {"sbd-insert", TrackRSBB},
	EvSBBEvictU:        {"sbb-evict", TrackUSBB},
	EvSBBEvictR:        {"sbb-evict", TrackRSBB},
	EvPhantom:          {"phantom-branch", TrackDecode},
	EvReturnMispredict: {"return-mispredict", TrackRAS},
	EvShadowHead:       {"shadow-head", TrackFetch},
	EvShadowTail:       {"shadow-tail", TrackFetch},
	EvFTQSample:        {"ftq-sample", TrackFetch},
	EvStall:            {"stall", TrackDecode},
	EvSBDPaths:         {"sbd-paths", TrackUSBB},
}

// String returns the event kind's display name.
func (k EventKind) String() string { return kindInfo[k].name }

// Track returns the timeline the kind renders on.
func (k EventKind) Track() Track { return kindInfo[k].track }

// Event is one front-end occurrence. Cycle is simulated time; PC is
// the branch, instruction or line address involved; Arg carries
// kind-specific detail (a target address, a count, a lifetime). Class
// and Flags fill what would otherwise be padding after Kind, so an
// Event stays 32 bytes.
type Event struct {
	Cycle uint64
	Kind  EventKind
	Class isa.Class
	Flags EventFlags
	PC    uint64
	Arg   uint64
}

// RingTracer records the most recent traced events in a fixed-capacity
// ring, bounding memory no matter how long the run. It receives the
// front end's event stream and keeps the re-steer, miss and SBB/SBD
// kinds; attribution-only kinds are dropped uncounted. Not safe for
// concurrent use: attach one tracer per core.
type RingTracer struct {
	buf   []Event
	next  int
	total uint64
}

// DefaultRingCapacity bounds a RingTracer built with capacity <= 0.
const DefaultRingCapacity = 1 << 20

// NewRingTracer returns a ring holding up to cap events (<= 0 selects
// DefaultRingCapacity).
func NewRingTracer(capacity int) *RingTracer {
	if capacity <= 0 {
		capacity = DefaultRingCapacity
	}
	return &RingTracer{buf: make([]Event, 0, capacity)}
}

// Emit records a traced event, overwriting the oldest once the ring
// is full; it drops the attribution-only kinds.
func (t *RingTracer) Emit(e Event) {
	if e.Kind >= EvShadowHead {
		return
	}
	if len(t.buf) < cap(t.buf) {
		t.buf = append(t.buf, e)
	} else {
		t.buf[t.next] = e
		t.next = (t.next + 1) % len(t.buf)
	}
	t.total++
}

// Total counts all events emitted, including overwritten ones.
func (t *RingTracer) Total() uint64 { return t.total }

// Dropped counts events lost to ring wraparound.
func (t *RingTracer) Dropped() uint64 { return t.total - uint64(len(t.buf)) }

// Events returns the retained events oldest-first.
func (t *RingTracer) Events() []Event {
	out := make([]Event, 0, len(t.buf))
	out = append(out, t.buf[t.next:]...)
	out = append(out, t.buf[:t.next]...)
	return out
}

// WriteChromeTrace exports the ring's retained events with capture
// provenance in the trace metadata: total events emitted, events
// dropped to wraparound, and the ring capacity. A truncated trace is
// thereby self-identifying — consumers can check events_dropped
// instead of silently analyzing a partial window.
func (t *RingTracer) WriteChromeTrace(w io.Writer) error {
	return WriteChromeTraceMeta(w, t.Events(), map[string]any{
		"events_total":   t.Total(),
		"events_dropped": t.Dropped(),
		"ring_capacity":  cap(t.buf),
	})
}

// chromeEvent is one entry of the Chrome trace_event format
// (https://docs.google.com/document/d/1CvAClvFfyA5R-PhYUmn5OOQtYMH4h6I0nSsKchNAySU):
// ph "M" rows are metadata naming processes/threads, ph "i" rows are
// instant events. Perfetto and chrome://tracing load this directly.
type chromeEvent struct {
	Name  string `json:"name"`
	Phase string `json:"ph"`
	TS    uint64 `json:"ts"`
	// Dur is the duration of ph "X" complete events (span exports);
	// instant events leave it zero and omitted.
	Dur   uint64         `json:"dur,omitempty"`
	PID   int            `json:"pid"`
	TID   int            `json:"tid"`
	Scope string         `json:"s,omitempty"`
	Args  map[string]any `json:"args,omitempty"`
}

// chromeTrace is the JSON-object form of the trace file. Metadata, when
// present, records capture provenance (event totals, ring capacity,
// drop counts) so a truncated trace is self-identifying.
type chromeTrace struct {
	TraceEvents     []chromeEvent  `json:"traceEvents"`
	DisplayTimeUnit string         `json:"displayTimeUnit"`
	Metadata        map[string]any `json:"metadata,omitempty"`
}

// WriteChromeTrace exports events as Chrome trace_event JSON: one
// thread (track) per front-end component, one instant event per
// recording, timestamped in simulated cycles (1 cycle = 1 µs of trace
// time, so Perfetto's zoom and duration readouts count cycles).
func WriteChromeTrace(w io.Writer, events []Event) error {
	return WriteChromeTraceMeta(w, events, nil)
}

// WriteChromeTraceMeta is WriteChromeTrace with a metadata block
// attached to the trace object (nil or empty meta omits it). Chrome
// and Perfetto ignore unknown metadata, so any provenance fits.
func WriteChromeTraceMeta(w io.Writer, events []Event, meta map[string]any) error {
	out := chromeTrace{DisplayTimeUnit: "ms"}
	if len(meta) > 0 {
		out.Metadata = meta
	}
	out.TraceEvents = append(out.TraceEvents, chromeEvent{
		Name: "process_name", Phase: "M", PID: 1,
		Args: map[string]any{"name": "skia-frontend"},
	})
	for tr := Track(0); tr < numTracks; tr++ {
		out.TraceEvents = append(out.TraceEvents,
			chromeEvent{
				Name: "thread_name", Phase: "M", PID: 1, TID: int(tr) + 1,
				Args: map[string]any{"name": tr.String()},
			},
			chromeEvent{
				Name: "thread_sort_index", Phase: "M", PID: 1, TID: int(tr) + 1,
				Args: map[string]any{"sort_index": int(tr)},
			})
	}
	for _, e := range events {
		ce := chromeEvent{
			Name:  e.Kind.String(),
			Phase: "i",
			Scope: "t",
			TS:    e.Cycle,
			PID:   1,
			TID:   int(e.Kind.Track()) + 1,
			Args:  map[string]any{"pc": fmt.Sprintf("%#x", e.PC)},
		}
		switch e.Kind {
		case EvSBBHitU, EvSBDInsertU, EvSBDInsertR:
			ce.Args["target"] = fmt.Sprintf("%#x", e.Arg)
		case EvSBBEvictU, EvSBBEvictR:
			ce.Args["retired"] = e.Flags&FlagRetired != 0
		case EvDecodeResteer, EvExecResteer, EvForcedResync:
			ce.Args["to"] = fmt.Sprintf("%#x", e.PC)
		}
		out.TraceEvents = append(out.TraceEvents, ce)
	}
	enc := json.NewEncoder(w)
	return enc.Encode(out)
}
