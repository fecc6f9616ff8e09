// Package attrib is the miss-attribution engine: it classifies every
// BTB miss into a single cause and every front-end stall cycle into a
// single account, turning the simulator's aggregate counters into the
// per-cause breakdowns the paper's argument rests on.
//
// The paper's central claim is quantitative — ~75% of BTB-missing
// branches are already resident in L1-I shadow bytes, split between
// Head and Tail regions — but aggregate hit/miss counters cannot show
// *why* a run under- or over-performs. This package answers that with
// three instruments:
//
//   - A BTB-miss cause taxonomy (Cause): each taken branch the IAG
//     failed to identify is assigned exactly one cause, so the cause
//     counts sum to the total BTB misses (a conservation law the
//     tests pin).
//   - A front-end stall account (StallKind): each cycle the decoder
//     sits idle is attributed to exactly one stage-level reason, so
//     the stall counts sum to the decoder's total idle cycles.
//   - Distribution statistics over streaming histograms: FTQ
//     occupancy, SBD valid paths per head region, SBB entry lifetime,
//     and re-steer distance.
//
// The engine consumes the front end's event stream (metrics.Event)
// through one method, Observe: the front end publishes every
// observation once, and the engine, like the ring tracer beside it,
// keeps the kinds it needs. A front end with no observer attached
// skips the stream at one comparison per site. Not safe for concurrent
// use: attach one engine per core.
package attrib

import (
	"sort"

	"repro/internal/isa"
	"repro/internal/metrics"
	"repro/internal/program"
	"repro/internal/stats"
)

// Cause classifies one BTB miss. Exactly one cause is assigned per
// miss; precedence is documented on classify.
type Cause uint8

const (
	// CauseSBBHit: the SBB identified the branch in parallel with the
	// missing BTB, so the miss cost no re-steer (Skia's win).
	CauseSBBHit Cause = iota
	// CauseShadowHead: the branch's line was L1-I resident and its
	// bytes lay in a Head shadow region (before a mid-line block
	// entry) — a miss Skia's head decoder targets.
	CauseShadowHead
	// CauseShadowTail: resident, in a Tail shadow region (after a
	// taken exit) — a miss Skia's tail decoder targets.
	CauseShadowTail
	// CauseIneligible: a conditional or indirect branch. Skia cannot
	// supply it: conditionals need a direction and indirect targets
	// need runtime state (the paper's eligibility rule, Section 3.1).
	CauseIneligible
	// CauseEvicted: the branch was decoded into the U-SBB/R-SBB at
	// some point but capacity-evicted (or invalidated) before this
	// miss — an SBB-sizing loss, not a decoder loss.
	CauseEvicted
	// CauseNotResident: the branch's line was not L1-I resident when
	// its block was formed; no shadow bytes existed to decode.
	CauseNotResident
	// CauseResidentDecoded: resident but outside every recorded
	// shadow region — the bytes were on the previously decoded path,
	// so this is a pure BTB capacity/aliasing miss the shadow decoder
	// never sees.
	CauseResidentDecoded

	NumCauses
)

var causeNames = [NumCauses]string{
	CauseSBBHit:          "sbb-hit",
	CauseShadowHead:      "shadow-head",
	CauseShadowTail:      "shadow-tail",
	CauseIneligible:      "ineligible",
	CauseEvicted:         "sbb-evicted",
	CauseNotResident:     "not-resident",
	CauseResidentDecoded: "resident-decoded",
}

// String returns the cause's stable wire name.
func (c Cause) String() string { return causeNames[c] }

// StallKind classifies one decoder-idle cycle.
type StallKind uint8

const (
	// StallResteerBTBMiss: repair window of a re-steer raised because
	// a taken branch was missing from both BTB and SBB.
	StallResteerBTBMiss StallKind = iota
	// StallResteerMispredict: repair window of a direction, indirect-
	// target, or return misprediction.
	StallResteerMispredict
	// StallResteerBogusSBB: repair window of a re-steer caused by a
	// bogus SBB entry exposed at decode (Skia's cost side).
	StallResteerBogusSBB
	// StallResteerOther: stale-target fixes, BTB aliases exposed as
	// phantoms, and safety-valve resyncs.
	StallResteerOther
	// StallFTQEmpty: the FTQ ran dry — the IAG could not keep ahead.
	StallFTQEmpty
	// StallICacheMiss: the FTQ head block was still waiting on an
	// L1-I (or deeper) fill.
	StallICacheMiss
	// StallFetchLatency: the head block was resident but still in the
	// fixed fetch pipeline.
	StallFetchLatency

	NumStallKinds
)

var stallNames = [NumStallKinds]string{
	StallResteerBTBMiss:    "resteer-btb-miss",
	StallResteerMispredict: "resteer-mispredict",
	StallResteerBogusSBB:   "resteer-bogus-sbb",
	StallResteerOther:      "resteer-other",
	StallFTQEmpty:          "ftq-empty",
	StallICacheMiss:        "icache-miss",
	StallFetchLatency:      "fetch-latency",
}

// String returns the stall kind's stable wire name.
func (k StallKind) String() string { return stallNames[k] }

// lineShadow records, one bit per byte of one cache line (LineSize =
// 64), which bytes have ever been in a shadow region — head bytes
// precede a mid-line block entry, tail bytes follow a taken exit — and
// at which bytes a shadow branch was inserted into the SBB.
type lineShadow struct {
	head, tail, inserted uint64
}

// offender accumulates per-PC miss counts, one counter per cause.
type offender struct {
	counts [NumCauses]uint64
	total  uint64
}

// DefaultTopN is the offender-table size reported by Summary.
const DefaultTopN = 10

// Engine accumulates attribution state for one core. Create with
// NewEngine, attach via cpu.Core.AttachAttribution, and read the
// results with Summary after the run. Not safe for concurrent use:
// attach one engine per core.
//
// The per-event path touches no map: shadow regions and SBB inserts
// live in a dense table over the program image, and FTQ occupancy in a
// count array. Only the per-PC offender table is a map, written once
// per BTB miss.
//
//skia:serial
type Engine struct {
	causes [NumCauses]uint64
	stalls [NumStallKinds]uint64

	// lines[i] covers the line at base + i*LineSize; SetImage sizes
	// it to the program image when the engine is attached.
	base      uint64
	lines     []lineShadow
	offenders map[uint64]*offender

	// ftqCounts[n] counts FTQ samples at occupancy n; Summary folds
	// it into a histogram.
	ftqCounts []uint64
	sbdPaths  stats.Histogram
	sbbLife   stats.Histogram
	restDist  stats.Histogram
}

// NewEngine returns an empty engine. It covers no image until it is
// attached (or SetImage is called).
func NewEngine() *Engine {
	return &Engine{offenders: make(map[uint64]*offender)}
}

// SetImage sizes the engine's per-line table to cover the code image
// [base, end); the front end calls it when the engine is attached. The
// engine belongs to one core, so once sized the table stays: a later
// attachment (to the same core) keeps the accounts.
//
// Head/tail regions and SBB inserts outside the image are dropped.
// Phantom fetches produce such events (a wrapped shadow target lies
// near 2^64 - 2.08e9), and dropping them changes no result: classify
// is their only reader, and it runs only on EvBTBMiss, which the front
// end raises at decode for true-path branches — inside the image.
func (e *Engine) SetImage(base, end uint64) {
	if e.lines != nil || end <= base {
		return
	}
	e.base = program.LineAddr(base)
	e.lines = make([]lineShadow, (program.LineAddr(end-1)+program.LineSize-e.base)/program.LineSize)
}

// line returns the table entry of the line at lineAddr, or nil when
// lineAddr is not a line address inside the image.
func (e *Engine) line(lineAddr uint64) *lineShadow {
	off := lineAddr - e.base
	if i := off / program.LineSize; off%program.LineSize == 0 && i < uint64(len(e.lines)) {
		return &e.lines[i]
	}
	return nil
}

// Observe folds one front-end event into the accounts. It is the
// engine's only input: the front end publishes its event stream here,
// and kinds the accounts do not use (SBB hits, phantoms, ...) are
// ignored.
func (e *Engine) Observe(ev metrics.Event) {
	switch ev.Kind {
	case metrics.EvShadowHead:
		e.noteHead(ev.PC, int(ev.Arg))
	case metrics.EvShadowTail:
		e.noteTail(ev.PC, int(ev.Arg))
	case metrics.EvSBDInsertU, metrics.EvSBDInsertR:
		if ls := e.line(program.LineAddr(ev.PC)); ls != nil && ev.Flags&metrics.FlagInSBB != 0 {
			ls.inserted |= 1 << uint(program.LineOffset(ev.PC))
		}
	case metrics.EvSBBEvictU, metrics.EvSBBEvictR:
		e.sbbLife.Observe(float64(ev.Arg))
	case metrics.EvSBDPaths:
		e.sbdPaths.Observe(float64(ev.Arg))
	case metrics.EvFTQSample:
		if ev.Arg < uint64(len(e.ftqCounts)) {
			e.ftqCounts[ev.Arg]++
		} else {
			e.noteFTQ(ev.Arg)
		}
	case metrics.EvDecodeResteer, metrics.EvExecResteer:
		// Distance from the speculative PC to the target: how far off
		// the IAG had wandered. The repair window's cycles arrive one
		// EvStall at a time.
		d := ev.PC - ev.Arg
		if ev.Arg > ev.PC {
			d = ev.Arg - ev.PC
		}
		e.restDist.Observe(float64(d))
	case metrics.EvStall:
		e.stalls[StallKind(ev.Arg)]++
	case metrics.EvBTBMiss:
		e.classify(ev.PC, ev.Class, ev.Flags)
	}
}

// noteFTQ books an FTQ occupancy the count array does not cover yet,
// growing the array to occ+1. Occupancy is bounded by the FTQ depth.
func (e *Engine) noteFTQ(occ uint64) {
	e.ftqCounts = append(e.ftqCounts, make([]uint64, occ+1-uint64(len(e.ftqCounts)))...)
	e.ftqCounts[occ]++
}

// noteHead records that bytes [0, entryOff) of the line at lineAddr
// formed a Head shadow region (the IAG entered the line mid-way at a
// branch target). The front end reports it at block formation whether
// or not Skia is enabled, so baseline runs can report the shadow
// opportunity.
func (e *Engine) noteHead(lineAddr uint64, entryOff int) {
	if entryOff <= 0 {
		return
	}
	if entryOff > program.LineSize {
		entryOff = program.LineSize
	}
	if ls := e.line(lineAddr); ls != nil {
		ls.head |= lowBits(entryOff)
	}
}

// noteTail records that bytes [startOff, LineSize) of the line at
// lineAddr formed a Tail shadow region (a taken branch exited the
// line at startOff).
func (e *Engine) noteTail(lineAddr uint64, startOff int) {
	if startOff < 0 || startOff >= program.LineSize {
		return
	}
	if ls := e.line(lineAddr); ls != nil {
		ls.tail |= ^lowBits(startOff)
	}
}

// lowBits returns a mask of the n lowest bits (n in [0, 64]).
func lowBits(n int) uint64 {
	if n >= 64 {
		return ^uint64(0)
	}
	return (uint64(1) << uint(n)) - 1
}

// classify assigns exactly one Cause to a BTB miss discovered at
// decode. Precedence:
//
//  1. covered — the SBB supplied the branch: CauseSBBHit.
//  2. conditional/indirect class: CauseIneligible.
//  3. previously inserted into the SBB but absent now: CauseEvicted.
//  4. line not L1-I resident at block formation: CauseNotResident.
//  5. branch byte in a recorded Head shadow region: CauseShadowHead.
//  6. branch byte in a recorded Tail shadow region: CauseShadowTail.
//  7. otherwise CauseResidentDecoded.
//
// The flags are the miss event's: FlagCovered when the SBB steered the
// block (no re-steer), FlagResident when the branch's line was L1-I
// resident as its block was formed, FlagInSBB when the SBB holds the
// PC now.
func (e *Engine) classify(pc uint64, class isa.Class, fl metrics.EventFlags) {
	var ls lineShadow
	if p := e.line(program.LineAddr(pc)); p != nil {
		ls = *p
	}
	bit := uint64(1) << uint(program.LineOffset(pc))
	cause := CauseResidentDecoded
	switch {
	case fl&metrics.FlagCovered != 0:
		cause = CauseSBBHit
	case class == isa.ClassDirectCond || class == isa.ClassIndirect || class == isa.ClassIndirectCall:
		cause = CauseIneligible
	case ls.inserted&bit != 0 && fl&metrics.FlagInSBB == 0:
		cause = CauseEvicted
	case fl&metrics.FlagResident == 0:
		cause = CauseNotResident
	case ls.head&bit != 0:
		cause = CauseShadowHead
	case ls.tail&bit != 0:
		cause = CauseShadowTail
	}
	e.causes[cause]++
	o := e.offenders[pc]
	if o == nil {
		o = &offender{}
		e.offenders[pc] = o
	}
	o.counts[cause]++
	o.total++
}

// CauseCount reports one taxonomy bucket with its share of all misses.
type CauseCount struct {
	Cause string  `json:"cause"`
	Count uint64  `json:"count"`
	Share float64 `json:"share"`
}

// StallCount reports one stall account with its share of idle cycles.
type StallCount struct {
	Kind  string  `json:"kind"`
	Count uint64  `json:"count"`
	Share float64 `json:"share"`
}

// Offender is one row of the per-PC top-N miss table.
type Offender struct {
	// PC is the branch address.
	PC uint64 `json:"pc"`
	// Count is its total BTB misses.
	Count uint64 `json:"count"`
	// TopCause is the most frequent cause for this PC.
	TopCause string `json:"top_cause"`
}

// DistSummary condenses one streaming histogram.
type DistSummary struct {
	Count int     `json:"count"`
	Mean  float64 `json:"mean"`
	P50   float64 `json:"p50"`
	P90   float64 `json:"p90"`
	P99   float64 `json:"p99"`
	Max   float64 `json:"max"`
}

func summarizeHist(h *stats.Histogram) DistSummary {
	return DistSummary{
		Count: h.Count(),
		Mean:  h.Mean(),
		P50:   h.Quantile(0.5),
		P90:   h.Quantile(0.9),
		P99:   h.Quantile(0.99),
		Max:   h.Max(),
	}
}

// Summary is the attribution result embedded in report envelopes
// (schema v3, `attribution` section) and exported as NDJSON.
type Summary struct {
	// BTBMisses is the total misses classified; the cause counts sum
	// to exactly this value.
	BTBMisses uint64 `json:"btb_misses"`
	// StallCycles is the total decoder-idle cycles attributed; the
	// stall counts sum to exactly this value.
	StallCycles uint64 `json:"stall_cycles"`

	// ShadowResidentShare is the fraction of BTB misses whose bytes
	// were L1-I resident in shadow form (sbb-hit + shadow-head +
	// shadow-tail + sbb-evicted): the paper's ~75% observation.
	ShadowResidentShare float64 `json:"shadow_resident_share"`
	// HeadShare and TailShare split the not-yet-captured shadow
	// residency between the two decoder targets.
	HeadShare float64 `json:"head_share"`
	TailShare float64 `json:"tail_share"`

	// Causes lists every taxonomy bucket in enum order, zeros kept so
	// consumers never need existence checks.
	Causes []CauseCount `json:"causes"`
	// Stalls lists every stall account in enum order.
	Stalls []StallCount `json:"stalls"`
	// TopOffenders lists the worst-missing PCs, count-descending.
	TopOffenders []Offender `json:"top_offenders,omitempty"`

	// Distribution statistics.
	FTQOccupancy    DistSummary `json:"ftq_occupancy"`
	SBDValidPaths   DistSummary `json:"sbd_valid_paths"`
	SBBLifetime     DistSummary `json:"sbb_lifetime"`
	ResteerDistance DistSummary `json:"resteer_distance"`
}

// Summary snapshots the engine's accumulated attribution.
func (e *Engine) Summary() Summary {
	if invariantsEnabled {
		attribCheckInvariants(e)
	}
	var ftq stats.Histogram
	for occ, n := range e.ftqCounts {
		ftq.ObserveN(float64(occ), n)
	}
	s := Summary{
		FTQOccupancy:    summarizeHist(&ftq),
		SBDValidPaths:   summarizeHist(&e.sbdPaths),
		SBBLifetime:     summarizeHist(&e.sbbLife),
		ResteerDistance: summarizeHist(&e.restDist),
	}
	for _, c := range e.causes {
		s.BTBMisses += c
	}
	for _, c := range e.stalls {
		s.StallCycles += c
	}
	for i := Cause(0); i < NumCauses; i++ {
		cc := CauseCount{Cause: i.String(), Count: e.causes[i]}
		if s.BTBMisses > 0 {
			cc.Share = float64(e.causes[i]) / float64(s.BTBMisses)
		}
		s.Causes = append(s.Causes, cc)
	}
	for i := StallKind(0); i < NumStallKinds; i++ {
		sc := StallCount{Kind: i.String(), Count: e.stalls[i]}
		if s.StallCycles > 0 {
			sc.Share = float64(e.stalls[i]) / float64(s.StallCycles)
		}
		s.Stalls = append(s.Stalls, sc)
	}
	if s.BTBMisses > 0 {
		shadow := e.causes[CauseSBBHit] + e.causes[CauseShadowHead] +
			e.causes[CauseShadowTail] + e.causes[CauseEvicted]
		s.ShadowResidentShare = float64(shadow) / float64(s.BTBMisses)
		s.HeadShare = float64(e.causes[CauseShadowHead]) / float64(s.BTBMisses)
		s.TailShare = float64(e.causes[CauseShadowTail]) / float64(s.BTBMisses)
	}
	s.TopOffenders = e.topOffenders()
	return s
}

// topOffenders ranks PCs by miss count (ties broken by address) and
// returns the top DefaultTopN.
func (e *Engine) topOffenders() []Offender {
	out := make([]Offender, 0, len(e.offenders))
	for pc, o := range e.offenders {
		top := Cause(0)
		for c := Cause(1); c < NumCauses; c++ {
			if o.counts[c] > o.counts[top] {
				top = c
			}
		}
		out = append(out, Offender{PC: pc, Count: o.total, TopCause: top.String()})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Count != out[j].Count {
			return out[i].Count > out[j].Count
		}
		return out[i].PC < out[j].PC
	})
	if len(out) > DefaultTopN {
		out = out[:DefaultTopN]
	}
	return out
}
