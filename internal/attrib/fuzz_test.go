package attrib

import (
	"encoding/binary"
	"reflect"
	"testing"

	"repro/internal/isa"
	"repro/internal/metrics"
	"repro/internal/program"
	"repro/internal/stats"
)

// refEngine is the map-backed engine the dense tables replaced: the
// Head/Tail masks and the ever-inserted PCs live in maps keyed by the
// raw event address, with no image bounds, and FTQ occupancy feeds its
// histogram one sample at a time. The accounts the change left alone
// (stalls, the other histograms, the offender ledger) are kept in an
// embedded image-less Engine.
type refEngine struct {
	acc      *Engine
	shadow   map[uint64]lineShadow
	inserted map[uint64]struct{}
	ftqOcc   stats.Histogram
}

func newRefEngine() *refEngine {
	return &refEngine{
		acc:      NewEngine(),
		shadow:   make(map[uint64]lineShadow),
		inserted: make(map[uint64]struct{}),
	}
}

func (r *refEngine) Observe(ev metrics.Event) {
	switch ev.Kind {
	case metrics.EvShadowHead:
		if off := int(ev.Arg); off > 0 {
			ls := r.shadow[ev.PC]
			ls.head |= lowBits(min(off, program.LineSize))
			r.shadow[ev.PC] = ls
		}
	case metrics.EvShadowTail:
		if off := int(ev.Arg); off >= 0 && off < program.LineSize {
			ls := r.shadow[ev.PC]
			ls.tail |= ^lowBits(off)
			r.shadow[ev.PC] = ls
		}
	case metrics.EvSBDInsertU, metrics.EvSBDInsertR:
		if ev.Flags&metrics.FlagInSBB != 0 {
			r.inserted[ev.PC] = struct{}{}
		}
	case metrics.EvFTQSample:
		r.ftqOcc.Observe(float64(ev.Arg))
	case metrics.EvBTBMiss:
		r.classify(ev.PC, ev.Class, ev.Flags)
	default:
		r.acc.Observe(ev)
	}
}

func (r *refEngine) classify(pc uint64, class isa.Class, fl metrics.EventFlags) {
	cause := CauseResidentDecoded
	switch {
	case fl&metrics.FlagCovered != 0:
		cause = CauseSBBHit
	case class == isa.ClassDirectCond || class == isa.ClassIndirect || class == isa.ClassIndirectCall:
		cause = CauseIneligible
	case func() bool { _, ever := r.inserted[pc]; return ever && fl&metrics.FlagInSBB == 0 }():
		cause = CauseEvicted
	case fl&metrics.FlagResident == 0:
		cause = CauseNotResident
	default:
		if ls, ok := r.shadow[program.LineAddr(pc)]; ok {
			bit := uint64(1) << uint(program.LineOffset(pc))
			switch {
			case ls.head&bit != 0:
				cause = CauseShadowHead
			case ls.tail&bit != 0:
				cause = CauseShadowTail
			}
		}
	}
	r.acc.causes[cause]++
	o := r.acc.offenders[pc]
	if o == nil {
		o = &offender{}
		r.acc.offenders[pc] = o
	}
	o.counts[cause]++
	o.total++
}

func (r *refEngine) Summary() Summary {
	s := r.acc.Summary()
	s.FTQOccupancy = summarizeHist(&r.ftqOcc)
	return s
}

// The fuzzed image: the generator's load address, with an end that
// splits a line so both image edges are exercised.
const (
	fuzzBase = 0x40_0000
	fuzzEnd  = fuzzBase + 0x2345
	// fuzzPhantom is where a bogus rel32 target below address 0 wraps
	// to: about 2^64 - 2.08e9.
	fuzzPhantom = ^uint64(0) - 2_080_000_000
)

// fuzzAddr maps a selector and a 16-bit value to an address inside
// the image, at or just past either edge, near a wrapped phantom
// target, or anywhere.
func fuzzAddr(sel byte, v uint16) uint64 {
	switch sel % 6 {
	case 0:
		return fuzzBase + uint64(v)%(fuzzEnd-fuzzBase)
	case 1:
		return fuzzBase - 256 + uint64(v)%512
	case 2:
		return fuzzEnd - 256 + uint64(v)%512
	case 3:
		return fuzzPhantom + uint64(v)
	case 4:
		return ^uint64(0) - uint64(v) // the top of the address space
	default:
		return uint64(v) << (sel % 48)
	}
}

// fuzzEvents decodes data, four bytes an event, into a front-end
// event stream: every kind (and one past the last), shadow regions
// and SBB inserts at fuzzAddr addresses, head/tail offsets in
// [-128, 128), and BTB misses at true-path PCs inside the image.
func fuzzEvents(data []byte) []metrics.Event {
	var evs []metrics.Event
	for ; len(data) >= 4; data = data[4:] {
		kind := metrics.EventKind(data[0] % byte(metrics.EvSBDPaths+2))
		sel := data[1]
		v := binary.LittleEndian.Uint16(data[2:])
		ev := metrics.Event{Kind: kind, PC: fuzzAddr(sel, v), Arg: uint64(v)}
		switch kind {
		case metrics.EvShadowHead, metrics.EvShadowTail:
			if sel&0x80 != 0 {
				ev.PC = program.LineAddr(ev.PC)
			}
			ev.Arg = uint64(int64(int8(data[3])))
		case metrics.EvSBDInsertU, metrics.EvSBDInsertR:
			if sel&0x40 != 0 {
				ev.Flags = metrics.FlagInSBB
			}
		case metrics.EvBTBMiss:
			ev.PC = fuzzBase + uint64(v)%(fuzzEnd-fuzzBase)
			ev.Class = isa.Class(sel % 7)
			ev.Flags = metrics.EventFlags(sel>>3) & (metrics.FlagCovered | metrics.FlagResident | metrics.FlagInSBB)
		case metrics.EvStall:
			ev.Arg %= uint64(NumStallKinds)
		case metrics.EvDecodeResteer, metrics.EvExecResteer:
			ev.Arg = fuzzAddr(sel>>3, v*7)
		}
		evs = append(evs, ev)
	}
	return evs
}

// FuzzEngineMatchesReference feeds the dense engine and the map-backed
// reference the same event stream over a fixed image; their summaries
// must be identical. Out-of-image shadow regions and inserts, which
// the dense engine drops, must never change a result.
func FuzzEngineMatchesReference(f *testing.F) {
	f.Add([]byte{
		byte(metrics.EvShadowHead), 0x80, 0x10, 0x10, // head [0,16) of the first line
		byte(metrics.EvSBDInsertU), 0x40, 0x04, 0x00, // insert at base+4
		byte(metrics.EvBTBMiss), 0x12, 0x04, 0x00, // resident miss at base+4: evicted
		byte(metrics.EvBTBMiss), 0x12, 0x02, 0x00, // resident miss at base+2: head
		byte(metrics.EvFTQSample), 0, 0x18, 0x00,
		byte(metrics.EvFTQSample), 0, 0x00, 0x20, // occupancy 8192: beyond the count array
		byte(metrics.EvStall), 0, 0x03, 0x00,
	})
	f.Add([]byte{
		byte(metrics.EvShadowTail), 0x83, 0x00, 0x20, // tail of a phantom line
		byte(metrics.EvSBDInsertR), 0x43, 0x00, 0x00, // insert at the phantom target
		byte(metrics.EvShadowTail), 0x82, 0x00, 0x20, // tail near the image end
		byte(metrics.EvBTBMiss), 0x14, 0x40, 0x23, // miss in the last partial line
		byte(metrics.EvExecResteer), 0x1b, 0x10, 0x00, // re-steer from a phantom PC
		byte(metrics.EvSBBEvictU), 0, 0xff, 0xff,
		byte(metrics.EvSBDPaths), 0, 0x03, 0x00,
	})
	f.Fuzz(func(t *testing.T, data []byte) {
		e, ref := NewEngine(), newRefEngine()
		e.SetImage(fuzzBase, fuzzEnd)
		for _, ev := range fuzzEvents(data) {
			e.Observe(ev)
			ref.Observe(ev)
		}
		if got, want := e.Summary(), ref.Summary(); !reflect.DeepEqual(got, want) {
			t.Fatalf("dense summary differs from the map reference:\n got %+v\nwant %+v", got, want)
		}
	})
}
