package frontend

import (
	"fmt"
	"math"
	"math/bits"

	"repro/internal/attrib"
	"repro/internal/btb"
	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/emu"
	"repro/internal/ftq"
	"repro/internal/isa"
	"repro/internal/ittage"
	"repro/internal/metrics"
	"repro/internal/program"
	"repro/internal/ras"
	"repro/internal/tage"
	"repro/internal/workload"
)

// LineFetch records one cache line covered by a block and whether it
// was already L1-I resident when the block's prefetch was issued.
type LineFetch struct {
	Addr        uint64
	WasResident bool
}

// maxBlockLineSpan bounds Block's inline line-fetch storage. A block
// covers at most Config.MaxBlockLines lines plus one for a terminator
// whose fall-through straddles into the next line.
const maxBlockLineSpan = 8

// CondRec is a conditional branch inside a block that the IAG predicted
// not-taken, with the TAGE bookkeeping needed to train at decode.
type CondRec struct {
	PC   uint64
	Pred tage.Prediction
}

// Block is one FTQ entry: a predicted basic block.
type Block struct {
	// Start and End delimit the block's bytes [Start, End).
	Start, End uint64
	// BranchPC is the predicted-taken terminator, 0 for fall-through
	// blocks that simply ran to the line-span cap.
	BranchPC uint64
	// Class is the terminator's branch class.
	Class isa.Class
	// Target is the predicted address of the next block.
	Target uint64
	// TakenPred distinguishes terminated blocks from fall-through ones.
	TakenPred bool
	// ViaSBB marks terminators identified by the SBB after a BTB miss.
	ViaSBB bool
	// EntryIsTarget marks blocks whose Start is a branch target (head
	// shadow decode trigger) rather than sequential continuation.
	EntryIsTarget bool
	// WrongPath marks blocks formed while a re-steer was pending.
	WrongPath bool
	// ReadyAt is the cycle the block's bytes are available to decode.
	ReadyAt uint64
	// Lines and NLines list covered cache lines with
	// residency-at-prefetch. Storage is inline: a block spans at most
	// MaxBlockLines lines plus one more when a straddling terminator's
	// fall-through crosses a line boundary, so a small fixed array
	// removes a per-block heap allocation from the IAG loop (New
	// validates the configured span fits).
	Lines  [maxBlockLineSpan]LineFetch
	NLines int
	// Conds lists predicted-not-taken conditionals inside the block.
	// Every FTQ slot and the front-end's current block each own one
	// backing array: decode swaps arrays when it takes the FTQ head, and
	// formBlock truncates the slot's array and appends to it.
	Conds []CondRec
	// TermCond is the TAGE bookkeeping for a conditional terminator.
	TermCond tage.Prediction
	// TermInd is the ITTAGE bookkeeping for an indirect terminator.
	TermInd ittage.Prediction
}

// redirectKind distinguishes re-steer timing models.
type redirectKind int

const (
	redirectDecode redirectKind = iota
	redirectExec
)

type redirect struct {
	pc      uint64
	applyAt uint64
	kind    redirectKind
	// cause is the stall attribution charged to every decoder-idle
	// cycle of this re-steer's repair window.
	cause attrib.StallKind
}

type sbdTask struct {
	atCycle  uint64
	head     bool
	lineAddr uint64
	off      int
}

// FrontEnd is the full decoupled front-end for one simulation run. Not
// safe for concurrent use; create one per run.
type FrontEnd struct {
	cfg Config
	w   *workload.Workload
	em  *emu.Emulator

	l1i *cache.Cache
	l2  *cache.Cache
	btb *btb.BTB
	tg  *tage.Predictor
	it  *ittage.Predictor
	rs  *ras.Stack
	sbd *core.SBD
	sbb *core.SBB

	q        *ftq.Queue[Block]
	specPC   uint64
	entryTgt bool // next block starts at a branch target

	cycle        uint64
	iagStallTill uint64
	redir        redirect
	hasRedir     bool

	// cur/hasCur and pending/hasPending are value slots, not pointers:
	// storing &local in a struct field forces the local to escape, which
	// used to heap-allocate once per decoded block and once per executed
	// instruction. cur stays readable after hasCur clears, until decode
	// takes the next FTQ head.
	cur        Block
	hasCur     bool
	curPC      uint64
	idleStreak uint64
	pending    emu.Step
	hasPending bool
	done       bool
	err        error
	// scratch is a per-call decode buffer, dead between Cycle calls.
	//skia:shared-ok transient scratch: fully overwritten before every use, never holds state across cycles
	scratch  []core.ShadowBranch
	sbdTasks []sbdTask
	// sbdDue is the earliest atCycle among sbdTasks (MaxUint64 when
	// none is pending), so cycles with no due task skip the scan.
	sbdDue uint64
	// extraOffs registers SBB-inserted PCs that are not static branch
	// starts as probe candidates: one bit per byte offset in the line
	// (LineSize = 64). Bits are cleared through the SBB's OnRemove hook
	// when the backing entry leaves the buffer, so the map tracks live
	// SBB content instead of growing for the whole run. (In the SBDToBTB
	// ablation there is no SBB to key off; the map then grows to the set
	// of distinct shadow-decoded PCs, which the program size bounds.)
	extraOffs map[uint64]uint64
	// dcache memoizes shadow decodes for detail and warm simulation
	// alike (nil when disabled).
	dcache *core.DecodeCache

	// tr, when non-nil, observes re-steers, misses, and shadow-decode
	// events; every emission site nil-checks it so a disabled trace
	// costs one comparison per event.
	//skia:shared-ok observability attachment: Clone's contract is that clones start untraced and callers attach their own
	tr metrics.Tracer

	// at, when non-nil, is the miss-attribution engine: it classifies
	// every BTB miss into a cause and every decoder-idle cycle into a
	// stall account. Same nil-check contract as tr.
	//skia:shared-ok observability attachment: Clone's contract is that clones start unattributed and callers attach their own
	at *attrib.Engine

	stats Stats
}

// New builds a front-end over a generated workload.
func New(cfg Config, w *workload.Workload) (*FrontEnd, error) {
	if cfg.MaxBlockLines+1 > maxBlockLineSpan {
		return nil, fmt.Errorf("frontend: MaxBlockLines %d exceeds the supported span of %d lines", cfg.MaxBlockLines, maxBlockLineSpan-1)
	}
	if err := cfg.TAGE.Validate(); err != nil {
		return nil, fmt.Errorf("frontend: %w", err)
	}
	if err := cfg.ITTAGE.Validate(); err != nil {
		return nil, fmt.Errorf("frontend: %w", err)
	}
	l1i, err := cache.New(cfg.L1ISize, cfg.L1IWays, program.LineSize)
	if err != nil {
		return nil, fmt.Errorf("frontend: %w", err)
	}
	l2, err := cache.New(cfg.L2Size, cfg.L2Ways, program.LineSize)
	if err != nil {
		return nil, fmt.Errorf("frontend: %w", err)
	}
	b, err := btb.New(cfg.BTB)
	if err != nil {
		return nil, fmt.Errorf("frontend: %w", err)
	}
	f := &FrontEnd{
		cfg:       cfg,
		w:         w,
		em:        emu.New(w),
		l1i:       l1i,
		l2:        l2,
		btb:       b,
		tg:        tage.New(cfg.TAGE),
		it:        ittage.New(cfg.ITTAGE),
		rs:        ras.New(cfg.RASDepth),
		q:         ftq.New[Block](cfg.FTQDepth),
		specPC:    w.Prog.Entry,
		entryTgt:  true,
		extraOffs: make(map[uint64]uint64),
		sbdDue:    math.MaxUint64,
	}
	if cfg.Skia {
		f.sbd = core.NewSBD(cfg.SBD)
		if !cfg.NoDecodeCache {
			f.dcache = core.NewDecodeCache()
			f.sbd.AttachCache(f.dcache)
		}
		if !cfg.SBDToBTB {
			sbb, err := core.NewSBB(cfg.SBB)
			if err != nil {
				return nil, fmt.Errorf("frontend: %w", err)
			}
			f.sbb = sbb
			f.sbb.OnRemove = f.pruneShadowOff
		}
	}
	return f, nil
}

// Done reports whether the workload halted or errored.
func (f *FrontEnd) Done() bool { return f.done }

// Err returns the first emulator error, if any.
func (f *FrontEnd) Err() error { return f.err }

// Cycle returns the current cycle number.
func (f *FrontEnd) Cycle() uint64 { return f.cycle }

// Stats returns a copy of the accumulated statistics.
func (f *FrontEnd) Stats() Stats { return f.stats }

// L1I exposes the instruction cache for measurement.
func (f *FrontEnd) L1I() *cache.Cache { return f.l1i }

// L2 exposes the second-level cache (instruction traffic only).
func (f *FrontEnd) L2() *cache.Cache { return f.l2 }

// BTB exposes the branch target buffer for measurement.
func (f *FrontEnd) BTB() *btb.BTB { return f.btb }

// TAGE exposes the direction predictor for measurement.
func (f *FrontEnd) TAGE() *tage.Predictor { return f.tg }

// ITTAGE exposes the indirect predictor for measurement.
func (f *FrontEnd) ITTAGE() *ittage.Predictor { return f.it }

// SBB exposes the shadow branch buffer (nil without Skia).
func (f *FrontEnd) SBB() *core.SBB { return f.sbb }

// SBD exposes the shadow branch decoder (nil without Skia).
func (f *FrontEnd) SBD() *core.SBD { return f.sbd }

// DecodeCache exposes the shadow-decode memo (nil when disabled).
func (f *FrontEnd) DecodeCache() *core.DecodeCache { return f.dcache }

// ExtraOffLines reports how many lines currently carry SBB-discovered
// probe candidates, for footprint tests.
func (f *FrontEnd) ExtraOffLines() int { return len(f.extraOffs) }

// SetTracer attaches (or, with nil, detaches) an event tracer. The
// SBB's eviction hook is wired through to the same tracer.
func (f *FrontEnd) SetTracer(t metrics.Tracer) {
	f.tr = t
	f.wireHooks()
}

// SetAttribution attaches (or, with nil, detaches) a miss-attribution
// engine. The SBB's clock and eviction hooks and the SBD's head-path
// hook are wired through to it.
func (f *FrontEnd) SetAttribution(e *attrib.Engine) {
	f.at = e
	f.wireHooks()
}

// wireHooks (re)wires component callbacks to whichever of the tracer
// and the attribution engine are attached. Both observers share the
// single SBB eviction hook, so attaching one must not clobber the
// other.
func (f *FrontEnd) wireHooks() {
	if f.sbd != nil {
		if f.at != nil {
			f.sbd.OnHeadPaths = f.at.NoteSBDPaths
		} else {
			f.sbd.OnHeadPaths = nil
		}
	}
	if f.sbb == nil {
		return
	}
	if f.at != nil {
		f.sbb.Clock = func() uint64 { return f.cycle }
	} else {
		f.sbb.Clock = nil
	}
	if f.tr == nil && f.at == nil {
		f.sbb.OnEvict = nil
		return
	}
	f.sbb.OnEvict = func(isU, retired bool, lifetime uint64) {
		if f.tr != nil {
			kind := metrics.EvSBBEvictR
			if isU {
				kind = metrics.EvSBBEvictU
			}
			var arg uint64
			if retired {
				arg = 1
			}
			f.tr.Emit(metrics.Event{Cycle: f.cycle, Kind: kind, Arg: arg})
		}
		if f.at != nil {
			f.at.NoteSBBLifetime(lifetime)
		}
	}
}

// emit records a traced event at the current cycle.
func (f *FrontEnd) emit(k metrics.EventKind, pc, arg uint64) {
	if f.tr != nil {
		f.tr.Emit(metrics.Event{Cycle: f.cycle, Kind: k, PC: pc, Arg: arg})
	}
}

// ResetStats zeroes all statistics (front-end and components) at the
// warmup/measurement boundary without touching learned state.
func (f *FrontEnd) ResetStats() {
	f.stats = Stats{}
	f.l1i.ResetStats()
	f.l2.ResetStats()
	f.btb.ResetStats()
	f.tg.ResetStats()
	f.it.ResetStats()
	if f.sbb != nil {
		f.sbb.ResetStats()
	}
	if f.sbd != nil {
		f.sbd.ResetStats()
	}
}

// peek returns the next true-path step without consuming it.
func (f *FrontEnd) peek() (emu.Step, bool) {
	if !f.hasPending {
		if f.em.Halted() {
			f.done = true
			return emu.Step{}, false
		}
		st, err := f.em.Step()
		if err != nil {
			f.err = err
			f.done = true
			return emu.Step{}, false
		}
		f.pending = st
		f.hasPending = true
	}
	return f.pending, true
}

// consume advances past the peeked step.
func (f *FrontEnd) consume() { f.hasPending = false }

// pruneShadowOff clears pc's probe-candidate bit once its SBB entry is
// gone (wired to the SBB's OnRemove hook).
//
//skia:noalloc
func (f *FrontEnd) pruneShadowOff(pc uint64) {
	la := program.LineAddr(pc)
	m, ok := f.extraOffs[la]
	if !ok {
		return
	}
	m &^= 1 << program.LineOffset(pc)
	if m == 0 {
		delete(f.extraOffs, la)
	} else {
		f.extraOffs[la] = m
	}
}

// Step advances the front-end by one cycle and returns the number of
// true-path instructions decoded (delivered to the backend) this cycle.
// maxDecode lets the caller apply backpressure (ROB full).
//
//skia:noalloc
func (f *FrontEnd) Step(maxDecode int) int {
	f.cycle++

	// 0. Apply a matured re-steer.
	if f.hasRedir && f.cycle >= f.redir.applyAt {
		f.applyRedirect()
	}

	// 1. Run due shadow-branch decodes (off the critical path).
	if f.sbd != nil {
		f.runSBDTasks()
	}

	// 2. IAG: form predicted blocks into the FTQ.
	if f.cycle >= f.iagStallTill {
		for i := 0; i < 2 && !f.q.Full(); i++ {
			f.formBlock(f.q.Reserve())
		}
	}

	// 3. Decode: verify the predicted stream against the true stream.
	n := f.decode(maxDecode)

	// Sample end-of-cycle FTQ occupancy for the distribution stats.
	if f.at != nil {
		f.at.NoteCycle(f.q.Len())
	}

	// Safety valve: if the decoder has been starved for implausibly
	// long (far beyond any miss or re-steer latency), force a resync to
	// the true path rather than livelock. A triggered resync indicates
	// a front-end modeling bug, so it is counted and surfaced.
	if n == 0 && maxDecode > 0 {
		f.idleStreak++
		if f.idleStreak > 4096 && !f.hasRedir {
			if st, ok := f.peek(); ok {
				f.stats.ForcedResyncs++
				f.emit(metrics.EvForcedResync, st.Inst.PC, 0)
				f.scheduleRedirect(st.Inst.PC, redirectDecode, attrib.StallResteerOther)
			}
			f.idleStreak = 0
		}
	} else {
		f.idleStreak = 0
	}
	return n
}

// scheduleRedirect arranges a re-steer to pc; cause labels the repair
// window for stall attribution. Decode-stage re-steers flush
// immediately and stall the IAG for the repair window; execute-stage
// re-steers leave the IAG running down the wrong path until the
// branch resolves.
func (f *FrontEnd) scheduleRedirect(pc uint64, kind redirectKind, cause attrib.StallKind) {
	if f.at != nil {
		f.at.NoteResteer(f.specPC, pc)
	}
	switch kind {
	case redirectDecode:
		f.stats.DecodeResteers++
		f.emit(metrics.EvDecodeResteer, pc, 0)
		f.q.Reset()
		f.hasCur = false
		f.specPC = pc
		f.entryTgt = true
		f.rs.LoadFrom(f.em.Stack())
		f.tg.SyncSpec()
		f.it.SyncSpec()
		f.iagStallTill = f.cycle + uint64(f.cfg.DecodeResteerPenalty)
		f.redir = redirect{pc: pc, applyAt: f.cycle + uint64(f.cfg.DecodeResteerPenalty), kind: kind, cause: cause}
		f.hasRedir = true
	case redirectExec:
		f.stats.ExecResteers++
		f.emit(metrics.EvExecResteer, pc, 0)
		f.redir = redirect{pc: pc, applyAt: f.cycle + uint64(f.cfg.ExecResteerPenalty), kind: kind, cause: cause}
		f.hasRedir = true
	}
}

// applyRedirect finishes a pending re-steer.
func (f *FrontEnd) applyRedirect() {
	r := f.redir
	f.hasRedir = false
	if r.kind == redirectExec {
		f.q.Reset()
		f.hasCur = false
		f.specPC = r.pc
		f.entryTgt = true
		f.rs.LoadFrom(f.em.Stack())
		f.tg.SyncSpec()
		f.it.SyncSpec()
	}
	// Decode re-steers already redirected the IAG at schedule time.
}

// candidates returns the branch-site byte offsets to probe in a line as
// a bitmask (bit i = byte offset i): the static branch starts plus any
// PCs the SBD has (possibly bogusly) inserted. One OR replaces the
// sorted-slice merge the scan used to allocate for.
//
//skia:noalloc
func (f *FrontEnd) candidates(lineAddr uint64) uint64 {
	m := f.w.BranchMask(lineAddr)
	if len(f.extraOffs) > 0 {
		m |= f.extraOffs[lineAddr]
	}
	return m
}

// formBlock builds the next predicted basic block from specPC into the
// reserved FTQ slot blk, consulting BTB, SBB, TAGE, ITTAGE and RAS,
// issues its prefetches, and schedules shadow decodes.
//
//skia:noalloc
func (f *FrontEnd) formBlock(blk *Block) {
	*blk = Block{
		Start:         f.specPC,
		EntryIsTarget: f.entryTgt,
		WrongPath:     f.hasRedir,
		Conds:         blk.Conds[:0],
	}
	pos := f.specPC

scan:
	for ln := 0; ln < f.cfg.MaxBlockLines; ln++ {
		lineAddr := program.LineAddr(pos)
		for m := f.candidates(lineAddr); m != 0; m &= m - 1 {
			pc := lineAddr + uint64(bits.TrailingZeros64(m))
			if pc < pos {
				continue
			}
			if e, ok := f.btb.Lookup(pc); ok {
				if f.terminateViaBTB(blk, pc, e) {
					break scan
				}
				// Predicted not-taken conditional: continue past it.
				pos = e.FallThrough
				continue
			}
			if f.sbb != nil {
				if u, ok := f.sbb.LookupU(pc); ok {
					if u.IsCond {
						// Extension (IncludeConditionals): a shadow
						// conditional still needs a direction from TAGE
						// before the IAG can follow its target.
						pred := f.tg.Predict(pc)
						f.tg.SpecPush(pred.Taken, pc)
						if !pred.Taken {
							blk.Conds = append(blk.Conds, CondRec{PC: pc, Pred: pred})
							pos = pc + uint64(u.Len)
							continue
						}
						blk.TermCond = pred
						blk.Class = isa.ClassDirectCond
					} else if u.IsCall {
						blk.Class = isa.ClassCall
						f.rs.Push(pc + uint64(u.Len))
					} else {
						blk.Class = isa.ClassDirectUncond
					}
					blk.BranchPC = pc
					blk.Target = u.Target
					blk.TakenPred = true
					blk.ViaSBB = true
					blk.End = pc + uint64(u.Len)
					f.emit(metrics.EvSBBHitU, pc, u.Target)
					break scan
				}
				if f.sbb.LookupR(pc) {
					if tgt, ok := f.rs.Pop(); ok {
						blk.BranchPC = pc
						blk.Target = tgt
						blk.TakenPred = true
						blk.ViaSBB = true
						blk.Class = isa.ClassReturn
						blk.End = pc + 1
						f.emit(metrics.EvSBBHitR, pc, tgt)
						break scan
					}
				}
			}
		}
		// Continue into the next line, never rewinding past a
		// not-taken conditional whose fall-through crossed the line.
		if next := lineAddr + program.LineSize; next > pos {
			pos = next
		}
	}
	if !blk.TakenPred {
		blk.End = pos
		blk.Target = pos
	}

	// Prefetch every covered line, recording residency for the shadow
	// opportunity statistics.
	first := program.LineAddr(blk.Start)
	last := program.LineAddr(blk.End - 1)
	if blk.End <= blk.Start {
		last = first
	}
	// A partial-tag alias can hand the IAG a far-away fall-through; the
	// fetch model covers at most the inline line capacity.
	if (last-first)/program.LineSize >= maxBlockLineSpan {
		last = first + (maxBlockLineSpan-1)*program.LineSize
	}
	fillLat := 0
	for la := first; la <= last; la += program.LineSize {
		resident := f.l1i.Prefetch(la)
		if !resident {
			// The fill comes from the L2 or, on an L2 miss, the L3;
			// concurrent line fills overlap, so the block pays the
			// worst single-line latency.
			lat := f.cfg.L1IMissLatency
			if !f.l2.Prefetch(la) {
				lat = f.cfg.L2MissLatency
			}
			if lat > fillLat {
				fillLat = lat
			}
		}
		blk.Lines[blk.NLines] = LineFetch{Addr: la, WasResident: resident}
		blk.NLines++
	}
	blk.ReadyAt = f.cycle + uint64(f.cfg.FetchLatency) + uint64(fillLat)

	if blk.WrongPath {
		f.stats.WrongPathBlocks++
	} else {
		f.stats.Blocks++
	}

	// Record the block's shadow regions for attribution. This runs even
	// without Skia (nil-checked), so baseline runs can report how many
	// of their BTB misses sat in decodable shadow bytes — the paper's
	// Figure 1/2 observation.
	if f.at != nil {
		if blk.EntryIsTarget {
			if off := program.LineOffset(blk.Start); off > 0 {
				f.at.NoteHead(program.LineAddr(blk.Start), off)
			}
		}
		if blk.TakenPred {
			if off := program.LineOffset(blk.End); off != 0 {
				f.at.NoteTail(program.LineAddr(blk.End), off)
			}
		}
	}

	// Schedule shadow decodes (Skia): the Head region of a
	// branch-target entry line and the Tail region after a taken exit.
	if f.sbd != nil {
		lat := uint64(f.cfg.SBD.Latency)
		if blk.EntryIsTarget {
			if off := program.LineOffset(blk.Start); off > 0 {
				f.queueSBD(sbdTask{
					atCycle: blk.ReadyAt + lat, head: true,
					lineAddr: program.LineAddr(blk.Start), off: off,
				})
			}
		}
		if blk.TakenPred {
			tailStart := blk.End // first byte after the exiting branch
			if off := program.LineOffset(tailStart); off != 0 {
				f.queueSBD(sbdTask{
					atCycle: blk.ReadyAt + lat, head: false,
					lineAddr: program.LineAddr(tailStart), off: off,
				})
			}
		}
	}

	// Predicted-taken terminators enter the speculative path history.
	if blk.TakenPred {
		f.it.SpecPush(blk.BranchPC, blk.Target)
	}

	// Advance the speculative PC.
	f.specPC = blk.Target
	f.entryTgt = blk.TakenPred
}

// terminateViaBTB handles a BTB hit during the scan. It returns true
// when the block terminates at pc.
//
//skia:noalloc
func (f *FrontEnd) terminateViaBTB(blk *Block, pc uint64, e btb.Entry) bool {
	switch e.Class {
	case isa.ClassDirectCond:
		pred := f.tg.Predict(pc)
		f.tg.SpecPush(pred.Taken, pc)
		if !pred.Taken {
			blk.Conds = append(blk.Conds, CondRec{PC: pc, Pred: pred})
			return false
		}
		blk.TermCond = pred
		blk.Target = e.Target
	case isa.ClassDirectUncond:
		blk.Target = e.Target
	case isa.ClassCall:
		f.rs.Push(e.FallThrough)
		blk.Target = e.Target
	case isa.ClassReturn:
		if tgt, ok := f.rs.Pop(); ok {
			blk.Target = tgt
		} else {
			blk.Target = e.Target
		}
	case isa.ClassIndirect, isa.ClassIndirectCall:
		p := f.it.Predict(pc)
		if p.Valid {
			blk.Target = p.Target
		} else {
			blk.Target = e.Target
		}
		blk.TermInd = p
		if e.Class == isa.ClassIndirectCall {
			f.rs.Push(e.FallThrough)
		}
	}
	blk.BranchPC = pc
	blk.Class = e.Class
	blk.TakenPred = true
	blk.End = e.FallThrough
	return true
}

// queueSBD schedules a shadow decode.
//
//skia:noalloc
func (f *FrontEnd) queueSBD(t sbdTask) {
	f.sbdTasks = append(f.sbdTasks, t)
	f.sbdDue = min(f.sbdDue, t.atCycle)
}

// clearSBD drops every queued shadow decode.
func (f *FrontEnd) clearSBD() {
	f.sbdTasks = f.sbdTasks[:0]
	f.sbdDue = math.MaxUint64
}

// runSBDTasks executes, in queue order, shadow decodes whose latency
// has elapsed and whose line is still L1-I resident, inserting results
// into the SBB.
//
//skia:noalloc
func (f *FrontEnd) runSBDTasks() {
	if f.cycle < f.sbdDue {
		return
	}
	kept := f.sbdTasks[:0]
	f.sbdDue = math.MaxUint64
	for _, t := range f.sbdTasks {
		if t.atCycle > f.cycle {
			kept = append(kept, t)
			f.sbdDue = min(f.sbdDue, t.atCycle)
			continue
		}
		if !f.l1i.Contains(t.lineAddr) {
			continue // line evicted before the decoder got to it
		}
		line := f.w.Prog.Line(t.lineAddr)
		if line == nil {
			continue
		}
		f.scratch = f.scratch[:0]
		if t.head {
			f.scratch = f.sbd.DecodeHead(line, t.lineAddr, t.off, f.scratch)
		} else {
			f.scratch = f.sbd.DecodeTail(line, t.lineAddr, t.off, f.scratch)
		}
		for _, sb := range f.scratch {
			if f.cfg.SBDToBTB {
				// Ablation: shadow branches go straight into the BTB.
				f.btb.Insert(sb.PC, btb.Entry{
					Target:      sb.Target,
					FallThrough: sb.PC + uint64(sb.Len),
					Class:       sb.Class,
				})
			} else {
				_, resident := f.btb.Probe(sb.PC)
				f.sbb.Insert(sb, resident)
				if f.at != nil {
					f.at.NoteSBBInsert(sb.PC)
				}
			}
			f.stats.SBDInserts++
			if f.tr != nil {
				kind := metrics.EvSBDInsertU
				if sb.Class == isa.ClassReturn {
					kind = metrics.EvSBDInsertR
				}
				f.emit(kind, sb.PC, sb.Target)
			}
			f.noteSBBInsert(sb)
		}
	}
	f.sbdTasks = kept
}

// noteSBBInsert tracks bogus inserts (oracle check) and registers the
// PC as a probe candidate so the IAG scan can see it.
//
//skia:noalloc
func (f *FrontEnd) noteSBBInsert(sb core.ShadowBranch) {
	in, ok := f.w.InstAt(sb.PC)
	if !ok || in.Class != sb.Class {
		f.stats.SBDBogusInserts++
	}
	la := program.LineAddr(sb.PC)
	bit := uint64(1) << program.LineOffset(sb.PC)
	if f.w.BranchMask(la)&bit != 0 {
		return
	}
	f.extraOffs[la] |= bit
}

// lineResidency returns whether the line containing pc was resident
// when blk was formed.
func lineResidency(blk *Block, pc uint64) bool {
	la := program.LineAddr(pc)
	for _, lf := range blk.Lines[:blk.NLines] {
		if lf.Addr == la {
			return lf.WasResident
		}
	}
	return false
}

// countBTBMiss records a taken branch the BTB failed to identify.
// covered reports whether the SBB supplied the branch in time (the
// block steered through it with matching class, so no re-steer was
// paid); it feeds the attribution taxonomy.
//
//skia:noalloc
func (f *FrontEnd) countBTBMiss(blk *Block, in isa.Inst, covered bool) {
	switch in.Class {
	case isa.ClassDirectCond:
		f.stats.BTBMissCond++
	case isa.ClassDirectUncond:
		f.stats.BTBMissUncond++
	case isa.ClassCall:
		f.stats.BTBMissCall++
	case isa.ClassReturn:
		f.stats.BTBMissReturn++
	case isa.ClassIndirect, isa.ClassIndirectCall:
		f.stats.BTBMissIndirect++
	}
	resident := lineResidency(blk, in.PC)
	if resident {
		f.stats.BTBMissL1IHit++
	}
	if f.at != nil {
		inSBB := f.sbb != nil && f.sbb.Contains(in.PC, in.Class)
		f.at.ClassifyMiss(in.PC, in.Class, covered, resident, inSBB)
	}
	f.emit(metrics.EvBTBMiss, in.PC, 0)
}

// insertBTB installs the executed taken branch at decode.
func (f *FrontEnd) insertBTB(in isa.Inst, target uint64) {
	f.btb.Insert(in.PC, btb.Entry{Target: target, FallThrough: in.NextPC(), Class: in.Class})
}

// decode verifies up to max instructions of the predicted stream
// against the true stream and returns how many true-path instructions
// were delivered.
//
//skia:noalloc
func (f *FrontEnd) decode(max int) int {
	if max > f.cfg.DecodeWidth {
		max = f.cfg.DecodeWidth
	}
	delivered := 0
	// idle charges a starved cycle: once to the coarse resteer/fetch
	// counters, and (with attribution) once to exactly one StallKind —
	// this is the sole DecodeIdleCycles increment site, so the stall
	// accounts sum to it by construction.
	idle := func(kind attrib.StallKind) {
		if delivered == 0 {
			f.stats.DecodeIdleCycles++
			if kind <= attrib.StallResteerOther {
				f.stats.DecodeIdleResteerCycles++
			} else {
				f.stats.DecodeIdleFetchCycles++
			}
			if f.at != nil {
				f.at.StallCycle(kind)
			}
		}
	}
	for delivered < max {
		if f.done {
			return delivered
		}
		if f.hasRedir {
			idle(f.redir.cause)
			return delivered
		}
		if !f.hasCur {
			head := f.q.Front()
			if head == nil {
				idle(attrib.StallFTQEmpty)
				return delivered
			}
			if head.ReadyAt > f.cycle {
				idle(fetchStall(head))
				return delivered
			}
			// Take the head into cur; the slot keeps cur's old Conds
			// array, so each array keeps exactly one owner.
			conds := f.cur.Conds
			f.cur = *head
			head.Conds = conds
			f.q.Drop()
			st, ok := f.peek()
			if !ok {
				return delivered
			}
			// Accept the block if the next true instruction lies inside
			// it. The true PC may be past blk.Start when the previous
			// block's last instruction straddled the block boundary
			// (fetch regions are byte ranges; decode carries over).
			blk := &f.cur
			pc := st.Inst.PC
			switch {
			case pc < blk.Start:
				// Stale block from before a squash; drop it.
				continue
			case blk.TakenPred && pc > blk.BranchPC:
				// The straddling instruction swallowed the predicted
				// terminator: the terminator entry is bogus.
				f.hasCur = true
				f.phantom(pc)
				continue
			case !blk.TakenPred && pc >= blk.End:
				continue
			}
			f.hasCur = true
			f.curPC = pc
		}
		st, ok := f.peek()
		if !ok {
			return delivered
		}
		in := st.Inst

		// Phantom terminator: the predicted branch PC is not on the
		// true instruction stream (next true boundary is past it).
		if f.cur.TakenPred && in.PC > f.cur.BranchPC {
			f.phantom(in.PC)
			continue
		}

		// Deliver this instruction.
		f.consume()
		delivered++
		f.stats.Decoded++

		// True outcomes enter the architectural histories in program
		// order; a re-steer restores the speculative histories from
		// these.
		if in.Class == isa.ClassDirectCond {
			f.tg.ArchPush(st.Taken, in.PC)
		}
		if st.Taken {
			f.stats.TakenBranches++
			f.it.ArchPush(in.PC, st.NextPC)
		}

		if f.cur.TakenPred && in.PC == f.cur.BranchPC {
			f.verifyTerminator(st)
			continue
		}
		// Mid-block instruction.
		f.verifyMidBlock(st)
	}
	return delivered
}

// fetchStall attributes a not-ready FTQ head block: waiting on a line
// fill if any covered line missed the L1-I, otherwise riding the fixed
// fetch pipeline.
func fetchStall(blk *Block) attrib.StallKind {
	for _, lf := range blk.Lines[:blk.NLines] {
		if !lf.WasResident {
			return attrib.StallICacheMiss
		}
	}
	return attrib.StallFetchLatency
}

// phantom handles a predicted-taken terminator that does not exist on
// the true path: a BTB alias or a bogus SBB entry. Decode detects it
// and re-steers to truePC, the sequential continuation.
func (f *FrontEnd) phantom(truePC uint64) {
	f.stats.PhantomBranches++
	f.emit(metrics.EvPhantom, f.cur.BranchPC, truePC)
	cause := attrib.StallResteerOther // BTB alias exposed as a phantom
	if f.cur.ViaSBB {
		cause = attrib.StallResteerBogusSBB
		f.stats.BogusSBBUsed++
		if f.sbb != nil {
			f.sbb.Invalidate(f.cur.BranchPC)
		}
	} else {
		f.btb.Invalidate(f.cur.BranchPC)
	}
	f.hasCur = false
	f.scheduleRedirect(truePC, redirectDecode, cause)
}

// verifyTerminator checks the true outcome of the block's predicted
// terminator and ends, re-steers, or trains accordingly.
func (f *FrontEnd) verifyTerminator(st emu.Step) {
	blk := &f.cur
	in := st.Inst

	// The terminator PC is a true boundary; the provider entry is only
	// trustworthy if the true instruction has the predicted class.
	// Mismatches come from bogus SBB entries or BTB partial-tag
	// aliases: decode exposes them, invalidates the provider, and
	// handles the true instruction as a freshly discovered branch.
	if in.Class != blk.Class {
		f.stats.PhantomBranches++
		f.emit(metrics.EvPhantom, blk.BranchPC, in.PC)
		cause := attrib.StallResteerOther // BTB alias gave the wrong class
		if blk.ViaSBB {
			cause = attrib.StallResteerBogusSBB
			f.stats.BogusSBBUsed++
			if f.sbb != nil {
				f.sbb.Invalidate(blk.BranchPC)
			}
		} else {
			f.btb.Invalidate(blk.BranchPC)
		}
		f.hasCur = false
		if st.Taken {
			f.countBTBMiss(blk, in, false)
			f.insertBTB(in, st.NextPC)
			switch in.Class {
			case isa.ClassIndirect, isa.ClassIndirectCall:
				f.scheduleRedirect(st.NextPC, redirectExec, cause)
			case isa.ClassDirectCond:
				pred := f.tg.Predict(in.PC)
				f.tg.Update(in.PC, pred, true)
				f.scheduleRedirect(st.NextPC, redirectDecode, cause)
			default:
				f.scheduleRedirect(st.NextPC, redirectDecode, cause)
			}
			return
		}
		if in.Class == isa.ClassDirectCond {
			pred := f.tg.Predict(in.PC)
			f.tg.Update(in.PC, pred, false)
		}
		f.scheduleRedirect(st.NextPC, redirectDecode, cause)
		return
	}

	// Train predictors with the truth.
	switch in.Class {
	case isa.ClassDirectCond:
		f.tg.Update(in.PC, blk.TermCond, st.Taken)
		if !st.Taken {
			// Predicted taken, actually not taken: direction
			// misprediction resolved at execute.
			f.stats.CondMispredicts++
			f.hasCur = false
			f.scheduleRedirect(st.NextPC, redirectExec, attrib.StallResteerMispredict)
			return
		}
	case isa.ClassIndirect, isa.ClassIndirectCall:
		f.it.Update(in.PC, blk.TermInd, st.NextPC)
	}

	// Record SBB coverage and BTB miss bookkeeping.
	if blk.ViaSBB {
		f.countBTBMiss(blk, in, true)
		if in.Class == isa.ClassReturn {
			f.stats.SBBCoveredR++
		} else {
			f.stats.SBBCoveredU++
		}
		if f.sbb != nil {
			f.sbb.MarkRetired(in.PC, in.Class)
		}
		// The decoded branch also fills the BTB as usual.
		f.insertBTB(in, st.NextPC)
	}

	if blk.Target == st.NextPC {
		// Fully correct: move to the next block.
		f.hasCur = false
		return
	}

	// Right branch, wrong target.
	f.hasCur = false
	switch in.Class {
	case isa.ClassDirectCond, isa.ClassDirectUncond, isa.ClassCall:
		// The true target is encoded in the instruction: decode fixes
		// it early and refreshes the stale entry.
		f.stats.StaleBTBTarget++
		f.insertBTB(in, st.NextPC)
		f.scheduleRedirect(st.NextPC, redirectDecode, attrib.StallResteerOther)
	case isa.ClassReturn:
		f.stats.ReturnMispredicts++
		f.emit(metrics.EvReturnMispredict, in.PC, st.NextPC)
		f.scheduleRedirect(st.NextPC, redirectExec, attrib.StallResteerMispredict)
	case isa.ClassIndirect, isa.ClassIndirectCall:
		f.stats.IndirectMispredicts++
		f.insertBTB(in, st.NextPC)
		f.scheduleRedirect(st.NextPC, redirectExec, attrib.StallResteerMispredict)
	}
}

// verifyMidBlock checks an instruction the IAG predicted to be
// non-terminating (sequential, or a not-taken conditional).
func (f *FrontEnd) verifyMidBlock(st emu.Step) {
	blk := &f.cur
	in := st.Inst

	// Train recorded not-taken conditional predictions.
	for i := range blk.Conds {
		if blk.Conds[i].PC == in.PC {
			f.tg.Update(in.PC, blk.Conds[i].Pred, st.Taken)
			if st.Taken {
				// Identified, predicted not-taken, actually taken:
				// direction misprediction, resolved at execute.
				f.stats.CondMispredicts++
				f.hasCur = false
				f.scheduleRedirect(st.NextPC, redirectExec, attrib.StallResteerMispredict)
				return
			}
			f.advanceWithin(st)
			return
		}
	}

	if !st.Taken {
		f.advanceWithin(st)
		return
	}

	// A taken branch the IAG did not identify at all: the BTB (and SBB,
	// if present) missed it. This is the event Skia attacks. The repair
	// window is charged to the BTB miss even when a late direction or
	// target lookup also went wrong — absent identification is the root.
	f.countBTBMiss(blk, in, false)
	f.insertBTB(in, st.NextPC) // decode fills the BTB
	f.hasCur = false
	switch in.Class {
	case isa.ClassDirectUncond, isa.ClassCall:
		// Target computable at decode: early re-steer.
		f.scheduleRedirect(st.NextPC, redirectDecode, attrib.StallResteerBTBMiss)
	case isa.ClassReturn:
		// Decode sees the return and consults the RAS; model the
		// common case of a correct RAS repair as an early re-steer.
		f.scheduleRedirect(st.NextPC, redirectDecode, attrib.StallResteerBTBMiss)
	case isa.ClassDirectCond:
		// Decode discovers the conditional and asks TAGE late.
		pred := f.tg.Predict(in.PC)
		f.tg.Update(in.PC, pred, true)
		if pred.Taken {
			f.scheduleRedirect(st.NextPC, redirectDecode, attrib.StallResteerBTBMiss)
		} else {
			f.stats.CondMispredicts++
			f.scheduleRedirect(st.NextPC, redirectExec, attrib.StallResteerBTBMiss)
		}
	case isa.ClassIndirect, isa.ClassIndirectCall:
		// Target needs execution.
		f.scheduleRedirect(st.NextPC, redirectExec, attrib.StallResteerBTBMiss)
	}
}

// advanceWithin moves the in-block cursor past a correctly handled
// non-terminating instruction, closing fall-through blocks at their
// end.
func (f *FrontEnd) advanceWithin(st emu.Step) {
	f.curPC = st.NextPC
	if !f.cur.TakenPred && f.curPC >= f.cur.End {
		f.hasCur = false
	}
}
