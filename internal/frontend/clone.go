package frontend

import (
	"repro/internal/btb"
	"repro/internal/isa"
	"repro/internal/program"
)

// Checkpoint/restore for the front-end. Clone produces an independent
// deep copy of the complete simulation state — emulator, caches, BTB,
// direction/target predictors, RAS, SBB/SBD, decode cache, FTQ, and
// every in-flight IAG/decode slot — so a warmed front-end can be
// captured once and re-run many times (config sweeps sharing a warmup
// prefix, sampled simulation, intra-run sharding). FastForward advances
// the architectural path functionally (emulator only) and resyncs the
// speculative state, the cheap skip primitive interval sampling splices
// detail windows with.

// cloneBlock deep-copies one block: everything is a value except the
// Conds slice, whose backing array has exactly one owner (see
// Block.Conds) and so must not be shared across cores.
func cloneBlock(b *Block) Block {
	c := *b
	if b.Conds != nil {
		c.Conds = make([]CondRec, len(b.Conds))
		copy(c.Conds, b.Conds)
	}
	return c
}

// Clone returns an independent deep copy of the front-end over the same
// (immutable) workload. Running either copy never affects the other;
// a clone continued from a checkpoint behaves exactly like the original
// would have (determinism-tested per component in clone_test.go).
//
// Observability attachments do not carry over: the clone starts with no
// tracer and no attribution engine (callers attach their own).
func (f *FrontEnd) Clone() *FrontEnd {
	n := &FrontEnd{
		cfg: f.cfg,
		w:   f.w,
		em:  f.em.Clone(),

		l1i: f.l1i.Clone(),
		l2:  f.l2.Clone(),
		btb: f.btb.Clone(),
		tg:  f.tg.Clone(),
		it:  f.it.Clone(),
		rs:  f.rs.Clone(),

		q:        f.q.Clone(cloneBlock),
		specPC:   f.specPC,
		entryTgt: f.entryTgt,

		cycle:        f.cycle,
		iagStallTill: f.iagStallTill,
		redir:        f.redir,
		hasRedir:     f.hasRedir,

		cur:        cloneBlock(&f.cur),
		hasCur:     f.hasCur,
		curPC:      f.curPC,
		idleStreak: f.idleStreak,
		pending:    f.pending,
		hasPending: f.hasPending,
		done:       f.done,
		err:        f.err,

		sbdQ:  f.sbdQ.clone(),
		stats: f.stats,
	}
	n.extraOffs = make(map[uint64]uint64, len(f.extraOffs))
	for la, m := range f.extraOffs {
		n.extraOffs[la] = m
	}
	if f.sbd != nil {
		n.sbd = f.sbd.Clone()
	}
	if f.dcache != nil {
		n.dcache = f.dcache.Clone()
		n.sbd.AttachCache(n.dcache)
	}
	if f.sbb != nil {
		n.sbb = f.sbb.Clone()
	}
	return n
}

// FastForward advances the true path by up to n instructions using the
// functional emulator only — no cycles are modeled, no predictor or
// cache state is touched — and resyncs the speculative front-end to the
// new architectural point, exactly like a deep re-steer: FTQ and
// current block squashed, pending re-steer and queued shadow decodes
// dropped, RAS reloaded from the architectural stack, TAGE/ITTAGE
// speculative histories repaired from their committed state.
//
// A pending (executed-but-undelivered) step counts as the first skipped
// instruction. It returns the number of instructions skipped, which is
// short of n only when the workload halts.
func (f *FrontEnd) FastForward(n uint64) uint64 {
	skipped := f.squash(n)
	if n > skipped && !f.em.Halted() {
		ran, err := f.em.Run(n - skipped)
		skipped += ran
		if err != nil {
			f.err = err
			f.done = true
			return skipped
		}
	}
	if f.em.Halted() {
		f.done = true
	}
	f.resync(f.em.PC())
	return skipped
}

// squash drops all in-flight speculative state ahead of a fast-forward
// of n instructions: FTQ, current block, pending re-steer, IAG stall
// and queued shadow decodes. A pending step counts as the first
// skipped instruction; squash returns how many it skipped (0 or 1).
func (f *FrontEnd) squash(n uint64) uint64 {
	f.q.Reset()
	f.hasCur = false
	f.hasRedir = false
	f.iagStallTill = 0
	f.idleStreak = 0
	f.sbdQ.clear()
	if f.hasPending && n > 0 {
		f.consume()
		return 1
	}
	return 0
}

// FastForwardWarm is FastForward with functional warming (the SMARTS
// idiom): while skipping, every committed instruction trains the
// predictors and touches the instruction-cache hierarchy on the true
// path. No cycles are modeled, but the BTB, TAGE, ITTAGE, and cache
// contents keep tracking what detail execution would have learned —
// which removes the cold-microarchitecture bias that pure functional
// skipping leaves in sampled measurements of workloads whose predictors
// are still learning. Statistics counters are perturbed freely (sampled
// runs reset them before measuring). SBB/SBD shadow state is warmed
// too: the head/tail shadow regions detail would have scheduled for
// decode (target-entry lines entered mid-line, lines exited mid-line
// by a taken branch) are decoded inline, so the shadow-branch supply
// is at temperature when measurement starts.
func (f *FrontEnd) FastForwardWarm(n uint64) uint64 {
	skipped := f.squash(n)
	lastLine := ^uint64(0)
	for skipped < n && !f.em.Halted() {
		// Sequential instructions touch no predictor state in detail
		// mode either — identification, history pushes, and BTB fills
		// are all branch-only — so a straight-line run is skipped in
		// one move and only its lines are fetched: FDIP would have
		// prefetched each of them, in order. That keeps the warm
		// fast-forward's cost proportional to the branch density.
		if k, first, last := f.em.SkipStraight(n - skipped); k > 0 {
			skipped += k
			for la := program.LineAddr(first); la <= last; la += program.LineSize {
				lastLine = f.warmFetch(la, lastLine)
			}
			continue
		}
		st, err := f.em.Step()
		if err != nil {
			f.err = err
			f.done = true
			return skipped
		}
		skipped++
		in := st.Inst
		lastLine = f.warmFetch(program.LineAddr(in.PC), lastLine)
		if !in.Class.IsBranch() {
			continue // a halt
		}

		// Would the IAG have identified this branch? Detail mode only
		// consults and history-pushes predictors for identified branches;
		// unidentified taken branches trigger a re-steer that resyncs the
		// speculative histories from the architectural ones. Replaying
		// that structure matters: TAGE indexes hash the *speculative*
		// history, which drops unidentified not-taken conditionals until
		// the next re-steer, and training with a different history string
		// trains different table entries than detail would.
		_, identified := f.btb.Probe(in.PC)
		if !identified && f.sbb != nil {
			identified = f.sbb.Contains(in.PC, in.Class)
		}

		if in.Class == isa.ClassDirectCond {
			pred := f.tg.Predict(in.PC)
			f.tg.ArchPush(st.Taken, in.PC)
			if identified {
				// The IAG pushes the predicted direction; a wrong one is
				// repaired by the mispredict re-steer's history sync.
				f.tg.SpecPush(pred.Taken, in.PC)
				if pred.Taken != st.Taken {
					f.tg.SyncSpec()
					f.it.SyncSpec()
				}
				if !st.Taken {
					// Detail's IAG scan Lookups every identified
					// not-taken conditional each time a block crosses
					// it, keeping its BTB entry recency-hot.
					f.btb.Lookup(in.PC)
				}
			} else if st.Taken {
				// BTB-miss re-steer.
				f.tg.SyncSpec()
				f.it.SyncSpec()
			}
			f.tg.Update(in.PC, pred, st.Taken)
		}
		if st.Taken {
			f.it.ArchPush(in.PC, st.NextPC)
			if identified {
				f.it.SpecPush(in.PC, st.NextPC)
			} else if in.Class != isa.ClassDirectCond {
				// Unidentified taken branch: decode/exec re-steer.
				f.tg.SyncSpec()
				f.it.SyncSpec()
			}
			switch in.Class {
			case isa.ClassIndirect, isa.ClassIndirectCall:
				p := f.it.Predict(in.PC)
				f.it.Update(in.PC, p, st.NextPC)
				if identified && (!p.Valid || p.Target != st.NextPC) {
					// Indirect target mispredict: exec re-steer.
					f.tg.SyncSpec()
					f.it.SyncSpec()
				}
			}
			// Commit-path identification: a hit refreshes recency, a miss
			// or stale target refills, mirroring decode's BTB fill.
			if e, ok := f.btb.Lookup(in.PC); !ok || e.Target != st.NextPC {
				f.btb.Insert(in.PC, btb.Entry{Target: st.NextPC, FallThrough: in.NextPC(), Class: in.Class})
			}
			// Shadow decode (Skia): detail schedules a Tail decode for
			// the bytes after a taken exit and a Head decode for a
			// branch-target line entered mid-line. Replay both so the
			// SBB tracks what cache-fill decode would have learned.
			if f.sbd != nil {
				if off := program.LineOffset(in.NextPC()); off != 0 {
					f.warmShadowDecode(program.LineAddr(in.NextPC()), off, false)
				}
				if off := program.LineOffset(st.NextPC); off > 0 {
					f.warmShadowDecode(program.LineAddr(st.NextPC), off, true)
				}
			}
		}
	}
	if f.em.Halted() {
		f.done = true
	}
	f.resync(f.em.PC())
	return skipped
}

// warmFetch is the fetch path of functional warming: it prefetches line
// la into the instruction-cache hierarchy unless la is lastLine, the
// line fetched just before, and returns la as the new lastLine.
func (f *FrontEnd) warmFetch(la, lastLine uint64) uint64 {
	if la != lastLine && !f.l1i.Prefetch(la) {
		f.l2.Prefetch(la)
	}
	return la
}

// warmShadowDecode runs one head or tail shadow decode during
// functional warming, mirroring runSBDTasks: the line is brought (or
// kept) resident, decoded, and the results inserted through the same
// insertShadow the detail path uses. Timing-only concerns — the SBD latency and the
// evicted-before-decode race — are not modeled. Decodes share the
// detail path's memo, so the warm skip's decode cost is proportional
// to the distinct regions touched, not to the dynamic taken-branch
// count.
func (f *FrontEnd) warmShadowDecode(lineAddr uint64, off int, head bool) {
	if !f.l1i.Prefetch(lineAddr) {
		f.l2.Prefetch(lineAddr)
	}
	line := f.w.Prog.Line(lineAddr)
	if line == nil {
		return
	}
	f.shadowDecode(line, lineAddr, off, head)
	f.insertShadow()
}
