// Package emu is the functional VLX emulator. It executes a generated
// workload's true control-flow path — conditional outcomes and indirect
// targets come from the workload's behaviour oracle, calls and returns
// from an architectural stack — and feeds the resulting dynamic
// instruction stream to the timing model (internal/cpu). The timing
// model's front-end runs *ahead* on its own predicted path; the emulator
// defines the ground truth it is checked against, which is what makes
// the simulation execution-driven in the sense the paper requires for
// modeling wrong-path effects.
package emu

import (
	"fmt"

	"repro/internal/isa"
	"repro/internal/workload"
)

// Step is one executed instruction with its resolved control flow.
type Step struct {
	// Inst is the executed instruction.
	Inst isa.Inst
	// Taken reports whether a branch transferred control (always true
	// for unconditional classes; false for not-taken conditionals and
	// all sequential instructions).
	Taken bool
	// NextPC is the architecturally correct next instruction address.
	NextPC uint64
}

// Emulator executes one workload. It is not safe for concurrent use;
// create one per simulation run.
type Emulator struct {
	w  *workload.Workload
	pc uint64
	// idx is pc's canonical-stream index, or outside [0,
	// NumStaticInsts) when pc is not an instruction boundary. Tracking
	// it lets sequential execution advance by one instead of looking pc
	// up in the per-byte index: only taken branches do that.
	idx   int
	stack []uint64
	// visits counts executions per branch site, indexed by the
	// workload's dense site number (Ctl.Site).
	visits []uint64
	count  uint64
	halted bool
}

// MaxStackDepth bounds the architectural call stack; exceeding it means
// the generator produced unexpected recursion.
const MaxStackDepth = 1 << 16

// New creates an emulator positioned at the workload entry point.
func New(w *workload.Workload) *Emulator {
	return &Emulator{
		w:      w,
		pc:     w.Prog.Entry,
		idx:    w.InstIndex(w.Prog.Entry),
		visits: make([]uint64, w.NumSites()),
	}
}

// Clone returns an independent deep copy of the emulator sharing only
// the immutable workload. Stepping either copy never affects the
// other, which is what makes post-warmup checkpointing sound: every
// sample interval derives from the same architectural state.
func (e *Emulator) Clone() *Emulator {
	c := &Emulator{
		w:      e.w,
		pc:     e.pc,
		idx:    e.idx,
		stack:  make([]uint64, len(e.stack)),
		visits: make([]uint64, len(e.visits)),
		count:  e.count,
		halted: e.halted,
	}
	copy(c.stack, e.stack)
	copy(c.visits, e.visits)
	return c
}

// PC returns the address of the next instruction to execute.
func (e *Emulator) PC() uint64 { return e.pc }

// InstCount returns the number of instructions executed so far.
func (e *Emulator) InstCount() uint64 { return e.count }

// Halted reports whether a halt instruction was executed or the call
// stack underflowed (program finished).
func (e *Emulator) Halted() bool { return e.halted }

// StackDepth returns the current call-stack depth.
func (e *Emulator) StackDepth() int { return len(e.stack) }

// StackCopy returns a copy of the architectural call stack, oldest
// frame first. The front-end uses it to repair the speculative RAS
// after a re-steer.
func (e *Emulator) StackCopy() []uint64 {
	out := make([]uint64, len(e.stack))
	copy(out, e.stack)
	return out
}

// Stack returns the live architectural call stack, oldest frame first,
// without copying. The returned slice aliases emulator state and is
// invalidated by the next Step; callers that retain it must use
// StackCopy instead. Resteer paths that immediately copy the frames
// into the RAS use this to avoid an allocation per resteer.
func (e *Emulator) Stack() []uint64 { return e.stack }

// Step executes one instruction and returns its outcome. After a halt it
// returns an error.
func (e *Emulator) Step() (Step, error) {
	if e.halted {
		return Step{}, fmt.Errorf("emu: stepping a halted emulator")
	}
	if uint(e.idx) >= uint(e.w.NumStaticInsts()) {
		return Step{}, fmt.Errorf("emu: pc %#x is not an instruction boundary", e.pc)
	}
	in := e.w.Inst(e.idx)
	st := Step{Inst: in, NextPC: in.NextPC()}

	switch in.Class {
	case isa.ClassSeq:
		if in.Op == isa.OpHalt {
			e.halted = true
		}

	case isa.ClassDirectCond:
		s := e.w.CtlAt(e.idx).Site
		if s < 0 {
			return Step{}, fmt.Errorf("emu: conditional at %#x has no behaviour", in.PC)
		}
		v := e.visits[s]
		e.visits[s] = v + 1
		if e.w.CondSite(s).Taken(v) {
			st.Taken = true
			tgt, _ := in.BranchTarget()
			st.NextPC = tgt
		}

	case isa.ClassDirectUncond:
		st.Taken = true
		tgt, _ := in.BranchTarget()
		st.NextPC = tgt

	case isa.ClassCall:
		st.Taken = true
		tgt, _ := in.BranchTarget()
		if len(e.stack) >= MaxStackDepth {
			return Step{}, fmt.Errorf("emu: call stack overflow at %#x", in.PC)
		}
		e.stack = append(e.stack, in.NextPC())
		st.NextPC = tgt

	case isa.ClassReturn:
		st.Taken = true
		if len(e.stack) == 0 {
			// Returning from the entry function ends the program.
			e.halted = true
			st.NextPC = in.NextPC()
			break
		}
		st.NextPC = e.stack[len(e.stack)-1]
		e.stack = e.stack[:len(e.stack)-1]

	case isa.ClassIndirect, isa.ClassIndirectCall:
		s := e.w.CtlAt(e.idx).Site
		if s < 0 {
			return Step{}, fmt.Errorf("emu: indirect at %#x has no behaviour", in.PC)
		}
		v := e.visits[s]
		e.visits[s] = v + 1
		tgt := e.w.IndSite(s).Target(v)
		if tgt == 0 {
			return Step{}, fmt.Errorf("emu: indirect at %#x produced a nil target", in.PC)
		}
		st.Taken = true
		st.NextPC = tgt
		if in.Class == isa.ClassIndirectCall {
			if len(e.stack) >= MaxStackDepth {
				return Step{}, fmt.Errorf("emu: call stack overflow at %#x", in.PC)
			}
			e.stack = append(e.stack, in.NextPC())
		}
	}

	e.pc = st.NextPC
	e.count++
	if st.Taken {
		e.idx = e.w.InstIndex(e.pc)
	} else {
		e.idx++
	}
	return st, nil
}

// SkipStraight executes up to max instructions of the straight-line run
// at pc — non-branch, non-halt instructions, which change nothing but
// pc — in one move. It returns how many it executed and the PCs of the
// first and last of them. n is 0 when max is 0, the emulator has halted,
// or pc holds a branch, a halt or no instruction: Step executes those.
func (e *Emulator) SkipStraight(max uint64) (n, first, last uint64) {
	if e.halted || uint(e.idx) >= uint(e.w.NumStaticInsts()) {
		return 0, 0, 0
	}
	n = min(uint64(e.w.CtlAt(e.idx).Run), max)
	if n == 0 {
		return 0, 0, 0
	}
	first = e.pc
	e.idx += int(n)
	in := e.w.Inst(e.idx - 1)
	e.pc = in.NextPC()
	e.count += n
	return n, first, in.PC
}

// Run executes up to n instructions, stopping early on halt. It returns
// the number executed.
func (e *Emulator) Run(n uint64) (uint64, error) {
	var i uint64
	for i < n && !e.halted {
		if k, _, _ := e.SkipStraight(n - i); k > 0 {
			i += k
			continue
		}
		if _, err := e.Step(); err != nil {
			return i, err
		}
		i++
	}
	return i, nil
}
