package emu

import (
	"testing"

	"repro/internal/isa"
	"repro/internal/workload"
)

func testWorkload(t testing.TB) *workload.Workload {
	p, err := workload.ByName("noop")
	if err != nil {
		t.Fatal(err)
	}
	p.HotFuncs = 32
	p.ColdFuncs = 80
	w, err := workload.Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func TestRunBasics(t *testing.T) {
	w := testWorkload(t)
	e := New(w)
	if e.PC() != w.Prog.Entry {
		t.Fatalf("initial pc %#x != entry %#x", e.PC(), w.Prog.Entry)
	}
	const n = 100_000
	ran, err := e.Run(n)
	if err != nil {
		t.Fatal(err)
	}
	if ran != n {
		t.Fatalf("ran %d instructions, want %d (halted=%v)", ran, n, e.Halted())
	}
	if e.InstCount() != n {
		t.Errorf("InstCount = %d", e.InstCount())
	}
}

func TestExecutionStaysInImage(t *testing.T) {
	w := testWorkload(t)
	e := New(w)
	for i := 0; i < 50_000; i++ {
		st, err := e.Step()
		if err != nil {
			t.Fatal(err)
		}
		if !w.Prog.Contains(st.Inst.PC) {
			t.Fatalf("executed pc %#x outside image", st.Inst.PC)
		}
		if !w.Prog.Contains(st.NextPC) {
			t.Fatalf("next pc %#x outside image", st.NextPC)
		}
	}
}

func TestCallsAndReturnsBalance(t *testing.T) {
	w := testWorkload(t)
	e := New(w)
	calls, rets := 0, 0
	maxDepth := 0
	for i := 0; i < 200_000; i++ {
		st, err := e.Step()
		if err != nil {
			t.Fatal(err)
		}
		switch st.Inst.Class {
		case isa.ClassCall, isa.ClassIndirectCall:
			calls++
		case isa.ClassReturn:
			rets++
		}
		if d := e.StackDepth(); d > maxDepth {
			maxDepth = d
		}
	}
	if calls == 0 || rets == 0 {
		t.Fatalf("no call/return activity: calls=%d rets=%d", calls, rets)
	}
	if diff := calls - rets; diff < 0 || diff > maxDepth+4 {
		t.Errorf("call/ret imbalance %d beyond stack depth %d", diff, maxDepth)
	}
	if maxDepth > 64 {
		t.Errorf("suspicious stack depth %d", maxDepth)
	}
}

func TestReturnTargetsMatchCallSites(t *testing.T) {
	w := testWorkload(t)
	e := New(w)
	var retAddrs []uint64
	for i := 0; i < 100_000; i++ {
		st, err := e.Step()
		if err != nil {
			t.Fatal(err)
		}
		switch st.Inst.Class {
		case isa.ClassCall, isa.ClassIndirectCall:
			retAddrs = append(retAddrs, st.Inst.NextPC())
		case isa.ClassReturn:
			if len(retAddrs) == 0 {
				continue // return from a frame entered before we watched
			}
			want := retAddrs[len(retAddrs)-1]
			retAddrs = retAddrs[:len(retAddrs)-1]
			if st.NextPC != want {
				t.Fatalf("return at %#x went to %#x, want %#x", st.Inst.PC, st.NextPC, want)
			}
		}
	}
}

// condAt and indAt read the behaviour of the branch at pc through the
// workload's control table, or nil when pc has none.
func condAt(w *workload.Workload, pc uint64) workload.CondBehavior {
	if i := w.InstIndex(pc); i >= 0 && w.CtlAt(i).Site >= 0 {
		return w.CondSite(w.CtlAt(i).Site)
	}
	return nil
}

func indAt(w *workload.Workload, pc uint64) workload.IndirectBehavior {
	if i := w.InstIndex(pc); i >= 0 && w.CtlAt(i).Site >= 0 {
		return w.IndSite(w.CtlAt(i).Site)
	}
	return nil
}

func TestBranchOutcomesMatchOracle(t *testing.T) {
	w := testWorkload(t)
	e := New(w)
	visits := map[uint64]uint64{}
	for i := 0; i < 100_000; i++ {
		st, err := e.Step()
		if err != nil {
			t.Fatal(err)
		}
		pc := st.Inst.PC
		switch st.Inst.Class {
		case isa.ClassDirectCond:
			b := condAt(w, pc)
			if b == nil {
				t.Fatalf("no behaviour for cond at %#x", pc)
			}
			if want := b.Taken(visits[pc]); st.Taken != want {
				t.Fatalf("cond at %#x visit %d: taken=%v, oracle says %v", pc, visits[pc], st.Taken, want)
			}
			if st.Taken {
				tgt, _ := st.Inst.BranchTarget()
				if st.NextPC != tgt {
					t.Fatalf("taken cond went to %#x, target is %#x", st.NextPC, tgt)
				}
			} else if st.NextPC != st.Inst.NextPC() {
				t.Fatalf("not-taken cond went to %#x", st.NextPC)
			}
			visits[pc]++
		case isa.ClassIndirect, isa.ClassIndirectCall:
			b := indAt(w, pc)
			if b == nil {
				t.Fatalf("no behaviour for indirect at %#x", pc)
			}
			if want := b.Target(visits[pc]); st.NextPC != want {
				t.Fatalf("indirect at %#x went to %#x, oracle says %#x", pc, st.NextPC, want)
			}
			visits[pc]++
		}
	}
}

func TestDeterministicReplay(t *testing.T) {
	w := testWorkload(t)
	e1, e2 := New(w), New(w)
	for i := 0; i < 50_000; i++ {
		s1, err1 := e1.Step()
		s2, err2 := e2.Step()
		if err1 != nil || err2 != nil {
			t.Fatal(err1, err2)
		}
		if s1 != s2 {
			t.Fatalf("divergence at step %d: %+v vs %+v", i, s1, s2)
		}
	}
}

func TestColdEpisodesOccur(t *testing.T) {
	w := testWorkload(t)
	e := New(w)
	coldExec := 0
	for i := 0; i < 400_000; i++ {
		st, err := e.Step()
		if err != nil {
			t.Fatal(err)
		}
		if f := w.Prog.FuncAt(st.Inst.PC); f != nil && !f.Hot {
			coldExec++
		}
	}
	if coldExec == 0 {
		t.Error("cold functions never executed: cold-branch structure is broken")
	}
	frac := float64(coldExec) / 400_000
	if frac > 0.25 {
		t.Errorf("cold code is %.1f%% of execution; should be rare", frac*100)
	}
}

func TestBranchMixReasonable(t *testing.T) {
	w := testWorkload(t)
	e := New(w)
	branches := 0
	const n = 200_000
	for i := 0; i < n; i++ {
		st, err := e.Step()
		if err != nil {
			t.Fatal(err)
		}
		if st.Inst.Class.IsBranch() {
			branches++
		}
	}
	frac := float64(branches) / n
	if frac < 0.08 || frac > 0.45 {
		t.Errorf("dynamic branch fraction %.2f outside plausible range", frac)
	}
}

func TestHaltStopsEmulator(t *testing.T) {
	// Build a tiny workload image manually via a custom profile is
	// overkill; instead drive Step until we inject halt semantics by
	// checking the error after forcing the halted flag.
	w := testWorkload(t)
	e := New(w)
	e.halted = true
	if _, err := e.Step(); err == nil {
		t.Error("stepping a halted emulator should error")
	}
	if n, err := e.Run(10); n != 0 || err != nil {
		t.Errorf("Run on halted emulator: n=%d err=%v", n, err)
	}
}

func BenchmarkEmulatorStep(b *testing.B) {
	w := testWorkload(b)
	e := New(w)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.Step(); err != nil {
			b.Fatal(err)
		}
	}
}
