package workload_test

import (
	"strings"
	"testing"

	"repro/internal/emu"
	"repro/internal/workload"
)

// The emulator's behaviour errors are tested here, beside the
// export_test.go hooks that damage a workload's site table: the table is
// immutable outside this package.

func errWorkload(t *testing.T) *workload.Workload {
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

// TestMissingCondBehaviorErrors removes a conditional site's behaviour
// and verifies the emulator reports it instead of guessing.
func TestMissingCondBehaviorErrors(t *testing.T) {
	w := errWorkload(t)
	// Find the first conditional the program will actually execute.
	probe := emu.New(w)
	var condPC uint64
	for i := 0; i < 100_000; i++ {
		st, err := probe.Step()
		if err != nil {
			t.Fatal(err)
		}
		if _, ok := w.CondAt(st.Inst.PC); ok {
			condPC = st.Inst.PC
			break
		}
	}
	if condPC == 0 {
		t.Fatal("no conditional executed in probe window")
	}
	workload.DropBehavior(w, condPC)

	e := emu.New(w)
	var lastErr error
	for i := 0; i < 200_000; i++ {
		if _, err := e.Step(); err != nil {
			lastErr = err
			break
		}
	}
	if lastErr == nil || !strings.Contains(lastErr.Error(), "no behaviour") {
		t.Errorf("expected behaviour error, got %v", lastErr)
	}
}

// TestMissingIndirectBehaviorErrors does the same for indirect sites.
func TestMissingIndirectBehaviorErrors(t *testing.T) {
	w := errWorkload(t)
	probe := emu.New(w)
	var indPC uint64
	for i := 0; i < 500_000; i++ {
		st, err := probe.Step()
		if err != nil {
			t.Fatal(err)
		}
		if _, ok := w.IndAt(st.Inst.PC); ok {
			indPC = st.Inst.PC
			break
		}
	}
	if indPC == 0 {
		t.Skip("no indirect executed in probe window")
	}
	workload.DropBehavior(w, indPC)

	e := emu.New(w)
	var lastErr error
	for i := 0; i < 600_000; i++ {
		if _, err := e.Step(); err != nil {
			lastErr = err
			break
		}
	}
	if lastErr == nil || !strings.Contains(lastErr.Error(), "no behaviour") {
		t.Errorf("expected behaviour error, got %v", lastErr)
	}
}

// TestNilIndirectTargetErrors verifies a behaviour returning target 0 is
// rejected rather than executed.
func TestNilIndirectTargetErrors(t *testing.T) {
	w := errWorkload(t)
	probe := emu.New(w)
	var indPC uint64
	for i := 0; i < 500_000; i++ {
		st, err := probe.Step()
		if err != nil {
			t.Fatal(err)
		}
		if _, ok := w.IndAt(st.Inst.PC); ok {
			indPC = st.Inst.PC
			break
		}
	}
	if indPC == 0 {
		t.Skip("no indirect executed in probe window")
	}
	workload.SetIndirect(w, indPC, workload.RoundRobinTargets{}) // empty: yields 0

	e := emu.New(w)
	var lastErr error
	for i := 0; i < 600_000; i++ {
		if _, err := e.Step(); err != nil {
			lastErr = err
			break
		}
	}
	if lastErr == nil || !strings.Contains(lastErr.Error(), "nil target") {
		t.Errorf("expected nil-target error, got %v", lastErr)
	}
}

// TestNonBoundaryTargetErrors aims an indirect site at the interior of
// a multi-byte instruction: the emulator must report the bad PC on the
// next step instead of executing from it.
func TestNonBoundaryTargetErrors(t *testing.T) {
	w := errWorkload(t)
	probe := emu.New(w)
	var indPC, interior uint64
	for i := 0; i < 500_000 && (indPC == 0 || interior == 0); i++ {
		st, err := probe.Step()
		if err != nil {
			t.Fatal(err)
		}
		if _, ok := w.IndAt(st.Inst.PC); ok && indPC == 0 {
			indPC = st.Inst.PC
		}
		if st.Inst.Len > 1 && interior == 0 {
			interior = st.Inst.PC + 1
		}
	}
	if indPC == 0 || interior == 0 {
		t.Fatal("no indirect or multi-byte instruction executed in probe window")
	}
	workload.SetIndirect(w, indPC, workload.RoundRobinTargets{Targets: []uint64{interior}})

	e := emu.New(w)
	var lastErr error
	for i := 0; i < 600_000; i++ {
		if _, err := e.Step(); err != nil {
			lastErr = err
			break
		}
	}
	if lastErr == nil || !strings.Contains(lastErr.Error(), "not an instruction boundary") {
		t.Errorf("expected non-boundary error, got %v", lastErr)
	}
}
