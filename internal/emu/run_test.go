package emu

import (
	"encoding/binary"
	"slices"
	"testing"

	"repro/internal/workload"
)

// sameState fails t unless fast and ref are at the same architectural
// point with the same per-site visit counts.
func sameState(t *testing.T, what string, fast, ref *Emulator) {
	t.Helper()
	if fast.PC() != ref.PC() || fast.InstCount() != ref.InstCount() ||
		fast.Halted() != ref.Halted() || fast.idx != ref.idx {
		t.Fatalf("%s: pc %#x count %d halted %v idx %d, stepping gives pc %#x count %d halted %v idx %d",
			what, fast.PC(), fast.InstCount(), fast.Halted(), fast.idx,
			ref.PC(), ref.InstCount(), ref.Halted(), ref.idx)
	}
	if !slices.Equal(fast.Stack(), ref.Stack()) {
		t.Fatalf("%s: stack %x, stepping gives %x", what, fast.Stack(), ref.Stack())
	}
	if !slices.Equal(fast.visits, ref.visits) {
		t.Fatalf("%s: per-site visit counts differ", what)
	}
}

// stepN steps e n times, stopping at a halt, and returns how many ran.
func stepN(t *testing.T, e *Emulator, n uint64) uint64 {
	t.Helper()
	var i uint64
	for ; i < n && !e.Halted(); i++ {
		if _, err := e.Step(); err != nil {
			t.Fatal(err)
		}
	}
	return i
}

// TestRunMatchesStep pins Run's straight-line jumps to per-instruction
// Step on every suite benchmark: after each chunk, and over the next
// 200k steps, the two emulators must agree exactly.
func TestRunMatchesStep(t *testing.T) {
	for _, name := range workload.SuiteNames() {
		t.Run(name, func(t *testing.T) {
			p, err := workload.ByName(name)
			if err != nil {
				t.Fatal(err)
			}
			w, err := workload.Generate(p)
			if err != nil {
				t.Fatal(err)
			}
			fast, ref := New(w), New(w)
			for _, chunk := range []uint64{1, 7, 100_003, 999_983} {
				ran, err := fast.Run(chunk)
				if err != nil {
					t.Fatal(err)
				}
				if want := stepN(t, ref, chunk); ran != want {
					t.Fatalf("Run(%d) ran %d, stepping ran %d", chunk, ran, want)
				}
				sameState(t, "after Run", fast, ref)
			}
			for i := 0; i < 200_000; i++ {
				a, errA := fast.Step()
				b, errB := ref.Step()
				if errA != nil || errB != nil {
					t.Fatal(errA, errB)
				}
				if a != b {
					t.Fatalf("step %d after Run: %+v, stepping gives %+v", i, a, b)
				}
			}
			sameState(t, "after 200k steps", fast, ref)
		})
	}
}

// FuzzEmuRunMatchesStep drives one emulator by an arbitrary sequence of
// Run and SkipStraight calls and a second by Step alone. Each 2-byte
// word of the input is one call: the top bit picks SkipStraight, the
// rest is its instruction budget. An input stops after about a million
// instructions, so long inputs stay cheap. The seed corpus is under
// testdata/fuzz.
func FuzzEmuRunMatchesStep(f *testing.F) {
	w := testWorkload(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		fast, ref := New(w), New(w)
		for len(data) >= 2 && ref.InstCount() < 1<<20 {
			word := binary.LittleEndian.Uint16(data)
			data = data[2:]
			budget := uint64(word & 0x7fff)
			if word&0x8000 == 0 {
				ran, err := fast.Run(budget)
				if err != nil {
					t.Fatal(err)
				}
				if want := stepN(t, ref, budget); ran != want {
					t.Fatalf("Run(%d) ran %d, stepping ran %d", budget, ran, want)
				}
				sameState(t, "after Run", fast, ref)
				continue
			}
			n, first, last := fast.SkipStraight(budget)
			for i := uint64(0); i < n; i++ {
				st, err := ref.Step()
				if err != nil {
					t.Fatal(err)
				}
				if st.Inst.Class.IsBranch() || st.Taken {
					t.Fatalf("SkipStraight(%d) skipped the branch at %#x", budget, st.Inst.PC)
				}
				if (i == 0 && st.Inst.PC != first) || (i == n-1 && st.Inst.PC != last) {
					t.Fatalf("SkipStraight(%d) reports span %#x..%#x; instruction %d is at %#x",
						budget, first, last, i, st.Inst.PC)
				}
			}
			if n < budget && !ref.Halted() {
				// The run ended: the next instruction must be one
				// SkipStraight leaves to Step.
				if in, ok := w.InstAt(ref.PC()); ok && w.CtlAt(ref.idx).Run != 0 {
					t.Fatalf("SkipStraight(%d) stopped after %d before straight-line %#x", budget, n, in.PC)
				}
			}
			sameState(t, "after SkipStraight", fast, ref)
		}
	})
}
