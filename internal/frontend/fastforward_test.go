package frontend

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/program"
)

// TestFastForwardWarmFetchMatchesStepping pins FastForwardWarm's
// straight-line path, which skips a run of sequential instructions in
// one move and prefetches its lines, to a reference that steps a cloned
// emulator one instruction at a time through the same lastLine filter.
// The baseline front end runs no shadow decode, so instruction fetch is
// all that touches the L1-I and L2: their access counts and contents
// must come out equal.
func TestFastForwardWarmFetchMatchesStepping(t *testing.T) {
	w := testWorkload(t, nil)
	f, err := New(smallCfg(false), w)
	if err != nil {
		t.Fatal(err)
	}
	drive(t, f, 50_000)
	// stepRef is the reference: it steps ref's emulator n instructions
	// (a pending step counts as the first), prefetching each new line.
	stepRef := func(ref *FrontEnd, n uint64) uint64 {
		var skipped uint64
		if ref.hasPending {
			ref.consume()
			skipped++
		}
		lastLine := ^uint64(0)
		for ; skipped < n && !ref.em.Halted(); skipped++ {
			st, err := ref.em.Step()
			if err != nil {
				t.Fatal(err)
			}
			if la := program.LineAddr(st.Inst.PC); la != lastLine {
				lastLine = la
				if !ref.l1i.Prefetch(la) {
					ref.l2.Prefetch(la)
				}
			}
		}
		return skipped
	}
	same := func(what string, f, ref *FrontEnd, skipped, want uint64) {
		t.Helper()
		if skipped != want || f.em.PC() != ref.em.PC() || f.em.InstCount() != ref.em.InstCount() {
			t.Fatalf("%s: skipped %d to pc %#x (count %d), stepping skips %d to %#x (count %d)",
				what, skipped, f.em.PC(), f.em.InstCount(), want, ref.em.PC(), ref.em.InstCount())
		}
		if f.l1i.Stats() != ref.l1i.Stats() || f.l2.Stats() != ref.l2.Stats() {
			t.Fatalf("%s: L1-I %+v L2 %+v, stepping gives L1-I %+v L2 %+v",
				what, f.l1i.Stats(), f.l2.Stats(), ref.l1i.Stats(), ref.l2.Stats())
		}
	}
	for _, n := range []uint64{1, 7, 1000, 200_003} {
		ref := f.Clone()
		skipped := f.FastForwardWarm(n)
		want := stepRef(ref, n)
		same(fmt.Sprintf("FastForwardWarm(%d)", n), f, ref, skipped, want)
		if !reflect.DeepEqual(f.l1i, ref.l1i) || !reflect.DeepEqual(f.l2, ref.l2) {
			t.Fatalf("FastForwardWarm(%d): cache contents differ from stepping", n)
		}
		drive(t, f, 1000)
	}
	// Many short calls: each ends at an arbitrary instruction, often
	// inside a straight-line run, whose last line must still be fetched.
	ref := f.Clone()
	for i := uint64(0); i < 2000; i++ {
		n := 1 + i*37%97
		same(fmt.Sprintf("call %d, FastForwardWarm(%d)", i, n), f, ref, f.FastForwardWarm(n), stepRef(ref, n))
	}
	if !reflect.DeepEqual(f.l1i, ref.l1i) || !reflect.DeepEqual(f.l2, ref.l2) {
		t.Fatal("short calls: cache contents differ from stepping")
	}
}
