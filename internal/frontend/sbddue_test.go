package frontend

import (
	"math"
	"testing"
)

// stepSBDDue runs f for n decoded instructions, checking after every
// cycle that sbdDue is the earliest atCycle among the queued shadow
// decodes whenever any are queued. It returns how many cycles ended
// with decodes queued and how many of those let the next cycle skip
// the task scan.
func stepSBDDue(t *testing.T, f *FrontEnd, n uint64, when string) (pending, skipping int) {
	t.Helper()
	var decoded uint64
	for decoded < n && !f.Done() {
		decoded += uint64(f.Step(64))
		if len(f.sbdTasks) == 0 {
			continue
		}
		due := uint64(math.MaxUint64)
		for _, task := range f.sbdTasks {
			due = min(due, task.atCycle)
		}
		if f.sbdDue != due {
			t.Fatalf("%s, cycle %d: sbdDue %d, earliest of %d queued decodes %d", when, f.cycle, f.sbdDue, len(f.sbdTasks), due)
		}
		pending++
		if f.cycle+1 < due {
			skipping++
		}
	}
	if err := f.Err(); err != nil {
		t.Fatal(err)
	}
	return pending, skipping
}

// TestSBDDueTracksEarliestTask pins the shadow-decode scan skip: the
// front end runs the task list only once the earliest queued decode is
// due, so sbdDue must equal that decode's cycle throughout a warmed
// Skia run, in a clone, and in the original after cloning.
func TestSBDDueTracksEarliestTask(t *testing.T) {
	f, err := New(SkiaConfig(), voterWorkload(t))
	if err != nil {
		t.Fatal(err)
	}
	f.FastForwardWarm(50_000)
	pending, skipping := stepSBDDue(t, f, 100_000, "warmed run")
	if pending == 0 || skipping == 0 {
		t.Fatalf("%d cycles with decodes queued, %d skipping the scan; the check is vacuous", pending, skipping)
	}

	c := f.Clone()
	if c.sbdDue != f.sbdDue {
		t.Fatalf("clone's sbdDue %d, original's %d", c.sbdDue, f.sbdDue)
	}
	stepSBDDue(t, c, 50_000, "clone run")
	stepSBDDue(t, f, 50_000, "original after clone")
}
