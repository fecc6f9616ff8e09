package frontend_test

import (
	"reflect"
	"testing"
	"time"

	"repro/internal/cpu"
	"repro/internal/frontend"
	"repro/internal/workload"
)

// TestStaleSlotsNeverRead pins the invariant that lets formBlock skip
// zeroing a reused FTQ slot (see frontend.Block): a Skia core whose
// every FTQ slot and current-block slot start full of garbage must
// produce exactly the result of a clean one. A formBlock that stopped
// resetting a field the rest of the front end reads before writing,
// such as NLines or TakenPred, lets the garbage steer the run.
func TestStaleSlotsNeverRead(t *testing.T) {
	p, err := workload.ByName("voter")
	if err != nil {
		t.Fatal(err)
	}
	w, err := workload.Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	// A field left stale can livelock the front end, which would hang
	// Run, so both runs go in the background under a deadline.
	run := func(poison bool) <-chan cpu.Result {
		c, err := cpu.New(cpu.SkiaConfig(), w)
		if err != nil {
			t.Fatal(err)
		}
		if poison {
			frontend.PoisonSlots(c.Frontend())
		}
		done := make(chan cpu.Result, 1)
		go func() {
			c.Run(200_000)
			done <- c.Result("voter")
		}()
		return done
	}
	cleanC, poisonedC := run(false), run(true)
	var clean, poisoned cpu.Result
	deadline := time.After(5 * time.Minute)
	for i := 0; i < 2; i++ {
		select {
		case clean = <-cleanC:
		case poisoned = <-poisonedC:
		case <-deadline:
			t.Fatal("a run did not retire 200000 instructions in 5 minutes: the front end livelocked")
		}
	}
	if clean.Instructions < 200_000 {
		t.Fatalf("clean run retired %d instructions, want 200000", clean.Instructions)
	}
	if !reflect.DeepEqual(clean, poisoned) {
		t.Fatalf("stale slot contents changed the result:\n  clean    %+v\n  poisoned %+v", clean, poisoned)
	}
}
