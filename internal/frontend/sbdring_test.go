package frontend

import (
	"math/rand"
	"reflect"
	"testing"
)

// listQueue is the shadow-decode queue the ring replaced, kept as the
// reference: one list, scanned each cycle in queue order for the tasks
// whose atCycle has passed.
type listQueue struct {
	tasks []sbdTask
}

func (q *listQueue) push(t sbdTask) { q.tasks = append(q.tasks, t) }

func (q *listQueue) take(now uint64) []sbdTask {
	var due []sbdTask
	kept := q.tasks[:0]
	for _, t := range q.tasks {
		if t.atCycle > now {
			kept = append(kept, t)
		} else {
			due = append(due, t)
		}
	}
	q.tasks = kept
	return due
}

// ranTask is one shadow decode as the front end would run it.
type ranTask struct {
	cycle uint64
	task  sbdTask
}

// TestSBDRingMatchesListScan drives the front end's shadow-decode ring
// and the list scan it replaced with the same random sequence of
// queued decodes, cycle advances, clears and clones, and requires the
// same decodes to run in the same order at the same cycles. Each front
// end's ring is sized by New from its configured latencies; tasks are
// queued anywhere from a few cycles overdue to the longest delay those
// latencies allow, a superset of what formBlock queues.
func TestSBDRingMatchesListScan(t *testing.T) {
	w := voterWorkload(t)
	zero := SkiaConfig()
	zero.FetchLatency, zero.L1IMissLatency, zero.L2MissLatency, zero.SBD.Latency = 0, 0, 0, 0
	pow2 := SkiaConfig()
	pow2.FetchLatency, pow2.L2MissLatency, pow2.SBD.Latency = 4, 56, 4 // delay 64: the ring must reach 128
	for name, cfg := range map[string]Config{"default": SkiaConfig(), "zero-latency": zero, "delay-64": pow2} {
		t.Run(name, func(t *testing.T) {
			f, err := New(cfg, w)
			if err != nil {
				t.Fatal(err)
			}
			maxDelay := uint64(cfg.FetchLatency + max(cfg.L1IMissLatency, cfg.L2MissLatency) + cfg.SBD.Latency)
			ring, ref := f.sbdQ, &listQueue{}
			rng := rand.New(rand.NewSource(int64(maxDelay) + 1))
			var got, want []ranTask
			var now uint64
			clears, clones := 0, 0
			for step := 0; step < 50_000; step++ {
				now++
				for _, task := range ring.take(now) {
					got = append(got, ranTask{now, task})
				}
				for _, task := range ref.take(now) {
					want = append(want, ranTask{now, task})
				}
				for k := rng.Intn(4); k > 0; k-- {
					at := now + uint64(rng.Int63n(int64(maxDelay)+1))
					if rng.Intn(8) == 0 {
						at = now - uint64(rng.Intn(3)) // already due: runs next cycle
					}
					task := sbdTask{atCycle: at, head: rng.Intn(2) == 0, lineAddr: uint64(step) << 6, off: k}
					ring.push(now, task)
					ref.push(task)
				}
				switch rng.Intn(500) {
				case 0:
					ring.clear()
					ref.tasks = ref.tasks[:0]
					clears++
				case 1:
					// Continue with a clone, after scribbling over the
					// original: a clone that shared a bucket's backing
					// array with it would run the scribbles.
					next := ring.clone()
					ring.clear()
					for d := uint64(1); d <= maxDelay+1; d++ {
						ring.push(now, sbdTask{atCycle: now + d, lineAddr: ^uint64(0)})
					}
					ring = next
					clones++
				}
			}
			if clears == 0 || clones == 0 || len(want) < 50_000 {
				t.Fatalf("%d clears, %d clones, %d decodes run: the sequence is too weak", clears, clones, len(want))
			}
			if !reflect.DeepEqual(got, want) {
				for i := range min(len(got), len(want)) {
					if got[i] != want[i] {
						t.Fatalf("decode %d: ring ran %+v, list scan %+v", i, got[i], want[i])
					}
				}
				t.Fatalf("ring ran %d decodes, list scan %d", len(got), len(want))
			}
		})
	}
}

// TestNewRejectsNegativeLatency checks that a Skia front end whose
// latencies could place a shadow decode outside the ring is refused.
func TestNewRejectsNegativeLatency(t *testing.T) {
	w := voterWorkload(t)
	for _, set := range []func(*Config){
		func(c *Config) { c.FetchLatency = -1 },
		func(c *Config) { c.L1IMissLatency = -1 },
		func(c *Config) { c.L2MissLatency = -1 },
		func(c *Config) { c.SBD.Latency = -1 },
	} {
		cfg := SkiaConfig()
		set(&cfg)
		if _, err := New(cfg, w); err == nil {
			t.Errorf("New accepted negative latencies: fetch %d, L1-I miss %d, L2 miss %d, SBD %d",
				cfg.FetchLatency, cfg.L1IMissLatency, cfg.L2MissLatency, cfg.SBD.Latency)
		}
	}
}
