package cpu

import (
	"reflect"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/workload"
)

// fuzzBenchmarks are the workloads FuzzCloneContinuesIdentically picks
// from: a branchy OLTP mix, a large-footprint JVM service, and the
// smallest suite member.
var fuzzBenchmarks = []string{"voter", "kafka", "noop"}

// fuzzHorizon is the instruction count every fuzzed run ends at.
const fuzzHorizon = 150_000

// cloneRef is one benchmark's uninterrupted Skia run to fuzzHorizon.
type cloneRef struct {
	w      *workload.Workload
	result Result
	dcache core.DecodeCacheStats
}

var (
	cloneRefsMu sync.Mutex
	cloneRefs   = map[string]*cloneRef{}
)

// cloneReference generates the named workload and its uninterrupted
// run once per process.
func cloneReference(t *testing.T, name string) *cloneRef {
	cloneRefsMu.Lock()
	defer cloneRefsMu.Unlock()
	if r, ok := cloneRefs[name]; ok {
		return r
	}
	w := cloneWorkload(t, name)
	c, err := New(SkiaConfig(), w)
	if err != nil {
		t.Fatal(err)
	}
	c.Run(fuzzHorizon)
	r := &cloneRef{w: w, result: c.Result(name), dcache: c.Frontend().DecodeCache().Stats()}
	cloneRefs[name] = r
	return r
}

// FuzzCloneContinuesIdentically clones a Skia core at two fuzz-chosen
// instruction counts and runs the original and both clones to a common
// horizon: each must end with the uninterrupted run's result and
// decode-cache counters. Snapshots land wherever the fuzzer puts them,
// so shadow decodes in flight, a half-drained FTQ and a pending
// re-steer all cross Clone. The seed corpus is under testdata/fuzz.
func FuzzCloneContinuesIdentically(f *testing.F) {
	f.Fuzz(func(t *testing.T, bench uint8, first, gap uint32) {
		name := fuzzBenchmarks[int(bench)%len(fuzzBenchmarks)]
		ref := cloneReference(t, name)
		s1 := uint64(first) % fuzzHorizon
		s2 := s1 + uint64(gap)%(fuzzHorizon-s1)

		c, err := New(SkiaConfig(), ref.w)
		if err != nil {
			t.Fatal(err)
		}
		c.Run(s1)
		a := c.Clone()
		if r := c.Retired(); r < s2 {
			c.Run(s2 - r)
		}
		b := c.Clone()
		for _, run := range []struct {
			label string
			core  *Core
		}{{"original", c}, {"first clone", a}, {"second clone", b}} {
			if r := run.core.Retired(); r < fuzzHorizon {
				run.core.Run(fuzzHorizon - r)
			}
			if got := run.core.Result(name); !reflect.DeepEqual(ref.result, got) {
				t.Fatalf("%s, %s cloned at %d and %d instructions: result diverged from the uninterrupted run:\n  want %+v\n  got  %+v", name, run.label, s1, s2, ref.result, got)
			}
			if got := run.core.Frontend().DecodeCache().Stats(); got != ref.dcache {
				t.Fatalf("%s, %s cloned at %d and %d instructions: decode cache counters %+v, want %+v", name, run.label, s1, s2, got, ref.dcache)
			}
		}
	})
}
