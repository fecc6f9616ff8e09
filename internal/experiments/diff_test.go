package experiments

import (
	"reflect"
	"testing"
)

// TestDecodeCacheDifferentialFig14 is the end-to-end guarantee behind
// the decode cache: it is a pure throughput optimization, so sweeping
// Figure 14's variants with the cache enabled and disabled must give
// equal results and equal rendered reports. Fig14 exercises both
// shadow decoders (head-only, tail-only, combined) across two
// benchmarks, which makes it the densest consumer of cached decodes.
// Only Meta.Sim (wall-clock throughput counters) is dropped before
// comparing the reports.
func TestDecodeCacheDifferentialFig14(t *testing.T) {
	if testing.Short() {
		t.Skip("two full Fig14 sweeps")
	}
	o := Options{
		Warmup:     100_000,
		Measure:    300_000,
		Benchmarks: []string{"voter", "noop"},
	}
	run := func(noCache bool) (*sweep, *Report) {
		t.Helper()
		vs := fig14Variants()
		for i := range vs {
			vs[i].cfg.Frontend.NoDecodeCache = noCache
		}
		s, err := o.sweep(o.benchmarks(), vs...)
		if err != nil {
			t.Fatal(err)
		}
		rep := fig14Report(s)
		rep.Meta.Sim = nil // wall-clock timings differ run to run
		return s, rep
	}
	cached, cachedRep := run(false)
	fresh, freshRep := run(true)
	if !reflect.DeepEqual(cached.res, fresh.res) {
		t.Errorf("decode cache changed the results:\n  cached: %+v\n  fresh:  %+v", cached.res, fresh.res)
	}
	if !reflect.DeepEqual(cachedRep, freshRep) || cachedRep.String() != freshRep.String() {
		t.Errorf("decode cache changed the report:\n  cached: %s\n  fresh:  %s", cachedRep, freshRep)
	}
}
