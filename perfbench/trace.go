package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/attrib"
	"repro/internal/btb"
	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/emu"
	"repro/internal/frontend"
	"repro/internal/isa"
	"repro/internal/ittage"
	"repro/internal/metrics"
	"repro/internal/program"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/tage"
	"repro/internal/workload"
)

// layerMetrics lists every per-layer metric the traced pass prints.
var layerMetrics = []metricDef{
	{"workload.generate_s", "s", "lower"},
	{"emu.step_ns", "ns", "lower"},
	{"cpu.ff_mips", "Minst/s", "higher"},
	{"cpu.ffwarm_mips", "Minst/s", "higher"},
	{"cpu.clone_ms", "ms", "lower"},
	{"isa.length_ns", "ns", "lower"},
	{"isa.decode_ns", "ns", "lower"},
	{"core.head_ns", "ns", "lower"},
	{"core.tail_ns", "ns", "lower"},
	{"core.head_useful_frac", "frac", "higher"},
	{"core.dcache_hit_frac", "frac", "higher"},
	{"core.sbb_probe_ns", "ns", "lower"},
	{"core.sbb_insert_ns", "ns", "lower"},
	{"core.sbb_covered_frac", "frac", "higher"},
	{"btb.probe_ns", "ns", "lower"},
	{"btb.miss_mpki", "MPKI", "lower"},
	{"tage.update_ns", "ns", "lower"},
	{"tage.sync_ns", "ns", "lower"},
	{"tage.cond_mpki", "MPKI", "lower"},
	{"ittage.update_ns", "ns", "lower"},
	{"cache.access_ns", "ns", "lower"},
	{"cache.l1i_mpki", "MPKI", "lower"},
	{"frontend.ns_per_inst.baseline", "ns", "lower"},
	{"frontend.ns_per_inst.head", "ns", "lower"},
	{"frontend.ns_per_inst.tail", "ns", "lower"},
	{"frontend.ns_per_inst.both", "ns", "lower"},
	{"frontend.skia_cost_ratio", "ratio", "lower"},
	{"frontend.kinst_us", "us", "lower"},
	{"sim.warmup_frac", "frac", "lower"},
	{"sim.skip_frac", "frac", "higher"},
	{"sim.detail_frac", "frac", "lower"},
	{"sim.parallel_eff", "frac", "higher"},
	{"attrib.overhead_frac", "frac", "lower"},
	{"trace.overhead_frac", "frac", "lower"},
}

// Replay sizes per benchmark: committed-path steps recorded for the
// component loops, instructions skipped cold and warm, and clones.
const (
	replaySteps  = 100_000
	replayFF     = 2_000_000
	replayFFWarm = 500_000
	replayClones = 5
	// ffChunk mirrors sim's fast-forward slice so the decomposed skip
	// makes the same calls the runner does.
	ffChunk = 8 * 262_144
	// kinstIters is the number of 1000-instruction Core.Run calls timed
	// on warmed voter (skiabench's frontend-cycle loop).
	kinstIters = 400
	// attribWarm and attribMeasure size the plain-versus-observed pair
	// behind attrib.overhead_frac.
	attribWarm    = 100_000
	attribMeasure = 200_000
)

// attribBenches are the benchmarks attrib.overhead_frac is measured
// on: the observed workload's.
var attribBenches = []string{"voter", "kafka"}

// spanRec records spans around the benchmark's own calls into the
// simulator. Spans of one traced pass share a trace ID.
type spanRec struct {
	ring  *metrics.SpanRing
	trace string
	next  atomic.Uint64
}

func newSpanRec(stem string) *spanRec {
	h := fnv.New128a()
	h.Write([]byte(stem))
	return &spanRec{ring: metrics.NewSpanRing(1 << 16), trace: fmt.Sprintf("%x", h.Sum(nil))}
}

// span runs f inside a span and returns the span's duration. f gets the
// span's ID to pass as the parent of nested spans.
func (s *spanRec) span(name, scope, parent string, f func(id string)) time.Duration {
	id := fmt.Sprintf("%016x", s.next.Add(1))
	//skia:nondet-ok spans time the calls they wrap; no simulated state depends on them
	start := time.Now()
	f(id)
	//skia:nondet-ok spans time the calls they wrap; no simulated state depends on them
	end := time.Now()
	s.ring.RecordSpan(metrics.Span{
		TraceID: s.trace, SpanID: id, ParentID: parent,
		Name: name, Scope: scope, Start: start, End: end,
	})
	return end.Sub(start)
}

// traced is the per-layer pass. It runs the workload's sweep once
// untraced and once traced, decomposes the "both" specs into cpu.Core
// calls, replays each benchmark's committed path through the component
// APIs, and writes the span trace and the per-layer numbers to outDir.
func traced(d workloadDef, workers int, rng *rand.Rand, outDir, stem string, stdout, stderr io.Writer) (report, error) {
	rep := report{Metrics: map[string]metric{}}
	vals := map[string]float64{}
	fail := func(format string, a ...any) {
		rep.Failed++
		fmt.Fprintf(stderr, "check failed: "+format+"\n", a...)
	}
	specs := d.specs()

	ref, err := runSweep(d, workers, d.order(rng))
	if err != nil {
		return report{}, err
	}
	rep.Attempted += len(specs)
	for _, p := range check(d, ref.results) {
		fail("%s", p)
	}
	refDigest, err := digest(ref.results)
	if err != nil {
		return report{}, err
	}

	rec := newSpanRec(stem)
	tr, err := tracedSweep(d, workers, d.order(rng), rec)
	if err != nil {
		return report{}, err
	}
	rep.Attempted++
	if dg, err := digest(tr.results); err != nil {
		return report{}, err
	} else if dg != refDigest {
		fail("traced sweep digest %s != untraced %s", dg, refDigest)
	}
	vals["workload.generate_s"] = tr.generate.Seconds()
	vals["trace.overhead_frac"] = tr.wall.Seconds()/ref.wall.Seconds() - 1
	var busy time.Duration
	nsPer := map[string][2]float64{}
	for i, s := range specs {
		busy += tr.specTime[i]
		v := nsPer[s.Label]
		v[0] += float64(tr.specTime[i].Nanoseconds())
		v[1] += float64(d.warmup + d.measure)
		nsPer[s.Label] = v
	}
	for _, v := range fig14Variants {
		vals["frontend.ns_per_inst."+v.name] = nsPer[v.name][0] / nsPer[v.name][1]
	}
	vals["frontend.skia_cost_ratio"] = vals["frontend.ns_per_inst.both"] / vals["frontend.ns_per_inst.baseline"]
	vals["sim.parallel_eff"] = busy.Seconds() / (float64(workers) * tr.wall.Seconds())
	simulatedLayers(specs, ref.results, vals)

	// Decompose the "both" specs into the cpu.Core calls sim.Runner makes.
	var both []int
	for i, s := range specs {
		if s.Label == "both" {
			both = append(both, i)
		}
	}
	dec, err := decomposeAll(d, workers, specs, both, tr.runner, rec, vals)
	if err != nil {
		return report{}, err
	}
	for _, i := range both {
		rep.Attempted++
		got, want := dec[i], tr.results[i]
		if got.cycles != want.Cycles || got.insts != want.Instructions {
			fail("%s/%s decomposed: %d cycles %d insts, runner: %d cycles %d insts",
				specs[i].Benchmark, specs[i].Label, got.cycles, got.insts, want.Cycles, want.Instructions)
		}
	}

	var sums layerSums
	for _, b := range d.benches {
		w, err := tr.runner.Workload(b)
		if err != nil {
			return report{}, err
		}
		rep.Attempted++
		var msg string
		rec.span("replay", b, "", func(id string) { msg = replay(w, d.warmup, rec, id, &sums) })
		if msg != "" {
			fail("replay %s: %s", b, msg)
		}
	}
	sums.fill(vals)

	if vals["frontend.kinst_us"], err = kinstLoop(rec); err != nil {
		return report{}, err
	}
	rep.Attempted++
	over, msg, err := attribOverhead(tr.runner, rec)
	if err != nil {
		return report{}, err
	}
	if msg != "" {
		fail("attribution overhead pair: %s", msg)
	}
	vals["attrib.overhead_frac"] = over

	for _, m := range layerMetrics {
		v, ok := vals[m.name]
		if !ok {
			return report{}, fmt.Errorf("traced pass produced no %s", m.name)
		}
		rep.Metrics[m.name] = metric{v, m.unit}
	}
	if err := writeTrace(outDir, stem, d, rec, rep.Metrics); err != nil {
		return report{}, err
	}
	fmt.Fprintf(stdout, "digest %s %s\n", d.name, refDigest)
	fmt.Fprintf(stdout, "trace %s\n", filepath.Join(outDir, stem+".trace.json"))
	rep.Correct = rep.Failed == 0
	return rep, nil
}

// tracedRun is one traced sweep.
type tracedRun struct {
	runner   *sim.Runner
	wall     time.Duration
	generate time.Duration
	results  []sim.Result
	specTime []time.Duration // canonical spec order
}

// tracedSweep is runSweep with a span around workload generation, core
// construction, and each spec's sim.Runner.Run, run by its own pool of
// workers so each spec gets its own span.
func tracedSweep(d workloadDef, workers int, order []int, rec *spanRec) (tracedRun, error) {
	specs := d.specs()
	out := tracedRun{
		runner:   d.runner(workers),
		results:  make([]sim.Result, len(specs)),
		specTime: make([]time.Duration, len(specs)),
	}
	r := out.runner
	runtime.GC()
	var err error
	rec.span("setup", d.name, "", func(parent string) {
		for _, b := range d.benches {
			out.generate += rec.span("workload.Generate", b, parent, func(string) {
				_, e := r.Workload(b)
				err = errors.Join(err, e)
			})
		}
		for _, s := range specs {
			w, e := r.Workload(s.Benchmark)
			if e != nil {
				err = errors.Join(err, e)
				continue
			}
			rec.span("cpu.New", s.Benchmark+"/"+s.Label, parent, func(string) {
				_, e := cpu.New(s.Config, w)
				err = errors.Join(err, e)
			})
		}
	})
	if err != nil {
		return tracedRun{}, err
	}
	runtime.GC()
	errs := make([]error, len(specs))
	out.wall = rec.span("sweep", d.name, "", func(parent string) {
		forEach(workers, order, func(i int) {
			s := specs[i]
			out.specTime[i] = rec.span("sim.Runner.Run", s.Benchmark+"/"+s.Label, parent, func(string) {
				out.results[i], errs[i] = r.Run(s)
			})
		})
	})
	return out, errors.Join(errs...)
}

// forEach calls f for each index in idx from a pool of workers
// goroutines, in idx order, and returns when all calls have.
func forEach(workers int, idx []int, f func(i int)) {
	jobs := make(chan int)
	var wg sync.WaitGroup
	for range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				f(i)
			}
		}()
	}
	for _, i := range idx {
		jobs <- i
	}
	close(jobs)
	wg.Wait()
}

// simulatedLayers fills the per-layer simulated rates from the sweep's
// results: BTB-miss, conditional-mispredict and L1-I MPKI over the
// baseline specs, and the share of BTB misses the SBB covered over the
// "both" specs.
func simulatedLayers(specs []sim.RunSpec, res []sim.Result, vals map[string]float64) {
	var insts, btbMiss, cond, fills, bothMiss, covered uint64
	for i, s := range specs {
		r := &res[i]
		switch s.Label {
		case "baseline":
			insts += r.Instructions
			btbMiss += r.FE.BTBMissTotal()
			cond += r.FE.CondMispredicts
			fills += r.L1I.PrefetchFills
		case "both":
			bothMiss += r.FE.BTBMissTotal()
			covered += r.FE.SBBCoveredTotal()
		}
	}
	vals["btb.miss_mpki"] = stats.MPKI(btbMiss, insts)
	vals["tage.cond_mpki"] = stats.MPKI(cond, insts)
	vals["cache.l1i_mpki"] = stats.MPKI(fills, insts)
	vals["core.sbb_covered_frac"] = ratio(covered, bothMiss)
}

func ratio(a, b uint64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// decomposed is one spec re-executed through cpu.Core calls.
type decomposed struct {
	cycles, insts uint64
	dcache        core.DecodeCacheStats
}

// decomposeAll decomposes the specs at idx over a pool of workers. It
// returns the results indexed like specs (only idx entries set) and
// fills vals with the wall-time shares of warmup, skip and detail and
// the decode-cache hit fraction across them.
func decomposeAll(d workloadDef, workers int, specs []sim.RunSpec, idx []int, r *sim.Runner, rec *spanRec, vals map[string]float64) ([]decomposed, error) {
	out := make([]decomposed, len(specs))
	var mu sync.Mutex
	var phase [3]time.Duration // warmup, skip, detail
	var total time.Duration
	var errs []error
	rec.span("decompose", d.name, "", func(parent string) {
		forEach(workers, idx, func(i int) {
			s := specs[i]
			var ph [3]time.Duration
			var err error
			dur := rec.span("spec", s.Benchmark+"/"+s.Label, parent, func(id string) {
				out[i], ph, err = decompose(d, s, r, rec, id)
			})
			mu.Lock()
			defer mu.Unlock()
			for k := range ph {
				phase[k] += ph[k]
			}
			total += dur
			errs = append(errs, err)
		})
	})
	if err := errors.Join(errs...); err != nil {
		return nil, err
	}
	vals["sim.warmup_frac"] = phase[0].Seconds() / total.Seconds()
	vals["sim.skip_frac"] = phase[1].Seconds() / total.Seconds()
	vals["sim.detail_frac"] = phase[2].Seconds() / total.Seconds()
	var hits, misses uint64
	for _, i := range idx {
		hits += out[i].dcache.Hits
		misses += out[i].dcache.Misses
	}
	vals["core.dcache_hit_frac"] = ratio(hits, hits+misses)
	return out, nil
}

// decompose re-executes one spec through the public cpu.Core calls
// sim.Runner makes for it — construction, warmup, then either the exact
// measurement or the sampled skip, snapshot and interval sequence —
// with a span around each call. It returns the measured cycles and
// instructions (summed over intervals) and the time spent in warmup,
// skip and detail.
func decompose(d workloadDef, s sim.RunSpec, r *sim.Runner, rec *spanRec, parent string) (decomposed, [3]time.Duration, error) {
	var out decomposed
	var ph [3]time.Duration
	w, err := r.Workload(s.Benchmark)
	if err != nil {
		return out, ph, err
	}
	var c *cpu.Core
	scope := s.Benchmark + "/" + s.Label
	ph[0] += rec.span("cpu.New", scope, parent, func(string) { c, err = cpu.New(s.Config, w) })
	if err != nil {
		return out, ph, err
	}
	ph[0] += rec.span("Core.Run.warmup", scope, parent, func(string) { c.Run(d.warmup) })
	if d.sample == nil {
		c.ResetStats()
		if d.observed {
			c.AttachCollector(metrics.NewCollector(observedInterval))
			c.AttachAttribution(attrib.NewEngine())
		}
		ph[2] += rec.span("Core.Run.measure", scope, parent, func(string) { c.Run(d.measure) })
		out.cycles, out.insts = c.Cycles(), c.Retired()
		out.dcache = dcacheStats(c)
		return out, ph, nil
	}
	p := d.sample.Normalized(d.measure)
	var cursor *cpu.Core
	ph[1] += rec.span("Core.Clone", scope, parent, func(string) { cursor = c.Clone() })
	snaps := make([]*cpu.Core, p.Intervals)
	mws := make([]uint64, p.Intervals)
	var pos uint64
	for i := range snaps {
		start := d.measure * uint64(i) / uint64(p.Intervals)
		mws[i] = min(p.MicroWarmup, start)
		if target := start - mws[i]; target > pos {
			dist, warm := target-pos, target-pos
			if !p.ColdSkip && p.WarmWindow > 0 && p.WarmWindow < dist {
				ph[1] += rec.span("Core.FastForward", scope, parent, func(string) { fastForward(cursor, dist-p.WarmWindow, true) })
				warm = p.WarmWindow
			}
			name := "Core.FastForwardWarm"
			if p.ColdSkip {
				name = "Core.FastForward"
			}
			ph[1] += rec.span(name, scope, parent, func(string) { fastForward(cursor, warm, p.ColdSkip) })
			pos = target
		}
		ph[1] += rec.span("Core.Clone", scope, parent, func(string) { snaps[i] = cursor.Clone() })
	}
	for i, sn := range snaps {
		ph[2] += rec.span("Core.Run.detail", scope, parent, func(string) {
			sn.Run(mws[i])
			sn.ResetStats()
			sn.Run(p.IntervalInsts)
		})
		out.cycles += sn.Cycles()
		out.insts += sn.Retired()
		out.dcache = dcacheStats(sn)
	}
	return out, ph, nil
}

// fastForward skips n instructions in the same slices sim.Runner uses.
func fastForward(c *cpu.Core, n uint64, cold bool) {
	for done := uint64(0); done < n; {
		step := min(n-done, ffChunk)
		var ran uint64
		if cold {
			ran = c.FastForward(step)
		} else {
			ran = c.FastForwardWarm(step)
		}
		done += ran
		if ran < step {
			return
		}
	}
}

func dcacheStats(c *cpu.Core) core.DecodeCacheStats {
	if dc := c.Frontend().DecodeCache(); dc != nil {
		return dc.Stats()
	}
	return core.DecodeCacheStats{}
}

// layerSums accumulates replay time and operation counts over
// benchmarks; each per-layer cost is total time over total operations.
type layerSums struct {
	t map[string]time.Duration
	n map[string]uint64
	// headUseful counts head regions that yielded at least one branch.
	headUseful uint64
}

func (s *layerSums) add(name string, d time.Duration, n int) {
	if s.t == nil {
		s.t, s.n = map[string]time.Duration{}, map[string]uint64{}
	}
	s.t[name] += d
	s.n[name] += uint64(n)
}

// per returns the time per operation in the given unit.
func (s *layerSums) per(name string, unit time.Duration) float64 {
	if s.n[name] == 0 {
		return 0
	}
	return float64(s.t[name]) / float64(unit) / float64(s.n[name])
}

func (s *layerSums) fill(vals map[string]float64) {
	for name, key := range map[string]string{
		"emu.step_ns":        "emu.Step",
		"isa.length_ns":      "isa.LengthAt",
		"isa.decode_ns":      "isa.TryDecode",
		"core.head_ns":       "SBD.DecodeHead",
		"core.tail_ns":       "SBD.DecodeTail",
		"core.sbb_insert_ns": "SBB.Insert",
		"core.sbb_probe_ns":  "SBB.LookupU+LookupR",
		"btb.probe_ns":       "btb.Lookup+Insert",
		"tage.update_ns":     "tage.Predict+Update",
		"tage.sync_ns":       "tage.SyncSpec",
		"ittage.update_ns":   "ittage.Predict+Update",
		"cache.access_ns":    "cache.Demand+Prefetch",
	} {
		vals[name] = s.per(key, time.Nanosecond)
	}
	vals["cpu.clone_ms"] = s.per("Core.Clone", time.Millisecond)
	vals["cpu.ff_mips"] = 1 / s.per("Core.FastForward", time.Microsecond)
	vals["cpu.ffwarm_mips"] = 1 / s.per("Core.FastForwardWarm", time.Microsecond)
	vals["core.head_useful_frac"] = ratio(s.headUseful, s.n["SBD.DecodeHead"])
}

// region is one shadow region: a line and the boundary offset in it.
type region struct {
	line uint64
	off  int
}

// replay records a stretch of the workload's committed path (after
// skipping warm instructions) and times each layer's public functions
// on it, one tight loop per layer with a span around it. Shadow regions
// are the ones detail would schedule: the head of a taken branch's
// target line and the tail after a taken branch. It returns a non-empty
// message when the decoder disagrees with the emulator.
func replay(w *workload.Workload, warm uint64, rec *spanRec, parent string, sums *layerSums) string {
	bench := w.Profile.Name
	var msg string
	timed := func(name string, n int, f func()) {
		sums.add(name, rec.span(name, bench, parent, func(string) { f() }), n)
	}
	e := emu.New(w)
	if _, err := e.Run(warm); err != nil {
		return err.Error()
	}
	steps := make([]emu.Step, 0, replaySteps)
	timed("emu.Step", replaySteps, func() {
		for range replaySteps {
			st, err := e.Step()
			if err != nil {
				msg = err.Error()
				return
			}
			steps = append(steps, st)
		}
	})
	if msg != "" {
		return msg
	}

	code, base := w.Prog.Code, w.Prog.Base
	var bad int
	timed("isa.LengthAt", len(steps), func() {
		for i := range steps {
			if isa.LengthAt(code, int(steps[i].Inst.PC-base)) != int(steps[i].Inst.Len) {
				bad++
			}
		}
	})
	timed("isa.TryDecode", len(steps), func() {
		for i := range steps {
			pc := steps[i].Inst.PC
			if in, ok := isa.TryDecode(code[pc-base:], pc); !ok || in.Len != steps[i].Inst.Len {
				bad++
			}
		}
	})
	if bad > 0 {
		return fmt.Sprintf("%d committed instructions decode differently from the emulator", bad)
	}

	var branches, conds, inds []emu.Step
	var heads, tails []region
	for _, st := range steps {
		in := st.Inst
		if !in.Class.IsBranch() {
			continue
		}
		branches = append(branches, st)
		switch in.Class {
		case isa.ClassDirectCond:
			conds = append(conds, st)
		case isa.ClassIndirect, isa.ClassIndirectCall:
			inds = append(inds, st)
		}
		if st.Taken {
			if off := program.LineOffset(in.NextPC()); off != 0 {
				tails = append(tails, region{program.LineAddr(in.NextPC()), off})
			}
			if off := program.LineOffset(st.NextPC); off > 0 {
				heads = append(heads, region{program.LineAddr(st.NextPC), off})
			}
		}
	}

	sbd := core.NewSBD(core.DefaultSBDConfig())
	var buf, shadow []core.ShadowBranch
	timed("SBD.DecodeHead", len(heads), func() {
		for _, rg := range heads {
			buf = sbd.DecodeHead(w.Prog.Line(rg.line), rg.line, rg.off, buf[:0])
			if len(buf) > 0 {
				sums.headUseful++
			}
		}
	})
	timed("SBD.DecodeTail", len(tails), func() {
		for _, rg := range tails {
			buf = sbd.DecodeTail(w.Prog.Line(rg.line), rg.line, rg.off, buf[:0])
		}
	})
	for _, rg := range heads {
		shadow = sbd.DecodeHead(w.Prog.Line(rg.line), rg.line, rg.off, shadow)
	}
	for _, rg := range tails {
		shadow = sbd.DecodeTail(w.Prog.Line(rg.line), rg.line, rg.off, shadow)
	}

	bt := btb.MustNew(btb.DefaultConfig())
	timed("btb.Lookup+Insert", len(branches), func() {
		for _, st := range branches {
			if e, ok := bt.Lookup(st.Inst.PC); st.Taken && (!ok || e.Target != st.NextPC) {
				bt.Insert(st.Inst.PC, btb.Entry{Target: st.NextPC, FallThrough: st.Inst.NextPC(), Class: st.Inst.Class})
			}
		}
	})
	resident := make([]bool, len(shadow))
	for i, sb := range shadow {
		_, resident[i] = bt.Probe(sb.PC)
	}
	sbb := core.MustNewSBB(core.DefaultSBBConfig())
	timed("SBB.Insert", len(shadow), func() {
		for i, sb := range shadow {
			sbb.Insert(sb, resident[i])
		}
	})
	timed("SBB.LookupU+LookupR", len(branches), func() {
		for _, st := range branches {
			if _, ok := sbb.LookupU(st.Inst.PC); !ok {
				sbb.LookupR(st.Inst.PC)
			}
		}
	})

	tg := tage.New(tage.DefaultConfig())
	timed("tage.Predict+Update", len(conds), func() {
		for _, st := range conds {
			p := tg.Predict(st.Inst.PC)
			tg.ArchPush(st.Taken, st.Inst.PC)
			tg.SpecPush(st.Taken, st.Inst.PC)
			tg.Update(st.Inst.PC, p, st.Taken)
		}
	})
	timed("tage.SyncSpec", len(conds), func() {
		for range conds {
			tg.SyncSpec()
		}
	})
	it := ittage.New(ittage.DefaultConfig())
	timed("ittage.Predict+Update", len(inds), func() {
		for _, st := range inds {
			p := it.Predict(st.Inst.PC)
			it.ArchPush(st.Inst.PC, st.NextPC)
			it.SpecPush(st.Inst.PC, st.NextPC)
			it.Update(st.Inst.PC, p, st.NextPC)
		}
	})

	fc := frontend.DefaultConfig()
	l1 := cache.MustNew(fc.L1ISize, fc.L1IWays, program.LineSize)
	l2 := cache.MustNew(fc.L2Size, fc.L2Ways, program.LineSize)
	accesses := 0
	last := ^uint64(0)
	for _, st := range steps {
		if la := program.LineAddr(st.Inst.PC); la != last {
			last = la
			accesses++
		}
	}
	timed("cache.Demand+Prefetch", accesses, func() {
		last := ^uint64(0)
		for _, st := range steps {
			if la := program.LineAddr(st.Inst.PC); la != last {
				last = la
				if !l1.Demand(la) {
					l2.Prefetch(la)
				}
			}
		}
	})

	c, err := cpu.New(cpu.SkiaConfig(), w)
	if err != nil {
		return err.Error()
	}
	var ran uint64
	timed("Core.FastForward", replayFF, func() { ran += c.FastForward(replayFF) })
	timed("Core.FastForwardWarm", replayFFWarm, func() { ran += c.FastForwardWarm(replayFFWarm) })
	if ran != replayFF+replayFFWarm {
		return fmt.Sprintf("fast-forward skipped %d of %d instructions", ran, replayFF+replayFFWarm)
	}
	c.Run(10_000)
	timed("Core.Clone", replayClones, func() {
		for range replayClones {
			c.Clone()
		}
	})
	return ""
}

// kinstLoop times 1000-instruction Core.Run calls on a Skia core over
// voter warmed by 100k instructions — the loop skiabench's
// frontend-cycle entry and bench_test.go's BenchmarkFrontEndCycle
// time — and returns microseconds per call.
func kinstLoop(rec *spanRec) (float64, error) {
	prof, err := workload.ByName("voter")
	if err != nil {
		return 0, err
	}
	w, err := workload.Generate(prof)
	if err != nil {
		return 0, err
	}
	c, err := cpu.New(cpu.SkiaConfig(), w)
	if err != nil {
		return 0, err
	}
	c.Run(100_000)
	c.ResetStats()
	var ran uint64
	d := rec.span("Core.Run.kinst", "voter", "", func(string) {
		for range kinstIters {
			ran += c.Run(1000)
		}
	})
	if ran < kinstIters*1000 {
		return 0, fmt.Errorf("kinst loop: voter retired %d instructions", ran)
	}
	return d.Seconds() * 1e6 / kinstIters, nil
}

// attribOverhead runs the "both" configuration over attribBenches
// twice from the same warmed core, once plain and once with the
// attribution engine and an interval collector attached, and returns
// observed time over plain time minus 1 (best of two pairs each). The
// two runs must simulate identically; a non-empty message says how they
// differ.
func attribOverhead(r *sim.Runner, rec *spanRec) (float64, string, error) {
	var plain, observed time.Duration
	for _, b := range attribBenches {
		w, err := r.Workload(b)
		if err != nil {
			return 0, "", err
		}
		master, err := cpu.New(cpu.SkiaConfig(), w)
		if err != nil {
			return 0, "", err
		}
		master.Run(attribWarm)
		best := [2]time.Duration{}
		var cycles [2]uint64
		for range 2 {
			for k := range 2 {
				c := master.Clone()
				c.ResetStats()
				name := "Core.Run.plain"
				if k == 1 {
					name = "Core.Run.observed"
					c.AttachCollector(metrics.NewCollector(observedInterval))
					c.AttachAttribution(attrib.NewEngine())
				}
				d := rec.span(name, b, "", func(string) { c.Run(attribMeasure) })
				if best[k] == 0 || d < best[k] {
					best[k] = d
				}
				cycles[k] = c.Cycles()
			}
		}
		if cycles[0] != cycles[1] {
			return 0, fmt.Sprintf("%s: observed run took %d cycles, plain %d", b, cycles[1], cycles[0]), nil
		}
		plain += best[0]
		observed += best[1]
	}
	return observed.Seconds()/plain.Seconds() - 1, "", nil
}

// writeTrace writes the span trace (Chrome trace_event JSON) and the
// per-layer numbers side by side under outDir.
func writeTrace(outDir, stem string, d workloadDef, rec *spanRec, layers map[string]metric) error {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(outDir, stem+".trace.json"))
	if err != nil {
		return err
	}
	meta := map[string]any{"workload": d.name, "spans_dropped": rec.ring.Dropped()}
	if err := metrics.WriteSpanChromeTrace(f, rec.ring.Spans(), meta); err != nil {
		f.Close()
		return fmt.Errorf("write span trace: %w", err)
	}
	if err := f.Close(); err != nil {
		return err
	}
	b, err := json.MarshalIndent(layers, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(outDir, stem+".layers.json"), append(b, '\n'), 0o644)
}
