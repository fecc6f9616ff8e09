// Package repro's benchmark harness: one testing.B benchmark per table
// and figure in the paper's evaluation, plus the DESIGN.md ablations.
// Each benchmark runs the corresponding experiment harness on a reduced
// benchmark subset and window (so `go test -bench=.` completes on a
// laptop) and reports the figure's headline quantities as custom
// metrics. For full-suite, full-window numbers use:
//
//	go run ./cmd/skiaexp -exp all
package repro

import (
	"strconv"
	"strings"
	"testing"

	"repro/internal/attrib"
	"repro/internal/cpu"
	"repro/internal/experiments"
	"repro/internal/metrics"
	"repro/internal/workload"
)

// benchOpts returns reduced-size options sized for iteration under
// `go test -bench`.
func benchOpts() experiments.Options {
	return experiments.Options{
		Warmup:  200_000,
		Measure: 600_000,
		// A representative spread: two high-gain call/return-heavy
		// OLTP workloads, one cond-dominated (low-gain), one small.
		Benchmarks: []string{"voter", "sibench", "kafka", "finagle-chirper"},
	}
}

// parsePct extracts a percentage cell like "+5.64%" into a float.
func parsePct(s string) float64 {
	s = strings.TrimSuffix(strings.TrimSpace(s), "%")
	v, _ := strconv.ParseFloat(s, 64)
	return v
}

// lastRowCell fetches a cell from the rendered table's final data row.
func lastRowCell(rep *experiments.Report, col int) string {
	lines := strings.Split(strings.TrimRight(rep.Table.String(), "\n"), "\n")
	fields := strings.Fields(lines[len(lines)-1])
	if col < len(fields) {
		return fields[col]
	}
	return ""
}

func runOnce(b *testing.B, f func(experiments.Options) (*experiments.Report, error)) *experiments.Report {
	b.Helper()
	var rep *experiments.Report
	var err error
	for i := 0; i < b.N; i++ {
		rep, err = f(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
	}
	return rep
}

// BenchmarkTable1Config renders the processor configuration table.
func BenchmarkTable1Config(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if experiments.Table1() == nil {
			b.Fatal("no report")
		}
	}
}

// BenchmarkTable2Benchmarks renders the benchmark registry table.
func BenchmarkTable2Benchmarks(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Table2(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig01BTBMissVsL1IHit regenerates Figure 1: BTB-miss MPKI and
// the L1-I-resident fraction across BTB sizes.
func BenchmarkFig01BTBMissVsL1IHit(b *testing.B) {
	rep := runOnce(b, func(o experiments.Options) (*experiments.Report, error) {
		return experiments.Fig1(o, []int{2048, 8192})
	})
	// Final row is the 8K size; column 3 is the resident fraction.
	b.ReportMetric(parsePct(lastRowCell(rep, 3)), "l1i-hit-%@8K")
}

// BenchmarkFig03SpeedupVsBTBSize regenerates Figure 3 at two BTB sizes.
func BenchmarkFig03SpeedupVsBTBSize(b *testing.B) {
	rep := runOnce(b, func(o experiments.Options) (*experiments.Report, error) {
		return experiments.Fig3(o, []int{4096, 8192})
	})
	b.ReportMetric(parsePct(lastRowCell(rep, 3)), "skia-speedup-%@8K")
}

// BenchmarkFig06MissByType regenerates Figure 6: BTB misses by branch
// type per benchmark.
func BenchmarkFig06MissByType(b *testing.B) {
	runOnce(b, experiments.Fig6)
}

// BenchmarkFig13L1IValidation regenerates Figure 13: simulated L1-I
// MPKI against the recorded real-system targets.
func BenchmarkFig13L1IValidation(b *testing.B) {
	runOnce(b, experiments.Fig13)
}

// BenchmarkFig14IPCGain regenerates Figure 14: head-only, tail-only and
// combined IPC gains with the geomean row.
func BenchmarkFig14IPCGain(b *testing.B) {
	rep := runOnce(b, experiments.Fig14)
	b.ReportMetric(parsePct(lastRowCell(rep, 1)), "head-%")
	b.ReportMetric(parsePct(lastRowCell(rep, 2)), "tail-%")
	b.ReportMetric(parsePct(lastRowCell(rep, 3)), "both-%")
}

// BenchmarkFig15MissResidency regenerates Figure 15: per-benchmark BTB
// misses split by L1-I residency.
func BenchmarkFig15MissResidency(b *testing.B) {
	runOnce(b, experiments.Fig15)
}

// BenchmarkFig16MissMPKI regenerates Figure 16: miss MPKI for baseline,
// equal-state BTB, and Skia.
func BenchmarkFig16MissMPKI(b *testing.B) {
	runOnce(b, experiments.Fig16)
}

// BenchmarkFig17SBBSensitivity regenerates Figure 17: the U/R split and
// total-size sweeps.
func BenchmarkFig17SBBSensitivity(b *testing.B) {
	runOnce(b, experiments.Fig17)
}

// BenchmarkFig18DecoderIdle regenerates Figure 18: decoder idle-cycle
// reduction.
func BenchmarkFig18DecoderIdle(b *testing.B) {
	runOnce(b, experiments.Fig18)
}

// BenchmarkBoltComparison regenerates Section 6.1.4: pre-BOLT vs bolted
// verilator.
func BenchmarkBoltComparison(b *testing.B) {
	for i := 0; i < b.N; i++ {
		o := benchOpts()
		o.Benchmarks = nil // Bolt picks its own variants
		if _, err := experiments.Bolt(o); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationIndexPolicy sweeps First/Zero/Merge head-decode
// start policies (DESIGN.md ablation 2).
func BenchmarkAblationIndexPolicy(b *testing.B) {
	runOnce(b, experiments.AblationIndexPolicy)
}

// BenchmarkAblationPathCap sweeps the head decoder's valid-path cap
// (DESIGN.md ablation 3).
func BenchmarkAblationPathCap(b *testing.B) {
	runOnce(b, func(o experiments.Options) (*experiments.Report, error) {
		return experiments.AblationPathCap(o, []int{1, 6, 12})
	})
}

// BenchmarkAblationRetiredBit compares retired-first SBB eviction
// against plain LRU (DESIGN.md ablation 4).
func BenchmarkAblationRetiredBit(b *testing.B) {
	runOnce(b, experiments.AblationReplacement)
}

// BenchmarkAblationInsertIntoBTB compares the parallel SBB against
// inserting shadow branches straight into the BTB (DESIGN.md
// ablation 6).
func BenchmarkAblationInsertIntoBTB(b *testing.B) {
	runOnce(b, experiments.AblationInsertIntoBTB)
}

// BenchmarkAblationWrongPath quantifies wrong-path fetch volume and its
// cost (DESIGN.md ablation 1).
func BenchmarkAblationWrongPath(b *testing.B) {
	runOnce(b, experiments.AblationWrongPath)
}

// BenchmarkExtensionShadowConds evaluates the beyond-paper extension of
// storing shadow conditionals in the U-SBB.
func BenchmarkExtensionShadowConds(b *testing.B) {
	runOnce(b, experiments.ExtensionShadowConds)
}

// cycleCore builds a core on a small workload for the hot-loop
// benchmarks below, warmed so the timed region measures steady state.
func cycleCore(b *testing.B, cfg cpu.Config) *cpu.Core {
	b.Helper()
	prof, err := workload.ByName("voter")
	if err != nil {
		b.Fatal(err)
	}
	w, err := workload.Generate(prof)
	if err != nil {
		b.Fatal(err)
	}
	c, err := cpu.New(cfg, w)
	if err != nil {
		b.Fatal(err)
	}
	c.Run(100_000) // warm predictors and caches out of the timed region
	c.ResetStats()
	return c
}

// observabilityCore builds a Skia-configured core on a small workload
// for the enabled-observability benchmarks below; BenchmarkFrontEndCycle
// is their disabled-path counterpart.
func observabilityCore(b *testing.B) *cpu.Core {
	b.Helper()
	return cycleCore(b, cpu.SkiaConfig())
}

// benchCycle is the shared hot loop: run the simulated core in 1000-
// instruction slices, rebuilding it when the workload halts, and report
// simulated instruction throughput alongside the allocation counters.
func benchCycle(b *testing.B, mk func() *cpu.Core) {
	c := mk()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if c.Run(1000) == 0 {
			b.StopTimer()
			c = mk()
			b.StartTimer()
		}
	}
	b.ReportMetric(float64(c.Retired())/float64(b.Elapsed().Seconds())/1e6, "Minsts/s")
}

// BenchmarkFrontEndCycle is the headline hot-loop benchmark the perf
// trajectory (BENCH_*.json) tracks: the full Skia front-end cycle —
// IAG, FTQ, L1-I, shadow decode (memoized), decode verification — with
// no observability attached. cmd/skiabench records its ns/op, B/op,
// allocs/op, and Minsts/s every run.
func BenchmarkFrontEndCycle(b *testing.B) {
	benchCycle(b, func() *cpu.Core { return cycleCore(b, cpu.SkiaConfig()) })
}

// BenchmarkFrontEndCycle_NoDecodeCache is the same loop with the
// shadow-decode memoization disabled: every line entering the FTQ is
// re-length-decoded. The gap to BenchmarkFrontEndCycle is the cache's
// net win.
func BenchmarkFrontEndCycle_NoDecodeCache(b *testing.B) {
	cfg := cpu.SkiaConfig()
	cfg.Frontend.NoDecodeCache = true
	benchCycle(b, func() *cpu.Core { return cycleCore(b, cfg) })
}

// BenchmarkFrontEndCycle_Baseline runs the non-Skia baseline front-end
// (no shadow decoders at all), isolating how much of the cycle cost the
// Skia structures add.
func BenchmarkFrontEndCycle_Baseline(b *testing.B) {
	benchCycle(b, func() *cpu.Core { return cycleCore(b, cpu.DefaultConfig()) })
}

// BenchmarkFrontEndCycle_WithTracer measures the same loop with the
// full observability stack attached: an interval collector sampling
// every 10k instructions and a ring tracer receiving every event.
func BenchmarkFrontEndCycle_WithTracer(b *testing.B) {
	c := observabilityCore(b)
	attach := func(c *cpu.Core) {
		c.AttachCollector(metrics.NewCollector(10_000))
		c.SetTracer(metrics.NewRingTracer(1 << 16))
	}
	attach(c)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if c.Run(1000) == 0 {
			b.StopTimer()
			c = observabilityCore(b)
			attach(c)
			b.StartTimer()
		}
	}
	b.ReportMetric(float64(c.Retired())/float64(b.Elapsed().Seconds())/1e6, "Minsts/s")
}

// BenchmarkFrontEndCycle_WithAttribution measures the loop with a miss
// attribution engine attached: per-cycle FTQ sampling, per-miss
// classification, and per-stall-cycle accounting. Compare ns/op against
// BenchmarkFrontEndCycle; attribution must stay within a few percent (the
// <2% guard is on the *disabled* path, which stays a nil check —
// enabled attribution is expected to cost slightly more than tracing
// since it hooks every cycle).
func BenchmarkFrontEndCycle_WithAttribution(b *testing.B) {
	c := observabilityCore(b)
	attach := func(c *cpu.Core) {
		c.AttachAttribution(attrib.NewEngine())
	}
	attach(c)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if c.Run(1000) == 0 {
			b.StopTimer()
			c = observabilityCore(b)
			attach(c)
			b.StartTimer()
		}
	}
	b.ReportMetric(float64(c.Retired())/float64(b.Elapsed().Seconds())/1e6, "Minsts/s")
}

// TestFrontEndCycleAllocBudget is the dynamic counterpart of the
// //skia:noalloc annotations on the front-end cycle path: the static
// check proves no compiler-reported escape sits inside an annotated
// function, and this ratchet proves the composed steady-state loop
// (1000 cycles per op) stays within one allocation per op — the
// occasional map-growth rehash, nothing per-cycle. skiabench enforces
// the same absolute budget on the frontend-cycle registry entry.
func TestFrontEndCycleAllocBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a full benchmark")
	}
	if invariantsArmed {
		t.Skip("skiainvariants assertions are noinline and cost a few allocs; the budget pins the default build")
	}
	r := testing.Benchmark(BenchmarkFrontEndCycle)
	if a := r.AllocsPerOp(); a > 1 {
		t.Fatalf("front-end cycle path allocates %d allocs/op (budget 1): a per-cycle allocation crept past the //skia:noalloc annotations", a)
	}
}
