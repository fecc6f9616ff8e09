// Command skiasim runs a single benchmark on the simulated core and
// prints the full statistics breakdown: IPC, BTB/SBB behaviour, L1-I
// pressure, re-steer counts, and predictor accuracy.
//
// Usage:
//
//	skiasim -bench voter                # paper baseline (no Skia)
//	skiasim -bench voter -skia          # baseline + Skia
//	skiasim -bench voter -skia -head=false   # tail-only shadow decode
//	skiasim -bench dotty -btb 16384 -measure 10000000
//	skiasim -list
//
// Observability (see README, "Tracing & profiling"):
//
//	skiasim -bench voter -skia -intervals 100000 -intervals-out iv.ndjson
//	skiasim -bench voter -skia -trace-out fe.trace.json   # open in Perfetto
//	skiasim -bench voter -cpuprofile cpu.pprof -pprof localhost:6060
//	skiasim -bench voter -attrib                # why is my BTB missing?
//	skiasim -bench voter -skia -attrib-out at.ndjson
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/attrib"
	"repro/internal/cpu"
	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/workload"
)

func main() {
	var (
		bench   = flag.String("bench", "voter", "benchmark name (see -list)")
		list    = flag.Bool("list", false, "list benchmarks and exit")
		skia    = flag.Bool("skia", false, "enable the Shadow Branch Decoder + SBB")
		head    = flag.Bool("head", true, "enable Head shadow decoding (with -skia)")
		tail    = flag.Bool("tail", true, "enable Tail shadow decoding (with -skia)")
		btbSz   = flag.Int("btb", 8192, "BTB entries")
		inf     = flag.Bool("infbtb", false, "infinite BTB (upper bound)")
		warmup  = flag.Uint64("warmup", sim.DefaultWarmup, "warmup instructions")
		measure = flag.Uint64("measure", sim.DefaultMeasure, "measured instructions")

		intervals = flag.Uint64("intervals", 0,
			"collect interval metrics every N retired instructions (0 = off; implied by -intervals-out)")
		intervalsOut = flag.String("intervals-out", "",
			"write per-interval metrics as NDJSON to this file")
		traceOut = flag.String("trace-out", "",
			"record front-end events and write Chrome trace_event JSON (Perfetto-loadable) to this file")
		traceBuf = flag.Int("trace-buf", metrics.DefaultRingCapacity,
			"event-trace ring capacity; oldest events drop past this")
		attribOn = flag.Bool("attrib", false,
			"classify every BTB miss and front-end stall cycle by cause (implied by -attrib-out)")
		attribOut = flag.String("attrib-out", "",
			"write the attribution summary as NDJSON to this file")
	)
	samplePlan := sim.SampleFlags(flag.CommandLine)
	var prof metrics.Profiler
	prof.RegisterFlags(flag.CommandLine)
	flag.Parse()

	stopProf, err := prof.Start()
	if err != nil {
		fmt.Fprintln(os.Stderr, "skiasim:", err)
		os.Exit(1)
	}

	if *list {
		fmt.Println("benchmarks (paper Table 2):")
		for _, n := range workload.Names() {
			p, _ := workload.ByName(n)
			fmt.Printf("  %-18s %s\n", n, p.Suite)
		}
		return
	}

	cfg := cpu.DefaultConfig()
	if *skia {
		cfg = cpu.SkiaConfig()
		cfg.Frontend.SBD.Head = *head
		cfg.Frontend.SBD.Tail = *tail
	}
	cfg.Frontend.BTB = sim.BTBWithEntries(*btbSz)
	cfg.Frontend.BTB.Infinite = *inf

	if *intervalsOut != "" && *intervals == 0 {
		*intervals = metrics.DefaultEvery
	}
	if *attribOut != "" {
		*attribOn = true
	}
	var tracer *metrics.RingTracer
	if *traceOut != "" {
		tracer = metrics.NewRingTracer(*traceBuf)
	}

	r := sim.NewRunner()
	r.Interval = *intervals
	r.Attrib = *attribOn
	r.Sample = samplePlan()
	spec := sim.RunSpec{
		Benchmark: *bench, Config: cfg,
		Warmup: *warmup, Measure: *measure, Label: "run",
		Tracer: tracer,
	}
	res, err := r.Run(spec)
	if err != nil {
		fmt.Fprintln(os.Stderr, "skiasim:", err)
		os.Exit(1)
	}

	if *intervalsOut != "" {
		if err := writeFileWith(*intervalsOut, func(f *os.File) error {
			return metrics.WriteNDJSON(f, res.Intervals)
		}); err != nil {
			fmt.Fprintln(os.Stderr, "skiasim:", err)
			os.Exit(1)
		}
	}
	if tracer != nil {
		if err := writeFileWith(*traceOut, func(f *os.File) error {
			return tracer.WriteChromeTrace(f)
		}); err != nil {
			fmt.Fprintln(os.Stderr, "skiasim:", err)
			os.Exit(1)
		}
	}
	if *attribOut != "" && res.Attribution != nil {
		if err := writeFileWith(*attribOut, func(f *os.File) error {
			return attrib.WriteNDJSON(f, *bench, "run", *res.Attribution)
		}); err != nil {
			fmt.Fprintln(os.Stderr, "skiasim:", err)
			os.Exit(1)
		}
	}

	fe := res.FE
	tb := stats.NewTable("metric", "value")
	row := func(k string, format string, args ...any) {
		tb.AddRow(k, fmt.Sprintf(format, args...))
	}
	row("benchmark", "%s", *bench)
	row("instructions", "%d", res.Instructions)
	row("cycles", "%d", res.Cycles)
	row("IPC", "%.4f", res.IPC)
	row("L1-I MPKI (prefetch fills)", "%.2f", res.L1IMPKI)
	row("L1-I pollution evicted", "%d", res.L1I.PollutionEvicted)
	row("BTB miss MPKI", "%.3f", res.BTBMissMPKI)
	row("BTB miss w/ L1-I hit", "%.1f%%", res.BTBMissL1IHitFrac*100)
	row("BTB misses by type (c/u/ca/r/i)", "%d/%d/%d/%d/%d",
		fe.BTBMissCond, fe.BTBMissUncond, fe.BTBMissCall, fe.BTBMissReturn, fe.BTBMissIndirect)
	row("decode re-steers", "%d", fe.DecodeResteers)
	row("execute re-steers", "%d", fe.ExecResteers)
	row("cond mispredict MPKI", "%.2f", res.CondMPKI)
	row("indirect / return mispredicts", "%d / %d", fe.IndirectMispredicts, fe.ReturnMispredicts)
	row("stale BTB targets fixed at decode", "%d", fe.StaleBTBTarget)
	row("decoder idle cycles", "%.1f%%", res.DecodeIdleFrac*100)
	row("wrong-path FTQ blocks", "%d", fe.WrongPathBlocks)
	if *skia {
		row("effective miss MPKI (after SBB)", "%.3f", res.EffectiveMissMPKI)
		row("SBB covered (U / R)", "%d / %d", fe.SBBCoveredU, fe.SBBCoveredR)
		row("SBD inserts", "%d", fe.SBDInserts)
		bogus := 0.0
		if fe.SBDInserts > 0 {
			bogus = float64(fe.SBDBogusInserts) / float64(fe.SBDInserts)
		}
		row("SBD bogus insert rate", "%.5f%%", bogus*100)
		row("bogus SBB entries used", "%d", fe.BogusSBBUsed)
		row("head regions (decoded/discarded)", "%d/%d",
			res.SBD.HeadRegions, res.SBD.HeadDiscarded)
		row("head / tail branches extracted", "%d / %d",
			res.SBD.HeadBranches, res.SBD.TailBranches)
		row("tail regions", "%d", res.SBD.TailRegions)
	}
	if s := res.Sampling; s != nil && !s.Exact {
		row("sampled intervals (K x insts)", "%d x %d", s.Intervals, s.IntervalInstructions)
		row("sampled micro-warmup", "%d insts", s.MicroWarmupInstructions)
		if s.WarmWindowInstructions > 0 {
			row("sampled warm window", "%d insts", s.WarmWindowInstructions)
		}
		row("instructions skipped / measured", "%d / %d",
			s.Counters.SkippedInstructions, s.Counters.MeasuredInstructions)
		for _, m := range s.Metrics {
			row("sampled "+m.Name, "%.4f ± %.4f", m.Mean, m.CI)
		}
	}
	if *intervals > 0 {
		sum := metrics.Summarize(*intervals, res.Intervals)
		row("intervals (every N insts)", "%d x %d", sum.Count, sum.Every)
		row("interval IPC min/mean/max", "%.4f / %.4f / %.4f",
			sum.IPCMin, sum.IPCMean, sum.IPCMax)
		row("interval IPC first -> last", "%.4f -> %.4f", sum.IPCFirst, sum.IPCLast)
	}
	if tracer != nil {
		row("traced events (kept/total)", "%d/%d",
			uint64(len(tracer.Events())), tracer.Total())
	}
	if at := res.Attribution; at != nil {
		row("BTB misses attributed", "%d", at.BTBMisses)
		row("shadow-resident share", "%.1f%%", at.ShadowResidentShare*100)
		row("  head / tail split", "%.1f%% / %.1f%%", at.HeadShare*100, at.TailShare*100)
		for _, c := range at.Causes {
			if c.Count > 0 {
				row("  cause "+c.Cause, "%d (%.1f%%)", c.Count, c.Share*100)
			}
		}
		row("stall cycles attributed", "%d", at.StallCycles)
		for _, s := range at.Stalls {
			if s.Count > 0 {
				row("  stall "+s.Kind, "%d (%.1f%%)", s.Count, s.Share*100)
			}
		}
		for i, o := range at.TopOffenders {
			if i >= 5 {
				break
			}
			row(fmt.Sprintf("  offender #%d", i+1), "pc 0x%x: %d misses (%s)",
				o.PC, o.Count, o.TopCause)
		}
		row("FTQ occupancy p50/p90", "%.0f / %.0f", at.FTQOccupancy.P50, at.FTQOccupancy.P90)
		if at.SBDValidPaths.Count > 0 {
			row("SBD valid paths p50/p99", "%.0f / %.0f", at.SBDValidPaths.P50, at.SBDValidPaths.P99)
		}
		if at.SBBLifetime.Count > 0 {
			row("SBB evicted-entry lifetime p50", "%.0f cycles", at.SBBLifetime.P50)
		}
		if at.ResteerDistance.Count > 0 {
			row("re-steer distance p50/p99", "%.0f / %.0f bytes",
				at.ResteerDistance.P50, at.ResteerDistance.P99)
		}
	}
	fmt.Print(tb)

	if err := stopProf(); err != nil {
		fmt.Fprintln(os.Stderr, "skiasim:", err)
		os.Exit(1)
	}
}

// writeFileWith creates path, hands it to write, and closes it,
// reporting the first error.
func writeFileWith(path string, write func(*os.File) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
