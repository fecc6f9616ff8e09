package experiments

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/workload"
)

// Table1 renders the processor configuration (paper Table 1) as
// actually instantiated by this simulator.
func Table1() *Report {
	cfg := cpu.SkiaConfig()
	fe := cfg.Frontend
	tb := stats.NewTable("field", "value")
	add := func(k, v string) { tb.AddRow(k, v) }
	add("ISA", "VLX (synthetic x86-like, 1-15 byte instructions)")
	add("L1-I cache", fmt.Sprintf("%dKB (%d-way, 64B lines)", fe.L1ISize/1024, fe.L1IWays))
	add("Cond. predictor", fmt.Sprintf("TAGE-SC-L, %d tagged tables, %.1fKB",
		fe.TAGE.NumTables, float64(fe.TAGE.StorageBits())/8/1024))
	add("Indirect predictor", fmt.Sprintf("ITTAGE, %d tagged tables, %.1fKB",
		fe.ITTAGE.NumTables, float64(fe.ITTAGE.StorageBits())/8/1024))
	add("BTB", fmt.Sprintf("%d entries, %d-way, %.1fKB",
		fe.BTB.Entries, fe.BTB.Ways, float64(fe.BTB.StorageBits())/8/1024))
	add("U-SBB", fmt.Sprintf("%d entries, %d-way", fe.SBB.UEntries, fe.SBB.UWays))
	add("R-SBB", fmt.Sprintf("%d entries, %d-way", fe.SBB.REntries, fe.SBB.RWays))
	add("SBB total", fmt.Sprintf("%.2fKB (paper: 12.25KB)", float64(fe.SBB.StorageBits())/8/1024))
	add("FTQ", fmt.Sprintf("%d entries", fe.FTQDepth))
	add("Decode / Retire", fmt.Sprintf("%d / %d wide", fe.DecodeWidth, cfg.RetireWidth))
	add("ROB", fmt.Sprintf("%d entries", cfg.ROBSize))
	add("RAS", fmt.Sprintf("%d entries", fe.RASDepth))
	add("Decode re-steer", fmt.Sprintf("%d cycles", fe.DecodeResteerPenalty))
	add("Execute re-steer", fmt.Sprintf("%d cycles", fe.ExecResteerPenalty))
	add("L1-I miss latency", fmt.Sprintf("%d cycles", fe.L1IMissLatency))
	return &Report{ID: "table1", Title: "Processor configuration", Table: tb}
}

// Table2 renders the benchmark registry (paper Table 2) together with
// each model's structural parameters.
func Table2() (*Report, error) {
	tb := stats.NewTable("benchmark", "suite", "hot_funcs", "cold_funcs", "cold_mix", "layout").
		SetUnits(stats.UnitNone, stats.UnitNone, stats.UnitCount, stats.UnitCount,
			stats.UnitNone, stats.UnitNone)
	for _, name := range workload.SuiteNames() {
		p, err := workload.ByName(name)
		if err != nil {
			return nil, err
		}
		mix := fmt.Sprintf("%.0f%% call", p.PColdViaCall*100)
		layout := "interleaved"
		if p.BoltLayout {
			layout = "bolt"
		}
		tb.AddCells(cStr(p.Name), cStr(p.Suite), cInt(p.HotFuncs),
			cInt(p.ColdFuncs), cStr(mix), cStr(layout))
	}
	return &Report{ID: "table2", Title: "Benchmark suite", Table: tb}, nil
}

// Bolt reproduces Section 6.1.4: Skia's gain on pre-BOLT verilator
// versus the bolted binary (paper: 10.27% vs the bolted ~5%-class
// gain), showing the technique is robust to software layout
// optimization.
func Bolt(o Options) (*Report, error) {
	s, err := o.sweep([]string{"verilator", "verilator-bolted"}, baseline(), skia())
	if err != nil {
		return nil, err
	}
	tb := stats.NewTable("variant", "baseline_ipc", "skia_ipc", "speedup", "baseline_btb_mpki").
		SetUnits(stats.UnitNone, stats.UnitIPC, stats.UnitIPC, stats.UnitSpeedup, stats.UnitMPKI)
	rep := &Report{ID: "bolt", Title: "Skia on pre-BOLT vs bolted verilator", Table: tb}
	var gains []float64
	for i, b := range s.benches {
		base, skia := s.res[0][i], s.res[1][i]
		gain := stats.Speedup(skia.IPC, base.IPC)
		gains = append(gains, gain)
		tb.AddCells(cStr(b), cF3(base.IPC), cF3(skia.IPC), cPct(gain), cF2(base.BTBMissMPKI))
	}
	rep.Notes = append(rep.Notes, fmt.Sprintf(
		"paper: pre-BOLT gains (10.27%%) exceed bolted gains; measured %s vs %s",
		pct(gains[0]), pct(gains[1])))
	return s.report(rep), nil
}

// bogusInserts, sbbCovered and phantoms read the counters the ablation
// tables sum over a variant's benchmarks.
func bogusInserts(r sim.Result) uint64 { return r.FE.SBDBogusInserts }
func sbbCovered(r sim.Result) uint64   { return r.FE.SBBCoveredTotal() }
func phantoms(r sim.Result) uint64     { return r.FE.PhantomBranches }

// AblationIndexPolicy sweeps the Head decoder's start-index policy
// (paper Section 3.2.2: First beats Merge).
func AblationIndexPolicy(o Options) (*Report, error) {
	policies := []core.IndexPolicy{core.FirstIndex, core.MergeIndex}
	vs := []variant{baseline()}
	for _, pol := range policies {
		vs = append(vs, vary(pol.String(), cpu.SkiaConfig(), func(c *cpu.Config) { c.Frontend.SBD.Policy = pol }))
	}
	s, err := o.sweep(o.benchmarks(), vs...)
	if err != nil {
		return nil, err
	}
	tb := stats.NewTable("policy", "geomean_speedup", "bogus_inserts").
		SetUnits(stats.UnitNone, stats.UnitSpeedup, stats.UnitCount)
	rep := &Report{ID: "ablation-index", Title: "Head decode index policy (First/Merge)", Table: tb}
	for i, pol := range policies {
		tb.AddCells(cStr(pol.String()), cPct(s.gain(1+i)), cInt(s.sum(1+i, bogusInserts)))
	}
	return s.report(rep), nil
}

// AblationPathCap sweeps the Head decoder's valid-path cap (paper
// uses 6).
func AblationPathCap(o Options, caps []int) (*Report, error) {
	if len(caps) == 0 {
		caps = []int{1, 2, 4, 6, 8, 12}
	}
	vs := []variant{baseline()}
	for _, n := range caps {
		vs = append(vs, vary(fmt.Sprintf("cap%d", n), cpu.SkiaConfig(),
			func(c *cpu.Config) { c.Frontend.SBD.MaxValidPaths = n }))
	}
	s, err := o.sweep(o.benchmarks(), vs...)
	if err != nil {
		return nil, err
	}
	tb := stats.NewTable("max_valid_paths", "geomean_speedup", "head_discard_frac", "bogus_inserts").
		SetUnits(stats.UnitNone, stats.UnitSpeedup, stats.UnitFrac, stats.UnitCount)
	rep := &Report{ID: "ablation-pathcap", Title: "Head decode valid-path cap", Table: tb}
	for i, n := range caps {
		v := 1 + i
		disc := s.sum(v, func(r sim.Result) uint64 { return r.SBD.HeadDiscarded })
		regions := s.sum(v, func(r sim.Result) uint64 { return r.SBD.HeadRegions })
		frac := 0.0
		if regions > 0 {
			frac = float64(disc) / float64(regions)
		}
		tb.AddCells(cStr(fmt.Sprintf("%d", n)), cPct(s.gain(v)), cPct(frac), cInt(s.sum(v, bogusInserts)))
	}
	return s.report(rep), nil
}

// AblationReplacement compares the SBB's retired-first eviction
// (Section 4.3) with plain LRU, and the insert filter that skips
// BTB-resident branches.
func AblationReplacement(o Options) (*Report, error) {
	sbb := func(label string, retiredFirst, filter bool) variant {
		return vary(label, cpu.SkiaConfig(), func(c *cpu.Config) {
			c.Frontend.SBB.RetiredFirstEviction, c.Frontend.SBB.FilterBTBResident = retiredFirst, filter
		})
	}
	vs := []variant{baseline(),
		sbb("retired-first (paper)", true, false),
		sbb("plain LRU", false, false),
		sbb("retired-first + filter", true, true)}
	s, err := o.sweep(o.benchmarks(), vs...)
	if err != nil {
		return nil, err
	}
	tb := stats.NewTable("variant", "geomean_speedup", "sbb_covered", "bogus_used").
		SetUnits(stats.UnitNone, stats.UnitSpeedup, stats.UnitCount, stats.UnitCount)
	rep := &Report{ID: "ablation-replacement", Title: "SBB replacement and insert-filter ablations", Table: tb}
	for v := 1; v < len(vs); v++ {
		tb.AddCells(cStr(vs[v].label), cPct(s.gain(v)), cInt(s.sum(v, sbbCovered)),
			cInt(s.sum(v, func(r sim.Result) uint64 { return r.FE.BogusSBBUsed })))
	}
	return s.report(rep), nil
}

// AblationInsertIntoBTB compares the paper's parallel SBB against
// inserting shadow branches straight into the BTB (the design the
// paper rejects in Section 4.2).
func AblationInsertIntoBTB(o Options) (*Report, error) {
	s, err := o.sweep(o.benchmarks(), baseline(),
		variant{"sbb", cpu.SkiaConfig()},
		vary("direct-to-btb", cpu.SkiaConfig(), func(c *cpu.Config) { c.Frontend.SBDToBTB = true }))
	if err != nil {
		return nil, err
	}
	tb := stats.NewTable("design", "geomean_speedup", "phantom_branches").
		SetUnits(stats.UnitNone, stats.UnitSpeedup, stats.UnitCount)
	rep := &Report{ID: "ablation-sbdtobtb", Title: "Parallel SBB vs inserting shadow branches into the BTB", Table: tb}
	tb.AddCells(cStr("parallel SBB (paper)"), cPct(s.gain(1)), cInt(s.sum(1, phantoms)))
	tb.AddCells(cStr("direct to BTB"), cPct(s.gain(2)), cInt(s.sum(2, phantoms)))
	return s.report(rep), nil
}

// AblationWrongPath disables wrong-path prefetching during execute
// re-steer windows by zeroing the window (resolution becomes
// instantaneous), quantifying how much of the loss FDIP's wrong-path
// pollution causes.
func AblationWrongPath(o Options) (*Report, error) {
	s, err := o.sweep(o.benchmarks(), baseline(),
		vary("no-wrong-path", cpu.DefaultConfig(), func(c *cpu.Config) { c.Frontend.ExecResteerPenalty = 1 }))
	if err != nil {
		return nil, err
	}
	tb := stats.NewTable("benchmark", "wrongpath_blocks_frac", "pollution_evicted", "ipc", "ipc_instant_resolve").
		SetUnits(stats.UnitNone, stats.UnitFrac, stats.UnitCount, stats.UnitIPC, stats.UnitIPC)
	rep := &Report{ID: "ablation-wrongpath", Title: "Wrong-path fetch volume and cost", Table: tb}
	for i, b := range s.benches {
		base, inst := s.res[0][i], s.res[1][i]
		tot := base.FE.Blocks + base.FE.WrongPathBlocks
		frac := 0.0
		if tot > 0 {
			frac = float64(base.FE.WrongPathBlocks) / float64(tot)
		}
		tb.AddCells(cStr(b), cPct(frac), cInt(base.L1I.PollutionEvicted),
			cF3(base.IPC), cF3(inst.IPC))
	}
	return s.report(rep), nil
}
