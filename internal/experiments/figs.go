package experiments

import (
	"fmt"
	"math"
	"slices"

	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/sim"
	"repro/internal/stats"
)

// DefaultBTBSizes is the BTB entry sweep used by Figures 1 and 3.
var DefaultBTBSizes = []int{1024, 2048, 4096, 8192, 16384}

// Fig1 reproduces Figure 1: average BTB-miss MPKI across the suite for
// each BTB size, and the portion of those misses whose cache line was
// already L1-I resident — the shadow-branch opportunity.
func Fig1(o Options, sizes []int) (*Report, error) {
	if len(sizes) == 0 {
		sizes = DefaultBTBSizes
	}
	var vs []variant
	for _, size := range sizes {
		vs = append(vs, vary(fmt.Sprint(size), cpu.DefaultConfig(),
			func(c *cpu.Config) { c.Frontend.BTB = sim.BTBWithEntries(size) }))
	}
	s, err := o.sweep(o.benchmarks(), vs...)
	if err != nil {
		return nil, err
	}
	tb := stats.NewTable("btb_entries", "miss_mpki", "miss_l1i_hit_mpki", "l1i_hit_frac").
		SetUnits(stats.UnitNone, stats.UnitMPKI, stats.UnitMPKI, stats.UnitFrac)
	rep := &Report{ID: "fig1", Title: "BTB miss MPKI and fraction resident in L1-I vs BTB size", Table: tb}
	var frac8k float64
	for v, size := range sizes {
		var mpki, hitMpki []float64
		for _, res := range s.res[v] {
			mpki = append(mpki, res.BTBMissMPKI)
			hitMpki = append(hitMpki, stats.MPKI(res.FE.BTBMissL1IHit, res.Instructions))
		}
		m, h := stats.Mean(mpki), stats.Mean(hitMpki)
		frac := 0.0
		if m > 0 {
			frac = h / m
		}
		if size == 8192 {
			frac8k = frac
		}
		tb.AddCells(cStr(fmt.Sprintf("%d", size)), cF2(m), cF2(h), cPct(frac))
	}
	rep.Notes = append(rep.Notes, fmt.Sprintf(
		"paper: ~75%% of 8K-BTB misses are L1-I resident; measured %s", pct(frac8k)))
	return s.report(rep), nil
}

// Fig3Sizes is the BTB sweep for the Figure 3 headline plot.
var Fig3Sizes = []int{4096, 8192, 16384, 32768}

// Fig3 reproduces Figure 3: geomean speedup (normalized to the 4K-entry
// baseline BTB) of four designs across BTB sizes: plain BTB, BTB grown
// by the SBB's budget, BTB+SBB (Skia), and an infinite BTB.
func Fig3(o Options, sizes []int) (*Report, error) {
	if len(sizes) == 0 {
		sizes = Fig3Sizes
	}
	sbbBits := core.DefaultSBBConfig().StorageBits()
	// Three designs per size, so variant 3i+d is design d at sizes[i]
	// and variant 0 (plain BTB at the smallest size) is the baseline.
	// The infinite BTB has no size; it runs once, as the last variant.
	var vs []variant
	for _, size := range sizes {
		label := func(design string) string { return fmt.Sprintf("%s/%d", design, size) }
		entries := sim.BTBWithEntries(size)
		vs = append(vs,
			vary(label("btb"), cpu.DefaultConfig(), func(c *cpu.Config) { c.Frontend.BTB = entries }),
			vary(label("btb+state"), cpu.DefaultConfig(),
				func(c *cpu.Config) { c.Frontend.BTB = sim.AugmentedBTB(entries, sbbBits) }),
			vary(label("btb+sbb"), cpu.SkiaConfig(), func(c *cpu.Config) { c.Frontend.BTB = entries }))
	}
	inf := len(vs)
	vs = append(vs, vary("infinite", cpu.DefaultConfig(), func(c *cpu.Config) { c.Frontend.BTB.Infinite = true }))
	s, err := o.sweep(o.benchmarks(), vs...)
	if err != nil {
		return nil, err
	}
	tb := stats.NewTable("btb_entries", "btb", "btb+state", "btb+sbb", "infinite").
		SetUnits(stats.UnitNone, stats.UnitSpeedup, stats.UnitSpeedup, stats.UnitSpeedup, stats.UnitSpeedup)
	rep := &Report{ID: "fig3", Title: "Geomean speedup vs 4K-entry BTB across designs", Table: tb}
	for i, size := range sizes {
		tb.AddCells(cStr(fmt.Sprintf("%d", size)),
			cPct(s.gain(3*i)), cPct(s.gain(3*i+1)), cPct(s.gain(3*i+2)), cPct(s.gain(inf)))
	}
	// Shape check at 8K: sbb > state > plain.
	var s8, st8, p8 float64
	if i := slices.Index(sizes, 8192); i >= 0 {
		s8, st8, p8 = s.gain(3*i+2), s.gain(3*i+1), s.gain(3*i)
	}
	rep.Notes = append(rep.Notes, fmt.Sprintf(
		"shape at 8K: skia %s vs btb+state %s vs btb %s (paper: skia beats equal-state BTB until saturation)",
		pct(s8), pct(st8), pct(p8)))
	return s.report(rep), nil
}

// Fig6 reproduces Figure 6: BTB misses by branch type per benchmark at
// the 8K-entry baseline.
func Fig6(o Options) (*Report, error) {
	s, err := o.sweep(o.benchmarks(), baseline())
	if err != nil {
		return nil, err
	}
	tb := stats.NewTable("benchmark", "total_mpki", "cond%", "uncond%", "call%", "return%", "indirect%").
		SetUnits(stats.UnitNone, stats.UnitMPKI, stats.UnitFrac, stats.UnitFrac,
			stats.UnitFrac, stats.UnitFrac, stats.UnitFrac)
	rep := &Report{ID: "fig6", Title: "BTB misses by branch type (8K BTB)", Table: tb}
	for i, b := range s.benches {
		res := s.res[0][i]
		fe := res.FE
		tot := float64(fe.BTBMissTotal())
		pc := func(v uint64) stats.Cell {
			if tot == 0 {
				return cPct(0)
			}
			return cPct(float64(v) / tot)
		}
		tb.AddCells(cStr(b), cF2(res.BTBMissMPKI),
			pc(fe.BTBMissCond), pc(fe.BTBMissUncond), pc(fe.BTBMissCall),
			pc(fe.BTBMissReturn), pc(fe.BTBMissIndirect))
	}
	rep.Notes = append(rep.Notes,
		"paper: indirect misses are a vanishing fraction everywhere; direct types dominate")
	return s.report(rep), nil
}

// Fig13 reproduces Figure 13: simulated L1-I MPKI against the
// real-system MPKI the paper measured with VTune (stored per profile).
func Fig13(o Options) (*Report, error) {
	s, err := o.sweep(o.benchmarks(), baseline())
	if err != nil {
		return nil, err
	}
	tb := stats.NewTable("benchmark", "target_mpki", "simulated_mpki", "diff").
		SetUnits(stats.UnitNone, stats.UnitMPKI, stats.UnitMPKI, stats.UnitFrac)
	rep := &Report{ID: "fig13", Title: "L1-I MPKI: reference target vs simulation", Table: tb}
	var totT, totS float64
	for i, b := range s.benches {
		w, err := s.r.Workload(b)
		if err != nil {
			return nil, err
		}
		target := w.Profile.L1IMPKITarget
		got := s.res[0][i].L1IMPKI
		totT += target
		totS += got
		diff := 0.0
		if target > 0 {
			diff = (got - target) / target
		}
		tb.AddCells(cStr(b), cF2(target), cF2(got), cPct(diff))
	}
	rep.Notes = append(rep.Notes, fmt.Sprintf(
		"aggregate difference %s (paper reports <18%% between real system and gem5)",
		pct(math.Abs(totS-totT)/totT)))
	return s.report(rep), nil
}

// fig14Variants are Figure 14's designs: the baseline, then Skia with
// head-only, tail-only and combined shadow decoding.
func fig14Variants() []variant {
	sbd := func(label string, head, tail bool) variant {
		return vary(label, cpu.SkiaConfig(), func(c *cpu.Config) { c.Frontend.SBD.Head, c.Frontend.SBD.Tail = head, tail })
	}
	return []variant{baseline(), sbd("head", true, false), sbd("tail", false, true), sbd("both", true, true)}
}

// Fig14 reproduces Figure 14: per-benchmark IPC gain over the 8K-BTB
// baseline for head-only, tail-only, and combined shadow decoding, with
// the geomean row the paper quotes (5.64% combined; 3.68% head; 4.39%
// tail).
func Fig14(o Options) (*Report, error) {
	s, err := o.sweep(o.benchmarks(), fig14Variants()...)
	if err != nil {
		return nil, err
	}
	return fig14Report(s), nil
}

// fig14Report renders a sweep of fig14Variants.
func fig14Report(s *sweep) *Report {
	tb := stats.NewTable("benchmark", "head", "tail", "both").
		SetUnits(stats.UnitNone, stats.UnitSpeedup, stats.UnitSpeedup, stats.UnitSpeedup)
	rep := &Report{ID: "fig14", Title: "IPC gain over 8K-BTB baseline by shadow-decode variant", Table: tb}
	for i, b := range s.benches {
		base := s.res[0][i].IPC
		tb.AddCells(cStr(b),
			cPct(stats.Speedup(s.res[1][i].IPC, base)),
			cPct(stats.Speedup(s.res[2][i].IPC, base)),
			cPct(stats.Speedup(s.res[3][i].IPC, base)))
	}
	gh, gt, gb := s.gain(1), s.gain(2), s.gain(3)
	tb.AddCells(cStr("GEOMEAN"), cPct(gh), cPct(gt), cPct(gb))
	rep.Notes = append(rep.Notes, fmt.Sprintf(
		"paper geomeans: head +3.68%%, tail +4.39%%, both +5.64%%; measured head %s, tail %s, both %s",
		pct(gh), pct(gt), pct(gb)))
	return s.report(rep)
}

// Fig15 reproduces Figure 15: per-benchmark BTB-miss MPKI split by
// whether the missing branch's line was L1-I resident.
func Fig15(o Options) (*Report, error) {
	s, err := o.sweep(o.benchmarks(), baseline())
	if err != nil {
		return nil, err
	}
	tb := stats.NewTable("benchmark", "miss_l1i_hit_mpki", "miss_l1i_miss_mpki", "hit_frac").
		SetUnits(stats.UnitNone, stats.UnitMPKI, stats.UnitMPKI, stats.UnitFrac)
	rep := &Report{ID: "fig15", Title: "BTB misses with L1-I hit vs miss (8K BTB)", Table: tb}
	for i, b := range s.benches {
		res := s.res[0][i]
		hit := stats.MPKI(res.FE.BTBMissL1IHit, res.Instructions)
		miss := res.BTBMissMPKI - hit
		tb.AddCells(cStr(b), cF2(hit), cF2(miss), cPct(res.BTBMissL1IHitFrac))
	}
	return s.report(rep), nil
}

// Fig16 reproduces Figure 16: BTB miss MPKI for the baseline, for a BTB
// grown by the SBB budget, and for Skia (misses still unserved after
// the SBB).
func Fig16(o Options) (*Report, error) {
	sbbBits := core.DefaultSBBConfig().StorageBits()
	s, err := o.sweep(o.benchmarks(), baseline(),
		vary("btb+state", cpu.DefaultConfig(),
			func(c *cpu.Config) { c.Frontend.BTB = sim.AugmentedBTB(c.Frontend.BTB, sbbBits) }),
		skia())
	if err != nil {
		return nil, err
	}
	tb := stats.NewTable("benchmark", "baseline_mpki", "btb+state_mpki", "skia_effective_mpki").
		SetUnits(stats.UnitNone, stats.UnitMPKI, stats.UnitMPKI, stats.UnitMPKI)
	rep := &Report{ID: "fig16", Title: "BTB miss MPKI: baseline vs equal-state BTB vs Skia", Table: tb}
	var redState, redSkia []float64
	for i, b := range s.benches {
		base := s.res[0][i].BTBMissMPKI
		state := s.res[1][i].BTBMissMPKI
		skia := s.res[2][i].EffectiveMissMPKI
		tb.AddCells(cStr(b), cF2(base), cF2(state), cF2(skia))
		if base > 0 {
			redState = append(redState, (base-state)/base)
			redSkia = append(redSkia, (base-skia)/base)
		}
	}
	rep.Notes = append(rep.Notes, fmt.Sprintf(
		"mean reduction: btb+state %s, skia %s (paper: Skia reduces far more than equal-state BTB)",
		pct(stats.Mean(redState)), pct(stats.Mean(redSkia))))
	return s.report(rep), nil
}

// Fig17Splits are the U-SBB budget fractions swept by the Figure 17
// top chart.
var Fig17Splits = []float64{0, 0.25, 0.5, 0.62, 0.75, 1.0}

// Fig17Scales are the total-budget multipliers swept by the Figure 17
// bottom chart.
var Fig17Scales = []float64{0.25, 0.5, 1, 2, 4}

// Fig17 reproduces Figure 17: top, performance across U/R budget splits
// at the constant 12.25KB-class budget; bottom, scaling the total
// budget at the paper's 768:2024 entry ratio.
func Fig17(o Options) (*Report, error) {
	def := core.DefaultSBBConfig()
	budget := def.StorageBits()
	const uBits, rBits = 82, 19

	// One Skia variant per table row, splits then scales, after the
	// baseline.
	type row struct {
		sweep, config string
		sbb           core.SBBConfig
	}
	var rows []row
	vs := []variant{baseline()}
	add := func(sweep, config, label string, sbb core.SBBConfig) {
		rows = append(rows, row{sweep, config, sbb})
		vs = append(vs, vary(label, cpu.SkiaConfig(), func(c *cpu.Config) { c.Frontend.SBB = sbb }))
	}
	for _, frac := range Fig17Splits {
		cfg := def
		cfg.UEntries = int(frac*float64(budget)/uBits) / cfg.UWays * cfg.UWays
		cfg.REntries = int((1-frac)*float64(budget)/rBits) / cfg.RWays * cfg.RWays
		add("split", fmt.Sprintf("U=%.0f%%", frac*100), fmt.Sprintf("split %.2f", frac), cfg)
	}
	for _, scale := range Fig17Scales {
		cfg := def
		cfg.UEntries = int(scale*float64(def.UEntries)) / cfg.UWays * cfg.UWays
		cfg.REntries = int(scale*float64(def.REntries)) / cfg.RWays * cfg.RWays
		add("scale", fmt.Sprintf("%.2fx", scale), fmt.Sprintf("scale %.2f", scale), cfg)
	}
	s, err := o.sweep(o.benchmarks(), vs...)
	if err != nil {
		return nil, err
	}

	tb := stats.NewTable("sweep", "config", "u_entries", "r_entries", "size_kb", "geomean_speedup").
		SetUnits(stats.UnitNone, stats.UnitNone, stats.UnitCount, stats.UnitCount,
			stats.UnitKB, stats.UnitSpeedup)
	rep := &Report{ID: "fig17", Title: "SBB sensitivity: U/R split at fixed budget; total-size scaling", Table: tb}
	var bestSplit float64
	var bestSplitGain = math.Inf(-1)
	for i, rw := range rows {
		g := s.gain(1 + i)
		if i < len(Fig17Splits) && g > bestSplitGain {
			bestSplitGain, bestSplit = g, Fig17Splits[i]
		}
		tb.AddCells(cStr(rw.sweep), cStr(rw.config),
			cInt(rw.sbb.UEntries), cInt(rw.sbb.REntries),
			cF2(float64(rw.sbb.StorageBits())/8/1024), cPct(g))
	}
	rep.Notes = append(rep.Notes, fmt.Sprintf(
		"best split keeps both buffers populated (paper picks 768U/2024R); measured best U fraction %.0f%%",
		bestSplit*100))
	return s.report(rep), nil
}

// Fig18 reproduces Figure 18: per-benchmark reduction in decoder idle
// cycles with Skia versus the baseline.
func Fig18(o Options) (*Report, error) {
	s, err := o.sweep(o.benchmarks(), baseline(), skia())
	if err != nil {
		return nil, err
	}
	tb := stats.NewTable("benchmark", "baseline_idle_frac", "skia_idle_frac", "idle_reduction").
		SetUnits(stats.UnitNone, stats.UnitFrac, stats.UnitFrac, stats.UnitSpeedup)
	rep := &Report{ID: "fig18", Title: "Decoder idle-cycle reduction with Skia (8K BTB)", Table: tb}
	var reds []float64
	for i, b := range s.benches {
		base, skia := s.res[0][i], s.res[1][i]
		// Compare idle cycles normalized per retired instruction so
		// the total-cycle change does not distort the comparison.
		bi := float64(base.FE.DecodeIdleCycles) / float64(base.Instructions)
		si := float64(skia.FE.DecodeIdleCycles) / float64(skia.Instructions)
		red := 0.0
		if bi > 0 {
			red = (bi - si) / bi
		}
		reds = append(reds, red)
		tb.AddCells(cStr(b), cF3(base.DecodeIdleFrac), cF3(skia.DecodeIdleFrac), cPct(red))
	}
	rep.Notes = append(rep.Notes, fmt.Sprintf(
		"mean idle reduction %s; paper: voter and sibench show the largest reductions",
		pct(stats.Mean(reds))))
	return s.report(rep), nil
}
