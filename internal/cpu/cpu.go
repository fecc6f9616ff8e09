// Package cpu assembles the whole simulated core: the decoupled FDIP
// front-end (internal/frontend) feeding a backend model with a
// reorder-buffer occupancy limit and a retire width. For the
// front-end-bound workloads the paper studies, IPC is set by how well
// the front-end keeps the decoder fed — which is exactly the quantity
// Skia improves — so the backend is deliberately simple: it retires up
// to RetireWidth instructions per cycle from a ROB the decoder fills.
package cpu

import (
	"fmt"

	"repro/internal/attrib"
	"repro/internal/btb"
	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/frontend"
	"repro/internal/ittage"
	"repro/internal/metrics"
	"repro/internal/stats"
	"repro/internal/tage"
	"repro/internal/workload"
)

// Config parameterizes a core.
type Config struct {
	// Frontend configures the decoupled front-end.
	Frontend frontend.Config
	// RetireWidth is instructions retired per cycle (Table 1: 12).
	RetireWidth int
	// ROBSize bounds in-flight instructions (Table 1: 512).
	ROBSize int
}

// DefaultConfig is the paper's baseline core without Skia.
func DefaultConfig() Config {
	return Config{
		Frontend:    frontend.DefaultConfig(),
		RetireWidth: 12,
		ROBSize:     512,
	}
}

// SkiaConfig is the baseline plus the default Skia front-end.
func SkiaConfig() Config {
	c := DefaultConfig()
	c.Frontend = frontend.SkiaConfig()
	return c
}

// Result is the outcome of one simulation window.
type Result struct {
	Benchmark    string
	Cycles       uint64
	Instructions uint64
	IPC          float64

	FE     frontend.Stats
	L1I    cache.Stats
	L2     cache.Stats
	BTB    btb.Stats
	TAGE   tage.Stats
	ITTAGE ittage.Stats
	SBB    core.SBBStats
	SBD    core.SBDStats

	// BTBMissMPKI counts taken branches unidentified by the BTB per
	// kilo-instruction (SBB-covered ones included: they are still BTB
	// misses).
	BTBMissMPKI float64
	// EffectiveMissMPKI subtracts SBB-covered misses: the misses that
	// still cost a re-steer.
	EffectiveMissMPKI float64
	// L1IMPKI counts FDIP prefetch fills per kilo-instruction: the
	// demand-miss rate a non-prefetching cache would expose.
	L1IMPKI float64
	// BTBMissL1IHitFrac is the fraction of BTB misses whose line was
	// already L1-I resident (the shadow opportunity).
	BTBMissL1IHitFrac float64
	// DecodeIdleFrac is the fraction of cycles the decoder idled.
	DecodeIdleFrac float64
	// CondMPKI is conditional direction mispredictions per kilo-inst.
	CondMPKI float64
}

// Core is one simulated CPU. Not safe for concurrent use.
type Core struct {
	cfg Config
	fe  *frontend.FrontEnd

	cycles  uint64
	retired uint64
	rob     int

	// coll, when non-nil, receives interval samples as retirement
	// crosses each boundary; the run loop nil-checks it once per cycle,
	// so a detached collector costs one comparison.
	//skia:shared-ok observability attachment: Clone's contract is that clones start uncollected and callers attach their own
	coll *metrics.Collector
}

// New builds a core over a workload. The front-end's re-steer penalties
// are widened by the BTB's size-dependent access latency (the cacti
// adjustment from Section 5.1).
func New(cfg Config, w *workload.Workload) (*Core, error) {
	extra := BTBAccessLatency(cfg.Frontend.BTB) - BTBAccessLatency(btb.DefaultConfig())
	if extra > 0 {
		cfg.Frontend.DecodeResteerPenalty += extra
		cfg.Frontend.ExecResteerPenalty += extra
	}
	fe, err := frontend.New(cfg.Frontend, w)
	if err != nil {
		return nil, fmt.Errorf("cpu: %w", err)
	}
	if cfg.RetireWidth <= 0 || cfg.ROBSize <= 0 {
		return nil, fmt.Errorf("cpu: non-positive backend geometry %d/%d", cfg.RetireWidth, cfg.ROBSize)
	}
	return &Core{cfg: cfg, fe: fe}, nil
}

// Frontend exposes the front-end for inspection.
func (c *Core) Frontend() *frontend.FrontEnd { return c.fe }

// Clone returns an independent deep copy of the core: full front-end
// state (see frontend.Clone), backend occupancy, and window counters.
// The clone carries the latency-adjusted config New derived, so clones
// of clones stay consistent. Observability attachments (collector,
// tracer, attribution) do not carry over; callers attach their own.
func (c *Core) Clone() *Core {
	return &Core{
		cfg:     c.cfg,
		fe:      c.fe.Clone(),
		cycles:  c.cycles,
		retired: c.retired,
		rob:     c.rob,
	}
}

// FastForward functionally advances the true path by up to n
// instructions (emulator only — no cycles, no predictor or cache
// training) and squashes the in-flight pipeline, including the ROB
// contents, mirroring the front-end's deep-resteer resync. Skipped
// instructions do not count as retired; window counters are unchanged.
// It returns the number of instructions skipped (short only on halt).
func (c *Core) FastForward(n uint64) uint64 {
	c.rob = 0
	return c.fe.FastForward(n)
}

// FastForwardWarm is FastForward with functional warming: predictors
// and instruction caches are trained on the skipped true path (see
// frontend.FastForwardWarm). Skipped instructions still do not count as
// retired.
func (c *Core) FastForwardWarm(n uint64) uint64 {
	c.rob = 0
	return c.fe.FastForwardWarm(n)
}

// Cycles returns the cycles simulated since the last ResetStats.
func (c *Core) Cycles() uint64 { return c.cycles }

// Retired returns the instructions retired since the last ResetStats.
func (c *Core) Retired() uint64 { return c.retired }

// Run simulates until at least n more instructions retire or the
// workload ends. It returns the instructions retired during this call.
func (c *Core) Run(n uint64) uint64 {
	target := c.retired + n
	for c.retired < target && !c.fe.Done() {
		c.cycles++
		// Retire from the ROB.
		r := c.cfg.RetireWidth
		if r > c.rob {
			r = c.rob
		}
		c.rob -= r
		c.retired += uint64(r)
		// Decode into the ROB, bounded by free space.
		space := c.cfg.ROBSize - c.rob
		c.rob += c.fe.Step(space)
		if c.coll != nil && c.retired >= c.coll.Next() {
			c.coll.Record(c.Sample())
		}
	}
	return c.retired - (target - n)
}

// AttachCollector points interval collection at col (nil detaches),
// resetting its baseline to the core's current counters so intervals
// measure from the attachment point — typically the warmup boundary.
func (c *Core) AttachCollector(col *metrics.Collector) {
	c.coll = col
	if col != nil {
		col.Reset(c.Sample())
	}
}

// SetTracer attaches (or detaches, with nil) a front-end event tracer.
func (c *Core) SetTracer(t metrics.Tracer) { c.fe.SetTracer(t) }

// AttachAttribution attaches (or detaches, with nil) a miss-attribution
// engine to the front-end. Attach after warmup (alongside ResetStats)
// so the taxonomy covers the measurement window only.
func (c *Core) AttachAttribution(e *attrib.Engine) { c.fe.SetAttribution(e) }

// Sample snapshots the cumulative counters the interval collector
// differences: cycles, instructions, and the front-end and cache
// events the timeseries rows derive their rates from.
func (c *Core) Sample() metrics.Sample {
	fe := c.fe.Stats()
	l1 := c.fe.L1I().Stats()
	l2 := c.fe.L2().Stats()
	return metrics.Sample{
		Cycles:                  c.cycles,
		Instructions:            c.retired,
		BTBMisses:               fe.BTBMissTotal(),
		SBBCovered:              fe.SBBCoveredTotal(),
		DecodeResteers:          fe.DecodeResteers,
		ExecResteers:            fe.ExecResteers,
		CondMispredicts:         fe.CondMispredicts,
		DecodeIdleCycles:        fe.DecodeIdleCycles,
		DecodeIdleFetchCycles:   fe.DecodeIdleFetchCycles,
		DecodeIdleResteerCycles: fe.DecodeIdleResteerCycles,
		L1IHits:                 l1.DemandHits + l1.PrefetchHits,
		L1IMisses:               l1.DemandMisses + l1.PrefetchFills,
		L2Hits:                  l2.DemandHits + l2.PrefetchHits,
		L2Misses:                l2.DemandMisses + l2.PrefetchFills,
	}
}

// ResetStats starts a fresh measurement window (the warmup boundary):
// all statistics reset, all learned microarchitectural state kept.
func (c *Core) ResetStats() {
	c.fe.ResetStats()
	c.cycles = 0
	c.retired = 0
	if c.coll != nil {
		c.coll.Reset(c.Sample())
	}
}

// Result snapshots the current measurement window.
func (c *Core) Result(benchmark string) Result {
	fe := c.fe.Stats()
	res := Result{
		Benchmark:    benchmark,
		Cycles:       c.cycles,
		Instructions: c.retired,
		IPC:          stats.IPC(c.retired, c.cycles),
		FE:           fe,
		L1I:          c.fe.L1I().Stats(),
		L2:           c.fe.L2().Stats(),
		BTB:          c.fe.BTB().Stats(),
		TAGE:         c.fe.TAGE().Stats(),
		ITTAGE:       c.fe.ITTAGE().Stats(),
	}
	if sbb := c.fe.SBB(); sbb != nil {
		res.SBB = sbb.Stats()
	}
	if sbd := c.fe.SBD(); sbd != nil {
		res.SBD = sbd.Stats()
	}
	res.Derive()
	return res
}

// Derive recomputes every derived metric (IPC, the MPKI family, the
// idle and residency fractions) from the raw counters. Core.Result
// calls it on fresh snapshots; sampled simulation (internal/sim) calls
// it after summing the counters of several measurement intervals, so
// point estimates are ratios of summed counters rather than means of
// per-interval ratios.
func (r *Result) Derive() {
	r.IPC = stats.IPC(r.Instructions, r.Cycles)
	r.BTBMissMPKI = stats.MPKI(r.FE.BTBMissTotal(), r.Instructions)
	r.EffectiveMissMPKI = stats.MPKI(r.FE.BTBMissTotal()-r.FE.SBBCoveredTotal(), r.Instructions)
	r.L1IMPKI = stats.MPKI(r.L1I.PrefetchFills, r.Instructions)
	r.BTBMissL1IHitFrac = 0
	if t := r.FE.BTBMissTotal(); t > 0 {
		r.BTBMissL1IHitFrac = float64(r.FE.BTBMissL1IHit) / float64(t)
	}
	r.DecodeIdleFrac = 0
	if r.Cycles > 0 {
		r.DecodeIdleFrac = float64(r.FE.DecodeIdleCycles) / float64(r.Cycles)
	}
	r.CondMPKI = stats.MPKI(r.FE.CondMispredicts, r.Instructions)
}

// BTBAccessLatency returns the approximate pipeline cycles to access a
// BTB of the given geometry, standing in for the paper's cacti-derived
// latency scaling: small BTBs fit a single cycle; every quadrupling
// past 8K entries costs another cycle.
func BTBAccessLatency(cfg btb.Config) int {
	if cfg.Infinite {
		return 1
	}
	lat := 1
	for e := cfg.Entries; e > 8192; e /= 4 {
		lat++
	}
	return lat
}
