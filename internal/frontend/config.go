// Package frontend models the decoupled FDIP front-end the paper
// targets (Figure 4): an Instruction Address Generator (IAG) driven by
// the BPU (BTB + TAGE-SC-L + ITTAGE + RAS — and, with Skia enabled, the
// SBB probed in parallel with the BTB), feeding predicted basic blocks
// into a Fetch Target Queue whose entries prefetch the L1-I; a fetch
// stage gated by L1-I residency; and a decode stage that verifies the
// predicted stream against the architecturally executed one, raising
// early (decode) re-steers for branches whose targets are computable at
// decode and late (execute) re-steers for direction and indirect-target
// mispredictions.
//
// The model is execution-driven in the way the paper requires: between
// a misprediction and its resolution the IAG keeps following its wrong
// path, and the prefetches it issues pollute the L1-I.
//
// Observers see the front end through one stream of metrics.Event
// values: every observation site (re-steers, BTB misses, SBB hits,
// inserts and evictions, shadow regions, stall cycles, FTQ samples)
// makes a single emit, which fans out to the attached ring tracer and
// attribution engine and costs one comparison when neither is attached.
package frontend

import (
	"repro/internal/btb"
	"repro/internal/core"
	"repro/internal/ittage"
	"repro/internal/tage"
)

// Config parameterizes the front-end. Defaults follow the paper's
// Table 1 (Alder-Lake-like core).
type Config struct {
	// FTQDepth is the Fetch Target Queue depth in basic blocks.
	FTQDepth int
	// DecodeWidth is the instructions decoded per cycle.
	DecodeWidth int
	// MaxBlockLines caps how many sequential cache lines one predicted
	// basic block may span before the IAG cuts a fall-through block.
	MaxBlockLines int

	// L1ISize and L1IWays size the instruction cache (32KB, 8-way).
	L1ISize, L1IWays int
	// L2Size and L2Ways size the unified L2 the instruction path fills
	// from (Table 1: 1MB, 16-way; only its instruction traffic is
	// modeled).
	L2Size, L2Ways int
	// L1IMissLatency is the fill latency, in cycles, for a prefetch or
	// fetch that misses the L1-I but hits the L2.
	L1IMissLatency int
	// L2MissLatency is the fill latency when the line misses the L2 as
	// well (an L3 hit; Table 1's shared L3).
	L2MissLatency int
	// FetchLatency is the pipeline latency from FTQ head to decode for
	// a resident block.
	FetchLatency int

	// DecodeResteerPenalty is the bubble, in cycles, for an early
	// re-steer raised at decode (paper Figure 7: repair plus refill).
	DecodeResteerPenalty int
	// ExecResteerPenalty is the bubble for a late re-steer raised at
	// execute (direction or indirect-target misprediction). The IAG
	// runs down the wrong path for this window.
	ExecResteerPenalty int

	// RASDepth is the return address stack depth.
	RASDepth int

	// BTB, TAGE, and ITTAGE configure the BPU structures.
	BTB    btb.Config
	TAGE   tage.Config
	ITTAGE ittage.Config

	// Skia enables the Shadow Branch Decoder and Shadow Branch Buffer.
	Skia bool
	// SBD and SBB configure Skia when enabled.
	SBD core.SBDConfig
	SBB core.SBBConfig
	// SBDToBTB is the ablation the paper argues against (Section 4.2):
	// the shadow decoder inserts straight into the BTB instead of the
	// parallel SBB, consuming BTB capacity and risking pollution by
	// bogus branches.
	SBDToBTB bool

	// NoDecodeCache disables the simulator-side memoization of shadow
	// decodes (see core.DecodeCache). The cache is a pure throughput
	// optimization — results and statistics are identical either way —
	// so the zero value keeps it on; the flag exists for differential
	// testing and perf comparison.
	NoDecodeCache bool
}

// DefaultConfig returns the paper's baseline (Table 1) without Skia.
func DefaultConfig() Config {
	return Config{
		FTQDepth:             24,
		DecodeWidth:          12,
		MaxBlockLines:        2,
		L1ISize:              32 * 1024,
		L1IWays:              8,
		L2Size:               1024 * 1024,
		L2Ways:               16,
		L1IMissLatency:       14,
		L2MissLatency:        40,
		FetchLatency:         2,
		DecodeResteerPenalty: 8,
		ExecResteerPenalty:   18,
		RASDepth:             64,
		BTB:                  btb.DefaultConfig(),
		TAGE:                 tage.DefaultConfig(),
		ITTAGE:               ittage.DefaultConfig(),
		SBD:                  core.DefaultSBDConfig(),
		SBB:                  core.DefaultSBBConfig(),
	}
}

// SkiaConfig returns the paper's Skia configuration: the baseline plus
// the default 12.25KB-class SBB and both shadow decoders.
func SkiaConfig() Config {
	c := DefaultConfig()
	c.Skia = true
	return c
}

// Stats aggregates every front-end event the evaluation needs.
type Stats struct {
	// Blocks and WrongPathBlocks count FTQ entries created on the
	// eventually-true and wrong paths.
	Blocks          uint64
	WrongPathBlocks uint64

	// Decoded counts true-path instructions delivered to the backend.
	Decoded uint64
	// DecodeIdleCycles counts cycles the decoder had nothing to do:
	// split by cause between fetch starvation and re-steer repair.
	DecodeIdleCycles        uint64
	DecodeIdleFetchCycles   uint64
	DecodeIdleResteerCycles uint64

	// Resteers by stage.
	DecodeResteers uint64
	ExecResteers   uint64

	// BTB misses discovered on taken true-path branches, by class.
	BTBMissCond     uint64
	BTBMissUncond   uint64
	BTBMissCall     uint64
	BTBMissReturn   uint64
	BTBMissIndirect uint64
	// BTBMissL1IHit counts BTB misses whose cache line was already
	// L1-I-resident when the block fetching it was formed (the shadow
	// opportunity, Figures 1 and 15).
	BTBMissL1IHit uint64

	// SBBCovered counts taken branches the BTB missed but the SBB
	// identified, so no re-steer was needed, by buffer.
	SBBCoveredU uint64
	SBBCoveredR uint64

	// Mispredictions resolved at execute.
	CondMispredicts     uint64
	IndirectMispredicts uint64
	ReturnMispredicts   uint64
	// StaleBTBTarget counts direct branches whose BTB entry held a
	// wrong target (aliasing or code reuse), fixed at decode.
	StaleBTBTarget uint64
	// PhantomBranches counts predicted-taken terminators that turned
	// out not to be taken branches on the true path (BTB aliases or
	// bogus SBB entries).
	PhantomBranches uint64
	// BogusSBBUsed counts phantoms traced to SBB-supplied entries.
	BogusSBBUsed uint64

	// SBDBogusInserts counts SBB inserts whose PC is not a true
	// instruction boundary or not the claimed branch (oracle-checked;
	// the hardware cannot observe this directly).
	SBDBogusInserts uint64
	// SBDInserts counts all SBB inserts issued by the SBD.
	SBDInserts uint64

	// TakenBranches counts true-path taken branches seen at decode.
	TakenBranches uint64

	// ForcedResyncs counts safety-valve resyncs after implausibly long
	// decoder starvation; nonzero values indicate a modeling bug.
	ForcedResyncs uint64
}

// BTBMissTotal sums the per-class BTB miss counters.
func (s Stats) BTBMissTotal() uint64 {
	return s.BTBMissCond + s.BTBMissUncond + s.BTBMissCall + s.BTBMissReturn + s.BTBMissIndirect
}

// SBBCoveredTotal sums SBB coverage over both buffers.
func (s Stats) SBBCoveredTotal() uint64 { return s.SBBCoveredU + s.SBBCoveredR }
