// Shadowdecode walks the Shadow Branch Decoder through hand-built cache
// lines, reproducing the paper's worked examples: Figure 8's ambiguous
// Head region (two decodings that merge), Figure 9's Index Computation
// and Path Validation phases, and Figure 10's unambiguous Tail decode.
// It closes with a live run of the miss-attribution engine, measuring
// the paper's Figures 1-2 observation — what fraction of BTB misses
// were already resident in L1-I shadow bytes, split Head vs Tail — on
// a simulated workload (the same numbers `skiasim -bench voter -skia
// -attrib` prints).
//
//	go run ./examples/shadowdecode
package main

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/isa"
	"repro/internal/program"
	"repro/internal/sim"
)

func dump(label string, line []byte, n int) {
	fmt.Printf("%s bytes:", label)
	for i := 0; i < n; i++ {
		fmt.Printf(" %02x", line[i])
	}
	fmt.Println()
}

func main() {
	const base = 0x40_0000

	// --- Figure 8: ambiguity with merging paths -------------------------
	fmt.Println("== Head ambiguity (paper Figure 8) ==")
	line := make([]byte, program.LineSize)
	line[0] = 0xB0 // movi r0, imm8 — consumes byte 1...
	line[1] = 0xC3 // ...which, decoded on its own, is a ret
	line[2] = 0xE9 // the real shadow branch: jmp rel32
	line[3], line[4], line[5], line[6] = 0x10, 0, 0, 0
	for i := 7; i < program.LineSize; i++ {
		line[i] = 0x90
	}
	dump("head", line, 7)
	fmt.Println("decoding from byte 0: movi(2B) -> jmp(5B) -> entry ✓")
	fmt.Println("decoding from byte 1: ret(1B)  -> jmp(5B) -> entry ✓ (merging path)")

	sbd := core.NewSBD(core.DefaultSBDConfig())
	found := sbd.DecodeHead(line, base, 7, nil)
	for _, sb := range found {
		fmt.Printf("extracted: %-14s at %#x target %#x\n", sb.Class, sb.PC, sb.Target)
	}
	fmt.Println("the bogus ret is uncorroborated and suppressed; the real jmp survives.")

	// --- Figure 9: index computation over a head region ----------------
	fmt.Println("\n== Index computation (paper Figure 9) ==")
	var a isa.Asm
	a.IncDec(5, false)  // 1 byte
	a.CallRel32(0x3_00) // 5 bytes
	a.Nop(2)            // bytes 6,7
	entry := a.Len()    // 8
	a.MovImm32(1, 42)   // the executed block
	head := make([]byte, program.LineSize)
	copy(head, a.Bytes())
	dump("head", head, entry)
	for off := 0; off < entry; off++ {
		fmt.Printf("  Length[%d] = %d\n", off, isa.LengthAt(head, off))
	}
	found = sbd.DecodeHead(head, base, entry, nil)
	for _, sb := range found {
		fmt.Printf("extracted: %-14s at +%d target %#x\n",
			sb.Class, sb.PC-base, sb.Target)
	}

	// --- Figure 10: tail decode -----------------------------------------
	fmt.Println("\n== Tail decode (paper Figure 10) ==")
	a.Reset()
	a.Nop(4)
	a.JmpRel32(0x200) // the executed exit at offset 4..8
	exit := a.Len()   // tail shadow starts at 9
	a.ALUReg(0, 1, 2)
	a.CallRel32(0x80)
	a.Ret()
	tail := make([]byte, program.LineSize)
	copy(tail, a.Bytes())
	for i := a.Len(); i < program.LineSize; i++ {
		tail[i] = 0x90
	}
	fmt.Printf("executed block exits at offset %d; decoding the tail:\n", exit)
	found = sbd.DecodeTail(tail, base, exit, nil)
	for _, sb := range found {
		fmt.Printf("extracted: %-14s at +%d target %#x\n", sb.Class, sb.PC-base, sb.Target)
	}
	fmt.Println("\ntail decoding is unambiguous: the exit branch's end fixes the start byte.")

	// --- Attribution: the Figure 1/2 observation, measured --------------
	fmt.Println("\n== Miss attribution (paper Figures 1-2) ==")
	r := sim.NewRunner()
	r.Attrib = true
	res, err := r.Run(sim.RunSpec{
		Benchmark: "voter", Config: cpu.SkiaConfig(),
		Warmup: 100_000, Measure: 300_000, Label: "skia",
	})
	if err != nil {
		panic(err)
	}
	at := res.Attribution
	fmt.Printf("BTB misses attributed: %d\n", at.BTBMisses)
	fmt.Printf("shadow-resident share: %.1f%% (head %.1f%% / tail %.1f%% still undecoded)\n",
		at.ShadowResidentShare*100, at.HeadShare*100, at.TailShare*100)
	for _, c := range at.Causes {
		if c.Count > 0 {
			fmt.Printf("  %-18s %6d (%.1f%%)\n", c.Cause, c.Count, c.Share*100)
		}
	}
	fmt.Println("the shadow-resident buckets (sbb-hit + shadow-head/tail + sbb-evicted)")
	fmt.Println("are the misses Skia can serve from bytes the L1-I already holds.")
}
