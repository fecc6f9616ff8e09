package core

import (
	"testing"

	"repro/internal/isa"
	"repro/internal/program"
)

// lineWith builds a 64-byte line from an assembler function, padding the
// remainder with single-byte NOPs, and returns the bytes.
func lineWith(emit func(a *isa.Asm)) []byte {
	var a isa.Asm
	emit(&a)
	for a.Len() < program.LineSize {
		a.Nop(1)
	}
	return a.Bytes()[:program.LineSize]
}

func newTestSBD() *SBD { return NewSBD(DefaultSBDConfig()) }

// newRawSBD disables corroboration so tests can observe the raw path
// mechanics, including uncorroborated first instructions and bogus
// prefix decodes.
func newRawSBD() *SBD {
	cfg := DefaultSBDConfig()
	cfg.RequireCorroboration = false
	return NewSBD(cfg)
}

func TestTailDecodeFindsBranches(t *testing.T) {
	// Layout: [8 bytes executed block ending in taken jmp][shadow tail:
	// call, ret, jmp].
	var callOff, retOff, jmpOff int
	line := lineWith(func(a *isa.Asm) {
		a.Nop(3)
		a.JmpRel32(100) // the exiting branch: ends at offset 8
		callOff = a.Len()
		a.CallRel32(0x40)
		retOff = a.Len()
		a.Ret()
		a.Nop(2)
		jmpOff = a.Len()
		a.JmpRel8(16)
	})
	d := newTestSBD()
	const base = 0x10000
	got := d.DecodeTail(line, base, 8, nil)
	if len(got) != 3 {
		t.Fatalf("found %d shadow branches, want 3: %+v", len(got), got)
	}
	wantPCs := []uint64{base + uint64(callOff), base + uint64(retOff), base + uint64(jmpOff)}
	wantCls := []isa.Class{isa.ClassCall, isa.ClassReturn, isa.ClassDirectUncond}
	for i, sb := range got {
		if sb.PC != wantPCs[i] || sb.Class != wantCls[i] {
			t.Errorf("branch %d = {pc %#x, %v}, want {pc %#x, %v}", i, sb.PC, sb.Class, wantPCs[i], wantCls[i])
		}
	}
	// The call's target must be decodable from PC+len+offset.
	if want := wantPCs[0] + 5 + 0x40; got[0].Target != want {
		t.Errorf("call target %#x, want %#x", got[0].Target, want)
	}
	// Returns carry no target.
	if got[1].Target != 0 {
		t.Errorf("return target should be 0, got %#x", got[1].Target)
	}
	if d.Stats().TailRegions != 1 || d.Stats().TailBranches != 3 {
		t.Errorf("stats %+v", d.Stats())
	}
}

func TestTailDecodeStopsAtInvalidByte(t *testing.T) {
	line := lineWith(func(a *isa.Asm) { a.Nop(4) })
	line[4] = 0x06  // undefined opcode
	line[10] = 0xC3 // a ret beyond the garbage must NOT be found
	d := newTestSBD()
	got := d.DecodeTail(line, 0, 4, nil)
	if len(got) != 0 {
		t.Errorf("decoded past invalid byte: %+v", got)
	}
}

func TestTailDecodeIgnoresConditionals(t *testing.T) {
	line := lineWith(func(a *isa.Asm) {
		a.Nop(2)
		a.JccRel8(3, 10) // conditionals are not shadow-eligible
		a.Ret()
	})
	d := newTestSBD()
	got := d.DecodeTail(line, 0, 2, nil)
	if len(got) != 1 || got[0].Class != isa.ClassReturn {
		t.Errorf("got %+v, want just the return", got)
	}
}

func TestTailDisabled(t *testing.T) {
	cfg := DefaultSBDConfig()
	cfg.Tail = false
	d := NewSBD(cfg)
	line := lineWith(func(a *isa.Asm) { a.Ret() })
	if got := d.DecodeTail(line, 0, 0, nil); got != nil {
		t.Errorf("disabled tail decoder returned %+v", got)
	}
}

func TestTailBadOffsets(t *testing.T) {
	d := newTestSBD()
	line := lineWith(func(a *isa.Asm) { a.Nop(1) })
	if got := d.DecodeTail(line, 0, -1, nil); got != nil {
		t.Error("negative offset should decode nothing")
	}
	if got := d.DecodeTail(line, 0, 64, nil); got != nil {
		t.Error("offset at line end should decode nothing")
	}
}

func TestHeadDecodeSimple(t *testing.T) {
	// Head region [0,8): ret at 0, call at 1 (5 bytes), nop, nop; entry
	// at 8. The true chain 0→1→6→7→8 is the only valid path family.
	var line []byte
	line = lineWith(func(a *isa.Asm) {
		a.Ret()           // 0
		a.CallRel32(0x20) // 1..5
		a.Nop(2)          // 6,7 (one 2-byte nop)
		a.MovImm32(1, 9)  // entry block at 8
	})
	d := newRawSBD()
	got := d.DecodeHead(line, 0x2000, 8, nil)
	if len(got) != 2 {
		t.Fatalf("got %d branches, want ret+call: %+v", len(got), got)
	}
	if got[0].Class != isa.ClassReturn || got[0].PC != 0x2000 {
		t.Errorf("first = %+v", got[0])
	}
	if got[1].Class != isa.ClassCall || got[1].PC != 0x2001 {
		t.Errorf("second = %+v", got[1])
	}
}

func TestHeadDecodeZeroEntryOffset(t *testing.T) {
	d := newTestSBD()
	line := lineWith(func(a *isa.Asm) { a.Nop(4) })
	if got := d.DecodeHead(line, 0, 0, nil); got != nil {
		t.Errorf("no head region should decode nothing, got %+v", got)
	}
	if d.Stats().HeadRegions != 0 {
		t.Error("empty region counted")
	}
}

func TestHeadDecodeSuffixPathsAreOneFamily(t *testing.T) {
	// Ten 1-byte NOPs before the entry: every start index begins a
	// valid path, but all of them merge into the chain from byte 0, so
	// they count as ONE path family and the region is decoded, not
	// discarded. (Counting suffixes would discard every head region
	// containing more than six real instructions.)
	line := lineWith(func(a *isa.Asm) {
		for i := 0; i < 9; i++ {
			a.Nop(1)
		}
		a.Ret() // shadow return at offset 9
		a.MovImm32(1, 5)
	})
	d := newTestSBD()
	got := d.DecodeHead(line, 0, 10, nil)
	if len(got) != 1 || got[0].Class != isa.ClassReturn || got[0].PC != 9 {
		t.Errorf("got %+v, want the shadow return at 9", got)
	}
	if d.Stats().HeadDiscarded != 0 {
		t.Errorf("one-family region discarded: %+v", d.Stats())
	}
}

func TestHeadDecodePathCapDiscards(t *testing.T) {
	// Two disjoint path families:
	//   family A: ret@0 (1B) -> 4-byte prefixed nop@1 -> entry 5
	//   family B: 3-byte nop@2 -> entry 5
	// With MaxValidPaths=1 the region must be discarded; with the
	// default cap it decodes.
	line := make([]byte, program.LineSize)
	line[0] = 0xC3                                              // ret
	line[1], line[2], line[3], line[4] = 0x66, 0x0F, 0x1F, 0xC0 // 4-byte nop
	for i := 5; i < 64; i++ {
		line[i] = 0x90
	}
	// Confirm family B exists: bytes 2..4 decode as a 3-byte nop.
	if isa.LengthAt(line, 2) != 3 {
		t.Fatal("test construction broken: offset 2 should be a 3-byte nop")
	}

	cfg := DefaultSBDConfig()
	cfg.MaxValidPaths = 1
	d := NewSBD(cfg)
	if got := d.DecodeHead(line, 0, 5, nil); len(got) != 0 {
		t.Errorf("over-cap region decoded: %+v", got)
	}
	if d.Stats().HeadDiscarded != 1 {
		t.Errorf("stats %+v", d.Stats())
	}

	d2 := newRawSBD() // default cap 6: two families fit
	got := d2.DecodeHead(line, 0, 5, nil)
	if len(got) != 1 || got[0].Class != isa.ClassReturn {
		t.Errorf("default cap: got %+v, want the ret", got)
	}
}

func TestHeadDecodeNoValidPath(t *testing.T) {
	// An undecodable byte right before the entry point kills every
	// path that must land on the entry.
	line := lineWith(func(a *isa.Asm) { a.Nop(8) })
	line[0] = 0x06 // invalid
	line[1] = 0x06
	line[2] = 0x06
	d := newTestSBD()
	got := d.DecodeHead(line, 0, 3, nil)
	if len(got) != 0 {
		t.Errorf("got %+v", got)
	}
	if d.Stats().HeadNoValidPath != 1 {
		t.Errorf("stats %+v", d.Stats())
	}
}

// TestHeadDecodeAmbiguity reproduces the paper's Figure 8: a region with
// two valid decodings that merge, where the true shadow branch is
// found regardless.
func TestHeadDecodeAmbiguity(t *testing.T) {
	// Bytes: B0 C3 | E9 xx xx xx xx | entry at 7.
	// Path 0: movi8 (2 bytes) -> jmp rel32 (5 bytes) -> 7: valid.
	// Path 1: ret (1 byte) -> 2 -> jmp -> 7: valid (bogus ret at 1).
	line := make([]byte, program.LineSize)
	line[0] = 0xB0 // movi r0, imm8: consumes byte 1
	line[1] = 0xC3 // ...which aliases ret
	line[2] = 0xE9 // jmp rel32
	line[3], line[4], line[5], line[6] = 0x10, 0, 0, 0
	for i := 7; i < 64; i++ {
		line[i] = 0x90
	}
	d := newTestSBD()
	got := d.DecodeHead(line, 0x4000, 7, nil)
	// First-index policy starts at 0: finds only the jmp (the true
	// path), not the bogus ret.
	if len(got) != 1 || got[0].Class != isa.ClassDirectUncond || got[0].PC != 0x4002 {
		t.Fatalf("got %+v, want one jmp at 0x4002", got)
	}
	if want := uint64(0x4000 + 7 + 0x10); got[0].Target != want {
		t.Errorf("target %#x, want %#x", got[0].Target, want)
	}
}

func TestHeadDecodeBogusBranchPossible(t *testing.T) {
	// Construct a region where the first valid path is NOT the true
	// decode and contains a branch the true path does not: byte 0
	// starts a bogus chain that lands on the entry, while the true
	// code was something else entirely. True code: movi32 r1, imm
	// where the imm bytes spell "ret; jmp rel8 x" — decoding from
	// byte 1 (inside the immediate) yields bogus branches.
	line := make([]byte, program.LineSize)
	// True decode (never shown to the SBD): starts at some earlier
	// line; this line begins mid-instruction with leftover immediate
	// bytes: C3 EB 02 90 90 ... entry at 4.
	line[0] = 0xC3 // bogus ret
	line[1] = 0xEB // bogus jmp rel8
	line[2] = 0x02
	line[3] = 0x90
	for i := 4; i < 64; i++ {
		line[i] = 0x90
	}
	d := newRawSBD()
	got := d.DecodeHead(line, 0x8000, 4, nil)
	// Path 0: ret(1) -> jmp(2) -> nop(1) -> 4: valid. The decoder
	// cannot know these are immediate bytes; it reports both branches.
	if len(got) != 2 {
		t.Fatalf("got %+v, want bogus ret+jmp", got)
	}
	if got[0].Class != isa.ClassReturn || got[1].Class != isa.ClassDirectUncond {
		t.Errorf("classes = %v, %v", got[0].Class, got[1].Class)
	}
}

func TestHeadPolicies(t *testing.T) {
	// Region: byte 0 = bogus ret chain, byte 1 starts 2-byte movi8
	// chain; both land on entry at 3 via merge at... construct:
	// 0: C3 (ret, 1B) -> 1
	// 1: B0 xx (movi8, 2B) -> 3 = entry. Path0 = {0,1}, Path1 = {1}.
	// Both valid; merge index = 1.
	line := make([]byte, program.LineSize)
	line[0] = 0xC3
	line[1] = 0xB0
	line[2] = 0x00
	for i := 3; i < 64; i++ {
		line[i] = 0x90
	}

	run := func(pol IndexPolicy) []ShadowBranch {
		cfg := DefaultSBDConfig()
		cfg.Policy = pol
		cfg.RequireCorroboration = false
		return NewSBD(cfg).DecodeHead(line, 0, 3, nil)
	}

	// First: starts at 0, sees the ret.
	if got := run(FirstIndex); len(got) != 1 || got[0].Class != isa.ClassReturn {
		t.Errorf("first-index got %+v", got)
	}
	// Merge: starts at the merge point 1 (visited by both paths),
	// skipping the ret.
	if got := run(MergeIndex); len(got) != 0 {
		t.Errorf("merge-index got %+v, want none (movi is not a branch)", got)
	}
}

func TestFirstIndexSkipsInvalidByteZero(t *testing.T) {
	// Byte 0 does not begin a valid path (invalid opcode), but byte 1
	// does; FirstIndex must start at the first valid index.
	line := make([]byte, program.LineSize)
	line[0] = 0x06 // invalid
	line[1] = 0xC3 // ret -> 2 = entry
	for i := 2; i < 64; i++ {
		line[i] = 0x90
	}
	cfg := DefaultSBDConfig()
	cfg.Policy = FirstIndex
	cfg.RequireCorroboration = false
	got := NewSBD(cfg).DecodeHead(line, 0, 2, nil)
	if len(got) != 1 || got[0].Class != isa.ClassReturn {
		t.Errorf("got %+v", got)
	}
}

func TestHeadDisabled(t *testing.T) {
	cfg := DefaultSBDConfig()
	cfg.Head = false
	d := NewSBD(cfg)
	line := lineWith(func(a *isa.Asm) { a.Ret(); a.Nop(8) })
	if got := d.DecodeHead(line, 0, 4, nil); got != nil {
		t.Errorf("disabled head decoder returned %+v", got)
	}
}

func TestAppendSemantics(t *testing.T) {
	// DecodeTail must append to the destination slice, not replace it.
	d := newTestSBD()
	line := lineWith(func(a *isa.Asm) { a.Nop(1); a.Ret() })
	dst := []ShadowBranch{{PC: 42}}
	dst = d.DecodeTail(line, 0, 1, dst)
	if len(dst) != 2 || dst[0].PC != 42 {
		t.Errorf("append semantics broken: %+v", dst)
	}
}

func TestResetStats(t *testing.T) {
	d := newTestSBD()
	line := lineWith(func(a *isa.Asm) { a.Ret() })
	d.DecodeTail(line, 0, 0, nil)
	d.ResetStats()
	if d.Stats() != (SBDStats{}) {
		t.Error("stats not reset")
	}
}

func TestIndexPolicyString(t *testing.T) {
	if FirstIndex.String() != "first" || MergeIndex.String() != "merge" {
		t.Error("policy names wrong")
	}
	if IndexPolicy(99).String() != "unknown" {
		t.Error("unknown policy name")
	}
}

func TestDefaultConfigMatchesPaper(t *testing.T) {
	cfg := DefaultSBDConfig()
	if !cfg.Head || !cfg.Tail {
		t.Error("both decoders should default on")
	}
	if cfg.MaxValidPaths != 6 {
		t.Errorf("path cap = %d, paper uses 6", cfg.MaxValidPaths)
	}
	if cfg.Policy != FirstIndex {
		t.Error("paper's winning policy is First Index")
	}
}

func BenchmarkHeadDecode(b *testing.B) {
	line := lineWith(func(a *isa.Asm) {
		a.Ret()
		a.CallRel32(0x20)
		a.Nop(2)
		a.MovImm32(1, 9)
	})
	d := newTestSBD()
	var dst []ShadowBranch
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dst = d.DecodeHead(line, 0x2000, 8, dst[:0])
	}
}

func BenchmarkTailDecode(b *testing.B) {
	line := lineWith(func(a *isa.Asm) {
		a.Nop(3)
		a.JmpRel32(100)
		a.CallRel32(0x40)
		a.Ret()
		a.JmpRel8(16)
	})
	d := newTestSBD()
	var dst []ShadowBranch
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dst = d.DecodeTail(line, 0x2000, 8, dst[:0])
	}
}

func TestCorroborationSuppressesBogusPrefix(t *testing.T) {
	// Region: a bogus ret at byte 0 (a mid-instruction residue byte)
	// that merges into the true chain at byte 1, where a real call
	// begins. With corroboration on, the uncorroborated bogus ret is
	// suppressed while the corroborated real call (its index lies on
	// both the byte-0 chain and its own chain) survives.
	line := make([]byte, program.LineSize)
	line[0] = 0xC3 // bogus ret (residue byte)
	line[1] = 0xE8 // true call rel32, 5 bytes -> entry at 6
	line[2], line[3], line[4], line[5] = 0x40, 0, 0, 0
	for i := 6; i < 64; i++ {
		line[i] = 0x90
	}
	d := newTestSBD() // corroboration on by default
	got := d.DecodeHead(line, 0x3000, 6, nil)
	if len(got) != 1 || got[0].Class != isa.ClassCall || got[0].PC != 0x3001 {
		t.Fatalf("got %+v, want only the corroborated call", got)
	}
	// Raw decode sees both.
	raw := newRawSBD().DecodeHead(line, 0x3000, 6, nil)
	if len(raw) != 2 {
		t.Fatalf("raw decode got %+v, want bogus ret + call", raw)
	}
}
