// Package isa defines VLX, a synthetic variable-length CISC instruction
// set patterned after x86. VLX exists so the repository can reproduce the
// shadow-branch decoding problem from "Exposing Shadow Branches" (Skia,
// ASPLOS 2025) without shipping a full x86 decoder: instructions are 1 to
// 15 bytes long, immediates and displacements freely alias opcode bytes,
// and the branch repertoire covers every class the paper cares about
// (direct conditional, direct unconditional, call, return, indirect).
//
// The package provides three decoders:
//
//   - Decode: the full decoder used by the fetch/decode pipeline and the
//     functional emulator.
//   - LengthAt: the boundary-only decoder, the hardware analogue of the
//     Shadow Branch Decoder's length pre-decode (Section 4.1 of the paper).
//   - Disassemble: a human-readable renderer used by cmd/vlxdump and the
//     examples.
//
// Encoding summary (all multi-byte immediates are little-endian):
//
//	[prefix]* opcode [modbyte] [disp8|disp32] [imm8|imm16|imm32]
//
// At most three prefix bytes are permitted; an instruction longer than
// MaxInstLen bytes is invalid, exactly like x86's 15-byte limit.
package isa

import "fmt"

// MaxInstLen is the maximum encodable instruction length in bytes,
// matching the x86 limit the paper's decoder has to live with.
const MaxInstLen = 15

// Class partitions instructions by how their control flow behaves. The
// values mirror Section 2.4 of the paper.
type Class uint8

const (
	// ClassSeq is any non-branch instruction.
	ClassSeq Class = iota
	// ClassDirectCond is a conditional jump with a PC-relative target.
	ClassDirectCond
	// ClassDirectUncond is an unconditional jump with a PC-relative target.
	ClassDirectUncond
	// ClassCall is a direct call: unconditional, PC-relative, pushes a
	// return address.
	ClassCall
	// ClassReturn pops a return address and jumps to it.
	ClassReturn
	// ClassIndirect is an unconditional jump through a register.
	ClassIndirect
	// ClassIndirectCall is a call through a register.
	ClassIndirectCall
)

// String implements fmt.Stringer.
func (c Class) String() string {
	switch c {
	case ClassSeq:
		return "Seq"
	case ClassDirectCond:
		return "DirectCond"
	case ClassDirectUncond:
		return "DirectUncond"
	case ClassCall:
		return "Call"
	case ClassReturn:
		return "Return"
	case ClassIndirect:
		return "IndirectUncond"
	case ClassIndirectCall:
		return "IndirectCall"
	}
	return fmt.Sprintf("Class(%d)", uint8(c))
}

// IsBranch reports whether the class transfers control.
func (c Class) IsBranch() bool { return c != ClassSeq }

// IsShadowEligible reports whether a branch of this class can be decoded
// and inserted by the Shadow Branch Decoder: the target must be
// computable without execution-time register state, which limits Skia to
// direct unconditional jumps, calls, and returns (paper Section 2.4).
func (c Class) IsShadowEligible() bool {
	return c == ClassDirectUncond || c == ClassCall || c == ClassReturn
}

// Op enumerates VLX operations at the semantic level. Many opcodes map to
// the same Op with different operand encodings.
type Op uint8

const (
	OpInvalid Op = iota
	OpNop
	OpALUReg   // register/register arithmetic
	OpALUImm   // register/immediate arithmetic
	OpMovImm   // move immediate into register
	OpMovReg   // register/register move
	OpLoad     // memory load
	OpStore    // memory store
	OpPush     // push register
	OpPop      // pop register
	OpIncDec   // increment/decrement register
	OpLea      // address generation
	OpTest     // compare/test, sets condition state
	OpJcc      // conditional jump, rel8 or rel32
	OpJmp      // unconditional jump, rel8 or rel32
	OpCall     // direct call, rel32
	OpRet      // return, optionally with imm16 stack adjustment
	OpJmpInd   // indirect jump through register
	OpCallInd  // indirect call through register
	OpHalt     // stop the emulator (end of workload main loop)
	OpSysEnter // models a syscall-like serialisation point
)

var opNames = [...]string{
	OpInvalid:  "invalid",
	OpNop:      "nop",
	OpALUReg:   "alu",
	OpALUImm:   "alui",
	OpMovImm:   "movi",
	OpMovReg:   "mov",
	OpLoad:     "load",
	OpStore:    "store",
	OpPush:     "push",
	OpPop:      "pop",
	OpIncDec:   "incdec",
	OpLea:      "lea",
	OpTest:     "test",
	OpJcc:      "jcc",
	OpJmp:      "jmp",
	OpCall:     "call",
	OpRet:      "ret",
	OpJmpInd:   "jmpind",
	OpCallInd:  "callind",
	OpHalt:     "halt",
	OpSysEnter: "sysenter",
}

// String implements fmt.Stringer.
func (o Op) String() string {
	if int(o) < len(opNames) {
		return opNames[o]
	}
	return fmt.Sprintf("op(%d)", uint8(o))
}

// Inst is one decoded VLX instruction.
type Inst struct {
	// PC is the address the instruction was decoded from.
	PC uint64
	// Len is the total encoded length in bytes, including prefixes.
	Len uint8
	// Op is the semantic operation.
	Op Op
	// Class is the control-flow class.
	Class Class
	// Reg and Reg2 are register operands where meaningful.
	Reg, Reg2 uint8
	// Imm holds the sign-extended immediate or displacement operand.
	Imm int64
	// RelOff is the PC-relative branch offset for direct branches.
	RelOff int32
	// NumPrefixes counts leading prefix bytes.
	NumPrefixes uint8
}

// NextPC returns the fall-through address.
func (in Inst) NextPC() uint64 { return in.PC + uint64(in.Len) }

// BranchTarget returns the statically-known target of a direct branch
// (DirectCond, DirectUncond, Call). For other classes it returns 0 and
// false: returns and indirect branches need runtime state.
func (in Inst) BranchTarget() (uint64, bool) {
	switch in.Class {
	case ClassDirectCond, ClassDirectUncond, ClassCall:
		return uint64(int64(in.NextPC()) + int64(in.RelOff)), true
	}
	return 0, false
}

// Prefix bytes. Up to MaxPrefixes of these may precede an opcode; they do
// not change semantics in VLX but they change the length, which is what
// matters for shadow decoding ambiguity.
const (
	PrefixOpSize   = 0x66
	PrefixAddrSize = 0x67
	PrefixLock     = 0xF0
	MaxPrefixes    = 3
)

// IsPrefix reports whether b is a legal prefix byte.
func IsPrefix(b byte) bool {
	return b == PrefixOpSize || b == PrefixAddrSize || b == PrefixLock
}

// Mod byte helpers. The mod byte follows x86 ModRM loosely:
//
//	bits 7..6  mod: 0=reg-reg, 1=mem+disp8, 2=mem+disp32, 3=reg-only
//	bits 5..3  reg
//	bits 2..0  rm
const (
	modRegReg  = 0
	modDisp8   = 1
	modDisp32  = 2
	modRegOnly = 3
)

func modOf(b byte) int   { return int(b >> 6) }
func regOf(b byte) uint8 { return (b >> 3) & 7 }
func rmOf(b byte) uint8  { return b & 7 }

// dispLen returns the number of displacement bytes implied by a mod byte.
func dispLen(mod int) int {
	switch mod {
	case modDisp8:
		return 1
	case modDisp32:
		return 4
	}
	return 0
}

// DecodeError describes a failed decode.
type DecodeError struct {
	PC     uint64
	Byte   byte
	Reason string
}

// Error implements the error interface.
func (e *DecodeError) Error() string {
	return fmt.Sprintf("isa: invalid instruction at %#x (byte %#02x): %s", e.PC, e.Byte, e.Reason)
}

// fail is decode's non-allocating failure return: the offending byte
// plus a static reason string. Decode wraps it in a *DecodeError for
// callers that want a real error; TryDecode and LengthAt do not pay for
// one.
func fail(b byte, reason string) (Inst, byte, string) {
	return Inst{}, b, reason
}

func le16(b []byte) int64 { return int64(int16(uint16(b[0]) | uint16(b[1])<<8)) }

func le32(b []byte) int64 {
	return int64(int32(uint32(b[0]) | uint32(b[1])<<8 | uint32(b[2])<<16 | uint32(b[3])<<24))
}

// Decode decodes a single instruction from code, which must contain the
// bytes starting at address pc. It returns the decoded instruction or a
// *DecodeError if the byte sequence is not a valid VLX instruction or is
// truncated by the end of code.
//
// Decode is deliberately strict: bytes that do not begin a defined opcode
// fail, which is what gives the Shadow Branch Decoder's Path Validation
// phase its pruning power (an invalid decode kills a candidate path).
func Decode(code []byte, pc uint64) (Inst, error) {
	in, b, reason := decode(code, pc)
	if reason != "" {
		return Inst{}, &DecodeError{PC: pc, Byte: b, Reason: reason}
	}
	return in, nil
}

// TryDecode is Decode without the error value: ok is false exactly where
// Decode would return a *DecodeError. Decoders that treat failure as
// data rather than an exceptional condition — the Shadow Branch
// Decoder's path validation prunes candidate paths by failing decodes
// millions of times per simulated window — use this entry point so the
// common case never allocates.
//
//skia:noalloc
func TryDecode(code []byte, pc uint64) (Inst, bool) {
	in, _, reason := decode(code, pc)
	return in, reason == ""
}

// decode is the allocation-free core shared by Decode, TryDecode, and
// LengthAt. A non-empty reason (always a static string literal) signals
// failure, with b the offending byte.
func decode(code []byte, pc uint64) (Inst, byte, string) {
	if len(code) == 0 {
		return fail(0, "empty")
	}
	i := 0
	nprefix := 0
	for i < len(code) && IsPrefix(code[i]) {
		nprefix++
		if nprefix > MaxPrefixes {
			return fail(code[i], "too many prefixes")
		}
		i++
	}
	if i >= len(code) {
		return fail(code[i-1], "prefixes run off end")
	}

	in := Inst{PC: pc, NumPrefixes: uint8(nprefix)}
	op := code[i]
	i++

	// need reports whether n more bytes are available; on success the
	// caller may index code[i : i+n].
	need := func(n int) bool { return i+n <= len(code) }

	finish := func(op Op, class Class) (Inst, byte, string) {
		in.Op = op
		in.Class = class
		if i > MaxInstLen {
			return fail(code[0], "instruction exceeds 15 bytes")
		}
		in.Len = uint8(i)
		return in, 0, ""
	}

	// withMod decodes a mod byte plus displacement; returns ok.
	withMod := func() bool {
		if !need(1) {
			return false
		}
		m := code[i]
		i++
		in.Reg = regOf(m)
		in.Reg2 = rmOf(m)
		dl := dispLen(modOf(m))
		if !need(dl) {
			return false
		}
		switch dl {
		case 1:
			in.Imm = int64(int8(code[i]))
		case 4:
			in.Imm = le32(code[i:])
		}
		i += dl
		return true
	}

	switch {
	case op == 0x90:
		return finish(OpNop, ClassSeq)

	case op >= 0x40 && op <= 0x4F: // INC r (0x40-47), DEC r (0x48-4F)
		in.Reg = op & 7
		return finish(OpIncDec, ClassSeq)

	case op >= 0x50 && op <= 0x57: // PUSH r
		in.Reg = op & 7
		return finish(OpPush, ClassSeq)

	case op >= 0x58 && op <= 0x5F: // POP r
		in.Reg = op & 7
		return finish(OpPop, ClassSeq)

	case op == 0x01 || op == 0x09 || op == 0x21 || op == 0x29 || op == 0x31 || op == 0x39:
		// ALU reg/reg family (add/or/and/sub/xor/cmp) with mod byte.
		if !withMod() {
			return fail(op, "truncated alu modbyte")
		}
		if op == 0x39 {
			return finish(OpTest, ClassSeq)
		}
		return finish(OpALUReg, ClassSeq)

	case op == 0x81: // ALU r, imm32
		if !withMod() || !need(4) {
			return fail(op, "truncated alu imm32")
		}
		in.Imm = le32(code[i:])
		i += 4
		return finish(OpALUImm, ClassSeq)

	case op == 0x83: // ALU r, imm8
		if !withMod() || !need(1) {
			return fail(op, "truncated alu imm8")
		}
		in.Imm = int64(int8(code[i]))
		i++
		return finish(OpALUImm, ClassSeq)

	case op == 0x85: // TEST r, r
		if !withMod() {
			return fail(op, "truncated test modbyte")
		}
		return finish(OpTest, ClassSeq)

	case op == 0x88 || op == 0x8A: // STORE / LOAD byte with mod
		if !withMod() {
			return fail(op, "truncated mov8 modbyte")
		}
		if op == 0x88 {
			return finish(OpStore, ClassSeq)
		}
		return finish(OpLoad, ClassSeq)

	case op == 0x89 || op == 0x8B: // STORE / LOAD word with mod
		if !withMod() {
			return fail(op, "truncated mov modbyte")
		}
		if op == 0x89 {
			return finish(OpStore, ClassSeq)
		}
		return finish(OpLoad, ClassSeq)

	case op == 0x8D: // LEA r, [r+disp]
		if !withMod() {
			return fail(op, "truncated lea")
		}
		return finish(OpLea, ClassSeq)

	case op >= 0xB0 && op <= 0xB7: // MOV r, imm8
		in.Reg = op & 7
		if !need(1) {
			return fail(op, "truncated movi8")
		}
		in.Imm = int64(int8(code[i]))
		i++
		return finish(OpMovImm, ClassSeq)

	case op >= 0xB8 && op <= 0xBF: // MOV r, imm32
		in.Reg = op & 7
		if !need(4) {
			return fail(op, "truncated movi32")
		}
		in.Imm = le32(code[i:])
		i += 4
		return finish(OpMovImm, ClassSeq)

	case op == 0xC6: // MOV [r+disp], imm8
		if !withMod() || !need(1) {
			return fail(op, "truncated store imm8")
		}
		in.Imm = int64(int8(code[i]))
		i++
		return finish(OpStore, ClassSeq)

	case op == 0xC7: // MOV [r+disp], imm32
		if !withMod() || !need(4) {
			return fail(op, "truncated store imm32")
		}
		in.Imm = le32(code[i:])
		i += 4
		return finish(OpStore, ClassSeq)

	case op >= 0x70 && op <= 0x7F: // Jcc rel8
		if !need(1) {
			return fail(op, "truncated jcc rel8")
		}
		in.Reg = op & 0xF // condition code
		in.RelOff = int32(int8(code[i]))
		i++
		return finish(OpJcc, ClassDirectCond)

	case op == 0xEB: // JMP rel8
		if !need(1) {
			return fail(op, "truncated jmp rel8")
		}
		in.RelOff = int32(int8(code[i]))
		i++
		return finish(OpJmp, ClassDirectUncond)

	case op == 0xE9: // JMP rel32
		if !need(4) {
			return fail(op, "truncated jmp rel32")
		}
		in.RelOff = int32(le32(code[i:]))
		i += 4
		return finish(OpJmp, ClassDirectUncond)

	case op == 0xE8: // CALL rel32
		if !need(4) {
			return fail(op, "truncated call rel32")
		}
		in.RelOff = int32(le32(code[i:]))
		i += 4
		return finish(OpCall, ClassCall)

	case op == 0xC3: // RET
		return finish(OpRet, ClassReturn)

	case op == 0xC2: // RET imm16
		if !need(2) {
			return fail(op, "truncated ret imm16")
		}
		in.Imm = le16(code[i:])
		i += 2
		return finish(OpRet, ClassReturn)

	case op == 0xFF: // indirect jmp/call through register, selected by reg field
		if !need(1) {
			return fail(op, "truncated indirect")
		}
		m := code[i]
		i++
		in.Reg = rmOf(m)
		switch regOf(m) {
		case 2:
			return finish(OpCallInd, ClassIndirectCall)
		case 4:
			return finish(OpJmpInd, ClassIndirect)
		}
		return fail(op, "undefined FF /reg extension")

	case op == 0xF4:
		return finish(OpHalt, ClassSeq)

	case op == 0x0F: // two-byte escape
		if !need(1) {
			return fail(op, "truncated 0F escape")
		}
		op2 := code[i]
		i++
		switch {
		case op2 >= 0x80 && op2 <= 0x8F: // Jcc rel32
			if !need(4) {
				return fail(op2, "truncated jcc rel32")
			}
			in.Reg = op2 & 0xF
			in.RelOff = int32(le32(code[i:]))
			i += 4
			return finish(OpJcc, ClassDirectCond)
		case op2 == 0x1F: // long NOP: mod byte + displacement give 3-8 byte NOPs
			if !withMod() {
				return fail(op2, "truncated long nop")
			}
			return finish(OpNop, ClassSeq)
		case op2 == 0x05:
			return finish(OpSysEnter, ClassSeq)
		}
		return fail(op2, "undefined 0F opcode")
	}

	return fail(op, "undefined opcode")
}

// LengthAt is the boundary-only decoder used by the Shadow Branch
// Decoder's Index Computation phase (paper Section 3.2.1). It returns the
// length in bytes of the instruction starting at code[off], or 0 if no
// valid instruction starts there. It never allocates.
//
//skia:noalloc
func LengthAt(code []byte, off int) int {
	if off < 0 || off >= len(code) {
		return 0
	}
	in, ok := TryDecode(code[off:], 0)
	if !ok {
		return 0
	}
	return int(in.Len)
}

// Disassemble renders an instruction for humans, e.g. "jmp +0x40" or
// "movi r3, 17".
func Disassemble(in Inst) string {
	switch in.Op {
	case OpJcc:
		return fmt.Sprintf("jcc%d %+#x", in.Reg, in.RelOff)
	case OpJmp:
		return fmt.Sprintf("jmp %+#x", in.RelOff)
	case OpCall:
		return fmt.Sprintf("call %+#x", in.RelOff)
	case OpRet:
		if in.Imm != 0 {
			return fmt.Sprintf("ret %d", in.Imm)
		}
		return "ret"
	case OpJmpInd:
		return fmt.Sprintf("jmp *r%d", in.Reg)
	case OpCallInd:
		return fmt.Sprintf("call *r%d", in.Reg)
	case OpMovImm:
		return fmt.Sprintf("movi r%d, %d", in.Reg, in.Imm)
	case OpALUReg:
		return fmt.Sprintf("alu r%d, r%d", in.Reg, in.Reg2)
	case OpALUImm:
		return fmt.Sprintf("alui r%d, %d", in.Reg, in.Imm)
	case OpLoad:
		return fmt.Sprintf("load r%d, [r%d%+d]", in.Reg, in.Reg2, in.Imm)
	case OpStore:
		return fmt.Sprintf("store [r%d%+d], r%d", in.Reg2, in.Imm, in.Reg)
	case OpLea:
		return fmt.Sprintf("lea r%d, [r%d%+d]", in.Reg, in.Reg2, in.Imm)
	case OpPush:
		return fmt.Sprintf("push r%d", in.Reg)
	case OpPop:
		return fmt.Sprintf("pop r%d", in.Reg)
	case OpIncDec:
		return fmt.Sprintf("incdec r%d", in.Reg)
	case OpTest:
		return fmt.Sprintf("test r%d, r%d", in.Reg, in.Reg2)
	case OpNop:
		return "nop"
	case OpHalt:
		return "halt"
	case OpSysEnter:
		return "sysenter"
	}
	return in.Op.String()
}
