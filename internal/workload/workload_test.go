package workload

import (
	"bytes"
	"slices"
	"testing"

	"repro/internal/isa"
	"repro/internal/program"
)

// smallProfile returns a fast-to-generate profile for tests.
func smallProfile() Profile {
	p, err := ByName("noop")
	if err != nil {
		panic(err)
	}
	p.HotFuncs = 32
	p.ColdFuncs = 80
	return p
}

func TestRegistryComplete(t *testing.T) {
	suite := SuiteNames()
	if len(suite) != 16 {
		t.Fatalf("suite has %d benchmarks, want 16", len(suite))
	}
	for _, n := range suite {
		if _, err := ByName(n); err != nil {
			t.Errorf("suite benchmark %q not registered: %v", n, err)
		}
	}
	// The pre-BOLT verilator variant exists but is not in the suite.
	if _, err := ByName("verilator"); err != nil {
		t.Error("verilator (pre-bolt) should be registered")
	}
	for _, n := range suite {
		if n == "verilator" {
			t.Error("pre-bolt verilator must not be in the main suite")
		}
	}
}

func TestByNameUnknown(t *testing.T) {
	if _, err := ByName("not-a-benchmark"); err == nil {
		t.Error("expected error")
	}
}

func TestNamesSortedAndComplete(t *testing.T) {
	ns := Names()
	if len(ns) != 17 {
		t.Errorf("got %d registered profiles, want 17", len(ns))
	}
	for i := 1; i < len(ns); i++ {
		if ns[i-1] >= ns[i] {
			t.Errorf("names not sorted: %q >= %q", ns[i-1], ns[i])
		}
	}
}

func TestProfileValidate(t *testing.T) {
	good := smallProfile()
	if err := good.Validate(); err != nil {
		t.Errorf("good profile invalid: %v", err)
	}
	bads := []func(*Profile){
		func(p *Profile) { p.Name = "" },
		func(p *Profile) { p.HotFuncs = 1 },
		func(p *Profile) { p.ColdFuncs = -1 },
		func(p *Profile) { p.BlocksPerHotFunc = [2]int{0, 3} },
		func(p *Profile) { p.BlocksPerHotFunc = [2]int{5, 3} },
		func(p *Profile) { p.InstsPerBlock = [2]int{0, 2} },
		func(p *Profile) { p.PCondSkip = 0.9; p.PCallNext = 0.9 },
		func(p *Profile) { p.ColdPeriod = 0 },
		func(p *Profile) { p.CallDepth = 0 },
	}
	for i, mut := range bads {
		p := smallProfile()
		mut(&p)
		if err := p.Validate(); err == nil {
			t.Errorf("bad profile %d validated", i)
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	p := smallProfile()
	w1, err := Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	w2, err := Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(w1.Prog.Code, w2.Prog.Code) {
		t.Error("generation is not deterministic")
	}
	if !slices.Equal(w1.ctl, w2.ctl) || len(w1.sites) != len(w2.sites) {
		t.Error("control tables differ across runs")
	}
}

func TestGenerateSeedsDiffer(t *testing.T) {
	p := smallProfile()
	w1 := MustGenerate(p)
	p.Seed++
	w2 := MustGenerate(p)
	if bytes.Equal(w1.Prog.Code, w2.Prog.Code) {
		t.Error("different seeds produced identical programs")
	}
}

func TestImageFullyDecodable(t *testing.T) {
	w := MustGenerate(smallProfile())
	pc := w.Prog.Base
	n := 0
	for pc < w.Prog.End() {
		in, ok := w.InstAt(pc)
		if !ok {
			t.Fatalf("no instruction at boundary %#x", pc)
		}
		pc = in.NextPC()
		n++
	}
	if n != w.NumStaticInsts() {
		t.Errorf("walked %d instructions, index has %d", n, w.NumStaticInsts())
	}
}

func TestInstAtRejectsNonBoundaries(t *testing.T) {
	w := MustGenerate(smallProfile())
	// Find an instruction longer than 1 byte; its interior is not a
	// boundary.
	pc := w.Prog.Base
	for {
		in, ok := w.InstAt(pc)
		if !ok {
			t.Fatal("ran out of instructions")
		}
		if in.Len > 1 {
			if _, ok := w.InstAt(pc + 1); ok {
				t.Errorf("interior pc %#x reported as boundary", pc+1)
			}
			break
		}
		pc = in.NextPC()
	}
	if _, ok := w.InstAt(w.Prog.End() + 64); ok {
		t.Error("InstAt outside image should fail")
	}
}

func TestEveryCondSiteHasBehavior(t *testing.T) {
	w := MustGenerate(smallProfile())
	missingCond, missingInd := 0, 0
	pc := w.Prog.Base
	for pc < w.Prog.End() {
		in, _ := w.InstAt(pc)
		switch in.Class {
		case isa.ClassDirectCond:
			if _, ok := w.CondAt(in.PC); !ok {
				missingCond++
			}
		case isa.ClassIndirect, isa.ClassIndirectCall:
			if _, ok := w.IndAt(in.PC); !ok {
				missingInd++
			}
		}
		pc = in.NextPC()
	}
	if missingCond != 0 || missingInd != 0 {
		t.Errorf("%d conditional and %d indirect sites lack behaviours", missingCond, missingInd)
	}
}

func TestBranchTargetsInsideImage(t *testing.T) {
	w := MustGenerate(smallProfile())
	pc := w.Prog.Base
	for pc < w.Prog.End() {
		in, _ := w.InstAt(pc)
		if tgt, ok := in.BranchTarget(); ok {
			if !w.Prog.Contains(tgt) {
				t.Fatalf("branch at %#x targets %#x outside image", in.PC, tgt)
			}
			if _, isInst := w.InstAt(tgt); !isInst {
				t.Fatalf("branch at %#x targets non-boundary %#x", in.PC, tgt)
			}
		}
		pc = in.NextPC()
	}
}

func TestIndirectTargetsAreFunctionEntries(t *testing.T) {
	w := MustGenerate(smallProfile())
	for i := range w.insts {
		pc := w.insts[i].PC
		b, ok := w.IndAt(pc)
		if !ok {
			continue
		}
		for v := uint64(0); v < 32; v++ {
			tgt := b.Target(v)
			f := w.Prog.FuncAt(tgt)
			if f == nil || f.Addr != tgt {
				t.Fatalf("indirect site %#x target %#x is not a function entry", pc, tgt)
			}
		}
	}
}

func TestInterleavedLayoutSharesLines(t *testing.T) {
	w := MustGenerate(smallProfile())
	shared := 0
	funcs := w.Prog.Funcs
	for i := 1; i < len(funcs); i++ {
		prev, cur := funcs[i-1], funcs[i]
		if prev.Hot != cur.Hot &&
			program.LineAddr(prev.Addr+uint64(prev.Size)-1) == program.LineAddr(cur.Addr) {
			shared++
		}
	}
	if shared < len(funcs)/4 {
		t.Errorf("only %d of %d adjacent hot/cold pairs share a line", shared, len(funcs))
	}
}

func TestBoltLayoutSegregates(t *testing.T) {
	p := smallProfile()
	p.BoltLayout = true
	w := MustGenerate(p)
	// In BOLT layout every hot function (except main at the start) must
	// come before every cold function.
	lastHot, firstCold := uint64(0), ^uint64(0)
	for _, f := range w.Prog.Funcs {
		if f.Hot {
			if f.Addr > lastHot {
				lastHot = f.Addr
			}
		} else if f.Addr < firstCold {
			firstCold = f.Addr
		}
	}
	if lastHot > firstCold {
		t.Errorf("bolt layout interleaved: last hot %#x > first cold %#x", lastHot, firstCold)
	}
}

func TestStaticBranchCountSubstantial(t *testing.T) {
	w := MustGenerate(smallProfile())
	n := w.StaticBranchCount()
	if n < 100 {
		t.Errorf("only %d static branches", n)
	}
}

func TestGenerateAllProfiles(t *testing.T) {
	if testing.Short() {
		t.Skip("full-size generation in -short mode")
	}
	for _, name := range Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			p, _ := ByName(name)
			w, err := Generate(p)
			if err != nil {
				t.Fatal(err)
			}
			if w.StaticBranchCount() < 1000 {
				t.Errorf("%s: only %d static branches", name, w.StaticBranchCount())
			}
			// Footprint sanity: enough code to pressure a 32KB L1-I.
			if len(w.Prog.Code) < 48*1024 {
				t.Errorf("%s: image only %d bytes", name, len(w.Prog.Code))
			}
		})
	}
}

func TestGenerateInvalidProfile(t *testing.T) {
	p := smallProfile()
	p.HotFuncs = 0
	if _, err := Generate(p); err == nil {
		t.Error("expected validation error")
	}
}

func TestMustGeneratePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	p := smallProfile()
	p.Name = ""
	MustGenerate(p)
}

// TestBranchMaskDense checks the per-line branch index against the
// canonical decode stream: for every line of every suite workload,
// BranchMask is the OR of the offsets at which InstAt finds a branch
// starting in that line, and lines outside the image (the one below
// Base, the first past End, address 0) have none.
func TestBranchMaskDense(t *testing.T) {
	if testing.Short() {
		t.Skip("full-size generation in -short mode")
	}
	for _, name := range SuiteNames() {
		p, _ := ByName(name)
		w, err := Generate(p)
		if err != nil {
			t.Fatal(err)
		}
		want := map[uint64]uint64{}
		for pc := w.Prog.Base; pc < w.Prog.End(); {
			in, ok := w.InstAt(pc)
			if !ok {
				t.Fatalf("%s: no instruction at boundary %#x", name, pc)
			}
			if in.Class.IsBranch() {
				want[program.LineAddr(pc)] |= 1 << program.LineOffset(pc)
			}
			pc = in.NextPC()
		}
		for la := program.LineAddr(w.Prog.Base); la < w.Prog.End(); la += program.LineSize {
			if got := w.BranchMask(la); got != want[la] {
				t.Fatalf("%s: BranchMask(%#x) = %#x, decode stream gives %#x", name, la, got, want[la])
			}
		}
		end := program.LineAddr(w.Prog.End()-1) + program.LineSize
		for _, la := range []uint64{w.Prog.Base - program.LineSize, end, 0} {
			if got := w.BranchMask(la); got != 0 {
				t.Errorf("%s: BranchMask(%#x) outside the image [%#x, %#x) = %#x, want 0", name, la, w.Prog.Base, w.Prog.End(), got)
			}
		}
	}
}
