package workload

import (
	"fmt"
	"math/rand"

	"repro/internal/isa"
	"repro/internal/program"
)

// Workload is a generated benchmark: a linked VLX program plus the
// behaviour oracle that defines its steady-state control flow, and a
// pre-decoded instruction index for fast simulation.
type Workload struct {
	Profile Profile
	Prog    *program.Program

	// instIdx maps image offset -> 1 + index into insts, or 0 when the
	// offset is not an instruction boundary on the canonical stream.
	instIdx []int32
	insts   []isa.Inst
	// ctl holds one control entry per canonical instruction (see Ctl).
	ctl []Ctl
	// sites holds the behaviour oracle: one entry per conditional or
	// indirect branch site, in canonical-stream order. It is the only
	// store of behaviours; Ctl.Site indexes it.
	sites []site
	// branchMask holds, per image line ((lineAddr-Prog.Base)/LineSize),
	// a bitmask of the in-line byte offsets of branch instructions
	// starting in that line. The IAG scan uses it to probe the BTB/SBB
	// only at plausible branch sites, the software equivalent of the
	// hardware's per-byte parallel probe.
	branchMask []uint64
}

// Ctl is one entry of the workload's control table: what executing a
// canonical instruction needs beyond its decode.
type Ctl struct {
	// Run is the length of the straight-line run starting here: the
	// number of non-branch, non-halt instructions before the next
	// control-flow instruction. It is 0 for branches and halts.
	Run uint32
	// Site indexes the branch sites for a conditional or indirect
	// branch (see CondSite, IndSite), and is -1 for every other
	// instruction.
	Site int32
}

// site is one branch site's behaviour: cond for a conditional, ind for
// an indirect branch or call.
type site struct {
	cond CondBehavior
	ind  IndirectBehavior
}

// BranchMask returns the branch start offsets within the line at
// lineAddr as a bitmask: bit i set means a branch instruction starts at
// byte i. One word per line (LineSize = 64) lets the front end merge
// canonical and shadow-discovered offsets with a single OR instead of a
// sorted-slice merge. A line outside the image has no branches.
func (w *Workload) BranchMask(lineAddr uint64) uint64 {
	if i := (lineAddr - w.Prog.Base) / program.LineSize; i < uint64(len(w.branchMask)) {
		return w.branchMask[i]
	}
	return 0
}

// InstAt returns the pre-decoded instruction starting at pc, if pc is an
// instruction boundary on the program's canonical decode stream.
func (w *Workload) InstAt(pc uint64) (isa.Inst, bool) {
	if !w.Prog.Contains(pc) {
		return isa.Inst{}, false
	}
	idx := w.instIdx[pc-w.Prog.Base] - 1
	if idx < 0 {
		return isa.Inst{}, false
	}
	return w.insts[idx], true
}

// InstIndex returns the canonical-stream index of the instruction at
// pc, or -1 when pc is not a boundary. The index is dense in
// [0, NumStaticInsts), letting per-site state live in a flat slice
// instead of a PC-keyed map.
func (w *Workload) InstIndex(pc uint64) int {
	if !w.Prog.Contains(pc) {
		return -1
	}
	return int(w.instIdx[pc-w.Prog.Base]) - 1
}

// Inst returns the canonical instruction at index i, which must lie in
// [0, NumStaticInsts).
func (w *Workload) Inst(i int) isa.Inst { return w.insts[i] }

// CtlAt returns the control entry of the canonical instruction at
// index i, which must lie in [0, NumStaticInsts).
func (w *Workload) CtlAt(i int) Ctl { return w.ctl[i] }

// NumSites returns the number of conditional and indirect branch sites,
// the range of Ctl.Site.
func (w *Workload) NumSites() int { return len(w.sites) }

// CondSite returns the behaviour of conditional site s.
func (w *Workload) CondSite(s int32) CondBehavior { return w.sites[s].cond }

// IndSite returns the behaviour of indirect site s.
func (w *Workload) IndSite(s int32) IndirectBehavior { return w.sites[s].ind }

// NumStaticInsts returns the count of instructions on the canonical
// stream, a measure of the code footprint.
func (w *Workload) NumStaticInsts() int { return len(w.insts) }

// StaticBranchCount returns the number of static branch sites, a lower
// bound on the BTB working set.
func (w *Workload) StaticBranchCount() int {
	n := 0
	for i := range w.insts {
		if w.insts[i].Class.IsBranch() {
			n++
		}
	}
	return n
}

// condIntent and indIntent record behaviours keyed by link-time labels;
// Generate resolves them to PCs after layout.
type condIntent struct {
	label string
	b     CondBehavior
}

type indIntent struct {
	label   string
	targets []string
	mega    bool
	salt    uint64
}

// gen carries generator state across helper methods.
type gen struct {
	p     Profile
	rng   *rand.Rand
	b     *program.Builder
	conds []condIntent
	inds  []indIntent

	hotNames  []string
	hotLevel  []int
	coldNames []string

	siteSeq int
}

// Generate synthesizes the benchmark described by prof. Generation is
// deterministic: the same profile yields a byte-identical program and
// oracle.
func Generate(prof Profile) (*Workload, error) {
	if err := prof.Validate(); err != nil {
		return nil, err
	}
	g := &gen{
		p:   prof,
		rng: rand.New(rand.NewSource(prof.Seed)),
		b:   program.NewBuilder(0x40_0000),
	}
	g.plan()

	// Emit functions in layout order. Interleaved layout packs cold
	// functions between hot ones so they share cache lines — the
	// structural source of shadow branches. BOLT layout segregates them.
	order := g.layoutOrder()
	// main must exist before hot funcs reference is irrelevant (labels
	// resolve at link), so emission order == layout order.
	for _, name := range order {
		switch {
		case name == "main":
			g.emitMain()
		case g.isHot(name):
			g.emitHotFunc(name)
		default:
			g.emitColdFunc(name)
		}
	}

	prog, err := g.b.Link("main")
	if err != nil {
		return nil, fmt.Errorf("workload %s: %w", prof.Name, err)
	}

	// Behaviours are keyed by PC only until buildInstIndex moves them
	// into the dense site table.
	behav := make(map[uint64]site, len(g.conds)+len(g.inds))
	for _, ci := range g.conds {
		pc, ok := prog.LabelAddr(ci.label)
		if !ok {
			return nil, fmt.Errorf("workload %s: unresolved cond site %q", prof.Name, ci.label)
		}
		behav[pc] = site{cond: ci.b}
	}
	for _, ii := range g.inds {
		pc, ok := prog.LabelAddr(ii.label)
		if !ok {
			return nil, fmt.Errorf("workload %s: unresolved indirect site %q", prof.Name, ii.label)
		}
		targets := make([]uint64, 0, len(ii.targets))
		for _, t := range ii.targets {
			a, ok := prog.LabelAddr(t)
			if !ok {
				return nil, fmt.Errorf("workload %s: unresolved indirect target %q", prof.Name, t)
			}
			targets = append(targets, a)
		}
		if ii.mega {
			behav[pc] = site{ind: HashTargets{Targets: targets, Salt: ii.salt}}
		} else {
			behav[pc] = site{ind: RoundRobinTargets{Targets: targets}}
		}
	}

	w := &Workload{Profile: prof, Prog: prog}
	if err := w.buildInstIndex(behav); err != nil {
		return nil, err
	}
	return w, nil
}

// MustGenerate is Generate for tests and examples where a profile error
// is a programming bug.
func MustGenerate(prof Profile) *Workload {
	w, err := Generate(prof)
	if err != nil {
		panic(err)
	}
	return w
}

// buildInstIndex decodes the whole image sequentially. Every generated
// byte is part of exactly one instruction on this canonical stream
// (padding is NOPs), so sequential decode recovers all boundaries. A
// length-only pass finds them first, so every table is allocated once
// at its final size; growing insts by append copied more than that pass
// costs. The decode pass then gives each conditional or indirect branch
// its behaviour from behav (keyed by PC) as the next site, and a
// backward pass records the straight-line run starting at each
// instruction.
func (w *Workload) buildInstIndex(behav map[uint64]site) error {
	code := w.Prog.Code
	w.instIdx = make([]int32, len(code))
	n, off := 0, 0
	for off < len(code) {
		l := isa.LengthAt(code, off)
		if l == 0 {
			_, err := isa.Decode(code[off:], w.Prog.Base+uint64(off))
			return fmt.Errorf("workload %s: image not decodable at offset %d: %w", w.Profile.Name, off, err)
		}
		n++
		w.instIdx[off] = int32(n)
		off += l
	}

	w.insts = make([]isa.Inst, n)
	w.ctl = make([]Ctl, n)
	w.sites = make([]site, 0, len(behav))
	w.branchMask = make([]uint64, (len(code)+program.LineSize-1)/program.LineSize)
	off = 0
	for i := range w.insts {
		in, _ := isa.TryDecode(code[off:], w.Prog.Base+uint64(off)) // LengthAt decoded it
		w.insts[i] = in
		w.ctl[i].Site = -1
		if in.Class.IsBranch() {
			w.branchMask[off/program.LineSize] |= 1 << program.LineOffset(in.PC)
		}
		if in.Class == isa.ClassDirectCond || in.Class == isa.ClassIndirect || in.Class == isa.ClassIndirectCall {
			if b, ok := behav[in.PC]; ok && (b.cond != nil) == (in.Class == isa.ClassDirectCond) {
				w.ctl[i].Site = int32(len(w.sites))
				w.sites = append(w.sites, b)
			}
		}
		off += int(in.Len)
	}
	if len(w.sites) != len(behav) {
		return fmt.Errorf("workload %s: %d of %d behaviours do not label a branch of their kind",
			w.Profile.Name, len(behav)-len(w.sites), len(behav))
	}

	var run uint32
	for i := n - 1; i >= 0; i-- {
		if in := &w.insts[i]; in.Class.IsBranch() || in.Op == isa.OpHalt {
			run = 0
		} else {
			run++
		}
		w.ctl[i].Run = run
	}
	return nil
}

func (g *gen) isHot(name string) bool {
	return len(name) > 0 && name[0] == 'h'
}

// plan assigns hot-function levels and cold chain order.
func (g *gen) plan() {
	p := g.p
	g.hotNames = make([]string, p.HotFuncs)
	g.hotLevel = make([]int, p.HotFuncs)
	for i := range g.hotNames {
		g.hotNames[i] = fmt.Sprintf("h%d", i)
	}
	// Distribute levels geometrically: level l has roughly twice as many
	// functions as level l-1, so the call tree fans out.
	weights := make([]int, p.CallDepth)
	total := 0
	for l := range weights {
		weights[l] = 1 << l
		total += weights[l]
	}
	idx := 0
	for l := 0; l < p.CallDepth; l++ {
		n := p.HotFuncs * weights[l] / total
		if l == p.CallDepth-1 {
			n = p.HotFuncs - idx
		}
		for k := 0; k < n && idx < p.HotFuncs; k++ {
			g.hotLevel[idx] = l
			idx++
		}
	}
	g.coldNames = make([]string, p.ColdFuncs)
	for i := range g.coldNames {
		g.coldNames[i] = fmt.Sprintf("c%d", i)
	}
}

// layoutOrder produces the function emission order. Interleaved layout
// shuffles hot and cold together; BOLT layout puts all hot functions
// first.
func (g *gen) layoutOrder() []string {
	var order []string
	order = append(order, "main")
	if g.p.BoltLayout {
		order = append(order, g.hotNames...)
		order = append(order, g.coldNames...)
		return order
	}
	// Interleave proportionally: between consecutive hot functions,
	// place ColdFuncs/HotFuncs cold ones (remainder spread by error
	// accumulation), so most hot function entries and exits share lines
	// with cold code.
	ci := 0
	acc := 0
	for hi, h := range g.hotNames {
		order = append(order, h)
		acc += g.p.ColdFuncs
		n := acc / g.p.HotFuncs
		acc -= n * g.p.HotFuncs
		for k := 0; k < n && ci < len(g.coldNames); k++ {
			order = append(order, g.coldNames[ci])
			ci++
		}
		_ = hi
	}
	for ; ci < len(g.coldNames); ci++ {
		order = append(order, g.coldNames[ci])
	}
	return order
}

// hotAtLevel returns the names of hot functions at the given level.
func (g *gen) hotAtLevel(l int) []string {
	var out []string
	for i, name := range g.hotNames {
		if g.hotLevel[i] == l {
			out = append(out, name)
		}
	}
	return out
}

// pickHotDeeper returns a random hot function strictly below level l,
// or "" if none exists.
func (g *gen) pickHotDeeper(l int) string {
	var cands []int
	for i := range g.hotNames {
		if g.hotLevel[i] > l {
			cands = append(cands, i)
		}
	}
	if len(cands) == 0 {
		return ""
	}
	return g.hotNames[cands[g.rng.Intn(len(cands))]]
}

// nextSite returns a unique label suffix for a behaviour site.
func (g *gen) nextSite() string {
	g.siteSeq++
	return fmt.Sprintf("s%d", g.siteSeq)
}

// patternCond builds a deterministic repeating outcome pattern with the
// given taken bias: the history-predictable branch behaviour that
// dominates real workloads.
func (g *gen) patternCond(bias float64) CondBehavior {
	// Real branch populations are dominated by strongly biased sites
	// that a bimodal table handles without history capacity; a minority
	// need short-history patterns. Power-of-two lengths keep the joint
	// phase period of co-executing sites small so TAGE can learn the
	// interleavings.
	r := g.rng.Float64()
	var n int
	switch {
	case r < 0.60:
		// Constant-direction site.
		return PatternCond{Pattern: []bool{g.rng.Float64() < bias}}
	case r < 0.90:
		lens := [...]int{2, 4, 8}
		n = lens[g.rng.Intn(len(lens))]
	default:
		n = 16
	}
	pat := make([]bool, n)
	for i := range pat {
		pat[i] = g.rng.Float64() < bias
	}
	return PatternCond{Pattern: pat}
}

// filler emits n non-branch instructions with varied encodings/lengths.
func (g *gen) filler(fb *program.FuncBuilder, n int) {
	for i := 0; i < n; i++ {
		r := func(k int) uint8 { return uint8(g.rng.Intn(k)) }
		switch g.rng.Intn(12) {
		case 0:
			fb.ALUReg(g.rng.Intn(5), r(8), r(8))
		case 1:
			fb.ALUImm8(r(8), int8(g.rng.Intn(256)-128))
		case 2:
			fb.ALUImm32(r(8), g.rng.Int31())
		case 3:
			fb.MovImm8(r(8), int8(g.rng.Intn(256)-128))
		case 4:
			fb.MovImm32(r(8), g.rng.Int31())
		case 5:
			fb.Load(r(8), r(8), int32(g.rng.Intn(4096)-2048))
		case 6:
			fb.Store(r(8), r(8), int32(g.rng.Intn(256)-128))
		case 7:
			fb.Lea(r(8), r(8), int8(g.rng.Intn(100)))
		case 8:
			fb.Push(r(8))
		case 9:
			fb.Pop(r(8))
		case 10:
			fb.IncDec(r(8), g.rng.Intn(2) == 0)
		case 11:
			fb.Nop(1 + g.rng.Intn(4))
		}
	}
}

// condSite emits a conditional branch to target with a behaviour chosen
// from the profile's conditional mix, and registers the intent.
func (g *gen) condSite(fb *program.FuncBuilder, fn, target string, b CondBehavior) {
	site := g.nextSite()
	fb.Label(site)
	if b == nil {
		if g.rng.Float64() < g.p.CondNoise {
			// Data-dependent, irreducibly hard branch.
			b = BiasedCond{P: 0.5, Salt: g.rng.Uint64()}
		} else {
			// Most real branches are history-predictable: a fixed
			// biased pattern that TAGE learns after warmup.
			b = g.patternCond(g.p.CondTakenBias)
		}
	}
	fb.JccTo(uint8(g.rng.Intn(16)), target)
	g.conds = append(g.conds, condIntent{label: fn + "." + site, b: b})
}

// emitMain emits the dispatcher: an infinite loop calling every level-0
// hot function once per iteration.
func (g *gen) emitMain() {
	fb := g.b.Func("main", true)
	level0 := g.hotAtLevel(0)
	fb.Label("loop")
	for i, h := range level0 {
		g.filler(fb, 1+g.rng.Intn(2))
		fb.CallTo(h)
		_ = i
	}
	fb.JmpTo("loop")
}

// emitHotFunc emits one hot function: a chain of basic blocks whose
// terminators follow the profile's mix, plus the cold attachment sites.
func (g *gen) emitHotFunc(name string) {
	p := g.p
	fb := g.b.Func(name, true)
	var level int
	for i, n := range g.hotNames {
		if n == name {
			level = g.hotLevel[i]
			break
		}
	}
	nb := p.BlocksPerHotFunc[0] + g.rng.Intn(p.BlocksPerHotFunc[1]-p.BlocksPerHotFunc[0]+1)

	// Choose which blocks carry cold attachment sites.
	coldBlocks := map[int]bool{}
	for k := 0; k < p.ColdSitesPerHot && nb > 1; k++ {
		coldBlocks[g.rng.Intn(nb-1)] = true
	}

	// Outlined cold regions accumulate and are emitted after the final
	// ret; each needs a back-edge label to return to.
	var outl []outlined

	for blk := 0; blk < nb; blk++ {
		fb.Label(fmt.Sprintf("b%d", blk))
		g.filler(fb, p.InstsPerBlock[0]+g.rng.Intn(p.InstsPerBlock[1]-p.InstsPerBlock[0]+1))

		if coldBlocks[blk] {
			g.emitColdSite(fb, name, &outl)
		}

		if blk == nb-1 {
			break // final block gets the return below
		}
		// Terminator.
		r := g.rng.Float64()
		switch {
		case r < p.PCondSkip:
			// Forward conditional skipping 1-2 blocks when possible.
			skip := 1 + g.rng.Intn(2)
			tgt := blk + 1 + skip
			if tgt >= nb {
				tgt = nb - 1
			}
			if tgt > blk+1 {
				g.condSite(fb, name, fmt.Sprintf("b%d", tgt), nil)
			}
		case r < p.PCondSkip+p.PInnerLoop:
			// Short counted loop around a small body.
			top := fmt.Sprintf("t%d", blk)
			fb.Label(top)
			g.filler(fb, 2)
			fb.IncDec(uint8(g.rng.Intn(8)), true)
			trip := uint64(p.InnerTrip[0] + g.rng.Intn(p.InnerTrip[1]-p.InnerTrip[0]+1))
			site := g.nextSite()
			fb.Label(site)
			fb.JccTo(uint8(g.rng.Intn(16)), top)
			g.conds = append(g.conds, condIntent{label: name + "." + site, b: LoopCond{Trip: trip}})
		case r < p.PCondSkip+p.PInnerLoop+p.PCallNext:
			if callee := g.pickHotDeeper(level); callee != "" {
				fb.CallTo(callee)
			}
		case r < p.PCondSkip+p.PInnerLoop+p.PCallNext+p.PIndCall:
			g.emitIndCall(fb, name, level)
		}
		// Otherwise: plain fallthrough into the next block.
	}
	if g.rng.Float64() < 0.2 {
		fb.RetImm(int16(8 * (1 + g.rng.Intn(4))))
	} else {
		fb.Ret()
	}

	// Outlined cold regions live past the return, inside the same
	// function body: classic slow-path layout.
	for _, o := range outl {
		fb.Label(o.region)
		g.filler(fb, 2+g.rng.Intn(4))
		// A rarely-used conditional inside the cold region.
		site := g.nextSite()
		fb.Label(site)
		fb.JccTo(uint8(g.rng.Intn(16)), o.back)
		g.conds = append(g.conds, condIntent{label: name + "." + site, b: g.patternCond(0.3)})
		g.filler(fb, 1+g.rng.Intn(2))
		fb.JmpTo(o.back)
	}
}

// outlined records a cold region emitted past a hot function's return:
// region is the label of the region, back the label to jump back to.
type outlined struct {
	region string
	back   string
}

// emitColdSite emits one cold attachment inside a hot block: either a
// guarded direct call into a cold chain, or a guard jumping to an
// outlined region (recorded in outl for later emission).
func (g *gen) emitColdSite(fb *program.FuncBuilder, fn string, outl *[]outlined) {
	p := g.p
	period := uint64(p.ColdPeriod/2 + g.rng.Intn(p.ColdPeriod+1))
	if period == 0 {
		period = 1
	}
	phase := uint64(g.rng.Intn(int(period)))
	if g.rng.Float64() < p.PColdViaCall && len(g.coldNames) > 0 {
		// Guard normally taken: jumps over the call. Once per period it
		// falls through and the cold call executes.
		skip := g.nextSite()
		site := g.nextSite()
		fb.Label(site)
		fb.JccTo(uint8(g.rng.Intn(16)), skip)
		g.conds = append(g.conds, condIntent{
			label: fn + "." + site,
			b:     PeriodicCond{Period: period, Phase: phase},
		})
		fb.CallTo(g.pickColdEntry())
		fb.Label(skip)
		return
	}
	// Outlined region: guard normally NOT taken; on a cold episode it
	// jumps to the region, which jumps back.
	region := g.nextSite()
	back := g.nextSite()
	site := g.nextSite()
	fb.Label(site)
	fb.JccTo(uint8(g.rng.Intn(16)), region)
	g.conds = append(g.conds, condIntent{
		label: fn + "." + site,
		b:     InvertCond{Inner: PeriodicCond{Period: period, Phase: phase}},
	})
	fb.Label(back)
	*outl = append(*outl, outlined{region: region, back: back})
}

// emitIndCall emits an indirect call site whose target set is drawn from
// deeper hot functions.
func (g *gen) emitIndCall(fb *program.FuncBuilder, fn string, level int) {
	p := g.p
	var targets []string
	seen := map[string]bool{}
	for k := 0; k < p.IndTargets*2 && len(targets) < p.IndTargets; k++ {
		t := g.pickHotDeeper(level)
		if t == "" {
			break
		}
		if !seen[t] {
			seen[t] = true
			targets = append(targets, t)
		}
	}
	if len(targets) == 0 {
		return
	}
	reg := uint8(g.rng.Intn(8))
	fb.MovImm32(reg, 0) // target register setup; value supplied by oracle
	site := g.nextSite()
	fb.Label(site)
	fb.CallInd(reg)
	g.inds = append(g.inds, indIntent{
		label:   fn + "." + site,
		targets: targets,
		mega:    g.rng.Float64() < p.IndMegamorphic,
		salt:    g.rng.Uint64(),
	})
}

// emitColdFunc emits one cold function: a few blocks, biased conditional
// sites, optional chained call into a later cold function, ending in a
// return or a tail-jump into a later cold function.
func (g *gen) emitColdFunc(name string) {
	p := g.p
	fb := g.b.Func(name, false)
	var idx int
	fmt.Sscanf(name, "c%d", &idx)

	nb := p.BlocksPerColdFunc[0] + g.rng.Intn(p.BlocksPerColdFunc[1]-p.BlocksPerColdFunc[0]+1)
	for blk := 0; blk < nb; blk++ {
		fb.Label(fmt.Sprintf("b%d", blk))
		g.filler(fb, p.InstsPerBlock[0]+g.rng.Intn(p.InstsPerBlock[1]-p.InstsPerBlock[0]+1))
		if blk == nb-1 {
			break
		}
		// Cold-internal conditional skip.
		if g.rng.Float64() < 0.5 && blk+2 < nb {
			g.condSite(fb, name, fmt.Sprintf("b%d", blk+2), g.patternCond(0.4))
		}
		// Chained call one level deeper into the cold set.
		if g.rng.Float64() < 0.45 {
			if callee := g.pickColdDeeper(idx); callee != "" {
				fb.CallTo(callee)
			}
		}
	}
	// Ending: tail-jump (DirectUncond miss source) or return.
	if g.rng.Float64() < p.PColdTailCall {
		if tgt := g.pickColdDeeper(idx); tgt != "" {
			fb.JmpTo(tgt)
			return
		}
	}
	fb.Ret()
}

// pickColdEntry returns a random level-0 cold function: the entry point
// of a cold chain, the only kind hot code calls directly.
func (g *gen) pickColdEntry() string {
	for tries := 0; tries < 64; tries++ {
		idx := g.rng.Intn(len(g.coldNames))
		if g.coldLevel(idx) == 0 {
			return g.coldNames[idx]
		}
	}
	return g.coldNames[0]
}

// coldLevel assigns every cold function a chain level; calls and
// tail-jumps only go from level L to level L+1, so one cold episode
// cascades through at most ColdChainDepth+1 levels instead of walking
// the whole cold set.
func (g *gen) coldLevel(idx int) int {
	return idx % (g.p.ColdChainDepth + 1)
}

// pickColdDeeper returns a nearby cold function exactly one chain level
// deeper, or "" when the caller is already at the deepest level.
func (g *gen) pickColdDeeper(idx int) string {
	want := g.coldLevel(idx) + 1
	if want > g.p.ColdChainDepth {
		return ""
	}
	lo := idx + 1
	hi := idx + 32
	if hi >= len(g.coldNames) {
		hi = len(g.coldNames) - 1
	}
	var cands []int
	for j := lo; j <= hi; j++ {
		if g.coldLevel(j) == want {
			cands = append(cands, j)
		}
	}
	if len(cands) == 0 {
		return ""
	}
	return g.coldNames[cands[g.rng.Intn(len(cands))]]
}
