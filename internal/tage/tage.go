// Package tage implements a TAGE-SC-L style conditional branch
// predictor (Seznec, CBP-5), the direction predictor the paper's
// baseline front-end uses (Table 1). It is a genuine TAGE: a bimodal
// base table plus N partially-tagged tables indexed by geometrically
// increasing global-history lengths via folded-history registers,
// usefulness counters, and allocation on misprediction — augmented with
// a loop predictor ("L") and a small statistical-corrector bias table
// ("SC").
//
// The simulator uses the immediate-update discipline common in
// front-end studies: the true outcome is known when the prediction is
// consumed, so Predict is followed by Update with the architectural
// outcome, and wrong-path predictions call Predict only (no state
// change). Global history therefore always reflects the true path.
package tage

import (
	"errors"
	"math"
)

// Config sizes the predictor.
type Config struct {
	// NumTables is the number of tagged tables.
	NumTables int
	// LogBase is log2 of bimodal entries.
	LogBase int
	// LogTagged is log2 of entries per tagged table.
	LogTagged int
	// TagBits is the partial tag width in tagged tables.
	TagBits int
	// MinHist and MaxHist bound the geometric history series.
	MinHist, MaxHist int
	// UseLoop enables the loop predictor.
	UseLoop bool
	// UseSC enables the statistical-corrector bias table.
	UseSC bool
}

// DefaultConfig approximates the paper's 64KB TAGE-SC-L budget.
func DefaultConfig() Config {
	return Config{
		NumTables: 8,
		LogBase:   14,
		LogTagged: 11,
		TagBits:   11,
		MinHist:   5,
		MaxHist:   160,
		UseLoop:   true,
		UseSC:     true,
	}
}

// Validate rejects geometries the predictor cannot index: Prediction
// holds 16 tables, the second tag fold is TagBits-1 wide, and a fold
// needs nonzero widths and history lengths.
func (c Config) Validate() error {
	switch {
	case c.NumTables < 1 || c.NumTables > len(Prediction{}.indices):
		return errors.New("tage: NumTables must be in [1, 16]")
	case c.LogTagged < 1 || c.TagBits < 2:
		return errors.New("tage: LogTagged must be at least 1 and TagBits at least 2")
	case c.MinHist < 1 || c.MinHist > c.MaxHist:
		return errors.New("tage: history lengths need 1 <= MinHist <= MaxHist")
	}
	return nil
}

// StorageBits returns the approximate hardware budget in bits.
func (c Config) StorageBits() int {
	bits := (1 << c.LogBase) * 2
	perEntry := 3 + c.TagBits + 2 // ctr + tag + u
	bits += c.NumTables * (1 << c.LogTagged) * perEntry
	if c.UseLoop {
		bits += loopEntries * 52
	}
	if c.UseSC {
		bits += scEntries * 6
	}
	return bits
}

// Stats counts prediction events.
type Stats struct {
	Predicts      uint64
	Mispredicts   uint64
	ProviderHits  [16]uint64 // per-table provider counts (0 = bimodal)
	LoopOverrides uint64
	SCOverrides   uint64
	Allocations   uint64
}

type taggedEntry struct {
	ctr int8 // 3-bit signed saturating [-4,3]
	tag uint32
	u   uint8 // 2-bit usefulness
}

// folded is a Seznec cyclic-shift-register folding of the most recent
// origLen history bits into compLen bits. TAGE keeps the registers
// current on every push because it reads them about as often as it
// pushes: each identified conditional is predicted and pushed once
// (4.8M predicts against 4.8M speculative pushes over the exact Fig 14
// sweep of voter, kafka, dotty and finagle-chirper). ITTAGE, which
// predicts far less often than it pushes, folds at Predict instead.
type folded struct {
	comp     uint64
	compLen  uint
	origLen  uint
	outPoint uint
}

func newFolded(origLen, compLen int) folded {
	return folded{
		compLen:  uint(compLen),
		origLen:  uint(origLen),
		outPoint: uint(origLen % compLen),
	}
}

// update incorporates a new youngest bit; oldest is the bit that leaves
// the origLen window (the previously (origLen-1)-th most recent bit).
func (f *folded) update(youngest, oldest uint64) {
	f.comp = (f.comp << 1) | youngest
	f.comp ^= oldest << f.outPoint
	f.comp ^= f.comp >> f.compLen
	f.comp &= (1 << f.compLen) - 1
}

// history is a circular global-history bit buffer.
type history struct {
	bits []uint64
	ptr  int // index of most recent bit
	mask int
}

func newHistory(n int) *history {
	// Round up to a power of two of at least n bits.
	words := 1
	for words*64 < n {
		words *= 2
	}
	return &history{bits: make([]uint64, words), mask: words*64 - 1}
}

// bit returns the k-th most recent bit (k=0 is newest).
func (h *history) bit(k int) uint64 {
	idx := (h.ptr - k) & h.mask
	return (h.bits[idx/64] >> (uint(idx) % 64)) & 1
}

// push inserts a new most-recent bit.
func (h *history) push(b uint64) {
	h.ptr = (h.ptr + 1) & h.mask
	word, off := h.ptr/64, uint(h.ptr)%64
	h.bits[word] = (h.bits[word] &^ (1 << off)) | (b << off)
}

// table is one tagged component.
type table struct {
	entries []taggedEntry
	histLen int
}

const (
	loopEntries = 256
	scEntries   = 4096
)

// loopEntry tracks one candidate loop branch.
type loopEntry struct {
	pc       uint64
	trip     uint32 // learned trip count
	current  uint32 // position within the current iteration run
	conf     uint8  // confidence that trip is stable
	takenRun uint32 // running count of consecutive takens
	valid    bool
}

// Prediction carries everything Update needs: the predicted direction
// and the provider bookkeeping.
type Prediction struct {
	// Taken is the final predicted direction.
	Taken bool

	provider  int // -1 = bimodal
	altTaken  bool
	provTaken bool
	indices   [16]uint32
	tags      [16]uint32
	baseIdx   uint32
	loopHit   bool
	loopTaken bool
	scUsed    bool
}

// histState is one complete global-history state: the raw bit buffer,
// the per-table folded registers derived from it, and the path history.
// The predictor keeps two: a speculative state updated with predicted
// outcomes at prediction time (what the BPU indexes with), and an
// architectural state updated with true outcomes at decode. A re-steer
// copies arch over spec, modeling hardware history checkpointing.
type histState struct {
	ghist *history
	phist uint64
	folds [][3]folded // per table: index, tag, tag2
}

func (h *histState) push(b uint64, pc uint64, tables []table) {
	for i := range tables {
		oldest := h.ghist.bit(tables[i].histLen - 1)
		h.folds[i][0].update(b, oldest)
		h.folds[i][1].update(b, oldest)
		h.folds[i][2].update(b, oldest)
	}
	h.ghist.push(b)
	h.phist = (h.phist << 1) | ((pc >> 2) & 1)
}

func (h *histState) copyFrom(src *histState) {
	copy(h.ghist.bits, src.ghist.bits)
	h.ghist.ptr = src.ghist.ptr
	h.phist = src.phist
	copy(h.folds, src.folds)
}

// Predictor is a TAGE-SC-L direction predictor. Not safe for concurrent
// use.
type Predictor struct {
	cfg    Config
	base   []int8 // 2-bit bimodal [-2,1]
	tables []table
	spec   histState // prediction-time history
	arch   histState // decode-time (true-path) history
	loop   []loopEntry
	sc     []int8 // per-hash bias counters
	useAlt int8   // USE_ALT_ON_NA counter
	stats  Stats
}

// New builds a predictor from cfg. It panics on a geometry Validate
// rejects; frontend.New validates first and reports the error.
func New(cfg Config) *Predictor {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	p := &Predictor{
		cfg:  cfg,
		base: make([]int8, 1<<cfg.LogBase),
	}
	// Geometric history lengths between MinHist and MaxHist.
	p.tables = make([]table, cfg.NumTables)
	p.spec = histState{ghist: newHistory(cfg.MaxHist + 64), folds: make([][3]folded, cfg.NumTables)}
	p.arch = histState{ghist: newHistory(cfg.MaxHist + 64), folds: make([][3]folded, cfg.NumTables)}
	for i := range p.tables {
		var l int
		if cfg.NumTables == 1 {
			l = cfg.MinHist
		} else {
			ratio := float64(cfg.MaxHist) / float64(cfg.MinHist)
			l = int(float64(cfg.MinHist)*math.Pow(ratio, float64(i)/float64(cfg.NumTables-1)) + 0.5)
		}
		p.tables[i] = table{
			entries: make([]taggedEntry, 1<<cfg.LogTagged),
			histLen: l,
		}
		fs := [3]folded{
			newFolded(l, cfg.LogTagged),
			newFolded(l, cfg.TagBits),
			newFolded(l, cfg.TagBits-1),
		}
		p.spec.folds[i] = fs
		p.arch.folds[i] = fs
	}
	if cfg.UseLoop {
		p.loop = make([]loopEntry, loopEntries)
	}
	if cfg.UseSC {
		p.sc = make([]int8, scEntries)
	}
	return p
}

// clone returns an independent deep copy of one history state.
func (h *histState) clone() histState {
	c := histState{phist: h.phist}
	if h.ghist != nil {
		c.ghist = &history{
			bits: make([]uint64, len(h.ghist.bits)),
			ptr:  h.ghist.ptr,
			mask: h.ghist.mask,
		}
		copy(c.ghist.bits, h.ghist.bits)
	}
	if h.folds != nil {
		c.folds = make([][3]folded, len(h.folds))
		copy(c.folds, h.folds)
	}
	return c
}

// Clone returns an independent deep copy of the predictor: same table
// contents, both history states, loop and bias state, and statistics.
func (p *Predictor) Clone() *Predictor {
	n := &Predictor{
		cfg:    p.cfg,
		base:   make([]int8, len(p.base)),
		tables: make([]table, len(p.tables)),
		spec:   p.spec.clone(),
		arch:   p.arch.clone(),
		loop:   make([]loopEntry, len(p.loop)),
		sc:     make([]int8, len(p.sc)),
		useAlt: p.useAlt,
		stats:  p.stats,
	}
	copy(n.base, p.base)
	copy(n.loop, p.loop)
	copy(n.sc, p.sc)
	for i, t := range p.tables {
		n.tables[i] = table{entries: make([]taggedEntry, len(t.entries)), histLen: t.histLen}
		copy(n.tables[i].entries, t.entries)
	}
	return n
}

func (p *Predictor) index(i int, pc uint64) uint32 {
	mask := uint32(1<<p.cfg.LogTagged) - 1
	h := uint32(pc) ^ uint32(pc>>uint(p.cfg.LogTagged)) ^ uint32(p.spec.folds[i][0].comp) ^
		uint32(p.spec.phist&((1<<16)-1))*uint32(i*2+1)
	return h & mask
}

func (p *Predictor) tag(i int, pc uint64) uint32 {
	mask := uint32(1<<p.cfg.TagBits) - 1
	return (uint32(pc) ^ uint32(p.spec.folds[i][1].comp) ^ (uint32(p.spec.folds[i][2].comp) << 1)) & mask
}

func (p *Predictor) baseIndex(pc uint64) uint32 {
	return uint32(pc) & (uint32(1<<p.cfg.LogBase) - 1)
}

// Predict computes the direction prediction for the conditional branch
// at pc without changing any state, so it is safe on the wrong path.
func (p *Predictor) Predict(pc uint64) Prediction {
	pr := Prediction{provider: -1}
	pr.baseIdx = p.baseIndex(pc)
	basePred := p.base[pr.baseIdx] >= 0

	// Find the two longest-history matching tables.
	prov, alt := -1, -1
	for i := p.cfg.NumTables - 1; i >= 0; i-- {
		idx := p.index(i, pc)
		tg := p.tag(i, pc)
		pr.indices[i] = idx
		pr.tags[i] = tg
		e := &p.tables[i].entries[idx]
		if e.tag == tg {
			if prov < 0 {
				prov = i
			} else if alt < 0 {
				alt = i
				break
			}
		}
	}
	pr.provider = prov
	altPred := basePred
	if alt >= 0 {
		altPred = p.tables[alt].entries[pr.indices[alt]].ctr >= 0
	}
	pr.altTaken = altPred
	pred := basePred
	if prov >= 0 {
		e := &p.tables[prov].entries[pr.indices[prov]]
		pr.provTaken = e.ctr >= 0
		// Weak new entries may be overridden by the alternate
		// prediction (USE_ALT_ON_NA heuristic).
		weak := (e.ctr == 0 || e.ctr == -1) && e.u == 0
		if weak && p.useAlt >= 0 {
			pred = altPred
		} else {
			pred = pr.provTaken
		}
	}
	pr.Taken = pred

	// Statistical corrector: flip low-confidence predictions when the
	// per-branch bias strongly disagrees.
	if p.cfg.UseSC {
		scIdx := (uint32(pc) ^ uint32(pc>>12)) & (scEntries - 1)
		bias := p.sc[scIdx]
		conf := 0
		if prov >= 0 {
			c := p.tables[prov].entries[pr.indices[prov]].ctr
			if c >= 2 || c <= -3 {
				conf = 1
			}
		}
		if conf == 0 && (bias >= 24 || bias <= -24) {
			newPred := bias >= 0
			if newPred != pred {
				pr.scUsed = true
				pred = newPred
				pr.Taken = pred
			}
		}
	}

	// Loop predictor override: a confident loop entry knows exactly
	// which visit falls through.
	if p.cfg.UseLoop {
		le := &p.loop[p.loopIndex(pc)]
		if le.valid && le.pc == pc && le.conf >= 3 && le.trip > 0 {
			pr.loopHit = true
			pr.loopTaken = le.current != le.trip-1
			pr.Taken = pr.loopTaken
		}
	}
	return pr
}

func (p *Predictor) loopIndex(pc uint64) uint32 {
	return uint32(pc>>2) & (loopEntries - 1)
}

// Update trains the predictor with the architectural outcome of the
// branch previously predicted by pred, then pushes the outcome into the
// global history. Call it exactly once per true-path conditional.
func (p *Predictor) Update(pc uint64, pred Prediction, taken bool) {
	p.stats.Predicts++
	if pred.Taken != taken {
		p.stats.Mispredicts++
	}

	// Loop predictor training.
	if p.cfg.UseLoop {
		p.trainLoop(pc, pred, taken)
		if pred.loopHit && pred.loopTaken == taken && pred.provTaken != taken {
			p.stats.LoopOverrides++
		}
	}
	if pred.scUsed && pred.Taken == taken {
		p.stats.SCOverrides++
	}
	if p.cfg.UseSC {
		scIdx := (uint32(pc) ^ uint32(pc>>12)) & (scEntries - 1)
		p.sc[scIdx] = satUpdate(p.sc[scIdx], taken, 63)
	}

	prov := pred.provider
	if prov >= 0 {
		pr := &p.tables[prov].entries[pred.indices[prov]]
		if pred.provider >= 0 && int(prov) < len(p.stats.ProviderHits) {
			p.stats.ProviderHits[prov]++
		}
		// Update usefulness when provider and alt disagree.
		if pred.provTaken != pred.altTaken {
			if pred.provTaken == taken {
				if pr.u < 3 {
					pr.u++
				}
			} else if pr.u > 0 {
				pr.u--
			}
			// Train USE_ALT_ON_NA on weak entries.
			weak := (pr.ctr == 0 || pr.ctr == -1) && pr.u == 0
			if weak {
				if pred.provTaken == taken {
					if p.useAlt > -8 {
						p.useAlt--
					}
				} else if p.useAlt < 7 {
					p.useAlt++
				}
			}
		}
		pr.ctr = satUpdate3(pr.ctr, taken)
	} else {
		p.stats.ProviderHits[0]++
	}
	// Base table always trains.
	p.base[pred.baseIdx] = satUpdate2(p.base[pred.baseIdx], taken)

	// Allocate on misprediction in a longer-history table.
	if pred.Taken != taken && prov < p.cfg.NumTables-1 {
		p.allocate(pc, pred, taken, prov)
	}

}

// SpecPush records a *predicted* conditional outcome into the
// speculative history at prediction time. The BPU indexes with this
// state, so the history a branch sees is a deterministic function of
// program position as long as predictions are correct.
func (p *Predictor) SpecPush(taken bool, pc uint64) {
	var b uint64
	if taken {
		b = 1
	}
	p.spec.push(b, pc, p.tables)
}

// ArchPush records a *true* conditional outcome into the architectural
// history at decode.
func (p *Predictor) ArchPush(taken bool, pc uint64) {
	var b uint64
	if taken {
		b = 1
	}
	p.arch.push(b, pc, p.tables)
}

// SyncSpec repairs the speculative history from the architectural one
// after a re-steer (hardware history checkpoint restore).
func (p *Predictor) SyncSpec() { p.spec.copyFrom(&p.arch) }

// allocate claims up to one entry in a table with longer history than
// the provider, preferring entries with zero usefulness.
func (p *Predictor) allocate(pc uint64, pred Prediction, taken bool, prov int) {
	start := prov + 1
	// Probabilistically skip one table to spread allocations (cheap
	// stand-in for Seznec's random skip, derived from path history).
	if start < p.cfg.NumTables-1 && p.spec.phist&3 == 3 {
		start++
	}
	for i := start; i < p.cfg.NumTables; i++ {
		e := &p.tables[i].entries[pred.indices[i]]
		if e.u == 0 {
			e.tag = pred.tags[i]
			if taken {
				e.ctr = 0
			} else {
				e.ctr = -1
			}
			e.u = 0
			p.stats.Allocations++
			return
		}
	}
	// No victim: age usefulness along the way.
	for i := prov + 1; i < p.cfg.NumTables; i++ {
		e := &p.tables[i].entries[pred.indices[i]]
		if e.u > 0 {
			e.u--
		}
	}
}

func (p *Predictor) trainLoop(pc uint64, pred Prediction, taken bool) {
	le := &p.loop[p.loopIndex(pc)]
	if !le.valid || le.pc != pc {
		// Adopt the slot for this branch on a taken outcome.
		if taken {
			*le = loopEntry{pc: pc, valid: true, takenRun: 1}
		}
		return
	}
	if taken {
		le.takenRun++
		le.current++
		if le.trip > 0 && le.current >= le.trip {
			// Ran past the learned trip count: trip unstable.
			if le.conf > 0 {
				le.conf--
			} else {
				le.trip = 0
			}
			le.current = 0
		}
		return
	}
	// Not taken: the run ended; takenRun+1 is the observed trip count.
	observed := le.takenRun + 1
	if le.trip == observed {
		if le.conf < 7 {
			le.conf++
		}
	} else {
		le.trip = observed
		le.conf = 0
	}
	le.takenRun = 0
	le.current = 0
}

// Stats returns accumulated counts.
func (p *Predictor) Stats() Stats { return p.stats }

// ResetStats zeroes statistics without forgetting learned state.
func (p *Predictor) ResetStats() { p.stats = Stats{} }

// satUpdate3 is a 3-bit signed saturating counter update in [-4,3].
func satUpdate3(c int8, up bool) int8 {
	if up {
		if c < 3 {
			return c + 1
		}
		return c
	}
	if c > -4 {
		return c - 1
	}
	return c
}

// satUpdate2 is a 2-bit signed saturating counter update in [-2,1].
func satUpdate2(c int8, up bool) int8 {
	if up {
		if c < 1 {
			return c + 1
		}
		return c
	}
	if c > -2 {
		return c - 1
	}
	return c
}

// satUpdate is a signed saturating counter with symmetric bound.
func satUpdate(c int8, up bool, bound int8) int8 {
	if up {
		if c < bound {
			return c + 1
		}
		return c
	}
	if c > -bound {
		return c - 1
	}
	return c
}
