// Package ittage implements an ITTAGE-style indirect branch target
// predictor (Seznec, CBP-2011), used by the paper's baseline BPU
// (Table 1). Like TAGE it combines a tagless base table with
// partially-tagged tables indexed by geometrically longer global path
// history; entries store full targets plus a confidence counter.
//
// The front-end pushes two path-history bits per taken branch (SpecPush
// at prediction, ArchPush at decode), so the predictor can distinguish
// target rotations by the control-flow path (and by its own previous
// targets, whose bits enter the same history). Wrong-path lookups use
// Predict only.
package ittage

import (
	"errors"
	"math"
)

// Config sizes the predictor.
type Config struct {
	// NumTables is the number of tagged tables.
	NumTables int
	// LogBase is log2 of base-table entries.
	LogBase int
	// LogTagged is log2 of entries per tagged table.
	LogTagged int
	// TagBits is the partial tag width.
	TagBits int
	// MinHist and MaxHist bound the geometric history lengths.
	MinHist, MaxHist int
}

// DefaultConfig approximates the paper's 64KB ITTAGE budget.
func DefaultConfig() Config {
	return Config{
		NumTables: 6,
		LogBase:   11,
		LogTagged: 9,
		TagBits:   11,
		MinHist:   4,
		MaxHist:   120,
	}
}

// Validate rejects geometries the predictor cannot index: Prediction
// holds 16 tables, and a fold needs nonzero widths and history lengths.
func (c Config) Validate() error {
	switch {
	case c.NumTables < 1 || c.NumTables > len(Prediction{}.indices):
		return errors.New("ittage: NumTables must be in [1, 16]")
	case c.LogTagged < 1 || c.TagBits < 1:
		return errors.New("ittage: LogTagged and TagBits must be at least 1")
	case c.MinHist < 1 || c.MinHist > c.MaxHist:
		return errors.New("ittage: history lengths need 1 <= MinHist <= MaxHist")
	}
	return nil
}

// StorageBits returns the approximate hardware budget in bits.
func (c Config) StorageBits() int {
	bits := (1 << c.LogBase) * (64 + 2)
	perEntry := 64 + 2 + c.TagBits + 2
	bits += c.NumTables * (1 << c.LogTagged) * perEntry
	return bits
}

// Stats counts prediction events.
type Stats struct {
	Predicts     uint64
	Mispredicts  uint64
	NoPrediction uint64
	Allocations  uint64
}

type baseEntry struct {
	target uint64
	ctr    int8
	valid  bool
}

type taggedEntry struct {
	tag    uint32
	target uint64
	ctr    int8 // 2-bit confidence [-2,1]
	u      uint8
	valid  bool
}

type table struct {
	entries []taggedEntry
	histLen int
}

// histState is one path history: a shift register of raw path bits,
// the youngest at bit 0 of word 0, long enough for MaxHist. The
// predictor keeps a speculative state advanced with predicted targets
// at prediction time and an architectural state advanced with true
// targets at decode; SyncSpec repairs the former from the latter after
// a re-steer. Tables read it only through fold, at Predict: pushes
// outnumber predictions by two orders of magnitude, so keeping
// Seznec's per-table folded registers current on every push would
// spend nearly all the history work on values nothing reads.
type histState []uint64

// push shifts in one taken branch's two path bits, b2 the youngest.
func (h histState) push(b1, b2 uint64) {
	for i := len(h) - 1; i > 0; i-- {
		h[i] = h[i]<<2 | h[i-1]>>62
	}
	h[0] = h[0]<<2 | b1<<1 | b2
}

// fold compresses the youngest n bits to width bits: the XOR of
// consecutive width-bit chunks, youngest chunk first. This equals, bit
// for bit, the circular folded register of length n and width width
// that Seznec's TAGE updates on every push.
func (h histState) fold(n, width int) uint32 {
	var r uint64
	for off := 0; off < n; off += width {
		w := min(width, n-off)
		i, sh := off/64, uint(off%64)
		chunk := h[i] >> sh
		if sh+uint(w) > 64 {
			chunk |= h[i+1] << (64 - sh)
		}
		r ^= chunk & (1<<uint(w) - 1)
	}
	return uint32(r)
}

// Prediction carries provider bookkeeping from Predict to Update.
type Prediction struct {
	// Target is the predicted target, 0 when no prediction exists.
	Target uint64
	// Valid reports whether any component supplied a target.
	Valid bool

	provider int // -1 = base
	indices  [16]uint32
	tags     [16]uint32
	baseIdx  uint32
}

// Predictor is an ITTAGE target predictor. Not safe for concurrent use.
type Predictor struct {
	cfg    Config
	base   []baseEntry
	tables []table
	spec   histState
	arch   histState
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
		base: make([]baseEntry, 1<<cfg.LogBase),
	}
	p.tables = make([]table, cfg.NumTables)
	p.spec = make(histState, (cfg.MaxHist+2+63)/64)
	p.arch = make(histState, len(p.spec))
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
	}
	return p
}

// Clone returns an independent deep copy of the predictor: same table
// contents, both history states, and statistics.
func (p *Predictor) Clone() *Predictor {
	n := &Predictor{
		cfg:    p.cfg,
		base:   make([]baseEntry, len(p.base)),
		tables: make([]table, len(p.tables)),
		spec:   append(histState(nil), p.spec...),
		arch:   append(histState(nil), p.arch...),
		stats:  p.stats,
	}
	copy(n.base, p.base)
	for i, t := range p.tables {
		n.tables[i] = table{entries: make([]taggedEntry, len(t.entries)), histLen: t.histLen}
		copy(n.tables[i].entries, t.entries)
	}
	return n
}

func (p *Predictor) index(i int, pc uint64) uint32 {
	mask := uint32(1<<p.cfg.LogTagged) - 1
	return (uint32(pc) ^ uint32(pc>>uint(p.cfg.LogTagged)) ^ p.spec.fold(p.tables[i].histLen, p.cfg.LogTagged)) & mask
}

func (p *Predictor) tag(i int, pc uint64) uint32 {
	mask := uint32(1<<p.cfg.TagBits) - 1
	return (uint32(pc>>2) ^ p.spec.fold(p.tables[i].histLen, p.cfg.TagBits)) & mask
}

// Predict returns the target prediction for the indirect branch at pc
// without mutating state.
func (p *Predictor) Predict(pc uint64) Prediction {
	pr := Prediction{provider: -1}
	pr.baseIdx = uint32(pc>>1) & (uint32(1<<p.cfg.LogBase) - 1)
	for i := p.cfg.NumTables - 1; i >= 0; i-- {
		pr.indices[i] = p.index(i, pc)
		pr.tags[i] = p.tag(i, pc)
	}
	for i := p.cfg.NumTables - 1; i >= 0; i-- {
		e := &p.tables[i].entries[pr.indices[i]]
		if e.valid && e.tag == pr.tags[i] {
			pr.provider = i
			pr.Target = e.target
			pr.Valid = true
			return pr
		}
	}
	be := &p.base[pr.baseIdx]
	if be.valid {
		pr.Target = be.target
		pr.Valid = true
	}
	return pr
}

// Update trains the predictor with the actual target and pushes nothing
// into history (the front-end pushes history for every taken branch via
// SpecPush and ArchPush, keeping one global ordering).
func (p *Predictor) Update(pc uint64, pred Prediction, actual uint64) {
	p.stats.Predicts++
	correct := pred.Valid && pred.Target == actual
	if !pred.Valid {
		p.stats.NoPrediction++
	}
	if !correct {
		p.stats.Mispredicts++
	}

	if pred.provider >= 0 {
		e := &p.tables[pred.provider].entries[pred.indices[pred.provider]]
		if e.target == actual {
			if e.ctr < 1 {
				e.ctr++
			}
			if e.u < 3 {
				e.u++
			}
		} else {
			if e.ctr > -2 {
				e.ctr--
			}
			if e.ctr <= -2 {
				// Low confidence: replace the target in place.
				e.target = actual
				e.ctr = 0
			}
			if e.u > 0 {
				e.u--
			}
		}
	} else {
		be := &p.base[pred.baseIdx]
		if !be.valid || be.ctr <= -2 {
			*be = baseEntry{target: actual, valid: true}
		} else if be.target == actual {
			if be.ctr < 1 {
				be.ctr++
			}
		} else {
			be.ctr--
		}
	}

	// Allocate a longer-history entry on misprediction.
	if !correct && pred.provider < p.cfg.NumTables-1 {
		for i := pred.provider + 1; i < p.cfg.NumTables; i++ {
			e := &p.tables[i].entries[pred.indices[i]]
			if !e.valid || e.u == 0 {
				*e = taggedEntry{tag: pred.tags[i], target: actual, ctr: 0, valid: true}
				p.stats.Allocations++
				return
			}
		}
		for i := pred.provider + 1; i < p.cfg.NumTables; i++ {
			e := &p.tables[i].entries[pred.indices[i]]
			if e.u > 0 {
				e.u--
			}
		}
	}
}

// pathBits derives the two history bits one taken branch contributes,
// as in Seznec's ITTAGE: target bits carry the information needed to
// tell apart rotation states of a polymorphic site reached along an
// otherwise identical path.
func pathBits(pc, target uint64) (uint64, uint64) {
	b1 := ((pc >> 2) ^ (target >> 4) ^ (target >> 9)) & 1
	b2 := ((target >> 5) ^ (target >> 12)) & 1
	return b1, b2
}

// SpecPush records a *predicted* taken branch (any class) into the
// speculative path history at prediction time.
func (p *Predictor) SpecPush(pc, target uint64) {
	p.spec.push(pathBits(pc, target))
}

// ArchPush records a *true* taken branch into the architectural path
// history at decode.
func (p *Predictor) ArchPush(pc, target uint64) {
	p.arch.push(pathBits(pc, target))
}

// SyncSpec repairs the speculative history from the architectural one
// after a re-steer.
func (p *Predictor) SyncSpec() { copy(p.spec, p.arch) }

// Stats returns accumulated counts.
func (p *Predictor) Stats() Stats { return p.stats }

// ResetStats zeroes statistics without forgetting learned state.
func (p *Predictor) ResetStats() { p.stats = Stats{} }
