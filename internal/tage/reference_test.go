package tage

import (
	"math"
	"testing"
)

// The reference predictor below is TAGE-SC-L in its earlier layout: a
// ring-buffer history, three folded registers per table and history
// state (none shared), 32-bit indices and tags in its prediction
// record, and 12-byte tagged entries. It stays a plain copy of that
// algorithm so FuzzTAGEMatchesReference can require the compact layout
// to predict, train and count exactly as it did.

type refFolded struct {
	comp, compLen, outPoint uint64
}

func (f *refFolded) update(youngest, oldest uint64) {
	f.comp = (f.comp << 1) | youngest
	f.comp ^= oldest << f.outPoint
	f.comp ^= f.comp >> f.compLen
	f.comp &= (1 << f.compLen) - 1
}

type refRing struct {
	bits []uint64
	ptr  int
	mask int
}

func newRefRing(n int) refRing {
	words := 1
	for words*64 < n {
		words *= 2
	}
	return refRing{bits: make([]uint64, words), mask: words*64 - 1}
}

func (h *refRing) bit(k int) uint64 {
	idx := (h.ptr - k) & h.mask
	return (h.bits[idx/64] >> (uint(idx) % 64)) & 1
}

func (h *refRing) push(b uint64) {
	h.ptr = (h.ptr + 1) & h.mask
	word, off := h.ptr/64, uint(h.ptr)%64
	h.bits[word] = (h.bits[word] &^ (1 << off)) | (b << off)
}

type refHist struct {
	ring  refRing
	phist uint64
	folds [][3]refFolded
}

func (h *refHist) push(b, pc uint64, histLens []int) {
	for i, l := range histLens {
		oldest := h.ring.bit(l - 1)
		for k := range h.folds[i] {
			h.folds[i][k].update(b, oldest)
		}
	}
	h.ring.push(b)
	h.phist = (h.phist << 1) | ((pc >> 2) & 1)
}

func (h *refHist) clone() refHist {
	c := *h
	c.ring.bits = append([]uint64(nil), h.ring.bits...)
	c.folds = append([][3]refFolded(nil), h.folds...)
	return c
}

type refEntry struct {
	ctr int8
	tag uint32
	u   uint8
}

type refPrediction struct {
	Taken     bool
	provider  int
	altTaken  bool
	provTaken bool
	indices   [16]uint32
	tags      [16]uint32
	baseIdx   uint32
	loopHit   bool
	loopTaken bool
	scUsed    bool
}

type refPredictor struct {
	cfg        Config
	base       []int8
	tables     [][]refEntry
	histLens   []int
	spec, arch refHist
	loop       []loopEntry
	sc         []int8
	useAlt     int8
	stats      Stats
}

func newRef(cfg Config) *refPredictor {
	p := &refPredictor{
		cfg:      cfg,
		base:     make([]int8, 1<<cfg.LogBase),
		tables:   make([][]refEntry, cfg.NumTables),
		histLens: make([]int, cfg.NumTables),
		loop:     make([]loopEntry, loopEntries),
		sc:       make([]int8, scEntries),
	}
	p.spec = refHist{ring: newRefRing(cfg.MaxHist + 64), folds: make([][3]refFolded, cfg.NumTables)}
	p.arch = refHist{ring: newRefRing(cfg.MaxHist + 64), folds: make([][3]refFolded, cfg.NumTables)}
	for i := range p.tables {
		l := cfg.MinHist
		if cfg.NumTables > 1 {
			ratio := float64(cfg.MaxHist) / float64(cfg.MinHist)
			l = int(float64(cfg.MinHist)*math.Pow(ratio, float64(i)/float64(cfg.NumTables-1)) + 0.5)
		}
		p.tables[i] = make([]refEntry, 1<<cfg.LogTagged)
		p.histLens[i] = l
		for k, w := range [3]int{cfg.LogTagged, cfg.TagBits, cfg.TagBits - 1} {
			f := refFolded{compLen: uint64(w), outPoint: uint64(l % w)}
			p.spec.folds[i][k], p.arch.folds[i][k] = f, f
		}
	}
	return p
}

func (p *refPredictor) clone() *refPredictor {
	n := *p
	n.base = append([]int8(nil), p.base...)
	n.tables = make([][]refEntry, len(p.tables))
	for i, t := range p.tables {
		n.tables[i] = append([]refEntry(nil), t...)
	}
	n.spec, n.arch = p.spec.clone(), p.arch.clone()
	n.loop = append([]loopEntry(nil), p.loop...)
	n.sc = append([]int8(nil), p.sc...)
	return &n
}

func (p *refPredictor) index(i int, pc uint64) uint32 {
	mask := uint32(1<<p.cfg.LogTagged) - 1
	h := uint32(pc) ^ uint32(pc>>uint(p.cfg.LogTagged)) ^ uint32(p.spec.folds[i][0].comp) ^
		uint32(p.spec.phist&((1<<16)-1))*uint32(i*2+1)
	return h & mask
}

func (p *refPredictor) tag(i int, pc uint64) uint32 {
	mask := uint32(1<<p.cfg.TagBits) - 1
	return (uint32(pc) ^ uint32(p.spec.folds[i][1].comp) ^ (uint32(p.spec.folds[i][2].comp) << 1)) & mask
}

func (p *refPredictor) Predict(pc uint64) refPrediction {
	pr := refPrediction{provider: -1}
	pr.baseIdx = uint32(pc) & (uint32(1<<p.cfg.LogBase) - 1)
	basePred := p.base[pr.baseIdx] >= 0
	prov, alt := -1, -1
	for i := p.cfg.NumTables - 1; i >= 0; i-- {
		idx, tg := p.index(i, pc), p.tag(i, pc)
		pr.indices[i], pr.tags[i] = idx, tg
		if p.tables[i][idx].tag == tg {
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
		altPred = p.tables[alt][pr.indices[alt]].ctr >= 0
	}
	pr.altTaken = altPred
	pred := basePred
	if prov >= 0 {
		e := &p.tables[prov][pr.indices[prov]]
		pr.provTaken = e.ctr >= 0
		if weak := (e.ctr == 0 || e.ctr == -1) && e.u == 0; weak && p.useAlt >= 0 {
			pred = altPred
		} else {
			pred = pr.provTaken
		}
	}
	pr.Taken = pred
	if p.cfg.UseSC {
		bias := p.sc[(uint32(pc)^uint32(pc>>12))&(scEntries-1)]
		conf := 0
		if prov >= 0 {
			if c := p.tables[prov][pr.indices[prov]].ctr; c >= 2 || c <= -3 {
				conf = 1
			}
		}
		if conf == 0 && (bias >= 24 || bias <= -24) {
			if newPred := bias >= 0; newPred != pred {
				pr.scUsed = true
				pr.Taken = newPred
			}
		}
	}
	if p.cfg.UseLoop {
		le := &p.loop[uint32(pc>>2)&(loopEntries-1)]
		if le.valid && le.pc == pc && le.conf >= 3 && le.trip > 0 {
			pr.loopHit = true
			pr.loopTaken = le.current != le.trip-1
			pr.Taken = pr.loopTaken
		}
	}
	return pr
}

func (p *refPredictor) Update(pc uint64, pred refPrediction, taken bool) {
	p.stats.Predicts++
	if pred.Taken != taken {
		p.stats.Mispredicts++
	}
	if p.cfg.UseLoop {
		p.trainLoop(pc, taken)
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
		pr := &p.tables[prov][pred.indices[prov]]
		p.stats.ProviderHits[prov]++
		if pred.provTaken != pred.altTaken {
			if pred.provTaken == taken {
				if pr.u < 3 {
					pr.u++
				}
			} else if pr.u > 0 {
				pr.u--
			}
			if weak := (pr.ctr == 0 || pr.ctr == -1) && pr.u == 0; weak {
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
	p.base[pred.baseIdx] = satUpdate2(p.base[pred.baseIdx], taken)
	if pred.Taken != taken && prov < p.cfg.NumTables-1 {
		p.allocate(pred, taken, prov)
	}
}

func (p *refPredictor) allocate(pred refPrediction, taken bool, prov int) {
	start := prov + 1
	if start < p.cfg.NumTables-1 && p.spec.phist&3 == 3 {
		start++
	}
	for i := start; i < p.cfg.NumTables; i++ {
		if e := &p.tables[i][pred.indices[i]]; e.u == 0 {
			e.tag = pred.tags[i]
			e.ctr = -1
			if taken {
				e.ctr = 0
			}
			p.stats.Allocations++
			return
		}
	}
	for i := prov + 1; i < p.cfg.NumTables; i++ {
		if e := &p.tables[i][pred.indices[i]]; e.u > 0 {
			e.u--
		}
	}
}

func (p *refPredictor) trainLoop(pc uint64, taken bool) {
	le := &p.loop[uint32(pc>>2)&(loopEntries-1)]
	if !le.valid || le.pc != pc {
		if taken {
			*le = loopEntry{pc: pc, valid: true, takenRun: 1}
		}
		return
	}
	if taken {
		le.takenRun++
		le.current++
		if le.trip > 0 && le.current >= le.trip {
			if le.conf > 0 {
				le.conf--
			} else {
				le.trip = 0
			}
			le.current = 0
		}
		return
	}
	if observed := le.takenRun + 1; le.trip == observed {
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

func (p *refPredictor) SpecPush(taken bool, pc uint64) { p.spec.push(b2u(taken), pc, p.histLens) }
func (p *refPredictor) ArchPush(taken bool, pc uint64) { p.arch.push(b2u(taken), pc, p.histLens) }
func (p *refPredictor) SyncSpec()                      { p.spec = p.arch.clone() }

// samePrediction reports whether a compact prediction carries the same
// direction and bookkeeping as the reference's.
func samePrediction(got Prediction, want refPrediction) bool {
	if got.Taken != want.Taken || int(got.provider) != want.provider ||
		got.altTaken != want.altTaken || got.provTaken != want.provTaken ||
		got.baseIdx != want.baseIdx || got.loopHit != want.loopHit ||
		got.loopTaken != want.loopTaken || got.scUsed != want.scUsed {
		return false
	}
	for i := range got.indices {
		if uint32(got.indices[i]) != want.indices[i] || uint32(got.tags[i]) != want.tags[i] {
			return false
		}
	}
	return true
}

// splitmix derives a pseudo-random value from a fuzz position.
func splitmix(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ x>>30) * 0xBF58476D1CE4E5B9
	x = (x ^ x>>27) * 0x94D049BB133111EB
	return x ^ x>>31
}

// fuzzConfig maps geometry bytes onto a configuration Validate accepts:
// 1–16 tables, 1–14 base bits, 1–16 index bits, 2–16 tag bits,
// histories up to 447 bits, and either side-predictor on or off.
func fuzzConfig(g []byte) Config {
	g = append(g, make([]byte, 8)...)
	minHist := 1 + int(g[4])%128
	return Config{
		NumTables: 1 + int(g[0])%16,
		LogBase:   1 + int(g[1])%14,
		LogTagged: 1 + int(g[2])%16,
		TagBits:   2 + int(g[3])%15,
		MinHist:   minHist,
		MaxHist:   minHist + (int(g[5])|int(g[6])<<8)%320,
		UseLoop:   g[7]&1 != 0,
		UseSC:     g[7]&2 != 0,
	}
}

// FuzzTAGEMatchesReference runs an arbitrary sequence of predictor
// calls on the compact predictor and on the reference, both built with
// an arbitrary valid geometry, and requires every prediction to match
// field for field and the final statistics to be equal. Each op byte
// picks the call from its low 3 bits (0 Predict, 1 Update with the last
// prediction, 2 SpecPush, 3 ArchPush, 4–5 a full predict, push, train
// and repair step, 6 SyncSpec, 7 Clone, of which only the first four
// take effect, since a clone of the largest geometry copies 16 MB) and
// one of 32 branch PCs from its high bits. A quarter of the PCs each are random, mostly taken,
// mostly not taken, and a trip-5 loop, so the bias table saturates and
// the loop predictor gains confidence. Sequences are long enough to
// shift bits out of every history word, which makes minimizing an
// input (quadratic in its length) slow: fuzz with -fuzzminimizetime 1s.
func FuzzTAGEMatchesReference(f *testing.F) {
	f.Fuzz(func(t *testing.T, geom, ops []byte) {
		cfg := fuzzConfig(geom)
		if err := cfg.Validate(); err != nil {
			t.Fatalf("fuzzConfig produced an invalid config %+v: %v", cfg, err)
		}
		if len(ops) > 512 {
			ops = ops[:512]
		}
		p, ref := New(cfg), newRef(cfg)
		var last Prediction
		var refLast refPrediction
		var lastPC uint64
		var visits [32]int
		clones := 0
		predict := func(step int, op byte, pc uint64) {
			last, refLast, lastPC = p.Predict(pc), ref.Predict(pc), pc
			if !samePrediction(last, refLast) {
				t.Fatalf("step %d (op %d), pc %#x, config %+v: prediction %+v, reference %+v",
					step, op&7, pc, cfg, last, refLast)
			}
		}
		for step, op := range ops {
			x := splitmix(uint64(step)<<8 | uint64(op))
			pc, taken := splitmix(uint64(op>>3))&0xffff_fffc, x&1 == 1
			switch visits[op>>3]++; op >> 3 & 3 {
			case 1:
				taken = x&7 != 0
			case 2:
				taken = visits[op>>3]%5 != 0
			case 3:
				taken = x&7 == 0
			}
			switch op & 7 {
			case 0:
				predict(step, op, pc)
			case 1:
				p.Update(lastPC, last, taken)
				ref.Update(lastPC, refLast, taken)
			case 2:
				p.SpecPush(taken, pc)
				ref.SpecPush(taken, pc)
			case 3:
				p.ArchPush(taken, pc)
				ref.ArchPush(taken, pc)
			case 4, 5:
				predict(step, op, pc)
				p.SpecPush(last.Taken, pc)
				ref.SpecPush(refLast.Taken, pc)
				p.Update(pc, last, taken)
				ref.Update(pc, refLast, taken)
				p.ArchPush(taken, pc)
				ref.ArchPush(taken, pc)
				if last.Taken != taken {
					p.SyncSpec()
					ref.SyncSpec()
				}
			case 6:
				p.SyncSpec()
				ref.SyncSpec()
			case 7:
				if clones++; clones > 4 {
					break
				}
				// Continue on the clones after training the originals:
				// state shared between a clone and its original would
				// show up as a mismatch.
				c, cref := p.Clone(), ref.clone()
				for _, q := range []bool{taken, !taken, taken} {
					pr := p.Predict(pc)
					p.Update(pc, pr, q)
					p.SpecPush(q, pc)
					p.ArchPush(!q, pc)
				}
				p, ref = c, cref
			}
		}
		if got, want := p.Stats(), ref.stats; got != want {
			t.Fatalf("config %+v: stats %+v, reference %+v", cfg, got, want)
		}
	})
}
