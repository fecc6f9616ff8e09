package ittage

import "testing"

// refFold is Seznec's circular folded register, updated on every push
// as TAGE does: the reference the on-demand fold must equal.
type refFold struct {
	comp, compLen, outPoint uint64
}

func (f *refFold) update(youngest, oldest uint64) {
	f.comp = f.comp<<1 | youngest
	f.comp ^= oldest << f.outPoint
	f.comp ^= f.comp >> f.compLen
	f.comp &= 1<<f.compLen - 1
}

// refHist is one reference history: every pushed bit (oldest first)
// plus per-table index and tag registers.
type refHist struct {
	bits  []uint64
	folds [][2]refFold
}

func (h *refHist) push(b uint64, tables []table) {
	for i := range tables {
		var oldest uint64
		if n := tables[i].histLen; len(h.bits) >= n {
			oldest = h.bits[len(h.bits)-n]
		}
		h.folds[i][0].update(b, oldest)
		h.folds[i][1].update(b, oldest)
	}
	h.bits = append(h.bits, b)
}

func (h *refHist) clone() refHist {
	return refHist{
		bits:  append([]uint64(nil), h.bits...),
		folds: append([][2]refFold(nil), h.folds...),
	}
}

// refPredictor mirrors a Predictor's speculative and architectural
// histories with incremental registers.
type refPredictor struct{ spec, arch refHist }

func (r *refPredictor) clone() refPredictor {
	return refPredictor{spec: r.spec.clone(), arch: r.arch.clone()}
}

// splitmix derives a pseudo-random PC or target from a fuzz position.
func splitmix(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ x>>30) * 0xBF58476D1CE4E5B9
	x = (x ^ x>>27) * 0x94D049BB133111EB
	return x ^ x>>31
}

// fuzzConfig maps geometry bytes onto a valid configuration: 1–16
// tables, 1–12 index bits, 1–32 tag bits, histories up to 383 bits.
func fuzzConfig(g []byte) Config {
	g = append(g, make([]byte, 6)...)
	minHist := 1 + int(g[3])%128
	return Config{
		NumTables: 1 + int(g[0])%16,
		LogBase:   4,
		LogTagged: 1 + int(g[1])%12,
		TagBits:   1 + int(g[2])%32,
		MinHist:   minHist,
		MaxHist:   minHist + (int(g[4])|int(g[5])<<8)%256,
	}
}

// FuzzITTAGEFoldMatchesRegister drives a predictor with an arbitrary
// sequence of speculative and architectural pushes, SyncSpec and Clone
// calls, and after every step requires Predict's per-table indices and
// tags to equal those hashed from reference incremental folded
// registers. Each op byte picks the call (low 3 bits: 0–2 SpecPush,
// 3–5 ArchPush, 6 SyncSpec, 7 Clone); its position and value seed the
// branch PC and target.
func FuzzITTAGEFoldMatchesRegister(f *testing.F) {
	f.Fuzz(func(t *testing.T, geom, ops []byte) {
		cfg := fuzzConfig(geom)
		if err := cfg.Validate(); err != nil {
			t.Fatalf("fuzzConfig produced an invalid config %+v: %v", cfg, err)
		}
		if len(ops) > 256 {
			ops = ops[:256]
		}
		p := New(cfg)
		var ref refPredictor
		for _, h := range []*refHist{&ref.spec, &ref.arch} {
			h.folds = make([][2]refFold, cfg.NumTables)
			for i, tb := range p.tables {
				for k, w := range [2]int{cfg.LogTagged, cfg.TagBits} {
					h.folds[i][k] = refFold{compLen: uint64(w), outPoint: uint64(tb.histLen % w)}
				}
			}
		}
		pushRef := func(h *refHist, pc, target uint64) {
			b1, b2 := pathBits(pc, target)
			h.push(b1, p.tables)
			h.push(b2, p.tables)
		}
		for step, op := range ops {
			x := splitmix(uint64(step)<<8 | uint64(op))
			pc, target := x&0xffff_ffff, x>>32
			switch op & 7 {
			case 0, 1, 2:
				p.SpecPush(pc, target)
				pushRef(&ref.spec, pc, target)
			case 3, 4, 5:
				p.ArchPush(pc, target)
				pushRef(&ref.arch, pc, target)
			case 6:
				p.SyncSpec()
				ref.spec = ref.arch.clone()
			case 7:
				// Continue on the clone after pushing into the original
				// and a copy of the reference: shared history would show
				// up as a mismatch.
				c, cref := p.Clone(), ref.clone()
				p.SpecPush(target, pc)
				p.ArchPush(target, pc)
				pushRef(&ref.spec, target, pc)
				pushRef(&ref.arch, target, pc)
				p, ref = c, cref
			}
			pr := p.Predict(pc)
			imask, tmask := uint32(1)<<cfg.LogTagged-1, uint32(1)<<cfg.TagBits-1
			for i := 0; i < cfg.NumTables; i++ {
				fs := ref.spec.folds[i]
				idx := (uint32(pc) ^ uint32(pc>>uint(cfg.LogTagged)) ^ uint32(fs[0].comp)) & imask
				tag := (uint32(pc>>2) ^ uint32(fs[1].comp)) & tmask
				if pr.indices[i] != idx || pr.tags[i] != tag {
					t.Fatalf("step %d (op %d), table %d (histLen %d), config %+v: index/tag %#x/%#x, reference %#x/%#x",
						step, op&7, i, p.tables[i].histLen, cfg, pr.indices[i], pr.tags[i], idx, tag)
				}
			}
		}
	})
}
