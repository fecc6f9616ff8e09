// Package bad holds conserve failing cases: a counter and a histogram
// bumped but never exported.
package bad

// FooStats mirrors the dead-counter findings this analyzer surfaced
// in the real tree (SBBStats.REvictions and friends).
type FooStats struct {
	Used uint64
	Dead uint64 // want `incremented but never read`
}

func bump(s *FooStats) {
	s.Used++
	s.Dead++
}

func export(s *FooStats) uint64 { return s.Used }

// Histogram stands in for stats.Histogram; Observe is the increment.
type Histogram struct{ n uint64 }

func (h *Histogram) Observe(v float64) { h.n++ }
func (h *Histogram) Count() uint64     { return h.n }

// LatStats accumulates Ghost samples that no renderer ever consumes.
type LatStats struct {
	Seen  Histogram
	Ghost Histogram // want `incremented but never read`
}

func observeHist(s *LatStats) {
	s.Seen.Observe(0.5)
	s.Ghost.Observe(1.5)
}

func renderHist(s *LatStats) uint64 { return s.Seen.Count() }
