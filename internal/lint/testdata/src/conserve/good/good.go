// Package good holds conserve passing cases: every incremented
// counter is read or serialized.
package good

// BarStats exports Hits by read and Misses by json schema.
type BarStats struct {
	Hits   uint64
	Misses uint64 `json:"misses"`
}

func bump(s *BarStats) {
	s.Hits++
	s.Misses++
}

func export(s *BarStats) uint64 { return s.Hits }

// Histogram stands in for stats.Histogram: Observe accumulates, any
// other use (render, snapshot, address-of) counts as a read.
type Histogram struct{ n uint64 }

func (h *Histogram) Observe(v float64) { h.n++ }
func (h *Histogram) Count() uint64     { return h.n }

// LatStats exports both histograms: Wait by a rendered quantile read,
// Run via an address-of snapshot (the renderMetrics idiom).
type LatStats struct {
	Wait Histogram
	Run  Histogram
}

func observe(s *LatStats) {
	s.Wait.Observe(0.5)
	s.Run.Observe(1.5)
}

func render(s *LatStats) uint64 { return s.Wait.Count() + snapshot(&s.Run) }

func snapshot(h *Histogram) uint64 { return h.Count() }
