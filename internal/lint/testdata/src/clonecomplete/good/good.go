// Package good holds clonecomplete passing cases: every field copied,
// fixed up, annotated, or implicitly covered by a value copy.
package good

// Sim is composite-style complete: every field is a literal key or a
// later fix-up assignment.
type Sim struct {
	cycles uint64
	table  []int
	pc     uint64
	// scratch is deliberately shared: the //skia:shared-ok directive
	// (with its justification) suppresses the finding.
	//skia:shared-ok transient per-call buffer, overwritten before every use
	scratch []byte
}

func (s *Sim) Clone() *Sim {
	n := &Sim{cycles: s.cycles, pc: s.pc}
	n.table = make([]int, len(s.table))
	copy(n.table, s.table)
	return n
}

// hist is value-copy style: `c := *h` mentions every field at once,
// and the reference field is then deep-copy fixed up.
type hist struct {
	bits []uint64
	ptr  int
}

func (h *hist) clone() hist {
	c := *h
	c.bits = make([]uint64, len(h.bits))
	copy(c.bits, h.bits)
	return c
}

// trailer proves the trailing-comment directive placement works too.
type trailer struct {
	n    int
	memo map[int]int //skia:shared-ok pure-function memo, lazily rebuilt by the clone
}

func (t *trailer) Clone() *trailer {
	return &trailer{n: t.n}
}
