// Package bad holds clonecomplete failing cases: Clone methods that
// silently miss fields — the checkpoint-corruption bug class.
package bad

// Sim is a composite-style Clone that forgot two fields: table shares
// its backing array with the original (divergence corruption) and pc
// restarts from zero (state loss). Both are exactly what a newly added
// field looks like when Clone is not updated.
type Sim struct {
	cycles uint64
	table  []int  // want `field Sim.table is not copied`
	pc     uint64 // want `field Sim.pc is not copied`
}

func (s *Sim) Clone() *Sim {
	return &Sim{cycles: s.cycles}
}

// hist shows the unexported-clone spelling is held to the same bar.
type hist struct {
	bits []uint64 // want `field hist.bits is not copied`
	ptr  int
}

func (h *hist) clone() hist {
	return hist{ptr: h.ptr}
}

// Nested misses the fix-up style too: assigning n.inner.x mentions
// inner, but other is never touched.
type Nested struct {
	inner Sim
	other []byte // want `field Nested.other is not copied`
}

func (n *Nested) Clone() *Nested {
	c := &Nested{}
	c.inner = *n.inner.Clone()
	return c
}
