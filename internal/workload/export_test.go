package workload

// DropBehavior removes the behaviour of the branch site at pc, as if the
// generator had never registered one. Tests use it to check that the
// emulator reports a missing behaviour instead of guessing.
func DropBehavior(w *Workload, pc uint64) {
	w.ctl[w.InstIndex(pc)].Site = -1
}

// SetIndirect replaces the behaviour of the indirect site at pc.
func SetIndirect(w *Workload, pc uint64, b IndirectBehavior) {
	w.sites[w.ctl[w.InstIndex(pc)].Site].ind = b
}

// CondAt returns the behaviour of the conditional branch at pc, if pc
// is one with a behaviour.
func (w *Workload) CondAt(pc uint64) (CondBehavior, bool) {
	s := w.siteAt(pc)
	if s < 0 || w.sites[s].cond == nil {
		return nil, false
	}
	return w.sites[s].cond, true
}

// IndAt returns the behaviour of the indirect branch or call at pc, if
// pc is one with a behaviour.
func (w *Workload) IndAt(pc uint64) (IndirectBehavior, bool) {
	s := w.siteAt(pc)
	if s < 0 || w.sites[s].ind == nil {
		return nil, false
	}
	return w.sites[s].ind, true
}

// siteAt returns the site index of the branch at pc, or -1.
func (w *Workload) siteAt(pc uint64) int32 {
	i := w.InstIndex(pc)
	if i < 0 {
		return -1
	}
	return w.ctl[i].Site
}
