//go:build skiainvariants

package attrib

import "fmt"

// invariantsEnabled: see internal/core/invariants_on.go.
const invariantsEnabled = true

// attribCheckInvariants panics if the engine's double-entry accounting
// drifted: classify books every miss once in the cause taxonomy
// and once in the per-PC offender table, so the two ledgers must agree
// exactly, per offender and in total.
//
//go:noinline
func attribCheckInvariants(e *Engine) {
	var causes uint64
	for _, c := range e.causes {
		causes += c
	}
	var total uint64
	for pc, o := range e.offenders {
		var per uint64
		for _, c := range o.counts {
			per += c
		}
		if per != o.total {
			panic(fmt.Sprintf("skiainvariants: offender %#x cause counts sum to %d, total says %d", pc, per, o.total))
		}
		total += o.total
	}
	if total != causes {
		panic(fmt.Sprintf("skiainvariants: offender totals %d != attributed misses %d (conservation)", total, causes))
	}
}
