//go:build !skiainvariants

package core

// invariantsEnabled is false in default builds: every assertion call
// below a `if invariantsEnabled` guard is dead code, the empty stubs
// inline to nothing, and the linker drops their symbols entirely
// (proven by TestInvariantSymbolPresence). Build with
// `-tags skiainvariants` to compile the checks in.
const invariantsEnabled = false

func sbbCheckInvariants(*SBB)                         {}
func decodeCacheCheckInvariants(*DecodeCache, uint64) {}
