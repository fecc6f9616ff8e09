//go:build !skiainvariants

package core

import (
	"testing"

	"repro/internal/isa"
)

// TestInvariantsCompiledOutByDefault proves the default build carries
// no assertions: the same corruption that panics under the
// skiainvariants tag (see invariants_tagged_test.go) passes silently,
// so production figure runs pay zero checking cost.
func TestInvariantsCompiledOutByDefault(t *testing.T) {
	if invariantsEnabled {
		t.Fatal("default build must not enable invariants")
	}
	s := tinySBB()
	s.uWays = append(s.uWays, uWay{valid: true})
	defer func() {
		if r := recover(); r != nil {
			t.Fatalf("untagged build panicked on corrupted SBB: %v", r)
		}
	}()
	s.Insert(ShadowBranch{PC: 0x1000, Class: isa.ClassDirectUncond, Target: 0x2000, Len: 2}, false)
}
