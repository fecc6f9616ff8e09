//go:build skiainvariants

package core

import (
	"strings"
	"testing"

	"repro/internal/isa"
)

// TestInvariantFiresOnCorruptedSBB corrupts the buffer's geometry the
// way only a bug could (an extra way appended to the U-SBB) and asserts
// the tagged build's occupancy assertion trips on the next insert.
func TestInvariantFiresOnCorruptedSBB(t *testing.T) {
	if !invariantsEnabled {
		t.Fatal("tagged build must enable invariants")
	}
	s := tinySBB()
	s.uWays = append(s.uWays, uWay{valid: true})
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("corrupted U-SBB geometry did not trip the invariant")
		}
		if msg, ok := r.(string); !ok || !strings.Contains(msg, "skiainvariants") {
			t.Fatalf("unexpected panic payload %v", r)
		}
	}()
	s.Insert(ShadowBranch{PC: 0x1000, Class: isa.ClassDirectUncond, Target: 0x2000, Len: 2}, false)
}

// TestInvariantFiresOnDuplicateDecodeRegion records one region twice
// behind lookup's back, the corruption a record without a preceding
// miss would cause, and asserts the chain check trips.
func TestInvariantFiresOnDuplicateDecodeRegion(t *testing.T) {
	c := NewDecodeCache()
	c.record(0x40, 8, regionTail, nil, 0, false, false)
	c.record(0x40, 3, regionHead, nil, 1, false, false)
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("duplicate decode-cache region did not trip the invariant")
		}
		if msg, ok := r.(string); !ok || !strings.Contains(msg, "twice") {
			t.Fatalf("unexpected panic payload %v", r)
		}
	}()
	c.record(0x40, 8, regionTail, nil, 0, false, false)
}
