package ftq

import "testing"

// push fills the reserved tail slot with v.
func push(q *Queue[int], v int) bool {
	s := q.Reserve()
	if s == nil {
		return false
	}
	*s = v
	return true
}

// pop reads and drops the front element.
func pop(q *Queue[int]) (int, bool) {
	s := q.Front()
	if s == nil {
		return 0, false
	}
	v := *s
	q.Drop()
	return v, true
}

func TestPushPopFIFO(t *testing.T) {
	q := New[int](4)
	for i := 1; i <= 4; i++ {
		if !push(q, i) {
			t.Fatalf("push %d failed", i)
		}
	}
	if push(q, 5) {
		t.Error("reserve on full queue succeeded")
	}
	if !q.Full() || q.Len() != 4 {
		t.Errorf("len=%d full=%v", q.Len(), q.Full())
	}
	for i := 1; i <= 4; i++ {
		v, ok := pop(q)
		if !ok || v != i {
			t.Fatalf("pop = %d,%v want %d", v, ok, i)
		}
	}
	if _, ok := pop(q); ok {
		t.Error("pop from empty succeeded")
	}
	q.Drop() // no-op on empty
	if q.Len() != 0 {
		t.Errorf("drop on empty: len=%d", q.Len())
	}
}

func TestPeek(t *testing.T) {
	q := New[string](2)
	if q.Front() != nil {
		t.Error("front on empty")
	}
	*q.Reserve() = "a"
	*q.Reserve() = "b"
	if s := q.Front(); s == nil || *s != "a" {
		t.Errorf("front = %v", s)
	}
	if q.Len() != 2 {
		t.Error("front consumed")
	}
	// Front is the slot itself: writes through it are seen by the queue.
	*q.Front() = "c"
	if *q.Slot(0) != "c" {
		t.Error("front is not the slot")
	}
}

// TestSlotReuse pins that a slot keeps its last occupant after Drop
// and Reset, so the next Reserve of that slot sees it.
func TestSlotReuse(t *testing.T) {
	q := New[[]int](2)
	*q.Reserve() = make([]int, 0, 8)
	buf := *q.Front()
	q.Drop()
	*q.Reserve() = nil
	if s := q.Reserve(); cap(*s) != 8 || &(*s)[:1][0] != &buf[:1][0] {
		t.Errorf("slot lost its buffer after Drop: cap %d", cap(*s))
	}
	q.Reset()
	if s := q.Reserve(); cap(*s) != 8 {
		t.Errorf("slot lost its buffer after Reset: cap %d", cap(*s))
	}
}

func TestWrapAround(t *testing.T) {
	q := New[int](3)
	for round := 0; round < 10; round++ {
		for i := 0; i < 3; i++ {
			if !push(q, round*10+i) {
				t.Fatal("push failed")
			}
		}
		for i := 0; i < 3; i++ {
			v, ok := pop(q)
			if !ok || v != round*10+i {
				t.Fatalf("round %d: pop = %d,%v", round, v, ok)
			}
		}
	}
}

func TestFlush(t *testing.T) {
	q := New[int](8)
	for i := 0; i < 5; i++ {
		push(q, i)
	}
	q.Reset()
	if q.Len() != 0 || q.Front() != nil {
		t.Error("reset left elements")
	}
	// Usable after reset.
	push(q, 99)
	if v, _ := pop(q); v != 99 {
		t.Error("queue broken after reset")
	}
}

func TestAt(t *testing.T) {
	q := New[int](4)
	push(q, 10)
	push(q, 20)
	pop(q)
	push(q, 30)
	if s := q.Slot(0); s == nil || *s != 20 {
		t.Errorf("Slot(0) = %v", s)
	}
	if s := q.Slot(1); s == nil || *s != 30 {
		t.Errorf("Slot(1) = %v", s)
	}
	if q.Slot(2) != nil {
		t.Error("Slot past end")
	}
	if q.Slot(-1) != nil {
		t.Error("Slot(-1)")
	}
}

func TestClone(t *testing.T) {
	q := New[[]int](3)
	*q.Reserve() = []int{1}
	*q.Reserve() = []int{2}
	q.Drop()
	*q.Reserve() = []int{3}
	n := q.Clone(func(s *[]int) []int { return append([]int(nil), *s...) })
	if n.Len() != 2 || (*n.Slot(0))[0] != 2 || (*n.Slot(1))[0] != 3 {
		t.Fatalf("clone live elements wrong: len %d", n.Len())
	}
	(*n.Slot(0))[0] = 9
	if (*q.Slot(0))[0] != 2 {
		t.Error("clone shares element storage with the original")
	}
	if s := n.Reserve(); *s != nil {
		t.Error("clone's free slot is not zeroed")
	}
}

func TestMinCapacity(t *testing.T) {
	q := New[int](0)
	if q.Cap() != 1 {
		t.Errorf("cap = %d", q.Cap())
	}
	push(q, 1)
	if push(q, 2) {
		t.Error("capacity-1 queue accepted two")
	}
}
