// Package ftq provides the Fetch Target Queue: the bounded FIFO that
// decouples the Instruction Address Generator from the Instruction
// Fetch Unit in an FDIP front-end (paper Section 2.1). Each element is
// one predicted basic block; the queue's depth (paper: 24) bounds how
// far the BPU can run ahead of fetch.
//
// Elements live in the queue's slots and are reached by pointer, never
// copied in or out. A slot keeps what its last occupant left, so a
// buffer an element owns stays with the slot for the next occupant.
package ftq

// Queue is a bounded FIFO ring buffer. The zero value is unusable; use
// New. Not safe for concurrent use.
type Queue[T any] struct {
	buf   []T
	head  int
	count int
}

// New returns an empty queue with the given capacity (minimum 1).
func New[T any](capacity int) *Queue[T] {
	if capacity < 1 {
		capacity = 1
	}
	return &Queue[T]{buf: make([]T, capacity)}
}

// Len returns the number of queued elements.
func (q *Queue[T]) Len() int { return q.count }

// Cap returns the capacity.
func (q *Queue[T]) Cap() int { return len(q.buf) }

// Full reports whether the queue is at capacity.
func (q *Queue[T]) Full() bool { return q.count == len(q.buf) }

// Reserve appends the tail slot and returns it for the caller to fill;
// it returns nil when the queue is full. The slot still holds its
// previous occupant.
func (q *Queue[T]) Reserve() *T {
	if invariantsEnabled {
		ftqCheckInvariants(q)
	}
	if q.Full() {
		return nil
	}
	s := &q.buf[(q.head+q.count)%len(q.buf)]
	q.count++
	return s
}

// Front returns the oldest element in place, nil when empty.
func (q *Queue[T]) Front() *T {
	if invariantsEnabled {
		ftqCheckInvariants(q)
	}
	if q.count == 0 {
		return nil
	}
	return &q.buf[q.head]
}

// Drop removes the oldest element, leaving its slot's contents for the
// next occupant; it is a no-op on an empty queue.
func (q *Queue[T]) Drop() {
	if invariantsEnabled {
		ftqCheckInvariants(q)
	}
	if q.count == 0 {
		return
	}
	q.head = (q.head + 1) % len(q.buf)
	q.count--
}

// Slot returns the i-th oldest element in place (0 = front), nil when
// i is out of range.
func (q *Queue[T]) Slot(i int) *T {
	if i < 0 || i >= q.count {
		return nil
	}
	return &q.buf[(q.head+i)%len(q.buf)]
}

// Reset discards every element (a pipeline squash); slots keep their
// contents for reuse.
func (q *Queue[T]) Reset() {
	if invariantsEnabled {
		ftqCheckInvariants(q)
	}
	q.head, q.count = 0, 0
}

// Clone returns an independent copy of the queue: cloneElem deep-copies
// each live element, and free slots start zeroed.
func (q *Queue[T]) Clone(cloneElem func(*T) T) *Queue[T] {
	n := &Queue[T]{buf: make([]T, len(q.buf)), head: q.head, count: q.count}
	for i := 0; i < q.count; i++ {
		idx := (q.head + i) % len(q.buf)
		n.buf[idx] = cloneElem(&q.buf[idx])
	}
	return n
}
