// Package ring provides the queues under the parallel ordering runtime: a
// bounded lock-free multi-producer/single-consumer ring (MPSC, Vyukov's
// bounded queue) for the lane inboxes, which are fed concurrently by TCP
// read loops, timers, and other lanes; an overwrite ring (Recent) for the
// trace flight recorder; and an unbounded FIFO confined to one goroutine,
// in which a lane parks the continuations a group-commit barrier holds back.
//
// MPSC is fixed-capacity (rounded up to a power of two) and non-blocking:
// TryPush reports false when the ring is full and TryPop reports false when
// it is empty, so callers choose their own overflow policy (the lane inboxes
// park overflow in an unbounded spill list — they carry consensus replies
// and timers, which have no retransmission to fall back on and therefore
// must never drop).
//
// Memory model: MPSC value slots are written with plain stores and
// published through sync/atomic sequence counters, so the happens-before
// edges the consumer needs are the atomic ones — the race detector verifies
// this in the package tests.
package ring

import "sync/atomic"

// capFor rounds a requested capacity up to a power of two, with a small
// floor so degenerate requests still leave room to amortise contention.
func capFor(capacity int) uint64 {
	c := uint64(8)
	for c < uint64(capacity) {
		c <<= 1
	}
	return c
}

// FIFO is an unbounded queue for one goroutine. It keeps its backing array,
// sliding the queued elements to the front once half of it is consumed, so
// after it has grown to its peak depth neither Push nor Pop allocates. The
// zero value is an empty queue.
type FIFO[T any] struct {
	vals []T
	head int
}

// Len returns the number of queued elements.
func (q *FIFO[T]) Len() int { return len(q.vals) - q.head }

// Push appends v.
func (q *FIFO[T]) Push(v T) {
	if len(q.vals) == cap(q.vals) && q.head > 0 && 2*q.head >= len(q.vals) {
		n := copy(q.vals, q.vals[q.head:])
		clear(q.vals[n:])
		q.vals, q.head = q.vals[:n], 0
	}
	q.vals = append(q.vals, v)
}

// Pop removes and returns the oldest element. The queue must not be empty.
func (q *FIFO[T]) Pop() T {
	var zero T
	v := q.vals[q.head]
	q.vals[q.head] = zero // release the reference
	if q.head++; q.head == len(q.vals) {
		q.vals, q.head = q.vals[:0], 0
	}
	return v
}

// MPSC is a bounded multi-producer/single-consumer ring (Vyukov's
// bounded MPMC queue, specialised to one consumer): every slot carries a
// sequence number producers claim by CAS on the tail, so concurrent
// pushes never contend on a lock and a full ring is detected without
// reading the consumer's position.
type MPSC[T any] struct {
	mask  uint64
	slots []mslot[T]
	_     [56]byte
	tail  atomic.Uint64 // next position producers claim
	_     [56]byte
	head  uint64 // consumer-confined
}

type mslot[T any] struct {
	seq atomic.Uint64
	val T
}

// NewMPSC returns an empty ring holding at least capacity elements
// (rounded up to a power of two, minimum 8).
func NewMPSC[T any](capacity int) *MPSC[T] {
	c := capFor(capacity)
	q := &MPSC[T]{mask: c - 1, slots: make([]mslot[T], c)}
	for i := range q.slots {
		q.slots[i].seq.Store(uint64(i))
	}
	return q
}

// TryPush appends v, reporting false when the ring is full. Safe for any
// number of concurrent producers.
func (q *MPSC[T]) TryPush(v T) bool {
	pos := q.tail.Load()
	for {
		s := &q.slots[pos&q.mask]
		switch dif := int64(s.seq.Load()) - int64(pos); {
		case dif == 0: // slot free at this lap: try to claim it
			if q.tail.CompareAndSwap(pos, pos+1) {
				s.val = v
				s.seq.Store(pos + 1) // publish to the consumer
				return true
			}
			pos = q.tail.Load() // lost the claim race
		case dif < 0: // slot still holds last lap's value: ring is full
			return false
		default: // another producer advanced past us
			pos = q.tail.Load()
		}
	}
}

// TryPop removes the oldest element, reporting false when the ring is
// empty (or when the oldest push is still being written — it will be
// visible on a later call). Single consumer only.
func (q *MPSC[T]) TryPop() (T, bool) {
	var zero T
	s := &q.slots[q.head&q.mask]
	if s.seq.Load() != q.head+1 {
		return zero, false
	}
	v := s.val
	s.val = zero // release the reference before the slot recycles
	s.seq.Store(q.head + q.mask + 1)
	q.head++
	return v, true
}
