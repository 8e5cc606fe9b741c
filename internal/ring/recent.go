package ring

import "sync"

// Recent is a bounded overwrite ring: Push never fails, evicting the
// oldest element once the ring is full. It backs the trace flight
// recorder, which wants "the last N events", not back-pressure — the
// opposite overflow policy from MPSC, whose TryPush refuses when full.
//
// Unlike the lock-free MPSC, Recent is mutex-guarded: it is only
// touched when tracing is enabled, where a short uncontended lock is
// cheaper than the memory-reclamation subtleties of a lock-free
// overwriting buffer. Push performs no allocation (the slot array is
// laid out at construction), which the trace package pins with an
// allocs test.
type Recent[T any] struct {
	mu   sync.Mutex
	mask uint64
	vals []T
	next uint64 // total pushes; next&mask is the slot to write
}

// NewRecent returns an empty overwrite ring holding at least capacity
// elements (rounded up to a power of two, minimum 8).
func NewRecent[T any](capacity int) *Recent[T] {
	c := capFor(capacity)
	return &Recent[T]{mask: c - 1, vals: make([]T, c)}
}

// Cap returns the ring's fixed capacity.
func (r *Recent[T]) Cap() int { return len(r.vals) }

// Push appends v, overwriting the oldest element when full.
func (r *Recent[T]) Push(v T) {
	r.mu.Lock()
	r.vals[r.next&r.mask] = v
	r.next++
	r.mu.Unlock()
}

// Len returns the number of live elements (at most Cap).
func (r *Recent[T]) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.next > r.mask+1 {
		return len(r.vals)
	}
	return int(r.next)
}

// Snapshot appends the live elements to dst in push order (oldest first)
// and returns the extended slice. The ring itself is left intact.
func (r *Recent[T]) Snapshot(dst []T) []T {
	r.mu.Lock()
	defer r.mu.Unlock()
	start := uint64(0)
	if r.next > r.mask+1 {
		start = r.next - (r.mask + 1)
	}
	for i := start; i < r.next; i++ {
		dst = append(dst, r.vals[i&r.mask])
	}
	return dst
}
