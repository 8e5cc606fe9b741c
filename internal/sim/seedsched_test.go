package sim

// seedScheduler is a faithful copy of the scheduler this repository seeded
// with — container/heap over *event pointers, one heap allocation plus one
// closure per scheduled send — kept as the reference the rewrite is judged
// against: the equivalence test proves the inline-value four-ary heap, with
// one entry per run of receivers, pops in exactly the seed order on
// randomized workloads, and the scale test checks the event count and
// order on a thousand-process multicast workload and logs the events/s
// multiplier the rewrite buys there.

import (
	"container/heap"
	"time"
)

type seedEvent struct {
	at   time.Duration
	prio int
	seq  uint64
	fn   func()
}

type seedHeap []*seedEvent

func (h seedHeap) Len() int { return len(h) }
func (h seedHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	if h[i].prio != h[j].prio {
		return h[i].prio < h[j].prio
	}
	return h[i].seq < h[j].seq
}
func (h seedHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *seedHeap) Push(x any)   { *h = append(*h, x.(*seedEvent)) }
func (h *seedHeap) Pop() any {
	old := *h
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return e
}

type seedScheduler struct {
	queue seedHeap
	now   time.Duration
	seq   uint64
	steps uint64
}

func (s *seedScheduler) Now() time.Duration { return s.now }

func (s *seedScheduler) AtPrio(at time.Duration, prio int, fn func()) {
	if at < s.now {
		at = s.now
	}
	s.seq++
	heap.Push(&s.queue, &seedEvent{at: at, prio: prio, seq: s.seq, fn: fn})
}

func (s *seedScheduler) AfterPrio(d time.Duration, prio int, fn func()) {
	if d < 0 {
		d = 0
	}
	s.AtPrio(s.now+d, prio, fn)
}

func (s *seedScheduler) Step() bool {
	if len(s.queue) == 0 {
		return false
	}
	e := heap.Pop(&s.queue).(*seedEvent)
	s.now = e.at
	s.steps++
	e.fn()
	return true
}

func (s *seedScheduler) Run() uint64 {
	start := s.steps
	for s.Step() {
	}
	return s.steps - start
}

func (s *seedScheduler) RunUntil(deadline time.Duration) uint64 {
	start := s.steps
	for len(s.queue) > 0 && s.queue[0].at <= deadline {
		s.Step()
	}
	if s.now < deadline {
		s.now = deadline
	}
	return s.steps - start
}
