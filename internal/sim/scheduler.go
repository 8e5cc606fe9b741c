// Package sim provides a deterministic discrete-event scheduler used as the
// virtual-time substrate for every simulated run in this repository.
//
// The paper's system model (§2.1) is asynchronous: messages experience
// arbitrary but finite delays. The scheduler realises admissible runs of
// that model by executing events in virtual-time order with deterministic
// tie-breaking, so every experiment is exactly reproducible from its seed.
//
// The event core is built for scale-out sweeps (hundreds of groups,
// thousands of processes, millions of events):
//
//   - Pending events are 24-byte sort keys (time, priority, seq, payload
//     slot) in a calendar structure: events due in the CURRENT ~1ms of
//     virtual time are sorted once and drained sequentially (with a small
//     inline-value four-ary side-heap catching events scheduled into the
//     bucket mid-drain), later events are parked unsorted in per-bucket
//     calendar slots (O(1) append), and events beyond the calendar
//     horizon wait in an overflow heap. Buckets cover disjoint time
//     ranges and every within-bucket ordering uses the full (time, prio,
//     seq) comparison, so the pop sequence is exactly the total order the
//     seed container/heap produced — same-seed traces are byte-identical
//     across the rewrite (pinned by the golden-trace test).
//
//   - Hot-path events are TYPED rather than closures, with payloads held
//     by value in per-kind slabs recycled through free lists: a network
//     delivery carries (from, proto, body, sendTS) and its receivers
//     [to, last] and executes through a single handler installed with
//     OnDeliver; a timer carries its owner and callback, dropped inline
//     when the owner has crashed. Only cold-path scheduling (At/After)
//     takes a closure. All slices recycle, so steady-state scheduling
//     allocates nothing.
//
//   - One delivery entry stands for a run: the copies of one send to
//     consecutive processes that share an arrival instant and priority
//     class. Its key is its first receiver's, and it stays at the head
//     while its receivers pop one per Step, in order: one entry per
//     receiver would have held consecutive seqs with nothing between them,
//     so every other key compares with the run's as with each of theirs.
//     Steps, Pending, MaxSteps and its diagnosis count receivers.
package sim

import (
	"cmp"
	"fmt"
	"maps"
	"math/rand"
	"slices"
	"strings"
	"time"
)

// Event kinds. evFn runs a plain closure; the rest are typed, closure-free
// representations of the hot-path events.
const (
	evFn      = iota // fn()
	evDeliver        // deliver(from, to, proto, body, sendTS) for each receiver of a run
	evTimer          // fn() unless owner.Crashed()
)

// Crasher lets typed timer events drop callbacks of crashed owners without
// a per-timer wrapper closure. node.Proc implements it.
type Crasher interface{ Crashed() bool }

// DeliverFunc is the single delivery handler a runtime installs with
// OnDeliver: it receives every evDeliver event's payload at its virtual
// arrival time.
type DeliverFunc func(from, to int32, proto string, body any, sendTS int64)

// heapEntry is the sort key of one pending event — the only thing the
// calendar and heaps move around. 24 bytes, no pointers: shallow copies
// and nothing for the garbage collector to trace.
type heapEntry struct {
	at   time.Duration
	seq  uint64 // insertion order, the final deterministic tie-break
	prio int16  // at equal times, lower priority class runs first
	kind int16  // selects the payload slab slot indexes
	slot int32  // payload index in the kind's slab
}

// before is the (time, prio, seq) strict total order.
func (e heapEntry) before(o heapEntry) bool {
	if e.at != o.at {
		return e.at < o.at
	}
	if e.prio != o.prio {
		return e.prio < o.prio
	}
	return e.seq < o.seq
}

// deliverPayload is the body of an evDeliver entry: one send to the
// receivers to..last, to being the next to pop. 56 bytes, so executing a
// delivery costs one or two line fetches.
type deliverPayload struct {
	from, to, last int32
	sendTS         int64
	proto          string
	body           any
}

// timerPayload is the body of an evTimer event.
type timerPayload struct {
	fn    func()
	owner Crasher // skip fn if owner.Crashed()
}

// slab holds one event kind's payloads by value; vacated slots are
// recycled through the free list.
type slab[T any] struct {
	items []T
	free  []int32
}

func (s *slab[T]) put(v T) int32 {
	if n := len(s.free); n > 0 {
		i := s.free[n-1]
		s.free = s.free[:n-1]
		s.items[i] = v
		return i
	}
	s.items = append(s.items, v)
	return int32(len(s.items) - 1)
}

// take returns slot i's payload and recycles the slot, cleared so that it
// holds no body or closure reference past execution.
func (s *slab[T]) take(i int32) T {
	v := s.items[i]
	var zero T
	s.items[i] = zero
	s.free = append(s.free, i)
	return v
}

// Calendar geometry: buckets are 2^bucketShift nanoseconds of virtual time
// (~1ms) and the ring spans bucketCount of them (~1.07s of horizon).
// Events beyond the horizon wait in the overflow heap and migrate into the
// ring as virtual time approaches them.
const (
	bucketShift = 20
	bucketCount = 1024
)

// Scheduler is a single-threaded discrete-event executor. The zero value is
// not usable; construct with New. Schedulers are not safe for concurrent
// use: all protocol code in a simulation runs on the scheduler goroutine,
// which also gives us the paper's "each line executes atomically" semantics
// for free.
type Scheduler struct {
	sorted    []heapEntry // current bucket, sorted ascending, drained from sortedIdx
	sortedIdx int
	side      []heapEntry // four-ary min-heap: events scheduled into the current bucket mid-drain
	ring      [bucketCount][]heapEntry
	overflow  []heapEntry // four-ary min-heap of events beyond the horizon
	cur       int64       // bucket index currently draining
	pending   int

	delivers slab[deliverPayload]
	fns      slab[func()]
	timers   slab[timerPayload]

	now     time.Duration
	seq     uint64
	rng     *rand.Rand
	steps   uint64
	deliver DeliverFunc
	// MaxSteps bounds Run to guard against livelock in buggy protocols;
	// zero means no bound. The panic message carries the pending-queue
	// depth and the hottest pending protos (receivers, not entries) so a
	// 1000-process livelock is diagnosable from the failure alone.
	MaxSteps uint64
}

// New returns a scheduler whose random source is seeded with seed, so runs
// are reproducible.
func New(seed int64) *Scheduler {
	return &Scheduler{rng: rand.New(rand.NewSource(seed))}
}

// Now returns the current virtual time.
func (s *Scheduler) Now() time.Duration { return s.now }

// Rand returns the scheduler's deterministic random source.
func (s *Scheduler) Rand() *rand.Rand { return s.rng }

// OnDeliver installs the typed delivery handler. Install exactly once,
// before any DeliverAfter call; the runtimes do it at construction.
func (s *Scheduler) OnDeliver(fn DeliverFunc) { s.deliver = fn }

// push routes the sort key of n pending events (a run's receivers, or one
// event) to the side heap, a calendar bucket, or the overflow heap by its
// distance from the bucket being drained.
func (s *Scheduler) push(at time.Duration, prio int, kind int16, slot int32, n int) {
	if at < s.now {
		at = s.now
	}
	if prio != int(int16(prio)) {
		panic(fmt.Sprintf("sim: priority class %d out of range", prio))
	}
	s.seq++
	e := heapEntry{at: at, seq: s.seq, prio: int16(prio), kind: kind, slot: slot}
	s.pending += n
	b := int64(at >> bucketShift)
	switch {
	case b <= s.cur:
		// Current bucket (b < cur only while the clock sits past a drained
		// bucket after RunUntil; ordering is unaffected — the side heap
		// sorts).
		s.side = append(s.side, e)
		siftUp(s.side, len(s.side)-1)
	case b-s.cur < bucketCount:
		s.ring[b%bucketCount] = append(s.ring[b%bucketCount], e)
	default:
		s.overflow = append(s.overflow, e)
		siftUp(s.overflow, len(s.overflow)-1)
	}
}

// advance moves the calendar forward to the next populated bucket, sorting
// it for sequential drain. Callers ensure nothing is drainable (sorted
// exhausted, side empty) and pending > 0.
func (s *Scheduler) advance() {
	for {
		// Migrate overflow events that fell inside the horizon.
		for len(s.overflow) > 0 {
			b := int64(s.overflow[0].at >> bucketShift)
			if b-s.cur >= bucketCount {
				break
			}
			e := popHeap(&s.overflow)
			if b <= s.cur {
				s.side = append(s.side, e)
				siftUp(s.side, len(s.side)-1)
			} else {
				s.ring[b%bucketCount] = append(s.ring[b%bucketCount], e)
			}
		}
		if s.sortedIdx < len(s.sorted) || len(s.side) > 0 {
			return
		}
		// Find the next populated bucket; jump straight to the overflow's
		// earliest bucket when the whole ring is empty.
		next := s.cur + 1
		limit := s.cur + bucketCount
		for ; next < limit; next++ {
			if len(s.ring[next%bucketCount]) > 0 {
				break
			}
		}
		if next == limit {
			if len(s.overflow) == 0 {
				panic("sim: advance with nothing pending")
			}
			s.cur = int64(s.overflow[0].at >> bucketShift)
			continue
		}
		s.cur = next
		slot := &s.ring[next%bucketCount]
		s.sorted = append(s.sorted[:0], *slot...)
		s.sortedIdx = 0
		*slot = (*slot)[:0]
		sortEntries(s.sorted)
		return
	}
}

// peek returns the earliest pending sort key without executing it,
// advancing the calendar if needed. ok is false when nothing is pending.
func (s *Scheduler) peek() (heapEntry, bool) {
	if s.pending == 0 {
		return heapEntry{}, false
	}
	if s.sortedIdx == len(s.sorted) && len(s.side) == 0 {
		s.advance()
	}
	if s.sortedIdx < len(s.sorted) &&
		(len(s.side) == 0 || s.sorted[s.sortedIdx].before(s.side[0])) {
		return s.sorted[s.sortedIdx], true
	}
	return s.side[0], true
}

// At schedules fn to run at absolute virtual time at with priority class 0.
// Scheduling in the past (at < Now) runs fn at the current time, preserving
// FIFO order with other already-due events.
func (s *Scheduler) At(at time.Duration, fn func()) { s.AtPrio(at, 0, fn) }

// AtPrio schedules fn at absolute virtual time at with an explicit priority
// class. Among events with equal timestamps, lower classes run first; the
// simulated runtime uses class 1 for inter-group deliveries so that, within
// one virtual instant, local and intra-group events happen "faster" than
// wide-area arrivals — matching the paper's premise that local links are
// orders of magnitude faster (§1) and realising the canonical runs of
// Theorems 4.1 and 5.1 deterministically.
func (s *Scheduler) AtPrio(at time.Duration, prio int, fn func()) {
	if fn == nil {
		panic("sim: nil event function")
	}
	s.push(at, prio, evFn, s.fns.put(fn), 1)
}

// After schedules fn to run d from the current virtual time (class 0).
func (s *Scheduler) After(d time.Duration, fn func()) { s.AtPrio(s.now+d, 0, fn) }

// DeliverAfter schedules a send to each receiver first..last, d from now:
// at the virtual arrival the installed OnDeliver handler receives the
// payload once per receiver, in order, one step each — exactly as
// last-first+1 back-to-back calls with one receiver each would (a single
// receiver is a run of one). No closure, no heap *event — the payload
// rides in a recycled slab slot.
func (s *Scheduler) DeliverAfter(d time.Duration, prio int, from, first, last int32, proto string, body any, sendTS int64) {
	if s.deliver == nil {
		panic("sim: DeliverAfter without an OnDeliver handler")
	}
	slot := s.delivers.put(deliverPayload{from: from, to: first, last: last, proto: proto, body: body, sendTS: sendTS})
	s.push(s.now+d, prio, evDeliver, slot, int(last-first)+1)
}

// TimerAfter schedules fn to run d from now (class 0) unless owner has
// crashed by fire time — the crashed-owner drop happens inline in the
// executor, with no wrapper closure. A nil owner never crashes.
func (s *Scheduler) TimerAfter(d time.Duration, owner Crasher, fn func()) {
	if fn == nil {
		panic("sim: nil timer function")
	}
	s.push(s.now+d, 0, evTimer, s.timers.put(timerPayload{fn: fn, owner: owner}), 1)
}

// Step executes the single earliest pending event — one receiver of a run —
// and returns true, or returns false if the queue is empty.
func (s *Scheduler) Step() bool {
	if s.pending == 0 {
		return false
	}
	if s.sortedIdx == len(s.sorted) && len(s.side) == 0 {
		s.advance()
	}
	var e heapEntry
	inSorted := s.sortedIdx < len(s.sorted) &&
		(len(s.side) == 0 || s.sorted[s.sortedIdx].before(s.side[0]))
	if inSorted {
		e = s.sorted[s.sortedIdx]
	} else {
		e = s.side[0]
	}
	s.pending--
	s.now = e.at
	s.steps++
	// A run keeps its entry and slot until its last receiver: the next one
	// stays at the head under the same key.
	if e.kind == evDeliver {
		if p := &s.delivers.items[e.slot]; p.to < p.last {
			d := *p
			p.to++
			s.deliver(d.from, d.to, d.proto, d.body, d.sendTS)
			return true
		}
	}
	// Release the entry and its slot BEFORE executing: the handler may
	// schedule new events, and a vacated slot must hold no body or closure
	// reference past execution.
	if inSorted {
		s.sortedIdx++
	} else {
		popHeap(&s.side)
	}
	switch e.kind {
	case evDeliver:
		d := s.delivers.take(e.slot)
		s.deliver(d.from, d.to, d.proto, d.body, d.sendTS)
	case evFn:
		s.fns.take(e.slot)()
	case evTimer:
		if p := s.timers.take(e.slot); p.owner == nil || !p.owner.Crashed() {
			p.fn()
		}
	}
	return true
}

// Run executes events until the queue drains. It returns the number of
// events executed. If MaxSteps is set and reached, Run panics: a protocol
// that never quiesces under a finite workload is a bug the tests must see.
func (s *Scheduler) Run() uint64 {
	start := s.steps
	for s.Step() {
		if s.MaxSteps != 0 && s.steps >= s.MaxSteps {
			panic(s.maxStepsDiagnosis())
		}
	}
	return s.steps - start
}

// RunUntil executes events with timestamps ≤ deadline and then advances the
// clock to deadline. Events scheduled beyond the deadline stay queued; at
// the deadline instant itself the (prio, seq) tie-break still applies, so
// local events precede WAN arrivals exactly as under Run. It returns the
// number of events executed.
func (s *Scheduler) RunUntil(deadline time.Duration) uint64 {
	start := s.steps
	for {
		e, ok := s.peek()
		if !ok || e.at > deadline {
			break
		}
		s.Step()
		if s.MaxSteps != 0 && s.steps >= s.MaxSteps {
			panic(s.maxStepsDiagnosis())
		}
	}
	if s.now < deadline {
		s.now = deadline
	}
	return s.steps - start
}

// maxStepsDiagnosis renders the livelock panic message: virtual time,
// pending-queue depth, and the hottest pending event classes — delivery
// events by proto, plus timer/closure counts — so a thousand-process
// livelock names its runaway protocol instead of just dying.
func (s *Scheduler) maxStepsDiagnosis() string {
	counts := make(map[string]int)
	tally := func(entries []heapEntry) {
		for _, e := range entries {
			switch e.kind {
			case evDeliver:
				p := s.delivers.items[e.slot]
				counts["proto "+p.proto] += int(p.last-p.to) + 1
			case evTimer:
				counts["timers"]++
			default:
				counts["closures"]++
			}
		}
	}
	tally(s.sorted[s.sortedIdx:])
	tally(s.side)
	for i := range s.ring {
		tally(s.ring[i])
	}
	tally(s.overflow)
	top := slices.SortedFunc(maps.Keys(counts), func(a, b string) int {
		return cmp.Or(cmp.Compare(counts[b], counts[a]), strings.Compare(a, b))
	})
	var b strings.Builder
	fmt.Fprintf(&b, "sim: exceeded MaxSteps=%d at virtual time %v: %d events pending",
		s.MaxSteps, s.now, s.pending)
	if len(top) > 0 {
		b.WriteString("; hottest:")
		for _, k := range top[:min(5, len(top))] {
			fmt.Fprintf(&b, " %s=%d", k, counts[k])
		}
	}
	return b.String()
}

// Pending returns the number of queued events, counting every receiver of a
// run.
func (s *Scheduler) Pending() int { return s.pending }

// Steps returns the total number of events executed so far, one per
// receiver of a run.
func (s *Scheduler) Steps() uint64 { return s.steps }

// Four-ary heap mechanics over sort-key slices (the active set and the
// overflow). Four children per node means half the tree depth of a binary
// heap, and the children sit adjacent in memory — one miss fetches them
// all. Correctness does not depend on arity: before is a strict total
// order, so the pop sequence is the unique sorted order either way.

const heapArity = 4

func siftUp(q []heapEntry, i int) {
	e := q[i]
	for i > 0 {
		parent := (i - 1) / heapArity
		if !e.before(q[parent]) {
			break
		}
		q[i] = q[parent]
		i = parent
	}
	q[i] = e
}

func siftDown(q []heapEntry, i int) {
	n := len(q)
	e := q[i]
	for {
		first := heapArity*i + 1
		if first >= n {
			break
		}
		min := first
		last := first + heapArity
		if last > n {
			last = n
		}
		for c := first + 1; c < last; c++ {
			if q[c].before(q[min]) {
				min = c
			}
		}
		if !q[min].before(e) {
			break
		}
		q[i] = q[min]
		i = min
	}
	q[i] = e
}

// sortEntries sorts q ascending by before, in place and allocation-free:
// quicksort with median-of-three pivots and an insertion-sort cutoff.
// Keys are distinct (seq is unique), so there are no equal-key
// pathologies, and the result is deterministic regardless of input order.
func sortEntries(q []heapEntry) {
	for {
		n := len(q)
		if n < 16 {
			for i := 1; i < n; i++ {
				e := q[i]
				j := i - 1
				for j >= 0 && e.before(q[j]) {
					q[j+1] = q[j]
					j--
				}
				q[j+1] = e
			}
			return
		}
		// Median-of-three pivot selection into q[m].
		m := n / 2
		if q[m].before(q[0]) {
			q[m], q[0] = q[0], q[m]
		}
		if q[n-1].before(q[m]) {
			q[n-1], q[m] = q[m], q[n-1]
			if q[m].before(q[0]) {
				q[m], q[0] = q[0], q[m]
			}
		}
		pivot := q[m]
		// Hoare partition.
		i, j := -1, n
		for {
			for {
				i++
				if !q[i].before(pivot) {
					break
				}
			}
			for {
				j--
				if !pivot.before(q[j]) {
					break
				}
			}
			if i >= j {
				break
			}
			q[i], q[j] = q[j], q[i]
		}
		// Recurse on the smaller half, iterate on the larger.
		if j+1 < n-(j+1) {
			sortEntries(q[:j+1])
			q = q[j+1:]
		} else {
			sortEntries(q[j+1:])
			q = q[:j+1]
		}
	}
}

// popHeap removes and returns the minimum sort key of q.
func popHeap(q *[]heapEntry) heapEntry {
	h := *q
	e := h[0]
	last := len(h) - 1
	h[0] = h[last]
	*q = h[:last]
	if last > 0 {
		siftDown(h[:last], 0)
	}
	return e
}
