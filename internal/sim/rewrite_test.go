package sim

// Tests pinning the scheduler rewrite: the four-ary inline heap, with one
// entry per run of receivers, must pop in exactly the seed scheduler's
// order, the typed delivery path must not allocate in steady state, the
// MaxSteps panic must diagnose what clogged the queue, and a
// thousand-process multicast workload must execute the seed scheduler's
// events in its order without allocating per event.

import (
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"wanamcast/internal/network"
	"wanamcast/internal/types"
)

// fakeOwner is a Crasher whose crash flag the test flips mid-run.
type fakeOwner struct{ crashed bool }

func (o *fakeOwner) Crashed() bool { return o.crashed }

// schedOps abstracts the scheduling surface the equivalence script drives,
// so the identical script runs on the seed scheduler (everything a
// closure, one per receiver) and the rewritten one (typed timers, one
// delivery entry per run of receivers).
type schedOps struct {
	atPrio   func(at time.Duration, prio int, fn func())
	deliver  func(d time.Duration, prio int, first, last int32, tag int64)
	timer    func(d time.Duration, owner *fakeOwner, fn func())
	now      func() time.Duration
	step     func() bool
	runUntil func(deadline time.Duration) uint64
	pending  func() bool
}

// equivRun is one scheduler's side of the equivalence script: every
// executed event appends to log, and some handlers schedule more.
type equivRun struct {
	ops    schedOps
	log    []int64
	tags   int64
	owners [4]*fakeOwner
}

func (r *equivRun) tag() int64 { r.tags++; return r.tags }

// note logs one executed event: receiver to of a run, or 1023 for a
// closure or timer.
func (r *equivRun) note(tag int64, to int32) { r.log = append(r.log, tag<<10|int64(to)) }

// recv handles every receiver of every run. Some receivers schedule, from
// inside the run, closures at the same instant in both priority classes or
// a run of their own; the tag budget bounds the cascade.
func (r *equivRun) recv(tag int64, to int32) {
	r.note(tag, to)
	if r.tags > 30000 {
		return
	}
	switch (tag + int64(to)) % 9 {
	case 0:
		for prio := 0; prio < 2; prio++ {
			t := r.tag()
			r.ops.atPrio(r.ops.now(), prio, func() { r.note(t, 1023) })
		}
	case 1:
		first := to % 64
		r.ops.deliver(time.Duration(tag%3)*time.Millisecond, int(tag%2), first, first+int32(tag%11), r.tag())
	}
}

// script schedules a randomized, tie-heavy workload — quantized times force
// (prio, seq) tie-breaks constantly — of closures that schedule runs of
// 1–200 receivers, timers on owners that crash mid-run, nested closures,
// and runs beyond the calendar horizon (the overflow heap). It then drives
// the clock in RunUntil slices plus a few single Steps, which often stop
// with a run partly delivered, and injects closures in both priority
// classes and runs at the current instant there.
func (r *equivRun) script() {
	ops := r.ops
	rng := rand.New(rand.NewSource(7))
	r.owners = [4]*fakeOwner{{}, {}, {}, {}}
	// Crash owners 1 and 3 at 40ms: timers on them that fire later must be
	// dropped identically by both schedulers.
	ops.atPrio(40*time.Millisecond, 0, func() {
		r.owners[1].crashed = true
		r.owners[3].crashed = true
		r.note(0, 1023)
	})
	horizon := time.Duration(bucketCount) << bucketShift
	for i := 0; i < 1500; i++ {
		t := r.tag()
		at := time.Duration(rng.Intn(20)) * 5 * time.Millisecond
		prio, kind := rng.Intn(3), rng.Intn(6)
		first := int32(rng.Intn(100))
		last := first + int32(rng.Intn(200))
		ops.atPrio(at, prio, func() {
			r.note(t, 1023)
			switch kind {
			case 0, 1:
				ops.deliver(time.Duration(t%7)*time.Millisecond, int(t%2), first, last, r.tag())
			case 2:
				t2 := r.tag()
				ops.timer(time.Duration(t%11)*time.Millisecond, r.owners[t%4], func() { r.note(t2, 1023) })
			case 3:
				t2 := r.tag()
				ops.atPrio(at+time.Duration(t%3)*time.Millisecond, 2, func() { r.note(t2, 1023) })
			case 4:
				ops.deliver(horizon+time.Duration(t%5-2)*time.Millisecond, int(t%2), first, last, r.tag())
			}
		})
	}
	for round := 0; ops.pending(); round++ {
		ops.runUntil(ops.now() + time.Duration(rng.Intn(15))*time.Millisecond)
		for k := rng.Intn(60); k > 0 && ops.step(); k-- {
		}
		if round >= 400 {
			continue
		}
		for prio := 0; prio < 2; prio++ {
			t := r.tag()
			ops.atPrio(ops.now(), prio, func() { r.note(t, 1023) })
		}
		first := int32(rng.Intn(100))
		ops.deliver(0, rng.Intn(2), first, first+int32(rng.Intn(20)), r.tag())
	}
}

// TestFourAryHeapMatchesSeedOrder runs the identical randomized script on
// the seed scheduler and the rewritten one: the execution logs must match
// element for element — the (time, prio, seq) contract survived the heap
// arity change, the inline-value representation, the typed events, and
// one entry standing for a run of receivers.
func TestFourAryHeapMatchesSeedOrder(t *testing.T) {
	seed := &seedScheduler{}
	seedRun := &equivRun{}
	seedRun.ops = schedOps{
		atPrio: seed.AtPrio,
		deliver: func(d time.Duration, prio int, first, last int32, tag int64) {
			// The seed scheduler has no typed path — a closure per
			// receiver IS its delivery representation.
			for to := first; to <= last; to++ {
				seed.AfterPrio(d, prio, func() { seedRun.recv(tag, to) })
			}
		},
		timer: func(d time.Duration, owner *fakeOwner, fn func()) {
			// Mirror the seed runtime's Later: a wrapper that re-checks
			// the owner at fire time.
			seed.AfterPrio(d, 0, func() {
				if owner.Crashed() {
					return
				}
				fn()
			})
		},
		now:      seed.Now,
		step:     seed.Step,
		runUntil: seed.RunUntil,
		pending:  func() bool { return len(seed.queue) > 0 },
	}
	seedRun.script()

	s := New(1)
	newRun := &equivRun{}
	s.OnDeliver(func(from, to int32, proto string, body any, sendTS int64) { newRun.recv(sendTS, to) })
	newRun.ops = schedOps{
		atPrio: s.AtPrio,
		deliver: func(d time.Duration, prio int, first, last int32, tag int64) {
			s.DeliverAfter(d, prio, 0, first, last, "equiv", nil, tag)
		},
		timer: func(d time.Duration, owner *fakeOwner, fn func()) {
			s.TimerAfter(d, owner, fn)
		},
		now:      s.Now,
		step:     s.Step,
		runUntil: s.RunUntil,
		pending:  func() bool { return s.Pending() > 0 },
	}
	newRun.script()

	seedLog, newLog := seedRun.log, newRun.log
	if len(newLog) != len(seedLog) {
		t.Fatalf("log lengths differ: rewritten %d vs seed %d", len(newLog), len(seedLog))
	}
	for i := range newLog {
		if newLog[i] != seedLog[i] {
			t.Fatalf("execution order diverges at step %d: rewritten %d/%d vs seed %d/%d",
				i, newLog[i]>>10, newLog[i]&1023, seedLog[i]>>10, seedLog[i]&1023)
		}
	}
	if s.Steps() != seed.steps {
		t.Fatalf("Steps = %d, seed scheduler executed %d", s.Steps(), seed.steps)
	}
	t.Logf("%d events in the seed order", len(newLog))
}

// TestDeliverPathZeroAllocs pins the tentpole claim: scheduling and
// executing a typed delivery event — one receiver, or a run of k —
// allocates NOTHING in steady state (the queue slice is warmed once and
// then recycled as the event pool).
func TestDeliverPathZeroAllocs(t *testing.T) {
	s := New(1)
	var sink, got int64
	s.OnDeliver(func(from, to int32, proto string, body any, sendTS int64) { sink += sendTS; got++ })
	body := any(struct{ x int }{1}) // boxed once, outside the measured loop
	for i := 0; i < 2048; i++ {
		s.DeliverAfter(time.Microsecond, 0, 1, 2, 2, "p", body, 1)
	}
	for s.Step() {
	}
	allocs := testing.AllocsPerRun(2000, func() {
		s.DeliverAfter(time.Microsecond, 1, 3, 4, 4, "p", body, 2)
		s.Step()
	})
	if allocs != 0 {
		t.Fatalf("schedule→deliver path allocates %.1f/event, want 0", allocs)
	}
	if sink == 0 {
		t.Fatal("handler never ran")
	}
	const k = 64
	got = 0
	allocs = testing.AllocsPerRun(2000, func() {
		s.DeliverAfter(time.Microsecond, 1, 3, 0, k-1, "p", body, 2)
		for s.Step() {
		}
	})
	if allocs != 0 {
		t.Fatalf("a %d-receiver run allocates %.1f per schedule→drain, want 0", k, allocs)
	}
	if got != 2001*k {
		t.Fatalf("handler ran %d times for 2001 runs of %d", got, k)
	}
}

// TestTimerPathZeroAllocs: a typed timer with a pre-built callback and a
// typed call event schedule and execute without allocating.
func TestTimerPathZeroAllocs(t *testing.T) {
	s := New(1)
	var n int64
	fn := func() { n++ }
	call := func(arg int32) { n += int64(arg) }
	owner := &fakeOwner{}
	for i := 0; i < 256; i++ {
		s.TimerAfter(time.Microsecond, owner, fn)
	}
	for s.Step() {
	}
	allocs := testing.AllocsPerRun(2000, func() {
		s.TimerAfter(time.Microsecond, owner, fn)
		s.CallAfter(time.Microsecond, call, 1)
		s.Step()
		s.Step()
	})
	if allocs != 0 {
		t.Fatalf("timer/call path allocates %.1f/event, want 0", allocs)
	}
}

// TestMaxStepsPanicCarriesDiagnosis: a livelocked run must die with the
// pending depth and the hottest protocols in the message — that is the
// only forensic evidence a huge sweep leaves behind.
func TestMaxStepsPanicCarriesDiagnosis(t *testing.T) {
	s := New(1)
	s.MaxSteps = 50
	s.OnDeliver(func(from, to int32, proto string, body any, sendTS int64) {
		// Livelock: every delivery reschedules itself twice.
		s.DeliverAfter(time.Millisecond, 0, from, to, to, proto, body, sendTS)
		s.DeliverAfter(time.Millisecond, 0, from, to, to, proto, body, sendTS)
	})
	s.DeliverAfter(0, 0, 0, 1, 1, "runaway-proto", nil, 0)
	s.TimerAfter(time.Hour, nil, func() {})
	// A run still pending counts once per receiver.
	s.DeliverAfter(time.Hour, 1, 0, 10, 16, "pending-run", nil, 0)
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("expected MaxSteps panic")
		}
		msg, ok := r.(string)
		if !ok {
			t.Fatalf("panic payload %T, want string", r)
		}
		for _, want := range []string{"MaxSteps=50", "events pending", "runaway-proto", "timers=1", "proto pending-run=7"} {
			if !strings.Contains(msg, want) {
				t.Errorf("panic message %q missing %q", msg, want)
			}
		}
		if !strings.Contains(msg, fmt.Sprintf("%d events pending", s.Pending())) {
			t.Errorf("panic message %q does not carry the pending depth %d", msg, s.Pending())
		}
		if want := fmt.Sprintf("runaway-proto=%d", s.Pending()-8); !strings.Contains(msg, want) {
			t.Errorf("panic message %q: pending depth %d is not %s, timers=1 and pending-run=7", msg, s.Pending(), want)
		}
	}()
	s.Run()
}

// TestRunUntilHonorsPriorityAtDeadline: events landing exactly ON the
// deadline instant must still execute in (prio, seq) order — a deadline
// must not flatten the local-before-WAN ordering within that instant.
func TestRunUntilHonorsPriorityAtDeadline(t *testing.T) {
	s := New(1)
	var got []string
	deadline := 10 * time.Millisecond
	s.AtPrio(deadline, 1, func() { got = append(got, "wan-a") })
	s.AtPrio(deadline, 0, func() { got = append(got, "local-b") })
	s.AtPrio(deadline, 1, func() { got = append(got, "wan-b") })
	s.AtPrio(deadline, 0, func() { got = append(got, "local-a") })
	s.AtPrio(deadline+time.Nanosecond, 0, func() { got = append(got, "beyond") })
	if n := s.RunUntil(deadline); n != 4 {
		t.Fatalf("RunUntil executed %d events, want 4 (deadline-instant only)", n)
	}
	want := []string{"local-b", "local-a", "wan-a", "wan-b"}
	for i, w := range want {
		if got[i] != w {
			t.Fatalf("deadline-instant order = %v, want %v", got, want)
		}
	}
	if s.Pending() != 1 {
		t.Fatalf("event beyond the deadline must stay queued, pending=%d", s.Pending())
	}
}

// The scale workload drives a 200-group × 5-process (1000-process)
// multicast pattern through each scheduler's FULL transmit path as the
// runtime of its era ran it: each cast fans out to every member of two
// groups over the WAN, and each delivery answers with an intra-group ack
// to its group leader — 21 events per cast. The seed side reproduces the
// seed runtime's per-send work exactly (git history of
// internal/node/runtime.go and internal/network/fabric.go): an unguarded
// Tracef whose varargs box on every send, separate fabric Severed and
// Delay calls, and a capture-everything delivery closure heap-allocated
// per copy on a container/heap of *event pointers. The rewritten side is
// the shipped fast path: nil-guarded tracing, one fabric Route call, and
// a typed allocation-free delivery event (the jitter gives every copy its
// own arrival instant, so each is a run of one). Each side folds every
// delivery's (time, from, to, sendTS) into an order fingerprint.
const (
	scaleGroups   = 200
	scalePerGroup = 5
	scaleCasts    = 40000
	scalePeriod   = 50 * time.Microsecond
)

func scaleModel() network.Model {
	// Transcontinental delays against a dense cast rate: with 1000
	// processes casting every 50µs against a 500ms WAN, on the order of
	// 200k deliveries are standing in the queue at any instant — the
	// regime thousand-process sweeps actually run in. The calendar core's
	// per-event cost is depth-insensitive (a bucket holds ~1ms of
	// deliveries regardless of total depth); the seed heap pays
	// O(log n) pointer-chasing compares per event plus GC tracing of
	// every pending closure.
	return network.Model{
		IntraGroup: time.Millisecond,
		InterGroup: 500 * time.Millisecond,
		Jitter:     50 * time.Millisecond,
	}
}

// scaleFold folds one delivery into an order fingerprint.
func scaleFold(h uint64, at time.Duration, from, to types.ProcessID, sendTS int64) uint64 {
	return (h ^ uint64(at)<<1 ^ uint64(from)<<44 ^ uint64(to)<<24 ^ uint64(sendTS)) * 1099511628211
}

type scaleResult struct {
	events, order uint64
	wall          time.Duration
	mallocs       uint64 // during Run, shipped side only
}

func runScaleNew() scaleResult {
	var r scaleResult
	topo := types.NewTopology(scaleGroups, scalePerGroup)
	fab := network.NewFabric(topo, scaleModel())
	s := New(1)
	var trace func(string, ...any) // nil: tracing off
	transmit := func(from, to types.ProcessID, proto string, sendTS int64) {
		delay, severed := fab.Route(from, to, s.Rand())
		if severed {
			return
		}
		if trace != nil { // the satellite fix: no boxing when tracing is off
			trace("SEND %v->%v %s ts=%d", from, to, proto, sendTS)
		}
		prio := 0
		if !topo.SameGroup(from, to) {
			prio = 1
		}
		s.DeliverAfter(delay, prio, int32(from), int32(to), int32(to), proto, nil, sendTS)
	}
	s.OnDeliver(func(fromI, toI int32, proto string, body any, sendTS int64) {
		r.order = scaleFold(r.order, s.Now(), types.ProcessID(fromI), types.ProcessID(toI), sendTS)
		if sendTS == 1 {
			to := types.ProcessID(toI)
			leader := topo.Members(topo.GroupOf(to))[0]
			transmit(to, leader, "ack", 0)
		}
	})
	for i := 0; i < scaleCasts; i++ {
		i := i
		s.At(time.Duration(i)*scalePeriod, func() {
			origin := types.ProcessID(i % topo.N())
			ga := topo.GroupOf(origin)
			gb := types.GroupID((int(ga) + 1 + i) % scaleGroups)
			for _, g := range [2]types.GroupID{ga, gb} {
				for _, q := range topo.Members(g) {
					transmit(origin, q, "cast", 1)
				}
			}
		})
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	r.events = s.Run()
	r.wall = time.Since(start)
	runtime.ReadMemStats(&after)
	r.mallocs = after.Mallocs - before.Mallocs
	return r
}

// seedFabric reproduces the seed fabric's per-transmit surface: Severed
// and Delay as two separate calls, each gated on an atomic activity bit
// (chaos never activates in this workload, as in a plain sweep).
type seedFabric struct {
	topo   *types.Topology
	model  network.Model
	active atomic.Bool
	mu     sync.Mutex
	cut    map[network.Link]bool
}

func (f *seedFabric) Severed(from, to types.ProcessID) bool {
	if !f.active.Load() {
		return false
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.cut[network.Link{From: from, To: to}]
}

func (f *seedFabric) Delay(from, to types.ProcessID, rng *rand.Rand) time.Duration {
	return f.model.Delay(f.topo, from, to, rng)
}

// seedTraceSink mirrors the seed runtime's Tracef: the nil check lives
// INSIDE the variadic callee, so arguments box on every send even with
// tracing off — the cost the Tracef-guard satellite removed.
type seedTraceSink struct{ fn func(string, ...any) }

func (t *seedTraceSink) Tracef(format string, args ...any) {
	if t.fn != nil {
		t.fn(format, args...)
	}
}

func runScaleSeed() scaleResult {
	var r scaleResult
	topo := types.NewTopology(scaleGroups, scalePerGroup)
	fab := &seedFabric{topo: topo, model: scaleModel()}
	tr := &seedTraceSink{}
	rng := rand.New(rand.NewSource(1))
	s := &seedScheduler{}
	var deliver func(from, to types.ProcessID, proto string, sendTS int64)
	transmit := func(from, to types.ProcessID, proto string, sendTS int64) {
		if fab.Severed(from, to) {
			return
		}
		tr.Tracef("SEND %v->%v %s ts=%d %+v", from, to, proto, sendTS, nil)
		delay := fab.Delay(from, to, rng)
		prio := 0
		if !topo.SameGroup(from, to) {
			prio = 1
		}
		s.AfterPrio(delay, prio, func() { deliver(from, to, proto, sendTS) })
	}
	deliver = func(from, to types.ProcessID, proto string, sendTS int64) {
		r.order = scaleFold(r.order, s.Now(), from, to, sendTS)
		if sendTS == 1 {
			leader := topo.Members(topo.GroupOf(to))[0]
			transmit(to, leader, "ack", 0)
		}
	}
	for i := 0; i < scaleCasts; i++ {
		i := i
		s.AtPrio(time.Duration(i)*scalePeriod, 0, func() {
			origin := types.ProcessID(i % topo.N())
			ga := topo.GroupOf(origin)
			gb := types.GroupID((int(ga) + 1 + i) % scaleGroups)
			for _, g := range [2]types.GroupID{ga, gb} {
				for _, q := range topo.Members(g) {
					transmit(origin, q, "cast", 1)
				}
			}
		})
	}
	start := time.Now()
	r.events = s.Run()
	r.wall = time.Since(start)
	return r
}

// TestSimScaleSpeedup runs the 1000-process multicast workload through the
// shipped fast path and the seed scheduler's: both must execute the same
// events in the same order, and the shipped path must allocate nothing per
// event — its only mallocs grow the calendar's slices while the queue
// fills, far fewer than one per event. The events/s ratio is logged, not
// gated: it measures the box as much as the code (2.9–6.6× over twenty
// standalone runs on a 2-core box). Skipped under the race
// detector, which makes the run slow and counts allocations of its own.
func TestSimScaleSpeedup(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes the run slow and counts allocations of its own")
	}
	runtime.GC()
	shipped := runScaleNew()
	runtime.GC()
	seed := runScaleSeed()
	if shipped.events != seed.events || shipped.order != seed.order {
		t.Fatalf("workloads diverge: %d events (order %x) vs the seed scheduler's %d (order %x)",
			shipped.events, shipped.order, seed.events, seed.order)
	}
	if perEvent := shipped.mallocs / shipped.events; perEvent != 0 {
		t.Fatalf("shipped path allocated %d times in %d events, %d per event; want 0", shipped.mallocs, shipped.events, perEvent)
	}
	shippedRate := float64(shipped.events) / shipped.wall.Seconds()
	seedRate := float64(seed.events) / seed.wall.Seconds()
	t.Logf("%d events in the seed order: shipped %.0f events/s (%v, %d mallocs), seed %.0f events/s (%v), ratio %.1fx",
		shipped.events, shippedRate, shipped.wall, shipped.mallocs, seedRate, seed.wall, shippedRate/seedRate)
}

// BenchmarkSchedulerDeliver measures the typed schedule→deliver round trip
// at a realistic standing queue depth.
func BenchmarkSchedulerDeliver(b *testing.B) {
	s := New(1)
	var sink int64
	s.OnDeliver(func(from, to int32, proto string, body any, sendTS int64) { sink += sendTS })
	for i := 0; i < 4096; i++ {
		s.DeliverAfter(time.Duration(i)*time.Microsecond, 0, 0, 1, 1, "p", nil, 1)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.DeliverAfter(time.Microsecond, 0, 0, 1, 1, "p", nil, 1)
		s.Step()
	}
}

// BenchmarkSeedSchedulerDeliver is the closure-per-send baseline.
func BenchmarkSeedSchedulerDeliver(b *testing.B) {
	s := &seedScheduler{}
	var sink int64
	for i := 0; i < 4096; i++ {
		s.AtPrio(time.Duration(i)*time.Microsecond, 0, func() { sink++ })
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.AfterPrio(time.Microsecond, 0, func() { sink++ })
		s.Step()
	}
}
