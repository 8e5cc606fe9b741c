package tcp

import (
	"sync/atomic"
	"testing"
	"time"

	"wanamcast/internal/config"
	"wanamcast/internal/fd"
	"wanamcast/internal/node"
	"wanamcast/internal/types"
)

// TestLaterArmFireZeroAllocs pins the live timer path: arming a timer on a
// running runtime and its firing on the owner's lane allocate nothing. The
// timer is a lane event on the lane's delay line, and the callback is one
// the caller bound once.
func TestLaterArmFireZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; the pin holds without it")
	}
	// One process, beating once an hour: nothing else on the runtime
	// allocates while the timers are counted.
	rt := New(Config{Topo: types.NewTopology(1, 1), Config: config.Config{
		BasePort: 21860, HeartbeatEvery: time.Hour, SuspectAfter: 2 * time.Hour,
	}})
	if err := rt.Start(); err != nil {
		t.Fatal(err)
	}
	defer rt.Stop()
	fired := make(chan struct{}, 1)
	fire := func() { fired <- struct{}{} }
	owner := rt.Proc(0)
	armFire := func() {
		rt.Later(owner, time.Millisecond, fire)
		<-fired
	}
	for i := 0; i < 32; i++ {
		armFire()
	}
	if n := testing.AllocsPerRun(100, armFire); n != 0 {
		t.Fatalf("a timer armed and fired on a running runtime made %.1f allocations, want 0", n)
	}
}

// TestDelayLineTimersFireInArmOrder: timers due at the same instant fire in
// the order they were armed, with a link's frames due at that instant
// interleaved among them and kept in their own order.
func TestDelayLineTimersFireInArmOrder(t *testing.T) {
	rt := New(Config{Topo: types.NewTopology(2, 2), Config: config.Config{BasePort: 21870, Lanes: 1}})
	ln, owner := rt.laneOf[0], rt.Proc(0)
	const timers = 100
	var fired []int
	due := time.Now().Add(5 * time.Millisecond)
	for i := 0; i < timers; i++ {
		ln.delay(laneEvent{fn: func() { fired = append(fired, i) }, owner: owner, to: 0}, due)
		ln.delay(laneEvent{from: 2, to: 0, proto: "x", ts: int64(i)}, due)
	}
	waitFor(t, 5*time.Second, func() bool { return ln.depth.Load() == 2*timers })
	// No lane loop runs (the runtime was never started): drain the ring by
	// hand and execute the timers.
	frames := 0
	for ev, ok := ln.in.TryPop(); ok; ev, ok = ln.in.TryPop() {
		if ev.fn != nil {
			ln.exec(ev)
		} else if ev.ts != int64(frames) {
			t.Fatalf("frame %d was posted where frame %d was due", ev.ts, frames)
		} else {
			frames++
		}
	}
	if len(fired) != timers || frames != timers {
		t.Fatalf("%d timers fired and %d frames posted, want %d of each", len(fired), frames, timers)
	}
	for i, k := range fired {
		if k != i {
			t.Fatalf("timer %d fired in place %d: equal-due timers must fire in arm order", k, i)
		}
	}
	if h := rt.ReleaseLateness(); h.Count != timers {
		t.Fatalf("release lateness counted %d events, want the %d frames only", h.Count, timers)
	}
}

// TestLaterNeverReachesARestartedProcess: a timer armed before a Crash and a
// Restart belongs to the crashed incarnation and never fires — not on it,
// and not on the new one, whose own timers do.
func TestLaterNeverReachesARestartedProcess(t *testing.T) {
	rt := New(Config{Topo: types.NewTopology(1, 2), Config: config.Config{BasePort: 21880}})
	if err := rt.Start(); err != nil {
		t.Fatal(err)
	}
	defer rt.Stop()
	var old, fresh atomic.Bool
	rt.Later(rt.Proc(0), 50*time.Millisecond, func() { old.Store(true) })
	rt.Crash(0)
	if err := rt.Restart(0, func(*node.Proc, *fd.Oracle) error { return nil }); err != nil {
		t.Fatal(err)
	}
	// Armed later with the same delay, so due later: once it has fired, the
	// old incarnation's timer has been released before it.
	rt.Later(rt.Proc(0), 50*time.Millisecond, func() { fresh.Store(true) })
	waitFor(t, 5*time.Second, fresh.Load)
	if old.Load() {
		t.Fatal("a timer of the crashed incarnation fired after its Restart")
	}
}
