package node

import (
	"testing"
	"time"

	"wanamcast/internal/network"
	"wanamcast/internal/types"
)

// echoProto records what it receives.
type echoProto struct {
	got []string
}

func (e *echoProto) Proto() string       { return "echo" }
func (e *echoProto) Start()              {}
func (e *echoProto) Handlers() []Handler { return []Handler{On((*echoProto).Receive)} }
func (e *echoProto) Receive(from types.ProcessID, body any) {
	e.got = append(e.got, body.(string))
}

// TestSeveredLinkHoldsAndReleases: a message sent over a severed link is
// withheld, not lost — it arrives after the link heals (quasi-reliable
// channels: a partition is just delay).
func TestSeveredLinkHoldsAndReleases(t *testing.T) {
	topo := types.NewTopology(2, 1)
	rt := NewRuntime(topo, network.Model{InterGroup: time.Millisecond}, 1, nil)
	e := &echoProto{}
	rt.Proc(1).Register(e)
	rt.Proc(0).Register(&echoProto{})
	rt.Start()

	rt.Fabric().Sever(0, 1)
	Send(rt.Proc(0), 1, "echo", "during-partition")
	rt.RunUntil(50 * time.Millisecond)
	if len(e.got) != 0 {
		t.Fatalf("message crossed a severed link: %v", e.got)
	}

	rt.Scheduler().At(60*time.Millisecond, func() { rt.Fabric().Heal(0, 1) })
	rt.Run()
	if len(e.got) != 1 || e.got[0] != "during-partition" {
		t.Fatalf("held message not released on heal: %v", e.got)
	}
	if rt.Now() < 60*time.Millisecond {
		t.Fatalf("delivery before the heal at %v", rt.Now())
	}
}

// TestSeveredLinkIsDirectional: severing 0→1 leaves 1→0 working.
func TestSeveredLinkIsDirectional(t *testing.T) {
	topo := types.NewTopology(2, 1)
	rt := NewRuntime(topo, network.Model{InterGroup: time.Millisecond}, 1, nil)
	e0, e1 := &echoProto{}, &echoProto{}
	rt.Proc(0).Register(e0)
	rt.Proc(1).Register(e1)
	rt.Start()

	rt.Fabric().Sever(0, 1)
	Send(rt.Proc(0), 1, "echo", "blocked")
	Send(rt.Proc(1), 0, "echo", "reverse-ok")
	rt.Run()
	if len(e1.got) != 0 {
		t.Fatalf("0→1 delivered despite sever: %v", e1.got)
	}
	if len(e0.got) != 1 || e0.got[0] != "reverse-ok" {
		t.Fatalf("1→0 blocked by a directional sever of 0→1: %v", e0.got)
	}
}

// TestHeldOrderPreserved: parked messages release in send order.
func TestHeldOrderPreserved(t *testing.T) {
	topo := types.NewTopology(2, 1)
	rt := NewRuntime(topo, network.Model{InterGroup: time.Millisecond}, 1, nil)
	e := &echoProto{}
	rt.Proc(1).Register(e)
	rt.Proc(0).Register(&echoProto{})
	rt.Start()

	rt.Fabric().Sever(0, 1)
	for _, m := range []string{"a", "b", "c"} {
		Send(rt.Proc(0), 1, "echo", m)
	}
	rt.Scheduler().At(10*time.Millisecond, func() { rt.Fabric().Heal(0, 1) })
	rt.Run()
	if len(e.got) != 3 || e.got[0] != "a" || e.got[1] != "b" || e.got[2] != "c" {
		t.Fatalf("release order = %v, want [a b c]", e.got)
	}
}

// TestIsolationSuspicionAndTrustRestore: cutting every intra-group link
// out of a process makes the oracle suspect it after SuspicionDelay
// (heartbeats dark) and healing restores trust, re-electing it.
func TestIsolationSuspicionAndTrustRestore(t *testing.T) {
	topo := types.NewTopology(1, 3)
	rt := NewRuntime(topo, network.Model{IntraGroup: time.Millisecond}, 1, nil)
	for i := 0; i < 3; i++ {
		rt.Proc(types.ProcessID(i)).Register(&echoProto{})
	}
	rt.Start()
	var leaders []types.ProcessID
	rt.Oracle().Subscribe(func(_ types.GroupID, l types.ProcessID) { leaders = append(leaders, l) })

	rt.Scheduler().At(10*time.Millisecond, func() { rt.Fabric().Isolate(0) })
	rt.RunUntil(10*time.Millisecond + rt.SuspicionDelay/2)
	if rt.Oracle().Suspected(0) {
		t.Fatal("suspected before SuspicionDelay elapsed")
	}
	rt.RunUntil(10*time.Millisecond + 2*rt.SuspicionDelay)
	if !rt.Oracle().Suspected(0) {
		t.Fatal("isolated process never suspected")
	}
	if rt.Oracle().Leader(0) != 1 {
		t.Fatalf("leader = %v after isolating p0, want p1", rt.Oracle().Leader(0))
	}

	rt.Scheduler().At(100*time.Millisecond, func() { rt.Fabric().HealIsolate(0) })
	rt.RunUntil(110 * time.Millisecond)
	if rt.Oracle().Suspected(0) {
		t.Fatal("trust not restored after heal")
	}
	if rt.Oracle().Leader(0) != 0 {
		t.Fatalf("leader = %v after heal, want p0 re-elected", rt.Oracle().Leader(0))
	}
	if len(leaders) != 2 || leaders[0] != 1 || leaders[1] != 0 {
		t.Fatalf("leader notifications = %v, want [1 0]", leaders)
	}
}

// TestPartialSeveranceNoSuspicion: a process that can still reach one
// group peer is not suspected.
func TestPartialSeveranceNoSuspicion(t *testing.T) {
	topo := types.NewTopology(1, 3)
	rt := NewRuntime(topo, network.Model{IntraGroup: time.Millisecond}, 1, nil)
	for i := 0; i < 3; i++ {
		rt.Proc(types.ProcessID(i)).Register(&echoProto{})
	}
	rt.Start()
	rt.Fabric().Sever(0, 1) // 0→2 still up
	rt.RunUntil(10 * rt.SuspicionDelay)
	if rt.Oracle().Suspected(0) {
		t.Fatal("partially severed process wrongly suspected")
	}
}

// TestCrashedProcessStaysSuspectedAfterHeal: healing an isolation must not
// restore trust in a process that crashed meanwhile — crash-stop is
// permanent.
func TestCrashedProcessStaysSuspectedAfterHeal(t *testing.T) {
	topo := types.NewTopology(1, 3)
	rt := NewRuntime(topo, network.Model{IntraGroup: time.Millisecond}, 1, nil)
	for i := 0; i < 3; i++ {
		rt.Proc(types.ProcessID(i)).Register(&echoProto{})
	}
	rt.Start()
	rt.Scheduler().At(time.Millisecond, func() { rt.Fabric().Isolate(0) })
	rt.Scheduler().At(50*time.Millisecond, func() { rt.Crash(0) })
	rt.Scheduler().At(100*time.Millisecond, func() { rt.Fabric().HealIsolate(0) })
	rt.RunUntil(200 * time.Millisecond)
	if !rt.Oracle().Suspected(0) {
		t.Fatal("crashed process trusted again after heal")
	}
	rt.Unsuspect(0) // explicit Unsuspect must refuse too
	if !rt.Oracle().Suspected(0) {
		t.Fatal("Unsuspect revived a crashed process's trust")
	}
}
