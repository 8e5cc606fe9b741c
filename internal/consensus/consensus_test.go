package consensus

import (
	"fmt"
	"testing"
	"time"

	"wanamcast/internal/metrics"
	"wanamcast/internal/network"
	"wanamcast/internal/node"
	"wanamcast/internal/types"
)

// rig builds one group of size d with a consensus engine per process and a
// decision log.
type rig struct {
	rt    *node.Runtime
	cons  []*Consensus
	decs  []map[uint64]Value // per process: instance -> decided value
	order [][]uint64         // per process: decision arrival order
}

func newRig(t *testing.T, d int) *rig { return newTappedRig(t, d, nil) }

// newTappedRig is newRig with filter(i, from, body) in front of process
// i's engine (nil: no tap).
func newTappedRig(t *testing.T, d int, filter func(i int, from types.ProcessID, body any) bool) *rig {
	t.Helper()
	topo := types.NewTopology(1, d)
	rt := node.NewRuntime(topo, network.Model{IntraGroup: time.Millisecond}, 1, nil)
	r := &rig{rt: rt, cons: make([]*Consensus, d), decs: make([]map[uint64]Value, d), order: make([][]uint64, d)}
	for i := 0; i < d; i++ {
		i := i
		r.decs[i] = make(map[uint64]Value)
		c := New(Config{
			API:      rt.Proc(types.ProcessID(i)),
			Detector: rt.Oracle(),
			OnDecide: func(inst uint64, v Value) {
				if _, dup := r.decs[i][inst]; dup {
					t.Errorf("p%d decided instance %d twice", i, inst)
				}
				r.decs[i][inst] = v
				r.order[i] = append(r.order[i], inst)
			},
		})
		rt.Proc(types.ProcessID(i)).Register(c)
		if filter != nil {
			rt.Proc(types.ProcessID(i)).Tap(func(from types.ProcessID, body any, deliver func()) {
				if filter(i, from, body) {
					deliver()
				}
			})
		}
		r.cons[i] = c
	}
	rt.Start()
	return r
}

// TestSingleProposerAllDecide: termination and uniform agreement with one
// proposer.
func TestSingleProposerAllDecide(t *testing.T) {
	for _, d := range []int{1, 2, 3, 5} {
		r := newRig(t, d)
		r.cons[0].Propose(1, "v")
		r.rt.Run()
		for i := 0; i < d; i++ {
			v, ok := r.decs[i][1]
			if !ok {
				t.Fatalf("d=%d: p%d never decided", d, i)
			}
			if v != "v" {
				t.Fatalf("d=%d: p%d decided %v", d, i, v)
			}
		}
	}
}

// TestUniformIntegrity: the decided value was proposed by someone.
func TestUniformIntegrity(t *testing.T) {
	r := newRig(t, 3)
	r.cons[0].Propose(1, "a")
	r.cons[1].Propose(1, "b")
	r.cons[2].Propose(1, "c")
	r.rt.Run()
	v := r.decs[0][1]
	if v != "a" && v != "b" && v != "c" {
		t.Fatalf("decided %v, not among proposals", v)
	}
	for i := 1; i < 3; i++ {
		if r.decs[i][1] != v {
			t.Fatalf("disagreement: p0=%v p%d=%v", v, i, r.decs[i][1])
		}
	}
}

// TestManyInstances: instances are independent and all terminate.
func TestManyInstances(t *testing.T) {
	r := newRig(t, 3)
	for k := uint64(1); k <= 20; k++ {
		r.cons[int(k)%3].Propose(k, fmt.Sprintf("v%d", k))
	}
	r.rt.Run()
	for i := 0; i < 3; i++ {
		for k := uint64(1); k <= 20; k++ {
			if r.decs[i][k] != fmt.Sprintf("v%d", k) {
				t.Fatalf("p%d instance %d decided %v", i, k, r.decs[i][k])
			}
		}
	}
}

// TestSparseInstanceNumbers: the instance namespace may skip (as A1's K
// sequence does).
func TestSparseInstanceNumbers(t *testing.T) {
	r := newRig(t, 3)
	for _, k := range []uint64{1, 5, 100, 7} {
		r.cons[0].Propose(k, k)
	}
	r.rt.Run()
	for _, k := range []uint64{1, 5, 100, 7} {
		for i := 0; i < 3; i++ {
			if r.decs[i][k] != k {
				t.Fatalf("p%d instance %d: %v", i, k, r.decs[i][k])
			}
		}
	}
}

// TestReproposalIgnored: at most one proposal per instance per process.
func TestReproposalIgnored(t *testing.T) {
	r := newRig(t, 2)
	r.cons[0].Propose(1, "first")
	r.cons[0].Propose(1, "second")
	r.rt.Run()
	if r.decs[0][1] != "first" {
		t.Fatalf("decided %v, want the first local proposal", r.decs[0][1])
	}
}

// TestLeaderCrashBeforePropose: a follower's proposal survives the leader
// crashing before driving anything.
func TestLeaderCrashBeforePropose(t *testing.T) {
	r := newRig(t, 3)
	r.rt.Crash(0) // leader gone; suspicion after 20ms
	r.cons[1].Propose(1, "survivor")
	r.rt.Run()
	for _, i := range []int{1, 2} {
		if r.decs[i][1] != "survivor" {
			t.Fatalf("p%d decided %v", i, r.decs[i][1])
		}
	}
}

// TestLeaderCrashMidInstance: the leader crashes right after proposing; the
// new leader finishes the instance.
func TestLeaderCrashMidInstance(t *testing.T) {
	r := newRig(t, 3)
	r.cons[0].Propose(1, "from-leader")
	r.cons[1].Propose(1, "from-follower")
	r.rt.CrashAt(0, 500*time.Microsecond) // before Accepted quorum returns
	r.rt.Run()
	v1, ok1 := r.decs[1][1]
	v2, ok2 := r.decs[2][1]
	if !ok1 || !ok2 {
		t.Fatal("correct processes did not decide after leader crash")
	}
	if v1 != v2 {
		t.Fatalf("disagreement after crash: %v vs %v", v1, v2)
	}
}

// TestSafetyAcrossLeaderChange: if the old leader's value reached a quorum,
// the new leader must decide the same value (Paxos safety).
func TestSafetyAcrossLeaderChange(t *testing.T) {
	r := newRig(t, 3)
	r.cons[0].Propose(1, "chosen")
	// Let the accept round land (quorum reached ~3ms in), then crash the
	// leader before everyone hears the Decide... decide messages go out in
	// the same handler, so instead crash just after proposing at another
	// process to force the new leader through phase 1.
	r.rt.CrashAt(0, 2500*time.Microsecond)
	r.cons[1].Propose(1, "other")
	r.rt.Run()
	v1 := r.decs[1][1]
	v2 := r.decs[2][1]
	if v1 != v2 {
		t.Fatalf("disagreement: %v vs %v", v1, v2)
	}
}

// TestMinorityCrashStillLive: consensus survives any minority of crashes.
func TestMinorityCrashStillLive(t *testing.T) {
	r := newRig(t, 5)
	r.rt.Crash(3)
	r.rt.CrashAt(4, 10*time.Millisecond)
	for k := uint64(1); k <= 5; k++ {
		r.cons[1].Propose(k, k*10)
	}
	r.rt.Run()
	for i := 0; i < 3; i++ {
		for k := uint64(1); k <= 5; k++ {
			if r.decs[i][k] != k*10 {
				t.Fatalf("p%d instance %d: %v", i, k, r.decs[i][k])
			}
		}
	}
}

// TestLateProposerCatchesUp: a process proposing an already-decided
// instance learns the decision.
func TestLateProposerCatchesUp(t *testing.T) {
	r := newRig(t, 3)
	r.cons[0].Propose(1, "early")
	r.rt.Run()
	// Everyone has decided. Now p2 proposes the same instance late.
	r.cons[2].Propose(1, "late")
	r.rt.Run()
	if r.decs[2][1] != "early" {
		t.Fatalf("late proposer decided %v", r.decs[2][1])
	}
}

// TestQuiescentWhenIdle: no proposals → no messages, and after decisions
// complete the retry timer chain stops (needed for Prop. A.9).
func TestQuiescentWhenIdle(t *testing.T) {
	topo := types.NewTopology(1, 3)
	col := &metrics.Collector{}
	rt := node.NewRuntime(topo, network.Model{IntraGroup: time.Millisecond}, 1, col)
	var cs []*Consensus
	for i := 0; i < 3; i++ {
		c := New(Config{
			API:      rt.Proc(types.ProcessID(i)),
			Detector: rt.Oracle(),
			OnDecide: func(uint64, Value) {},
		})
		rt.Proc(types.ProcessID(i)).Register(c)
		cs = append(cs, c)
	}
	rt.Start()
	rt.Run()
	if n := col.Snapshot().TotalMessages; n != 0 {
		t.Fatalf("idle consensus sent %d messages", n)
	}
	cs[0].Propose(1, "x")
	rt.Run() // must drain: decided, timers stopped
	after := col.Snapshot().TotalMessages
	rt.RunUntil(rt.Now() + time.Second)
	if now := col.Snapshot().TotalMessages; now != after {
		t.Fatalf("consensus kept sending after deciding: %d -> %d", after, now)
	}
}

// TestDecidedAccessor exposes decisions for clients that poll.
func TestDecidedAccessor(t *testing.T) {
	r := newRig(t, 2)
	if _, ok := r.cons[0].Decided(1); ok {
		t.Error("Decided before any proposal")
	}
	r.cons[0].Propose(1, "v")
	r.rt.Run()
	v, ok := r.cons[1].Decided(1)
	if !ok || v != "v" {
		t.Errorf("Decided = %v ok=%v", v, ok)
	}
}

// TestConfigValidation: missing wiring panics.
func TestConfigValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic on missing config")
		}
	}()
	New(Config{})
}

// TestTwoGroupsIndependent: engines in different groups share instance
// numbers without interference.
func TestTwoGroupsIndependent(t *testing.T) {
	topo := types.NewTopology(2, 2)
	rt := node.NewRuntime(topo, network.Model{IntraGroup: time.Millisecond, InterGroup: 50 * time.Millisecond}, 1, nil)
	decs := make([]map[uint64]Value, 4)
	var cons []*Consensus
	for i := 0; i < 4; i++ {
		i := i
		decs[i] = make(map[uint64]Value)
		c := New(Config{
			API:      rt.Proc(types.ProcessID(i)),
			Detector: rt.Oracle(),
			OnDecide: func(inst uint64, v Value) { decs[i][inst] = v },
		})
		rt.Proc(types.ProcessID(i)).Register(c)
		cons = append(cons, c)
	}
	rt.Start()
	cons[0].Propose(1, "group0")
	cons[2].Propose(1, "group1")
	rt.Run()
	if decs[0][1] != "group0" || decs[1][1] != "group0" {
		t.Errorf("group 0 decisions: %v %v", decs[0][1], decs[1][1])
	}
	if decs[2][1] != "group1" || decs[3][1] != "group1" {
		t.Errorf("group 1 decisions: %v %v", decs[2][1], decs[3][1])
	}
}
