package consensus

import (
	"testing"
	"time"

	"wanamcast/internal/network"
	"wanamcast/internal/node"
	"wanamcast/internal/types"
)

// TestCatchUpViaPrepare: a new leader Preparing an instance that some
// acceptor already knows decided gets the decision straight back.
func TestCatchUpViaPrepare(t *testing.T) {
	r := newRig(t, 3)
	r.cons[0].Propose(1, Value("v"))
	r.rt.Run() // decided everywhere
	// Force p1 to lead instance 1 afresh (as if it had missed the
	// decision): feed it a Prepare-triggering proposal path by having it
	// drive after a (simulated) leader change.
	r.rt.Crash(0)
	r.rt.Run() // suspicion propagates
	// A late proposal at p2 routes to the new leader p1, which already
	// decided: the catch-up reply path answers immediately.
	r.cons[2].Propose(1, Value("late"))
	r.rt.Run()
	if v, ok := r.cons[2].Decided(1); !ok || string(v) != "v" {
		t.Fatalf("late proposer after leader change got %v ok=%v", v, ok)
	}
}

// TestSuccessiveLeaderCrashes: the rank-0 leader dies at once and the
// rank-1 leader dies mid-phase-1; rank 2 takes over with a yet higher
// ballot, exercising nextBallot's skip-past-maxSeen loop and the
// stale-Prepare rejection at acceptors that promised the dead leader's
// ballot. A majority (3 of 5) survives, so the instance must decide.
func TestSuccessiveLeaderCrashes(t *testing.T) {
	topo := types.NewTopology(1, 5)
	rt := node.NewRuntime(topo, network.Model{IntraGroup: time.Millisecond}, 1, nil)
	var cons []*Consensus
	decs := make([]map[uint64]string, 5)
	for i := 0; i < 5; i++ {
		i := i
		decs[i] = make(map[uint64]string)
		c := New(Config{
			API:      rt.Proc(types.ProcessID(i)),
			Detector: rt.Oracle(),
			OnDecide: func(k uint64, v Value) { decs[i][k] = string(v) },
		})
		rt.Proc(types.ProcessID(i)).Register(c)
		cons = append(cons, c)
	}
	rt.Start()
	rt.Crash(0)
	cons[1].Propose(1, Value("from-1"))
	cons[2].Propose(1, Value("from-2"))
	// p1 becomes leader when p0's suspicion lands (~20ms) and starts
	// phase 1; kill it just after its Prepares go out.
	rt.CrashAt(1, 21*time.Millisecond)
	rt.Run()
	for _, i := range []int{2, 3, 4} {
		v, ok := decs[i][1]
		if !ok {
			t.Fatalf("p%d never decided after successive leader crashes", i)
		}
		if v != decs[2][1] {
			t.Fatalf("disagreement: %v vs %v", v, decs[2][1])
		}
	}
}

// TestRetryTimerRefreshesBallot: a leader whose instance stalls past the
// retry period restarts with a fresh ballot and still decides.
func TestRetryTimerRefreshesBallot(t *testing.T) {
	topo := types.NewTopology(1, 3)
	// Make intra-group delay longer than the retry interval so the first
	// retry fires while phase messages are still in flight.
	rt := node.NewRuntime(topo, network.Model{IntraGroup: 30 * time.Millisecond}, 1, nil)
	decs := make([]map[uint64]string, 3)
	var cons []*Consensus
	for i := 0; i < 3; i++ {
		i := i
		decs[i] = make(map[uint64]string)
		c := New(Config{
			API:           rt.Proc(types.ProcessID(i)),
			Detector:      rt.Oracle(),
			RetryInterval: 20 * time.Millisecond,
			OnDecide:      func(k uint64, v Value) { decs[i][k] = string(v) },
		})
		rt.Proc(types.ProcessID(i)).Register(c)
		cons = append(cons, c)
	}
	rt.Start()
	cons[0].Propose(1, Value("slow"))
	cons[1].Propose(1, Value("other"))
	rt.Scheduler().MaxSteps = 500_000
	rt.Run()
	for i := 0; i < 3; i++ {
		if decs[i][1] == "" {
			t.Fatalf("p%d never decided under aggressive retries", i)
		}
		if decs[i][1] != decs[0][1] {
			t.Fatalf("disagreement under retries: %v vs %v", decs[i][1], decs[0][1])
		}
	}
}

// TestUnexpectedMessagePanics: the dispatch guards against foreign bodies.
func TestUnexpectedMessagePanics(t *testing.T) {
	r := newRig(t, 1)
	defer func() {
		if recover() == nil {
			t.Error("expected panic for unexpected message type")
		}
	}()
	node.Deliver(r.rt.Proc(0), 0, r.cons[0].Proto(), "garbage", 0)
}
