package wanamcast

import (
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"wanamcast/internal/storage"
)

// restartCluster builds a started, checked, durable (in-memory stores)
// cluster with fast timing for crash/restart tests.
func restartCluster(t *testing.T, basePort int) (*LiveCluster, []storage.Store) {
	t.Helper()
	return restartClusterPipe(t, basePort, 2)
}

func restartClusterPipe(t *testing.T, basePort, pipeline int) (*LiveCluster, []storage.Store) {
	t.Helper()
	stores := make([]storage.Store, 6)
	for i := range stores {
		stores[i] = storage.NewMem()
	}
	cl := NewLiveCluster(LiveConfig{
		Groups:   2,
		PerGroup: 3,
		BasePort: basePort,
		WANDelay: 5 * time.Millisecond,
		Check:    true,
		MaxBatch: 64,
		Pipeline: pipeline,
		StoreFor: func(p ProcessID) storage.Store { return stores[p] },
	})
	if err := cl.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cl.Stop)
	return cl, stores
}

// TestRestartRecoversAndCatchesUpA1 is the core recovery scenario on
// Algorithm A1: a replica crashes, the cluster keeps ordering without it,
// the replica restarts from its durable store, catches up the missed
// messages from live peers, and the §2.2 properties hold with the replica
// counted as CORRECT again. (A1 and A2 are exercised in separate tests:
// they are independent total orders, so one checked run must not mix
// them.)
func TestRestartRecoversAndCatchesUpA1(t *testing.T) {
	cl, _ := restartCluster(t, 30000)
	g01 := []GroupID{0, 1}

	for i := 0; i < 5; i++ {
		cl.Multicast(cl.Process(0, i%3), fmt.Sprintf("pre-%d", i), g01...)
	}
	if v := cl.WaitPropertiesClean(10 * time.Second); len(v) != 0 {
		t.Fatalf("pre-crash violations: %v", v)
	}

	victim := cl.Process(0, 1) // not g0's initial leader: ordering continues
	cl.Crash(victim)

	// Traffic the victim misses entirely.
	var missed []MessageID
	for i := 0; i < 8; i++ {
		missed = append(missed, cl.Multicast(cl.Process(0, 0), fmt.Sprintf("mid-%d", i), g01...))
	}
	// Every LIVE process delivers them (5 of 6).
	for _, id := range missed {
		if !cl.WaitDelivered(id, 5, 10*time.Second) {
			t.Fatalf("live cluster did not deliver %v while %v was down", id, victim)
		}
	}

	if err := cl.Restart(victim); err != nil {
		t.Fatalf("Restart(%v): %v", victim, err)
	}

	// The restarted replica catches up everything it missed...
	for _, id := range missed {
		if !cl.WaitDelivered(id, 6, 15*time.Second) {
			t.Fatalf("restarted %v never caught up on %v", victim, id)
		}
	}
	// ...participates in fresh traffic...
	post := cl.Multicast(cl.Process(1, 2), "post", g01...)
	if !cl.WaitDelivered(post, 6, 10*time.Second) {
		t.Fatalf("post-restart multicast not fully delivered")
	}
	// ...and the §2.2 properties hold with the victim treated as correct.
	if v := cl.WaitPropertiesClean(15 * time.Second); len(v) != 0 {
		t.Fatalf("post-restart violations: %v", v)
	}
}

// TestRestartRecoversAndCatchesUpA2 is the same scenario on Algorithm A2's
// round-based ordering: the restarted replica recovers its delivery round
// from disk and adopts the completed rounds it missed from peers.
func TestRestartRecoversAndCatchesUpA2(t *testing.T) {
	cl, _ := restartCluster(t, 30200)

	for i := 0; i < 5; i++ {
		cl.Broadcast(cl.Process(1, i%3), fmt.Sprintf("bpre-%d", i))
	}
	if v := cl.WaitPropertiesClean(10 * time.Second); len(v) != 0 {
		t.Fatalf("pre-crash violations: %v", v)
	}

	victim := cl.Process(0, 1)
	cl.Crash(victim)

	var missed []MessageID
	for i := 0; i < 8; i++ {
		missed = append(missed, cl.Broadcast(cl.Process(1, 0), fmt.Sprintf("bmid-%d", i)))
	}
	for _, id := range missed {
		if !cl.WaitDelivered(id, 5, 10*time.Second) {
			t.Fatalf("live cluster did not deliver %v while %v was down", id, victim)
		}
	}

	if err := cl.Restart(victim); err != nil {
		t.Fatalf("Restart(%v): %v", victim, err)
	}

	for _, id := range missed {
		if !cl.WaitDelivered(id, 6, 15*time.Second) {
			t.Fatalf("restarted %v never caught up on %v", victim, id)
		}
	}
	post := cl.Broadcast(cl.Process(0, 1), "bpost")
	if !cl.WaitDelivered(post, 6, 10*time.Second) {
		t.Fatalf("post-restart broadcast not fully delivered")
	}
	if v := cl.WaitPropertiesClean(15 * time.Second); len(v) != 0 {
		t.Fatalf("post-restart violations: %v", v)
	}
}

// TestRestartUnderPacedBroadcastLoad crashes and restarts a replica while
// Pipeline 4 broadcasts keep flowing, so its peers are mid-window — pacing
// their rounds, with rounds decided but not yet completed — at the moment
// they serve its state transfer. The restarted replica comes back with no
// pace estimate (none is in its WAL or snapshot): it must open every
// proposable round at once until it has timed one of its own, and it must
// learn the bundles of the rounds its group had in flight; a round held
// back or left without its bundle here stalls every later delivery.
func TestRestartUnderPacedBroadcastLoad(t *testing.T) {
	cl, _ := restartClusterPipe(t, 30400, 4)
	victim := cl.Process(0, 1)
	stop, done := make(chan struct{}), make(chan []MessageID)
	go func() {
		var ids []MessageID
		for tick := time.NewTicker(2 * time.Millisecond); ; {
			select {
			case <-tick.C:
				from := cl.Process(GroupID(len(ids)%2), 2*(len(ids)%2)) // never the victim
				ids = append(ids, cl.Broadcast(from, fmt.Sprintf("b%d", len(ids))))
			case <-stop:
				tick.Stop()
				done <- ids
				return
			}
		}
	}()
	time.Sleep(300 * time.Millisecond)
	cl.Crash(victim)
	time.Sleep(300 * time.Millisecond)
	if err := cl.Restart(victim); err != nil {
		t.Errorf("Restart(%v): %v", victim, err)
	}
	time.Sleep(300 * time.Millisecond)
	close(stop)
	ids := <-done
	for _, id := range ids {
		if !cl.WaitDelivered(id, 6, 15*time.Second) {
			t.Fatalf("%v reached %d of 6 replicas (%d casts in all)", id, cl.DeliveredCount(id), len(ids))
		}
	}
	if v := cl.WaitPropertiesClean(15 * time.Second); len(v) != 0 {
		t.Fatalf("violations: %v", v)
	}
}

// TestFullGroupRestart pins the group-wide power-event case: EVERY member
// of a group crashes and restarts. While all members are syncing nobody
// can serve authoritative state, so the Busy tie-breaker must let them
// agree that nothing newer exists and resume — a politeness deadlock here
// would gate the group's delivery forever.
func TestFullGroupRestart(t *testing.T) {
	cl, _ := restartCluster(t, 30800)
	g01 := []GroupID{0, 1}

	for i := 0; i < 6; i++ {
		cl.Multicast(cl.Process(GroupID(i%2), i%3), fmt.Sprintf("pre-%d", i), g01...)
	}
	if v := cl.WaitPropertiesClean(10 * time.Second); len(v) != 0 {
		t.Fatalf("pre-crash violations: %v", v)
	}

	// The whole of group 0 goes down at once.
	for i := 0; i < 3; i++ {
		cl.Crash(cl.Process(0, i))
	}
	for i := 0; i < 3; i++ {
		if err := cl.Restart(cl.Process(0, i)); err != nil {
			t.Fatalf("Restart(%v): %v", cl.Process(0, i), err)
		}
	}

	// The revived group must order and deliver fresh traffic (this is
	// where a sync politeness deadlock would hang forever).
	post := cl.Multicast(cl.Process(1, 0), "post-full-restart", g01...)
	if !cl.WaitDelivered(post, 6, 20*time.Second) {
		t.Fatalf("group did not recover from a full-group restart")
	}
	own := cl.Multicast(cl.Process(0, 0), "from-revived-group", g01...)
	if !cl.WaitDelivered(own, 6, 20*time.Second) {
		t.Fatalf("revived group cannot originate multicasts")
	}
	if v := cl.WaitPropertiesClean(20 * time.Second); len(v) != 0 {
		t.Fatalf("post-restart violations: %v", v)
	}
}

// TestRestartRequiresDurableStore pins the error contract.
func TestRestartRequiresDurableStore(t *testing.T) {
	cl := NewLiveCluster(LiveConfig{
		Groups: 1, PerGroup: 2, BasePort: 30100, WANDelay: time.Millisecond,
	})
	if err := cl.Start(); err != nil {
		t.Fatal(err)
	}
	defer cl.Stop()
	p := cl.Process(0, 0)
	if err := cl.Restart(p); err == nil {
		t.Fatal("Restart of a non-crashed process must fail")
	}
	cl.Crash(p)
	if err := cl.Restart(p); err == nil {
		t.Fatal("Restart without a durable store must fail")
	}
}

// flakyStore is a Mem store whose next Load, or next Replay after a few
// records, fails once when armed.
type flakyStore struct {
	*storage.Mem
	failLoad, failReplay atomic.Bool
}

var errInjected = errors.New("injected store fault")

func (f *flakyStore) Load() ([]byte, uint64, error) {
	if f.failLoad.CompareAndSwap(true, false) {
		return nil, 0, errInjected
	}
	return f.Mem.Load()
}

func (f *flakyStore) Replay(from uint64, fn func(rec storage.Record) error) error {
	if !f.failReplay.CompareAndSwap(true, false) {
		return f.Mem.Replay(from, fn)
	}
	n := 0
	return f.Mem.Replay(from, func(rec storage.Record) error {
		if n++; n > 3 {
			return errInjected
		}
		return fn(rec)
	})
}

// TestFailedRecoveryLeavesProcessCrashed: when recovery fails — the store
// cannot load, or the WAL replay breaks off partway — Restart reports it and
// installs nothing: no half-restored acceptor answers the group from partial
// state, the crashed incarnation stays in place, the group keeps ordering,
// and a second Restart on the healed store succeeds and catches up.
func TestFailedRecoveryLeavesProcessCrashed(t *testing.T) {
	for i, fault := range []string{"load", "replay"} {
		t.Run(fault, func(t *testing.T) {
			const victim = ProcessID(1)
			flaky := &flakyStore{Mem: storage.NewMem()}
			cl := NewLiveCluster(LiveConfig{
				Groups: 2, PerGroup: 3, BasePort: 30700 + 200*i, WANDelay: 5 * time.Millisecond,
				Check: true, MaxBatch: 64, Pipeline: 2,
				StoreFor: func(p ProcessID) storage.Store {
					if p == victim {
						return flaky
					}
					return storage.NewMem()
				},
			})
			if err := cl.Start(); err != nil {
				t.Fatal(err)
			}
			t.Cleanup(cl.Stop)
			g01 := []GroupID{0, 1}
			for i := 0; i < 5; i++ {
				cl.Multicast(cl.Process(0, i%3), fmt.Sprintf("pre-%d", i), g01...)
			}
			if v := cl.WaitPropertiesClean(10 * time.Second); len(v) != 0 {
				t.Fatalf("pre-crash violations: %v", v)
			}
			cl.Crash(victim)
			dead := cl.rt.Proc(victim)

			if fault == "load" {
				flaky.failLoad.Store(true)
			} else {
				flaky.failReplay.Store(true)
			}
			if err := cl.Restart(victim); !errors.Is(err, errInjected) {
				t.Fatalf("Restart on a failing store = %v, want the injected fault", err)
			}
			if cl.rt.Proc(victim) != dead || !dead.Crashed() {
				t.Fatal("a failed recovery installed a new incarnation")
			}
			if id := cl.Broadcast(victim, "from the dead"); !id.IsZero() {
				t.Fatalf("the still-crashed process cast %v", id)
			}
			// The group orders on without it.
			mid := cl.Multicast(cl.Process(0, 0), "mid", g01...)
			if !cl.WaitDelivered(mid, 5, 10*time.Second) {
				t.Fatal("the group stopped ordering after the failed restart")
			}
			if n := cl.DeliveredCount(mid); n != 5 {
				t.Fatalf("%d deliveries of a message the crashed process missed, want 5", n)
			}

			if err := cl.Restart(victim); err != nil {
				t.Fatalf("Restart on the healed store: %v", err)
			}
			if !cl.WaitDelivered(mid, 6, 15*time.Second) {
				t.Fatal("the restarted process never caught up")
			}
			post := cl.Multicast(victim, "post", g01...)
			if !cl.WaitDelivered(post, 6, 10*time.Second) {
				t.Fatal("the restarted process cannot originate multicasts")
			}
			if v := cl.WaitPropertiesClean(15 * time.Second); len(v) != 0 {
				t.Fatalf("post-restart violations: %v", v)
			}
		})
	}
}
