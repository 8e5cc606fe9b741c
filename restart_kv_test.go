package wanamcast

import (
	"bytes"
	"testing"
	"time"

	"wanamcast/internal/metrics"
	"wanamcast/internal/svc"
	"wanamcast/internal/types"
	"wanamcast/internal/workload"
)

// TestCrashRestartKVLoad is the acceptance scenario of the durability
// work, end to end on a real TCP cluster with a real on-disk WAL: a
// replica is crashed in the middle of a client load, brought back with
// Restart, rejoins the cluster by recovering its Paxos/clock/session
// state from disk and catching up missed instances from live peers; a
// subsequent 100-client RunKVLoad completes with zero lost or
// double-applied writes, CheckProperties stays clean (the restarted
// replica counted as correct), and its KV snapshot converges with its
// peers'.
func TestCrashRestartKVLoad(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second live cluster test")
	}
	cl := NewLiveCluster(LiveConfig{
		Groups:        2,
		PerGroup:      3,
		BasePort:      30400,
		WANDelay:      5 * time.Millisecond,
		MaxBatch:      64,
		Pipeline:      2,
		Check:         true,
		DataDir:       t.TempDir(),
		SnapshotEvery: 64,
	})
	if err := cl.Start(); err != nil {
		t.Fatal(err)
	}
	defer cl.Stop()
	topo := cl.Topology()
	route := svc.PrefixRoute(topo.NumGroups())
	stats := &metrics.Service{}
	service, err := svc.ServeCluster(cl, topo, svc.ServiceConfig{
		NewMachine: func(p types.ProcessID, g types.GroupID) svc.StateMachine {
			return svc.NewKVMachine(g, route)
		},
		Stats: stats,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer service.Stop()

	victim := cl.Process(0, 1)

	// Phase 1: a load with the crash and restart in the middle of it.
	// Clients talking to the victim lose their connections (or time out
	// against its dead ordering layer) and retry against live replicas
	// under the same sequence numbers — exactly-once must hold throughout.
	firstDone := make(chan svc.LoadResult, 1)
	go func() {
		firstDone <- svc.RunKVLoad(topo, service.Addrs(), svc.LoadSpec{
			Clients: 40, Ops: 6, Mix: workload.DefaultMix(),
			Timeout: 250 * time.Millisecond, Seed: 7,
		}, stats)
	}()
	time.Sleep(120 * time.Millisecond) // mid-load
	cl.Crash(victim)
	time.Sleep(80 * time.Millisecond) // the cluster orders on without it
	if err := service.RestartReplica(victim); err != nil {
		t.Fatalf("RestartReplica(%v): %v", victim, err)
	}
	first := <-firstDone
	if first.Errors > 0 {
		t.Fatalf("first load lost %d/%d ops across the crash", first.Errors, first.Errors+first.Ops)
	}

	// Phase 2: the acceptance bar — a 100-client load against the healed
	// cluster, fresh sessions.
	second := svc.RunKVLoad(topo, service.Addrs(), svc.LoadSpec{
		Clients: 100, Ops: 3, Mix: workload.DefaultMix(),
		Timeout: 250 * time.Millisecond, Seed: 11, SessionBase: 10_000,
	}, stats)
	if second.Errors > 0 || second.Ops != 100*3 {
		t.Fatalf("post-restart load: %d ok, %d errors (want 300, 0)", second.Ops, second.Errors)
	}

	// §2.2 over the whole run, with the restarted victim held to the
	// obligations of a CORRECT process.
	if v := cl.WaitPropertiesClean(30 * time.Second); len(v) != 0 {
		t.Fatalf("property violations after crash+restart: %v", v)
	}

	// Replica convergence: within each shard every replica's snapshot —
	// including the restarted one's and its exactly-once apply counter —
	// must be byte-identical.
	waitConverged(t, service, topo, 15*time.Second)
}

// waitConverged polls until every group's replicas have byte-identical
// machine snapshots (deliveries finish asynchronously after the checker
// turns clean).
func waitConverged(t *testing.T, service *svc.Service, topo *types.Topology, timeout time.Duration) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		mismatch := convergenceMismatch(t, service, topo)
		if mismatch == "" {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("replicas did not converge: %s", mismatch)
		}
		time.Sleep(50 * time.Millisecond)
	}
}

func convergenceMismatch(t *testing.T, service *svc.Service, topo *types.Topology) string {
	t.Helper()
	for g := 0; g < topo.NumGroups(); g++ {
		members := topo.Members(types.GroupID(g))
		ref, err := service.Machine(members[0]).Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range members[1:] {
			snap, err := service.Machine(p).Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(ref, snap) {
				return "group " + types.GroupID(g).String() + ": " + members[0].String() + " vs " + p.String()
			}
		}
	}
	return ""
}
