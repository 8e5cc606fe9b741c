package wanamcast

import (
	"fmt"
	"testing"
	"time"

	"wanamcast/internal/metrics"
	"wanamcast/internal/scenario"
	"wanamcast/internal/storage"
	"wanamcast/internal/svc"
	"wanamcast/internal/types"
	"wanamcast/internal/workload"
)

// TestChaosSuiteLiveKVLoad is the acceptance bar of the chaos fabric: the
// full scenario suite — symmetric partition+heal, asymmetric partition,
// leader flap ×3, inter-group delay spike, and partition during
// crash-recovery — each runs against a real TCP cluster serving the
// replicated KV service under a 100-client closed-loop load that overlaps
// the fault window. Every scenario must end with zero lost client
// operations, a clean §2.2 CheckProperties verdict over the whole run
// (faults included), and post-heal delivery progress: a fresh broadcast
// and a fresh cross-shard multicast reach every correct process.
func TestChaosSuiteLiveKVLoad(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second live chaos suite")
	}
	const (
		groups  = 2
		perG    = 3
		clients = 100
		ops     = 3
		unit    = 300 * time.Millisecond
	)
	topo := types.NewTopology(groups, perG)
	suite := scenario.Suite(topo, scenario.SuiteConfig{Unit: unit, Spike: 200 * time.Millisecond})
	for i, sc := range suite {
		i, sc := i, sc
		t.Run(sc.Name, func(t *testing.T) {
			stores := make([]storage.Store, topo.N())
			for j := range stores {
				stores[j] = storage.NewMem()
			}
			cl := NewLiveCluster(LiveConfig{
				Groups:         groups,
				PerGroup:       perG,
				BasePort:       26100 + i*100,
				WANDelay:       5 * time.Millisecond,
				HeartbeatEvery: 20 * time.Millisecond,
				SuspectAfter:   100 * time.Millisecond,
				MaxBatch:       64,
				Pipeline:       2,
				Check:          true,
				StoreFor:       func(p ProcessID) storage.Store { return stores[p] },
			})
			if err := cl.Start(); err != nil {
				t.Fatal(err)
			}
			defer cl.Stop()
			stats := &metrics.Service{}
			route := svc.PrefixRoute(groups)
			service, err := svc.ServeCluster(cl, topo, svc.ServiceConfig{
				BasePort: 26150 + i*100,
				NewMachine: func(p types.ProcessID, g types.GroupID) svc.StateMachine {
					return svc.NewKVMachine(g, route)
				},
				Stats: stats,
			})
			if err != nil {
				t.Fatal(err)
			}
			defer service.Stop()

			funcs := cl.Chaos()
			funcs.RestartFn = service.RestartReplica
			funcs.Logf = t.Logf
			scenario.Apply(funcs, sc)

			// Closed-loop load waves until the fault window has passed:
			// a wave caught by a partition stalls on its cross-shard
			// commands and completes after the heal via client retries.
			begin := time.Now()
			totalOps, totalErrs, wave := 0, 0, 0
			for {
				res := svc.RunKVLoad(topo, service.Addrs(), svc.LoadSpec{
					Clients:     clients,
					Ops:         ops,
					Mix:         workload.DefaultMix(),
					Timeout:     250 * time.Millisecond,
					Seed:        int64(100*i + wave),
					SessionBase: uint64(wave * (clients + 1)),
				}, stats)
				totalOps += res.Ops
				totalErrs += res.Errors
				wave++
				if time.Since(begin) > sc.Horizon()+200*time.Millisecond {
					break
				}
			}
			if totalErrs > 0 {
				t.Errorf("%d of %d client ops failed across the fault window", totalErrs, totalErrs+totalOps)
			}
			if totalOps < clients*ops {
				t.Errorf("load too small to overlap the schedule: %d ops", totalOps)
			}

			// Post-heal delivery progress on both algorithms.
			probeFrom := cl.Process(1, 0)
			bid := cl.Broadcast(probeFrom, fmt.Sprintf("probe-a2-%s", sc.Name))
			if !cl.WaitDelivered(bid, topo.N(), 30*time.Second) {
				t.Errorf("post-heal broadcast reached %d/%d processes", cl.DeliveredCount(bid), topo.N())
			}
			mid := cl.Multicast(probeFrom, fmt.Sprintf("probe-a1-%s", sc.Name), 0, 1)
			if !cl.WaitDelivered(mid, 2*perG, 30*time.Second) {
				t.Errorf("post-heal multicast reached %d/%d processes", cl.DeliveredCount(mid), 2*perG)
			}

			// §2.2 over the whole faulted run.
			if v := cl.WaitPropertiesClean(30 * time.Second); len(v) != 0 {
				t.Fatalf("property violations under %s (%d), first: %s", sc.Name, len(v), v[0])
			}
		})
	}
}

// TestPartitionHealLatencies records EXPERIMENTS.md's "Partition & heal"
// table, one subtest per row, on a live 2×3 cluster over a 5 ms WAN: how
// long after isolating the rank-0 leader its group re-elects, how long
// after the heal the old leader is trusted again, and how long after
// healing a group partition a broadcast cast into it completes. The
// numbers are logged, not bounded: only a step that never happens fails.
func TestPartitionHealLatencies(t *testing.T) {
	if testing.Short() {
		t.Skip("six live clusters, about a second each")
	}
	const (
		wan   = 5 * time.Millisecond
		never = 30 * time.Second
	)
	rows := []struct{ suspectAfter, heartbeat time.Duration }{
		{100 * time.Millisecond, 25 * time.Millisecond},
		{250 * time.Millisecond, 25 * time.Millisecond},
		{500 * time.Millisecond, 25 * time.Millisecond},
		{150 * time.Millisecond, 50 * time.Millisecond},
		{250 * time.Millisecond, 50 * time.Millisecond},
		{500 * time.Millisecond, 50 * time.Millisecond},
	}
	for i, row := range rows {
		t.Run(fmt.Sprintf("suspectafter=%v/heartbeat=%v", row.suspectAfter, row.heartbeat), func(t *testing.T) {
			cl := NewLiveCluster(LiveConfig{
				Groups:         2,
				PerGroup:       3,
				BasePort:       27400 + 20*i,
				WANDelay:       wan,
				HeartbeatEvery: row.heartbeat,
				SuspectAfter:   row.suspectAfter,
			})
			leader, watcher := cl.Process(0, 0), cl.Process(0, 1)
			// The subscriber runs on the watcher's lane, which must not block
			// on a change the test has stopped waiting for; a step makes one
			// or two.
			changes := make(chan ProcessID, 16)
			cl.SubscribeLeader(watcher, func(_ GroupID, l ProcessID) { changes <- l })
			if err := cl.Start(); err != nil {
				t.Fatal(err)
			}
			defer cl.Stop()
			time.Sleep(4 * row.heartbeat) // the detectors see everyone first
			waitLeader := func(want ProcessID, step string) {
				deadline := time.After(never)
				for {
					select {
					case l := <-changes:
						if l == want {
							return
						}
					case <-deadline:
						t.Fatalf("%s: the watcher never saw %v lead", step, want)
					}
				}
			}

			// 1. Isolate the rank-0 leader inside its group: rank 1 takes over.
			t0 := time.Now()
			cl.Fabric().Isolate(leader)
			waitLeader(watcher, "re-election")
			reelect := time.Since(t0)

			// 2. Heal: the old leader's beats restore trust, and it leads again.
			t1 := time.Now()
			cl.Fabric().HealIsolate(leader)
			waitLeader(leader, "trust restoration")
			restore := time.Since(t1)

			// 3. Broadcast into a g0 | g1 partition, let it stall, heal, and
			// time the fan-in from the heal.
			cl.Fabric().Partition([]GroupID{0}, []GroupID{1}, true)
			id := cl.Broadcast(leader, "stalled-until-heal")
			time.Sleep(500 * time.Millisecond)
			t2 := time.Now()
			cl.Fabric().HealAll()
			if !cl.WaitDelivered(id, 6, never) {
				t.Fatalf("resume-delivery: %d of 6 processes delivered", cl.DeliveredCount(id))
			}
			resume := time.Since(t2)

			t.Logf("suspectafter=%v heartbeat=%v wan=%v: reelect=%v trust-restore=%v resume-delivery=%v",
				row.suspectAfter, row.heartbeat, wan,
				reelect.Round(time.Millisecond), restore.Round(time.Millisecond), resume.Round(time.Millisecond))
		})
	}
}

// TestFalselySuspectedLeaderReelected pins the trust-restoration contract
// on the live runtime: the rank-0 leader of a group is falsely suspected
// (no crash, no partition — pure Ω mistake), every peer demotes it, and
// once its heartbeats land again the peers restore trust and provably
// re-elect it — observed through the leader-change subscription, not by
// polling.
func TestFalselySuspectedLeaderReelected(t *testing.T) {
	cl := NewLiveCluster(LiveConfig{
		Groups:         2,
		PerGroup:       3,
		BasePort:       26700,
		WANDelay:       5 * time.Millisecond,
		HeartbeatEvery: 15 * time.Millisecond,
		SuspectAfter:   75 * time.Millisecond,
	})
	leader := cl.Process(0, 0)
	watcher := cl.Process(0, 1)
	changes := make(chan ProcessID, 32)
	cl.SubscribeLeader(watcher, func(_ GroupID, l ProcessID) { changes <- l })
	if err := cl.Start(); err != nil {
		t.Fatal(err)
	}
	defer cl.Stop()
	time.Sleep(100 * time.Millisecond) // detectors see everyone first

	if got := cl.LeaderOf(watcher); got != leader {
		t.Fatalf("initial leader at watcher = %v, want rank-0 %v", got, leader)
	}
	cl.ForceSuspect(leader)

	wait := func(want ProcessID, what string) {
		deadline := time.After(10 * time.Second)
		for {
			select {
			case l := <-changes:
				if l == want {
					return
				}
			case <-deadline:
				t.Fatalf("never observed %s (leader change to %v)", what, want)
			}
		}
	}
	// Demotion: the false suspicion must move leadership off rank 0.
	wait(watcher, "demotion of the falsely suspected rank-0 leader")
	// Re-election: the suspect's own heartbeats (it never stopped beating)
	// restore trust without any explicit intervention.
	wait(leader, "re-election of rank 0 after trust restoration")

	if got := cl.LeaderOf(watcher); got != leader {
		t.Fatalf("final leader at watcher = %v, want the re-elected %v", got, leader)
	}
	st := cl.Stats()
	if st.Suspicions == 0 || st.TrustRestorations == 0 || st.LeaderChanges < 2 {
		t.Fatalf("fd counters missed the flap: %+v suspicions=%d trust=%d leaders=%d",
			st.PerGroupFD, st.Suspicions, st.TrustRestorations, st.LeaderChanges)
	}
}
