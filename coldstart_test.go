package wanamcast

import (
	"encoding/binary"
	"fmt"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// tally is a replica that counts the deliveries it sees, restored and
// replayed ones included: its count is its snapshot.
type tally struct{ n atomic.Uint64 }

func (r *tally) Deliver(MessageID, []byte) { r.n.Add(1) }

func (r *tally) SaveSnapshot() ([]byte, error) { return binary.AppendUvarint(nil, r.n.Load()), nil }

func (r *tally) RestoreSnapshot(data []byte) error {
	n, k := binary.Uvarint(data)
	if k <= 0 {
		return fmt.Errorf("tally: bad snapshot %x", data)
	}
	r.n.Store(n)
	return nil
}

// durableOn is a 2×3 cluster keeping its state under dir.
func durableOn(port int, dir string, pipeline int) LiveConfig {
	return LiveConfig{Groups: 2, PerGroup: 3, BasePort: port, WANDelay: 5 * time.Millisecond, DataDir: dir, NoFsync: true, Pipeline: pipeline}
}

// waitAll fails t unless every id reaches n deliveries at cl.
func waitAll(t *testing.T, cl *LiveCluster, n int, ids ...MessageID) {
	t.Helper()
	for _, id := range ids {
		if !cl.WaitDelivered(id, n, 15*time.Second) {
			t.Fatalf("%v delivered by %d processes, want %d", id, cl.DeliveredCount(id), n)
		}
	}
}

// TestColdStartRecoversTheDataDir: a cluster started over the data dir an
// earlier run left resumes that run, the way Restart resumes one process. It
// casts under IDs above the earlier run's, a replica attached before Start
// gets the earlier run's deliveries back, and new casts reach every process.
// A2 runs empty rounds after its last delivery, so the first run can stop
// with a bundle in flight: the second must re-ship its own (under the
// paper's A2, which never pulls one) and pace its rounds on a clock its
// replay read too (pipelined).
func TestColdStartRecoversTheDataDir(t *testing.T) {
	for i, pipeline := range []int{1, 2} {
		t.Run(fmt.Sprintf("pipeline=%d", pipeline), func(t *testing.T) {
			coldStart(t, durableOn(31600+20*i, t.TempDir(), pipeline))
		})
	}
}

func coldStart(t *testing.T, cfg LiveConfig) {
	run := func() (*LiveCluster, []*tally) {
		cl := NewLiveCluster(cfg)
		t.Cleanup(cl.Stop)
		reps := make([]*tally, cl.Topology().N())
		for p := range reps {
			reps[p] = new(tally)
			cl.SetReplica(ProcessID(p), reps[p])
		}
		if err := cl.Start(); err != nil {
			t.Fatal(err)
		}
		return cl, reps
	}

	first, _ := run()
	var earlier []MessageID
	for i := 0; i < 4; i++ {
		earlier = append(earlier, first.Multicast(first.Process(GroupID(i%2), 0), fmt.Sprintf("first-%d", i), 0, 1))
	}
	earlier = append(earlier, first.Broadcast(first.Process(1, 1), "first-b"))
	waitAll(t, first, 6, earlier...)
	first.Stop()

	second, reps := run()
	replayed := make([]uint64, len(reps))
	for p, r := range reps {
		replayed[p] = r.n.Load()
	}
	later := []MessageID{
		second.Multicast(second.Process(0, 0), "second", 0, 1),
		second.Multicast(second.Process(1, 0), "second-1", 1),
		second.Broadcast(second.Process(1, 1), "second-b"),
	}
	for _, id := range later {
		for _, e := range earlier {
			if id.Origin == e.Origin && id.Seq <= e.Seq {
				t.Fatalf("the second run cast %v, an ID at or below the first run's %v", id, e)
			}
		}
	}
	for p, n := range replayed {
		if n != uint64(len(earlier)) {
			t.Errorf("p%d's replica got %d of the first run's %d deliveries back at Start", p, n, len(earlier))
		}
	}
	waitAll(t, second, 6, later[0], later[2])
	waitAll(t, second, 3, later[1])
}

// TestLocalClustersShareAGroup is the wannode shape in one OS process: two
// LiveClusters, one hosting p0 and p1 of a 1×3 group and one hosting p2
// (LiveConfig.Local), order casts together. The second, stopped and rebuilt
// over its data dir, recovers and catches up from its peers on what it
// missed, and orders with them again.
func TestLocalClustersShareAGroup(t *testing.T) {
	// A cluster counts only the casts it made, so deliveries are tallied
	// here, across both.
	var mu sync.Mutex
	at := make(map[MessageID][]ProcessID)
	host := func(dir string, local ...ProcessID) *LiveCluster {
		cl := NewLiveCluster(LiveConfig{Groups: 1, PerGroup: 3, BasePort: 31700, DataDir: dir, NoFsync: true, Local: local})
		cl.OnDeliver(func(p ProcessID, id MessageID, _ any) {
			mu.Lock()
			at[id] = append(at[id], p)
			mu.Unlock()
		})
		t.Cleanup(cl.Stop)
		if err := cl.Start(); err != nil {
			t.Fatal(err)
		}
		return cl
	}
	deliveredAt := func(want []ProcessID, ids ...MessageID) {
		t.Helper()
		deadline := time.Now().Add(15 * time.Second)
		for _, id := range ids {
			for {
				mu.Lock()
				got := slices.Sorted(slices.Values(at[id]))
				mu.Unlock()
				if slices.Equal(got, want) {
					break
				}
				if time.Now().After(deadline) {
					t.Fatalf("%v delivered at %v, want %v", id, got, want)
				}
				time.Sleep(5 * time.Millisecond)
			}
		}
	}
	all := []ProcessID{0, 1, 2}
	dirB := t.TempDir()
	a, b := host(t.TempDir(), 0, 1), host(dirB, 2)
	deliveredAt(all, a.Broadcast(0, "from a"), b.Multicast(2, "from b", 0))

	b.Stop()
	missed := []MessageID{a.Multicast(1, "while p2 is down", 0), a.Broadcast(0, "while p2 is down")}
	deliveredAt(all[:2], missed...)

	b = host(dirB, 2)
	deliveredAt(all, missed...)
	deliveredAt(all, b.Multicast(2, "after", 0), a.Broadcast(1, "after"))
}

// TestCheckedClusterRefusesAnEarlierRun: a checked cluster over a data dir
// that holds state does not start: the checker cannot know the casts of the
// run that wrote it.
func TestCheckedClusterRefusesAnEarlierRun(t *testing.T) {
	cfg := durableOn(31800, t.TempDir(), 0)
	first := NewLiveCluster(cfg)
	t.Cleanup(first.Stop)
	if err := first.Start(); err != nil {
		t.Fatal(err)
	}
	waitAll(t, first, 3, first.Multicast(0, "x", 0))
	first.Stop()

	cfg.Check = true
	second := NewLiveCluster(cfg)
	t.Cleanup(second.Stop)
	if err := second.Start(); err == nil || !strings.Contains(err.Error(), "checker") {
		t.Fatalf("a checked Start over an earlier run's data dir = %v, want the checker's refusal", err)
	}
}

// TestRestartNeverReissuesACastThatLoggedNothing: a caster logs nothing for
// an A1 cast that skips its own group, so a process that cast only to
// another group can crash with an empty store. Its next incarnation must
// still cast above the crashed one's IDs: the addressees drop a cast they
// already delivered, and a re-issued ID would lose the new message.
func TestRestartNeverReissuesACastThatLoggedNothing(t *testing.T) {
	cl := NewLiveCluster(durableOn(31900, t.TempDir(), 0))
	t.Cleanup(cl.Stop)
	if err := cl.Start(); err != nil {
		t.Fatal(err)
	}
	p := cl.Process(1, 0)
	before := cl.Multicast(p, "before", 0)
	waitAll(t, cl, 3, before)

	cl.Crash(p)
	if err := cl.Restart(p); err != nil {
		t.Fatal(err)
	}
	after := cl.Multicast(p, "after", 0)
	if after.Seq <= before.Seq {
		t.Fatalf("the restarted %v cast %v, at or below its crashed incarnation's %v", p, after, before)
	}
	waitAll(t, cl, 3, after)
}
