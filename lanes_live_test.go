package wanamcast

// Lane-scaling acceptance tests: the pinned multi-core throughput win,
// the race-instrumented stress run over 8 lanes with crashes, restarts,
// and a partition, and the group-commit guarantee that more lanes do
// not mean proportionally more fsyncs.

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"wanamcast/internal/storage"
)

// laneThroughputRun orders casts broadcasts on a groups×3 cluster at the
// given lane count and returns ordered messages per second (first cast
// until every process delivered every message).
func laneThroughputRun(tb testing.TB, groups, lanes, basePort, casts int) float64 {
	tb.Helper()
	l := NewLiveCluster(LiveConfig{
		Groups:           groups,
		PerGroup:         3,
		BasePort:         basePort,
		WANDelay:         2 * time.Millisecond,
		MaxBatch:         64,
		Pipeline:         4,
		Lanes:            lanes,
		RetainDeliveries: 256,
	})
	if err := l.Start(); err != nil {
		tb.Fatal(err)
	}
	defer l.Stop()

	n := groups * 3
	ids := make([]MessageID, 0, casts)
	start := time.Now()
	for i := 0; i < casts; i++ {
		ids = append(ids, l.Broadcast(l.Process(GroupID(i%groups), i%3), i))
	}
	deadline := time.Now().Add(120 * time.Second)
	for {
		done := true
		for _, id := range ids {
			if l.DeliveredCount(id) < n {
				done = false
				break
			}
		}
		if done {
			break
		}
		if time.Now().After(deadline) {
			tb.Fatal("lane throughput run did not complete within 120s")
		}
		time.Sleep(2 * time.Millisecond)
	}
	return float64(casts) / time.Since(start).Seconds()
}

// TestLaneScalingThroughput is the pinned multi-core scaling check: on a
// machine with at least 8 cores, 8 groups ordering on 8 lanes must beat
// the same workload serialised onto 1 lane by at least 3×.
func TestLaneScalingThroughput(t *testing.T) {
	if testing.Short() {
		t.Skip("lane scaling comparison in -short mode")
	}
	if raceEnabled {
		t.Skip("wall-clock scaling ratios are meaningless under the race detector")
	}
	if runtime.NumCPU() < 8 {
		t.Skipf("lane scaling needs >= 8 cores to show (have %d)", runtime.NumCPU())
	}
	const groups, casts = 8, 480
	best := func(lanes, port int) float64 {
		a := laneThroughputRun(t, groups, lanes, port, casts)
		if b := laneThroughputRun(t, groups, lanes, port, casts); b > a {
			a = b
		}
		return a
	}
	one := best(1, 28100)
	eight := best(8, 28100)
	t.Logf("live ordered/sec, %d groups x 3, MaxBatch=64: lanes=1 %.0f, lanes=8 %.0f (%.2fx over 1)",
		groups, one, eight, eight/one)
	if eight < 3*one {
		t.Fatalf("8 lanes only %.2fx over 1 lane (%.0f vs %.0f ordered/sec), want >= 3x",
			eight/one, eight, one)
	}
}

// TestLaneStressCrashRestart exercises 8 lanes under the race detector
// with the full fault repertoire at once: broadcasts and multicasts in
// flight while one replica crash-stops and later restarts from its
// in-memory WAL, and while an inter-group partition severs and heals.
// The run must end §2.2-clean with every surviving cast delivered.
func TestLaneStressCrashRestart(t *testing.T) {
	if testing.Short() {
		t.Skip("lane stress run in -short mode")
	}
	stores := make([]storage.Store, 8*3)
	for i := range stores {
		stores[i] = storage.NewMem()
	}
	l := NewLiveCluster(LiveConfig{
		Groups:   8,
		PerGroup: 3,
		BasePort: 28200,
		WANDelay: time.Millisecond,
		MaxBatch: 64,
		Pipeline: 2,
		Lanes:    8,
		Check:    true,
		StoreFor: func(p ProcessID) storage.Store { return stores[p] },
	})
	if err := l.Start(); err != nil {
		t.Fatal(err)
	}
	defer l.Stop()

	// One protocol only: A1 and A2 are independent total orders, so mixing
	// their casts in one checker run would report false prefix-order
	// divergence. A1 multicasts still exercise every lane — destinations
	// pair groups across the lane map, and every fourth cast hits all
	// eight groups.
	cast := func(i int) {
		from := l.Process(GroupID(i%8), i%3)
		if i%4 == 0 {
			l.Multicast(from, fmt.Sprintf("m%d", i),
				0, 1, 2, 3, 4, 5, 6, 7)
		} else {
			l.Multicast(from, fmt.Sprintf("m%d", i), GroupID(i%8), GroupID((i+3)%8))
		}
	}
	for i := 0; i < 16; i++ {
		cast(i)
	}

	// Crash the last replica of group 0 (leader survives, majority holds)
	// and partition the links between groups 2 and 3 mid-load.
	victim := l.Process(0, 2)
	l.Crash(victim)
	fab := l.Fabric()
	for _, p := range l.Topology().Members(2) {
		for _, q := range l.Topology().Members(3) {
			fab.Sever(p, q)
			fab.Sever(q, p)
		}
	}
	for i := 16; i < 32; i++ {
		cast(i)
	}

	fab.HealAll()
	if err := l.Restart(victim); err != nil {
		t.Fatalf("restart %v: %v", victim, err)
	}
	for i := 32; i < 48; i++ {
		cast(i)
	}

	if v := l.WaitPropertiesClean(60 * time.Second); len(v) > 0 {
		t.Fatalf("§2.2 violations after lane stress:\n%v", v)
	}
}

// TestLaneGroupCommitFsyncAmortization pins the group-commit batching
// contract on the real WAL, at the default layout — one lane per group, 8
// here — and on a single lane: lanes hammering their logs concurrently fold
// their barriers into shared windows, they do not multiply fsyncs. The pins
// are counting invariants that hold under any interleaving (the
// fsyncs-per-batch figure itself depends on scheduling: it is logged here
// and measured by bench's storage.fsyncs_per_batch).
func TestLaneGroupCommitFsyncAmortization(t *testing.T) {
	if testing.Short() {
		t.Skip("fsync amortization run in -short mode")
	}
	const groups, perGroup = 8, 3
	run := func(lanes, basePort int) {
		l := NewLiveCluster(LiveConfig{
			Groups:   groups,
			PerGroup: perGroup,
			BasePort: basePort,
			WANDelay: time.Millisecond,
			MaxBatch: 64,
			Pipeline: 2,
			Lanes:    lanes,
			DataDir:  t.TempDir(),
		})
		if err := l.Start(); err != nil {
			t.Fatal(err)
		}
		defer l.Stop()
		const casts = 64
		ids := make([]MessageID, 0, casts)
		for i := 0; i < casts; i++ {
			ids = append(ids, l.Broadcast(l.Process(GroupID(i%groups), i%perGroup), i))
		}
		for _, id := range ids {
			if !l.WaitDelivered(id, groups*perGroup, 60*time.Second) {
				t.Fatalf("lanes=%d: %v not fully delivered", lanes, id)
			}
		}
		st := l.Stats()
		l.Stop() // the syncer has swept and exited: its counters are final
		fs := l.FsyncStats()
		t.Logf("lanes=%d: %d fsyncs / %d decided batches = %.2f (gc: %d barriers, %d windows, %d syncs)",
			lanes, fs.Fsyncs, st.BatchesDecided, float64(fs.Fsyncs)/float64(st.BatchesDecided), fs.Barriers, fs.Windows, fs.Syncs)
		switch {
		case st.BatchesDecided == 0:
			t.Errorf("lanes=%d: no batches decided", lanes)
		case fs.Fsyncs == 0:
			t.Errorf("lanes=%d: durable run issued no fsyncs", lanes)
		case fs.Barriers == 0:
			t.Errorf("lanes=%d: no barriers went through group commit", lanes)
		case fs.Syncs > fs.Barriers:
			t.Errorf("lanes=%d: %d store syncs for %d barriers: a barrier costs at most one fsync", lanes, fs.Syncs, fs.Barriers)
		case fs.Syncs > fs.Windows*groups*perGroup:
			t.Errorf("lanes=%d: %d store syncs in %d windows over %d stores: a window fsyncs a store at most once",
				lanes, fs.Syncs, fs.Windows, groups*perGroup)
		}
	}
	run(1, 28300)
	run(0, 28400)
}
