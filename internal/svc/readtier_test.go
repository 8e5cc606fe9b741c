package svc_test

import (
	"testing"
	"time"

	"wanamcast"
	"wanamcast/internal/fd"
	"wanamcast/internal/metrics"
	"wanamcast/internal/svc"
	"wanamcast/internal/transport/tcp"
	"wanamcast/internal/types"
)

// readFixture is a live cluster with the full read tier enabled: leader
// leases and the KV service.
type readFixture struct {
	cluster *wanamcast.LiveCluster
	service *svc.Service
	stats   *metrics.Service
	topo    *wanamcast.Topology
}

func newReadFixture(t *testing.T, groups, perGroup, basePort int, wan time.Duration) *readFixture {
	t.Helper()
	cluster := wanamcast.NewLiveCluster(wanamcast.LiveConfig{
		Groups:         groups,
		PerGroup:       perGroup,
		BasePort:       basePort,
		WANDelay:       wan,
		HeartbeatEvery: 10 * time.Millisecond,
		SuspectAfter:   60 * time.Millisecond,
		LeaseDuration:  100 * time.Millisecond,
		MaxBatch:       16,
		Pipeline:       2,
		Check:          true,
	})
	if err := cluster.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cluster.Stop)
	stats := &metrics.Service{}
	route := svc.PrefixRoute(groups)
	service, err := svc.ServeCluster(cluster, cluster.Topology(), svc.ServiceConfig{
		NewMachine: func(p types.ProcessID, g types.GroupID) svc.StateMachine {
			return svc.NewKVMachine(g, route)
		},
		LeaseFor: func(p types.ProcessID) *fd.Lease { return cluster.ReadLease(p) },
		Stats:    stats,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(service.Stop)
	f := &readFixture{cluster: cluster, service: service, stats: stats, topo: cluster.Topology()}
	// Let every shard's rank-0 leader earn its lease before the test body
	// issues lease reads.
	deadline := time.Now().Add(10 * time.Second)
	for g := 0; g < groups; g++ {
		leader := f.topo.Members(types.GroupID(g))[0]
		for !cluster.ReadLease(leader).Valid() {
			if time.Now().After(deadline) {
				t.Fatalf("shard %d leader never earned its lease", g)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
	return f
}

func (f *readFixture) kv(t *testing.T, session uint64) *svc.KV {
	t.Helper()
	client := svc.NewClient(svc.ClientConfig{
		Session: session,
		Addrs:   f.service.Addrs(),
		Timeout: 2 * time.Second,
		Stats:   f.stats,
	})
	t.Cleanup(client.Close)
	return &svc.KV{Client: client, Route: svc.PrefixRoute(f.topo.NumGroups())}
}

// TestLeaseReadsLinearizableAndLocal: lease reads return the latest
// committed value, bill to the read-lease class, and cross zero
// inter-group links — the whole point of the tier.
func TestLeaseReadsLinearizableAndLocal(t *testing.T) {
	f := newReadFixture(t, 2, 3, 25200, 10*time.Millisecond)
	kv := f.kv(t, 71)

	if _, err := kv.Put(map[string]string{"g0/a": "1", "g1/b": "2"}); err != nil {
		t.Fatal(err)
	}
	if _, err := kv.Put(map[string]string{"g0/a": "3"}); err != nil {
		t.Fatal(err)
	}

	before := f.cluster.Stats().InterGroupMessages
	for i := 0; i < 20; i++ {
		v, found, err := kv.GetAt("g0/a", svc.ConsistencyLease)
		if err != nil || !found || v != "3" {
			t.Fatalf("lease read %d: %q,%v,%v (want \"3\")", i, v, found, err)
		}
		v, found, err = kv.GetAt("g1/b", svc.ConsistencyLease)
		if err != nil || !found || v != "2" {
			t.Fatalf("lease read %d: %q,%v,%v (want \"2\")", i, v, found, err)
		}
	}
	if delta := f.cluster.Stats().InterGroupMessages - before; delta != 0 {
		t.Fatalf("lease reads crossed %d inter-group links, want 0", delta)
	}

	ss := f.stats.Snapshot()
	if ss.ByClass["read-lease"].Count != 40 {
		t.Fatalf("read-lease class recorded %d samples, want 40", ss.ByClass["read-lease"].Count)
	}
	if ss.StaleReads != 0 {
		t.Fatalf("%d stale reads on an undisturbed cluster", ss.StaleReads)
	}

	// A write immediately followed by a lease read observes the write:
	// the lease holder IS the write coordinator.
	if _, err := kv.Put(map[string]string{"g0/a": "4"}); err != nil {
		t.Fatal(err)
	}
	if v, _, err := kv.GetAt("g0/a", svc.ConsistencyLease); err != nil || v != "4" {
		t.Fatalf("lease read after write: %q,%v (want \"4\")", v, err)
	}
}

// TestWatermarkReadsAreMonotonic: watermark reads rotate over replicas,
// observe the session's own writes (the MinWatermark barrier parks behind
// replicas), and never move the session's watermark backwards.
func TestWatermarkReadsAreMonotonic(t *testing.T) {
	f := newReadFixture(t, 2, 3, 25300, 10*time.Millisecond)
	kv := f.kv(t, 72)

	for round := 1; round <= 5; round++ {
		want := string(rune('0' + round))
		if _, err := kv.Put(map[string]string{"g1/k": want}); err != nil {
			t.Fatal(err)
		}
		prev := kv.Client.Watermark(1)
		// One read per replica: the rotation visits all three, including
		// the two followers, and each must already reflect the write this
		// session just completed.
		for i := 0; i < 3; i++ {
			v, found, err := kv.GetAt("g1/k", svc.ConsistencyWatermark)
			if err != nil || !found || v != want {
				t.Fatalf("round %d read %d: %q,%v,%v (want %q)", round, i, v, found, err, want)
			}
			if wm := kv.Client.Watermark(1); wm < prev {
				t.Fatalf("session watermark moved backwards: %d -> %d", prev, wm)
			} else {
				prev = wm
			}
		}
	}
	if ss := f.stats.Snapshot(); ss.StaleReads != 0 {
		t.Fatalf("%d stale reads on an undisturbed cluster", ss.StaleReads)
	}
}

// TestStaleReadRejected is the stale-read injection negative control: a
// lying replica that answers below the session's watermark must be
// rejected (counted, error surfaced internally) and the read must still
// succeed via the next replica.
func TestStaleReadRejected(t *testing.T) {
	f := newReadFixture(t, 1, 3, 25500, 0)

	// The liar: accepts read requests and always answers watermark 0 with
	// a bogus value — a replica "from the past".
	liar, err := tcp.SvcListen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = liar.Close() })
	go func() {
		for {
			conn, err := liar.Accept()
			if err != nil {
				return
			}
			go func() {
				defer conn.Close()
				for {
					v, err := conn.ReadMsg()
					if err != nil {
						return
					}
					if req, ok := v.(svc.ReadReq); ok {
						_ = conn.WriteMsg(types.NoProcess, svc.ReadResp{
							Session: req.Session, Seq: req.Seq, OK: true,
							Result:    append([]byte{1}, []byte("bogus-from-the-past")...),
							Watermark: 0,
						})
					}
				}
			}()
		}
	}()

	// The reader's address book lists the honest replicas first and the
	// liar last, so the watermark rotation reaches it on the fourth read.
	addrs := map[types.GroupID][]string{
		0: append(append([]string(nil), f.service.Addrs()[0]...), liar.Addr().String()),
	}
	client := svc.NewClient(svc.ClientConfig{
		Session: 74, Addrs: addrs, Timeout: 2 * time.Second, Stats: f.stats,
	})
	t.Cleanup(client.Close)
	kv := &svc.KV{Client: client, Route: svc.PrefixRoute(1)}

	if _, err := kv.Put(map[string]string{"g0/k": "truth"}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		v, found, err := kv.GetAt("g0/k", svc.ConsistencyWatermark)
		if err != nil || !found || v != "truth" {
			t.Fatalf("read %d returned %q,%v,%v — a stale injection leaked through", i, v, found, err)
		}
	}
	if ss := f.stats.Snapshot(); ss.StaleReads == 0 {
		t.Fatal("the rotation visited the lying replica but no stale read was recorded")
	}
}
