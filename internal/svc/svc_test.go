package svc_test

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"net"
	"testing"
	"time"

	"wanamcast"
	"wanamcast/internal/metrics"
	"wanamcast/internal/svc"
	"wanamcast/internal/transport/tcp"
	"wanamcast/internal/types"
	"wanamcast/internal/wire"
)

// kvFixture is one live cluster fronted by the KV service.
type kvFixture struct {
	cluster *wanamcast.LiveCluster
	service *svc.Service
	stats   *metrics.Service
	topo    *wanamcast.Topology
}

func newKVFixture(t *testing.T, groups, perGroup, basePort int, wan time.Duration) *kvFixture {
	t.Helper()
	return serveKV(t, kvCluster(groups, perGroup, basePort, wan))
}

// kvCluster builds (but does not start) the fixture's cluster.
func kvCluster(groups, perGroup, basePort int, wan time.Duration) *wanamcast.LiveCluster {
	return wanamcast.NewLiveCluster(wanamcast.LiveConfig{
		Groups:   groups,
		PerGroup: perGroup,
		BasePort: basePort,
		WANDelay: wan,
		MaxBatch: 16,
		Pipeline: 2,
		Check:    true,
	})
}

// serveKV starts cluster and fronts it with the KV service.
func serveKV(t *testing.T, cluster *wanamcast.LiveCluster) *kvFixture {
	t.Helper()
	if err := cluster.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cluster.Stop)
	stats := &metrics.Service{}
	route := svc.PrefixRoute(cluster.Topology().NumGroups())
	service, err := svc.ServeCluster(cluster, cluster.Topology(), svc.ServiceConfig{
		NewMachine: func(p types.ProcessID, g types.GroupID) svc.StateMachine {
			return svc.NewKVMachine(g, route)
		},
		Stats: stats,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(service.Stop) // registered after cluster.Stop, so it runs first
	return &kvFixture{cluster: cluster, service: service, stats: stats, topo: cluster.Topology()}
}

// machine returns replica p's KV machine.
func (f *kvFixture) machine(p types.ProcessID) *svc.KVMachine {
	return f.service.Machine(p).(*svc.KVMachine)
}

// waitApplied blocks until every replica of every group in dest has
// applied exactly want mutations, then verifies the count stays there
// (exactly-once: late duplicate deliveries must not bump it).
func (f *kvFixture) waitApplied(t *testing.T, dest []types.GroupID, want uint64, settle time.Duration) {
	t.Helper()
	deadline := time.Now().Add(20 * time.Second)
	for {
		all := true
		for _, g := range dest {
			for _, p := range f.topo.Members(g) {
				if f.machine(p).Applied() < want {
					all = false
				}
			}
		}
		if all {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("replicas did not reach %d applied mutations", want)
		}
		time.Sleep(5 * time.Millisecond)
	}
	// Let any in-flight duplicates drain, then pin the exact count.
	time.Sleep(settle)
	for _, g := range dest {
		for _, p := range f.topo.Members(g) {
			if got := f.machine(p).Applied(); got != want {
				t.Fatalf("replica %v applied %d mutations, want exactly %d", p, got, want)
			}
		}
	}
}

// TestExactlyOnceDuplicateRequest is the wire-level exactly-once
// guarantee: the same (session, seq) request sent twice — the manual
// equivalent of a client retry — causes exactly one state mutation on
// every destination shard, and the duplicate is answered from the
// replicated result cache.
func TestExactlyOnceDuplicateRequest(t *testing.T) {
	f := newKVFixture(t, 2, 2, 25000, 10*time.Millisecond)
	addr := f.service.Addrs()[0][0]
	conn, err := tcp.SvcDial(addr, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	req := svc.Request{
		Session: 7,
		Seq:     1,
		Dest:    types.NewGroupSet(0, 1),
		Op:      svc.EncodePut(map[string]string{"g0/x": "1", "g1/y": "2"}),
	}
	send := func() svc.Reply {
		t.Helper()
		if err := conn.WriteMsg(types.NoProcess, req); err != nil {
			t.Fatal(err)
		}
		_ = conn.SetReadDeadline(time.Now().Add(10 * time.Second))
		v, err := conn.ReadMsg()
		if err != nil {
			t.Fatal(err)
		}
		r, ok := v.(svc.Reply)
		if !ok {
			t.Fatalf("got %T, want Reply", v)
		}
		return r
	}

	first := send()
	if !first.OK {
		t.Fatalf("first request failed: %s", first.Err)
	}
	second := send()
	if !second.OK {
		t.Fatalf("duplicate request failed: %s", second.Err)
	}
	if !bytes.Equal(first.Result, second.Result) {
		t.Fatalf("duplicate reply %v differs from original %v", second.Result, first.Result)
	}
	f.waitApplied(t, []types.GroupID{0, 1}, 1, 300*time.Millisecond)
	if st := f.stats.Snapshot(); st.Duplicates == 0 {
		t.Fatal("no duplicate was recorded for the resent request")
	}

	// A genuinely new command under the next sequence number still runs.
	req.Seq = 2
	req.Dest = types.NewGroupSet(0)
	req.Op = svc.EncodePut(map[string]string{"g0/x": "3"})
	if r := send(); !r.OK {
		t.Fatalf("follow-up command failed: %s", r.Err)
	}
	f.waitApplied(t, []types.GroupID{0}, 2, 300*time.Millisecond)
	// Shard 1 was not addressed: its count must still be 1.
	for _, p := range f.topo.Members(1) {
		if got := f.machine(p).Applied(); got != 1 {
			t.Fatalf("uninvolved replica %v applied %d, want 1", p, got)
		}
	}

	// An old sequence number still inside the session window is answered
	// from the cache — NOT re-executed (counts pinned above stay pinned).
	req.Seq = 1
	req.Dest = types.NewGroupSet(0, 1)
	req.Op = svc.EncodePut(map[string]string{"g0/x": "1", "g1/y": "2"})
	if r := send(); !r.OK {
		t.Fatalf("in-window duplicate refused: %s", r.Err)
	}
	time.Sleep(200 * time.Millisecond)
	for _, p := range f.topo.Members(0) {
		if got := f.machine(p).Applied(); got != 2 {
			t.Fatalf("replica %v applied %d after old-seq replay, want 2", p, got)
		}
	}
}

// TestClientRetryExactlyOnce is the acceptance scenario end to end: the
// WAN delay makes the first attempt(s) time out, the client resends under
// the same sequence number, duplicate commands reach the ordering layer —
// and every destination shard still mutates exactly once.
func TestClientRetryExactlyOnce(t *testing.T) {
	f := newKVFixture(t, 2, 2, 25100, 120*time.Millisecond)
	client := svc.NewClient(svc.ClientConfig{
		Session:     11,
		Addrs:       f.service.Addrs(),
		Timeout:     40 * time.Millisecond, // << the ~2×WAN commit latency: forces retries
		MaxAttempts: 10,
		Stats:       f.stats,
	})
	defer client.Close()
	kv := &svc.KV{Client: client, Route: svc.PrefixRoute(2)}

	if _, err := kv.Put(map[string]string{"g0/a": "va", "g1/b": "vb"}); err != nil {
		t.Fatalf("put did not commit despite retries: %v", err)
	}
	st := f.stats.Snapshot()
	if st.Retries == 0 {
		t.Fatal("the 40ms timeout against a 240ms WAN path should have forced a retry")
	}
	// Duplicates were submitted into the ordering layer; the settle window
	// (>2×WAN+consensus) lets them all deliver, then the count is pinned.
	f.waitApplied(t, []types.GroupID{0, 1}, 1, 1500*time.Millisecond)
	if st := f.stats.Snapshot(); st.Duplicates == 0 {
		t.Fatal("retried command produced no suppressed duplicates anywhere")
	}
	for _, p := range f.topo.ProcessesIn(types.NewGroupSet(0, 1)) {
		m := f.machine(p)
		g := f.topo.GroupOf(p)
		key := fmt.Sprintf("g%d/%s", g, map[types.GroupID]string{0: "a", 1: "b"}[g])
		want := map[types.GroupID]string{0: "va", 1: "vb"}[g]
		if v, ok := m.Get(key); !ok || v != want {
			t.Fatalf("replica %v: %s = %q,%v, want %q", p, key, v, ok, want)
		}
	}
}

// TestRedirect: a client with an incomplete address map contacts the wrong
// shard, is redirected, and commits under the same sequence number.
func TestRedirect(t *testing.T) {
	f := newKVFixture(t, 2, 2, 25200, 5*time.Millisecond)
	partial := map[types.GroupID][]string{0: f.service.Addrs()[0]}
	client := svc.NewClient(svc.ClientConfig{
		Session: 21,
		Addrs:   partial,
		Timeout: 2 * time.Second,
		Stats:   f.stats,
	})
	defer client.Close()
	kv := &svc.KV{Client: client, Route: svc.PrefixRoute(2)}

	if _, err := kv.Put(map[string]string{"g1/k": "v"}); err != nil {
		t.Fatalf("put through redirect failed: %v", err)
	}
	if st := f.stats.Snapshot(); st.Redirects == 0 {
		t.Fatal("no redirect was recorded")
	}
	f.waitApplied(t, []types.GroupID{1}, 1, 200*time.Millisecond)
	for _, p := range f.topo.Members(0) {
		if got := f.machine(p).Applied(); got != 0 {
			t.Fatalf("shard 0 replica %v applied %d commands for a shard-1-only key", p, got)
		}
	}
}

// TestSessionEviction: the dedup table is bounded — beyond MaxSessions
// the least-recently-delivered-to session is evicted, and the server
// keeps serving new sessions correctly.
func TestSessionEviction(t *testing.T) {
	cluster := wanamcast.NewLiveCluster(wanamcast.LiveConfig{
		Groups: 1, PerGroup: 1, BasePort: 25270,
	})
	if err := cluster.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cluster.Stop)
	route := svc.PrefixRoute(1)
	service, err := svc.ServeCluster(cluster, cluster.Topology(), svc.ServiceConfig{
		MaxSessions: 2,
		NewMachine: func(p types.ProcessID, g types.GroupID) svc.StateMachine {
			return svc.NewKVMachine(g, route)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(service.Stop)

	for i := 1; i <= 5; i++ {
		client := svc.NewClient(svc.ClientConfig{
			Session: uint64(i),
			Addrs:   service.Addrs(),
			Timeout: 2 * time.Second,
		})
		kv := &svc.KV{Client: client, Route: route}
		if _, err := kv.Put(map[string]string{fmt.Sprintf("g0/s%d", i): "v"}); err != nil {
			t.Fatalf("session %d put: %v", i, err)
		}
		client.Close()
	}
	if got := service.Server(0).SessionCount(); got > 2 {
		t.Fatalf("dedup table holds %d sessions, want at most 2", got)
	}
	if got := service.Machine(0).(*svc.KVMachine).Len(); got != 5 {
		t.Fatalf("machine holds %d keys, want 5", got)
	}
}

// TestServerRejectsBadDest: requests with no destination shards or with
// destination groups outside the topology are answered with an error —
// never submitted (an unknown group would panic the ordering layer's
// topology lookups) — and the server keeps serving afterwards.
func TestServerRejectsBadDest(t *testing.T) {
	f := newKVFixture(t, 1, 1, 25250, 0)
	conn, err := tcp.SvcDial(f.service.Addrs()[0][0], time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	roundTrip := func(req svc.Request) svc.Reply {
		t.Helper()
		if err := conn.WriteMsg(types.NoProcess, req); err != nil {
			t.Fatal(err)
		}
		_ = conn.SetReadDeadline(time.Now().Add(5 * time.Second))
		v, err := conn.ReadMsg()
		if err != nil {
			t.Fatal(err)
		}
		r, ok := v.(svc.Reply)
		if !ok {
			t.Fatalf("want a Reply, got %#v", v)
		}
		return r
	}

	if r := roundTrip(svc.Request{Session: 1, Seq: 1, Op: []byte{1, 0}}); r.OK {
		t.Fatal("server accepted an empty destination set")
	}
	if r := roundTrip(svc.Request{Session: 1, Seq: 2, Dest: types.NewGroupSet(0, 99),
		Op: svc.EncodePut(map[string]string{"g0/x": "1"})}); r.OK {
		t.Fatal("server accepted a destination group outside the topology")
	}
	// The replica survived both and still executes valid commands.
	if r := roundTrip(svc.Request{Session: 1, Seq: 3, Dest: types.NewGroupSet(0),
		Op: svc.EncodePut(map[string]string{"g0/x": "1"})}); !r.OK {
		t.Fatalf("valid request after rejections failed: %s", r.Err)
	}
}

// TestClientSkipsOtherFramesAndRetriesCorrupt: awaiting its reply, a client
// skips a frame of another kind and a stale reply without failing, and takes
// a reply that does not decode as a broken connection: it redials and resends
// under the same seq.
func TestClientSkipsOtherFramesAndRetriesCorrupt(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	frame := func(v any) []byte {
		b, err := wire.AppendFrame(nil, 0, tcp.SvcProto, 0, v)
		if err != nil {
			t.Error(err)
		}
		return b
	}
	seqs := make(chan uint64, 2)
	go func() {
		for attempt := 0; attempt < 2; attempt++ {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			conn := tcp.NewSvcConn(c)
			defer conn.Close()
			v, err := conn.ReadMsg()
			req, ok := v.(svc.Request)
			if err != nil || !ok {
				t.Errorf("server read %#v, %v", v, err)
				return
			}
			seqs <- req.Seq
			reply := frame(svc.Reply{Session: req.Session, Seq: req.Seq, OK: true, Result: []byte("r")})
			if attempt == 0 {
				corrupt := reply[:len(reply)-1] // the reply's order cut off
				binary.BigEndian.PutUint32(corrupt, uint32(len(corrupt)-4))
				reply = append(append(frame(svc.ReadResp{Session: req.Session, Seq: req.Seq, OK: true}),
					frame(svc.Reply{Session: req.Session, Seq: req.Seq - 1, OK: true})...), corrupt...)
			}
			if _, err := c.Write(reply); err != nil {
				t.Error(err)
			}
		}
	}()
	client := svc.NewClient(svc.ClientConfig{Session: 5, Addrs: map[types.GroupID][]string{0: {ln.Addr().String()}}, Timeout: 2 * time.Second})
	defer client.Close()
	res, err := client.Invoke(types.NewGroupSet(0), []byte("op"))
	if err != nil || string(res) != "r" {
		t.Fatalf("Invoke = %q, %v; want the second attempt's reply", res, err)
	}
	first := <-seqs
	select {
	case second := <-seqs:
		if second != first {
			t.Fatalf("the retry went out under seq %d, the first attempt under %d", second, first)
		}
	default:
		t.Fatal("the client took the corrupt reply: no second attempt")
	}
}
