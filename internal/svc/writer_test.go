package svc_test

import (
	"errors"
	"os"
	"strings"
	"sync"
	"testing"
	"time"

	"wanamcast"
	"wanamcast/internal/metrics"
	"wanamcast/internal/svc"
	"wanamcast/internal/transport/tcp"
	"wanamcast/internal/types"
)

// readModeWatermark is svc's wire value of a watermark read (ReadReq.Mode).
const readModeWatermark = 2

// dialServer opens a raw service connection to replica p's server.
func dialServer(t *testing.T, service *svc.Service, p types.ProcessID) *tcp.SvcConn {
	t.Helper()
	conn, err := tcp.SvcDial(service.Server(p).Addr(), time.Second)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = conn.Close() })
	return conn
}

// readMsg reads one message within timeout.
func readMsg(t *testing.T, conn *tcp.SvcConn, timeout time.Duration) any {
	t.Helper()
	_ = conn.SetReadDeadline(time.Now().Add(timeout))
	v, err := conn.ReadMsg()
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	return v
}

// TestRepliesLeaveInBursts: 32 sessions share one connection, each with a
// command in flight that it replaces as soon as its reply arrives. Every
// session's replies arrive in its own sequence order, each exactly once,
// and the server's writer sends them in fewer writes than there are
// replies: a burst of deliveries leaves in one write.
func TestRepliesLeaveInBursts(t *testing.T) {
	f := newKVFixture(t, 1, 3, 25600, 0)
	conn := dialServer(t, f.service, f.topo.Members(0)[0])
	const sessions, perSession = 32, 20
	send := func(session, seq uint64) {
		t.Helper()
		req := svc.Request{Session: session, Seq: seq, Dest: types.NewGroupSet(0),
			Op: svc.EncodePut(map[string]string{"g0/burst": "v"})}
		if err := conn.WriteMsg(types.NoProcess, req); err != nil {
			t.Fatal(err)
		}
	}
	last := make(map[uint64]uint64, sessions)
	for s := uint64(1); s <= sessions; s++ {
		send(s, 1)
	}
	for range sessions * perSession {
		r, ok := readMsg(t, conn, 10*time.Second).(svc.Reply)
		if !ok || !r.OK {
			t.Fatalf("reply %+v, want an OK svc.Reply", r)
		}
		if r.Seq != last[r.Session]+1 {
			t.Fatalf("session %d: reply to seq %d after seq %d", r.Session, r.Seq, last[r.Session])
		}
		last[r.Session] = r.Seq
		if r.Seq < perSession {
			send(r.Session, r.Seq+1)
		}
	}
	st := f.stats.Snapshot()
	t.Logf("%d replies in %d writes (%.1f a write)", st.Replies, st.ReplyWrites, float64(st.Replies)/float64(st.ReplyWrites))
	if st.Replies != sessions*perSession || st.ReplyWrites == 0 || st.ReplyWrites >= st.Replies {
		t.Fatalf("%d replies in %d writes: want %d replies in fewer writes", st.Replies, st.ReplyWrites, sessions*perSession)
	}
}

// TestSubmitDoesNotWaitForTheLane: with the replica's event loop held by a
// delivery, a write request is posted to the loop and the connection goes on
// to the read queued behind it, answered at once; the write is answered
// once the loop runs again.
func TestSubmitDoesNotWaitForTheLane(t *testing.T) {
	cluster := kvCluster(1, 3, 25700, 0)
	p := cluster.Process(0, 0)
	held, release := make(chan struct{}), make(chan struct{})
	var once sync.Once
	cluster.OnDeliver(func(q types.ProcessID, _ types.MessageID, payload any) {
		if q == p && payload == "hold the loop" {
			once.Do(func() { close(held) })
			<-release
		}
	})
	f := serveKV(t, cluster)
	defer func() {
		select {
		case <-release:
		default:
			close(release)
		}
	}()
	f.cluster.Multicast(p, "hold the loop", 0)
	select {
	case <-held:
	case <-time.After(10 * time.Second):
		t.Fatal("the holding cast was never delivered")
	}

	conn := dialServer(t, f.service, p)
	write := svc.Request{Session: 1, Seq: 1, Dest: types.NewGroupSet(0), Op: svc.EncodePut(map[string]string{"g0/k": "v"})}
	read := svc.ReadReq{Session: 1, Seq: 1, Group: 0, Mode: readModeWatermark, Op: svc.EncodeGet("g0/k")}
	for _, v := range []any{write, read} {
		if err := conn.WriteMsg(types.NoProcess, v); err != nil {
			t.Fatal(err)
		}
	}
	if r, ok := readMsg(t, conn, 2*time.Second).(svc.ReadResp); !ok || !r.OK || r.Seq != 1 {
		t.Fatalf("first answer %+v, want the read's", r)
	}
	close(release)
	if r, ok := readMsg(t, conn, 10*time.Second).(svc.Reply); !ok || !r.OK || r.Seq != 1 {
		t.Fatalf("second answer %+v, want the write's", r)
	}
}

// TestSlowClientLosesOnlyItsConnection: a client that stops reading while
// its replies pile up is cut once a write of them has waited ReplyTimeout.
// Meanwhile another client of the same replica writes and reads as usual,
// and the write that the stalled client queued behind its reads costs the
// replica's event loop nothing.
func TestSlowClientLosesOnlyItsConnection(t *testing.T) {
	const replyTimeout = time.Second
	cluster := wanamcast.NewLiveCluster(wanamcast.LiveConfig{Groups: 1, PerGroup: 3, BasePort: 25800, MaxBatch: 16, Pipeline: 2})
	if err := cluster.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cluster.Stop)
	route := svc.PrefixRoute(1)
	stats := &metrics.Service{}
	service, err := svc.ServeCluster(cluster, cluster.Topology(), svc.ServiceConfig{
		NewMachine:   func(types.ProcessID, types.GroupID) svc.StateMachine { return svc.NewKVMachine(0, route) },
		ReplyTimeout: replyTimeout,
		Stats:        stats,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(service.Stop)
	p := cluster.Topology().Members(0)[0]
	kv := &svc.KV{Route: route, Client: svc.NewClient(svc.ClientConfig{Session: 100,
		Addrs: map[types.GroupID][]string{0: {service.Server(p).Addr()}}, Timeout: 2 * time.Second})}
	defer kv.Client.Close()
	big := strings.Repeat("x", 128<<10)
	if _, err := kv.Put(map[string]string{"g0/big": big}); err != nil {
		t.Fatal(err)
	}

	// 160 reads of 128 KB: far more than the kernel buffers between the two
	// sockets hold, so the writer blocks once the slow client stops reading.
	slow := dialServer(t, service, p)
	const reads = 160
	for i := uint64(1); i <= reads; i++ {
		if err := slow.WriteMsg(types.NoProcess, svc.ReadReq{Session: 7, Seq: i, Group: 0, Mode: readModeWatermark, Op: svc.EncodeGet("g0/big")}); err != nil {
			t.Fatal(err)
		}
	}
	if err := slow.WriteMsg(types.NoProcess, svc.Request{Session: 7, Seq: 1, Dest: types.NewGroupSet(0),
		Op: svc.EncodePut(map[string]string{"g0/slow": "1"})}); err != nil {
		t.Fatal(err)
	}
	stalled := time.Now()
	for n := 0; time.Since(stalled) < replyTimeout+replyTimeout/2; n++ {
		start := time.Now()
		key := "g0/other"
		if _, err := kv.Put(map[string]string{key: "v"}); err != nil {
			t.Fatalf("the other client's put %d: %v", n, err)
		}
		if v, ok, err := kv.Get(key); err != nil || !ok || v != "v" {
			t.Fatalf("the other client's get %d: %q %v %v", n, v, ok, err)
		}
		if took := time.Since(start); took > replyTimeout/2 {
			t.Fatalf("the other client's put and get %d took %v while a client stalled", n, took)
		}
	}

	got := 0
	_ = slow.SetReadDeadline(time.Now().Add(10 * time.Second))
	for {
		_, err := slow.ReadMsg()
		if err == nil {
			got++
			continue
		}
		if errors.Is(err, os.ErrDeadlineExceeded) {
			t.Fatalf("the stalled connection is still open after %v (%d answers read)", time.Since(stalled), got)
		}
		break
	}
	if got >= reads+1 {
		t.Fatalf("the stalled client read all %d answers: it was never cut", got)
	}
	t.Logf("the stalled client read %d of %d answers before the cut", got, reads+1)
}
