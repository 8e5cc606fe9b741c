package svc

import (
	"bytes"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"wanamcast/internal/metrics"
	"wanamcast/internal/transport/tcp"
	"wanamcast/internal/types"
	"wanamcast/internal/wire"
)

// castRecord is one cast a server handed its Submit.
type castRecord struct {
	id      types.MessageID
	payload []byte
	dest    types.GroupSet
}

// recordingServer serves shard 0 of groups on a local port. Its Submit parks
// each cast at once as the next message ID of process 1 and hands it to the
// returned channel, for the test to deliver.
func recordingServer(t *testing.T, groups int, m StateMachine, stats *metrics.Service) (*Server, <-chan castRecord) {
	t.Helper()
	casts := make(chan castRecord, 64) // more than any test casts
	var seq atomic.Uint64
	s := NewServer(ServerConfig{Groups: groups, Addr: "127.0.0.1:0", Machine: m, Stats: stats,
		Submit: func(cmd []byte, dest types.GroupSet, done func(types.MessageID)) {
			id := types.MessageID{Origin: 1, Seq: seq.Add(1)}
			done(id)
			casts <- castRecord{id: id, payload: cmd, dest: dest}
		}})
	if err := s.Listen(); err != nil {
		t.Fatal(err)
	}
	s.Serve()
	t.Cleanup(s.Stop)
	return s, casts
}

// dialRaw connects to s: raw writes go to the returned net.Conn, answers are
// read through the SvcConn.
func dialRaw(t *testing.T, s *Server) (net.Conn, *tcp.SvcConn) {
	t.Helper()
	c, err := net.Dial("tcp", s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = c.Close() })
	return c, tcp.NewSvcConn(c)
}

// frames encodes vs as the frames a client sends.
func frames(t *testing.T, vs ...any) []byte {
	t.Helper()
	var buf []byte
	for _, v := range vs {
		var err error
		if buf, err = wire.AppendFrame(buf, types.NoProcess, tcp.SvcProto, 0, v); err != nil {
			t.Fatal(err)
		}
	}
	return buf
}

// nextCast waits for the server's next cast.
func nextCast(t *testing.T, casts <-chan castRecord) castRecord {
	t.Helper()
	select {
	case c := <-casts:
		return c
	case <-time.After(5 * time.Second):
		t.Fatal("no cast")
		return castRecord{}
	}
}

// noCast fails the test if the server casts within d.
func noCast(t *testing.T, casts <-chan castRecord, d time.Duration) {
	t.Helper()
	select {
	case c := <-casts:
		t.Fatalf("unexpected cast of %d bytes to %v", len(c.payload), c.dest)
	case <-time.After(d):
	}
}

// castOf is the payload of a cast of reqs' commands.
func castOf(reqs ...Request) []byte {
	buf := []byte{byte(wire.KindSvcCommand)}
	for _, r := range reqs {
		buf = appendCommand(buf, Command{Session: r.Session, Seq: r.Seq, Op: r.Op})
	}
	return buf
}

// readReplies reads n replies within a few seconds.
func readReplies(t *testing.T, conn *tcp.SvcConn, n int) []Reply {
	t.Helper()
	_ = conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	out := make([]Reply, 0, n)
	for range n {
		v, err := conn.ReadMsg()
		if err != nil {
			t.Fatalf("after %d replies: %v", len(out), err)
		}
		r, ok := v.(Reply)
		if !ok {
			t.Fatalf("got %T, want a Reply", v)
		}
		out = append(out, r)
	}
	return out
}

// noReply fails the test if conn has another answer within d.
func noReply(t *testing.T, conn *tcp.SvcConn, d time.Duration) {
	t.Helper()
	_ = conn.SetReadDeadline(time.Now().Add(d))
	if v, err := conn.ReadMsg(); err == nil {
		t.Fatalf("unexpected answer %+v", v)
	}
}

// TestBurstIsOneCastPerDestinationSet: twelve requests over two destination
// sets, sent in one write, leave as two casts, one per set in the order of
// its first request, each carrying its requests' commands in arrival order;
// every request is answered once, after its cast is delivered.
func TestBurstIsOneCastPerDestinationSet(t *testing.T) {
	s, casts := recordingServer(t, 2, NewKVMachine(0, PrefixRoute(2)), nil)
	c, conn := dialRaw(t, s)
	var reqs []any
	want := map[string][]Request{}
	for i := range uint64(12) {
		r := Request{Session: 100 + i, Seq: 1, Dest: types.NewGroupSet(0), Op: EncodePut(map[string]string{"g0/k": "v"})}
		if i%3 == 0 {
			r.Dest, r.Op = types.NewGroupSet(0, 1), EncodePut(map[string]string{"g0/k": "v", "g1/k": "w"})
		}
		reqs = append(reqs, r)
		want[r.Dest.String()] = append(want[r.Dest.String()], r)
	}
	if _, err := c.Write(frames(t, reqs...)); err != nil {
		t.Fatal(err)
	}
	got := []castRecord{nextCast(t, casts), nextCast(t, casts)}
	noCast(t, casts, 200*time.Millisecond)
	for i, dest := range []types.GroupSet{types.NewGroupSet(0, 1), types.NewGroupSet(0)} {
		if !got[i].dest.Equal(dest) {
			t.Fatalf("cast %d to %v, want %v", i, got[i].dest, dest)
		}
		if w := castOf(want[dest.String()]...); !bytes.Equal(got[i].payload, w) {
			t.Fatalf("cast %d carries %x, want %x", i, got[i].payload, w)
		}
	}
	for _, cr := range got {
		s.Deliver(cr.id, cr.payload)
	}
	answered := map[uint64]bool{}
	for _, r := range readReplies(t, conn, len(reqs)) {
		if !r.OK || answered[r.Session] {
			t.Fatalf("reply %+v: want one OK reply per session", r)
		}
		answered[r.Session] = true
	}
	noReply(t, conn, 100*time.Millisecond)
}

// TestPartialFrameDoesNotHoldABatch: a request followed by the first bytes
// of the next is cast before the rest of the second arrives — the reader
// never waits for more input to fill a cast.
func TestPartialFrameDoesNotHoldABatch(t *testing.T) {
	s, casts := recordingServer(t, 1, NewKVMachine(0, PrefixRoute(1)), nil)
	c, _ := dialRaw(t, s)
	first := Request{Session: 1, Seq: 1, Dest: types.NewGroupSet(0), Op: EncodePut(map[string]string{"g0/a": "1"})}
	second := Request{Session: 2, Seq: 1, Dest: types.NewGroupSet(0), Op: EncodePut(map[string]string{"g0/b": "2"})}
	one, two := frames(t, first), frames(t, second)
	if _, err := c.Write(append(one, two[:3]...)); err != nil {
		t.Fatal(err)
	}
	if got := nextCast(t, casts); !bytes.Equal(got.payload, castOf(first)) {
		t.Fatalf("first cast carries %x, want the first request alone", got.payload)
	}
	if _, err := c.Write(two[3:]); err != nil {
		t.Fatal(err)
	}
	if got := nextCast(t, casts); !bytes.Equal(got.payload, castOf(second)) {
		t.Fatalf("second cast carries %x, want the second request alone", got.payload)
	}
}

// TestBatchKeepsExactlyOnce: a cast that holds a retry of a command an
// earlier cast applies, and two new commands of the same session, applies
// the two new ones only, counts one duplicate, leaves replicas equal, and
// answers its three requests in order — the retry with the original's
// result.
func TestBatchKeepsExactlyOnce(t *testing.T) {
	stats := &metrics.Service{}
	m := NewKVMachine(0, PrefixRoute(1))
	s, casts := recordingServer(t, 1, m, stats)
	other := NewServer(ServerConfig{Groups: 1, Machine: NewKVMachine(0, PrefixRoute(1)),
		Submit: func([]byte, types.GroupSet, func(types.MessageID)) {}})
	c, conn := dialRaw(t, s)
	req := func(seq uint64) Request {
		return Request{Session: 7, Seq: seq, Dest: types.NewGroupSet(0), Op: EncodePut(map[string]string{"g0/k": string(rune('a' + seq))})}
	}
	if _, err := c.Write(frames(t, req(1))); err != nil {
		t.Fatal(err)
	}
	a := nextCast(t, casts)
	if _, err := c.Write(frames(t, req(1), req(2), req(3))); err != nil {
		t.Fatal(err)
	}
	b := nextCast(t, casts)
	if want := castOf(req(1), req(2), req(3)); !bytes.Equal(b.payload, want) {
		t.Fatalf("second cast carries %x, want the retry and two new commands", b.payload)
	}
	for _, replica := range []*Server{s, other} {
		replica.Deliver(a.id, a.payload)
		replica.Deliver(b.id, b.payload)
	}
	if n := m.Applied(); n != 3 {
		t.Fatalf("%d applies, want 3: the retry must not apply again", n)
	}
	if st := stats.Snapshot(); st.Duplicates != 1 || st.Casts != 2 || st.Requests != 4 {
		t.Fatalf("duplicates %d, casts %d, requests %d: want 1, 2, 4", st.Duplicates, st.Casts, st.Requests)
	}
	snap, _ := s.SaveSnapshot()
	if snap2, _ := other.SaveSnapshot(); !bytes.Equal(snap, snap2) {
		t.Fatal("the two replicas' snapshots differ")
	}
	rs := readReplies(t, conn, 4)
	for i, seq := range []uint64{1, 1, 2, 3} {
		if r := rs[i]; !r.OK || r.Seq != seq {
			t.Fatalf("reply %d is %+v, want an OK reply to seq %d", i, r, seq)
		}
	}
	if rs[0].Order != rs[1].Order || rs[2].Order == rs[3].Order {
		t.Fatalf("orders %d %d %d %d: the retry shares the original's, the new commands each have their own",
			rs[0].Order, rs[1].Order, rs[2].Order, rs[3].Order)
	}
}

// nopMachine applies anything, allocating nothing.
type nopMachine struct{}

func (nopMachine) Apply([]byte) ([]byte, error) { return nil, nil }
func (nopMachine) Snapshot() ([]byte, error)    { return nil, nil }
func (nopMachine) Restore([]byte) error         { return nil }

// TestLoneRequestAllocations pins what a request that is alone in its burst
// costs the server, from handle through the cast, its delivery and the posted
// reply: two allocations, the payload and the cast's callback (three while
// the reply was boxed to be posted).
func TestLoneRequestAllocations(t *testing.T) {
	var s *Server
	var n uint64
	s = NewServer(ServerConfig{Groups: 1, Machine: nopMachine{},
		Submit: func(cmd []byte, dest types.GroupSet, done func(types.MessageID)) {
			n++
			id := types.MessageID{Origin: 1, Seq: n}
			done(id)
			s.Deliver(id, cmd)
		}})
	c, peer := net.Pipe()
	defer c.Close()
	defer peer.Close()
	b := &burst{conn: tcp.NewSvcConn(c)}
	dest, op := types.NewGroupSet(0), []byte("op")
	var seq uint64
	got := testing.AllocsPerRun(2000, func() {
		seq++
		s.handle(b, Request{Session: 1, Seq: seq, Dest: dest, Op: op})
		s.submit(b)
	})
	if n != 2001 {
		t.Fatalf("%d casts, want 2001", n)
	}
	if got > 2 {
		t.Errorf("a lone request costs %v allocations, want at most 2", got)
	}
}

// gateMachine counts applied commands; each Apply announces itself on
// entered and waits for release. Query answers the count.
type gateMachine struct {
	applied          atomic.Uint64
	entered, release chan struct{}
}

func (m *gateMachine) Apply([]byte) ([]byte, error) {
	m.entered <- struct{}{}
	<-m.release
	m.applied.Add(1)
	return nil, nil
}

func (m *gateMachine) Query([]byte) ([]byte, error) {
	return wire.AppendUvarint(nil, m.applied.Load()), nil
}

func (m *gateMachine) Snapshot() ([]byte, error) { return nil, nil }
func (m *gateMachine) Restore([]byte) error      { return nil }

// TestWatermarkNeverAheadOfState: a watermark read that asks for command 1
// is not answered while command 1's Apply is still running, and the answer
// it gets afterwards holds command 1.
func TestWatermarkNeverAheadOfState(t *testing.T) {
	m := &gateMachine{entered: make(chan struct{}), release: make(chan struct{})}
	s, _ := recordingServer(t, 1, m, nil)
	// The connection is served before the delivery holds the server: a read
	// at watermark 0 is answered.
	c, conn := dialRaw(t, s)
	read := func(min uint64) {
		t.Helper()
		if _, err := c.Write(frames(t, ReadReq{Session: 1, Seq: min + 1, Group: 0, Mode: readModeWatermark, MinWatermark: min})); err != nil {
			t.Fatal(err)
		}
	}
	read(0)
	_ = conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	if v, err := conn.ReadMsg(); err != nil {
		t.Fatalf("read at watermark 0: %v", err)
	} else if r, ok := v.(ReadResp); !ok || !r.OK {
		t.Fatalf("read at watermark 0: %+v", v)
	}
	delivered := make(chan struct{})
	go func() {
		defer close(delivered)
		s.Deliver(types.MessageID{Origin: 1, Seq: 1}, castOf(Request{Session: 1, Seq: 1, Op: []byte("w")}))
	}()
	<-m.entered
	defer func() { <-delivered }()
	released := false
	defer func() {
		if !released {
			close(m.release)
		}
	}()

	read(1)
	answers := make(chan any, 1)
	go func() {
		_ = conn.SetReadDeadline(time.Now().Add(10 * time.Second))
		v, err := conn.ReadMsg()
		if err != nil {
			v = err
		}
		answers <- v
	}()
	select {
	case v := <-answers:
		t.Fatalf("answered %+v while command 1 was still applying", v)
	case <-time.After(300 * time.Millisecond):
	}
	close(m.release)
	released = true
	r, ok := (<-answers).(ReadResp)
	if !ok || !r.OK || r.Watermark < 1 {
		t.Fatalf("answer %+v, want an OK read at watermark 1 or later", r)
	}
	if n, _, err := wire.Uvarint(r.Result); err != nil || n != 1 {
		t.Fatalf("the read saw %d applied commands (%v), want 1", n, err)
	}
}
