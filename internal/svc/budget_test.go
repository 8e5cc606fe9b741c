package svc

import (
	"net"
	"strings"
	"testing"
	"time"

	"wanamcast/internal/fd"
	"wanamcast/internal/transport/tcp"
	"wanamcast/internal/types"
	"wanamcast/internal/wire"
)

// The serving replica's allocation budgets: what a command costs it beyond
// what it keeps.

// TestKVApplyAllocations: a put of another shard's keys allocates nothing; a
// rewrite of an existing own-shard key at most one object, whatever the
// length of the value it replaces; a get, ordered or not, only its result.
func TestKVApplyAllocations(t *testing.T) {
	m := NewKVMachine(0, PrefixRoute(2))
	foreign := EncodePut(map[string]string{"g1/a": "xx", "g1/b": "yy", "g1/c": "zz"})
	short := EncodePut(map[string]string{"g0/a": "v", "g1/b": "w"})
	long := EncodePut(map[string]string{"g0/a": strings.Repeat("v", 100)})
	get := EncodeGet("g0/a")
	if _, err := m.Apply(short); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		what string
		op   []byte
		max  float64
	}{
		{"a put of another shard's keys", foreign, 0},
		{"a rewrite of an own-shard key", short, 1},
		{"a rewrite with a longer value", long, 1},
		{"an ordered get", get, 1},
	} {
		if n := testing.AllocsPerRun(100, func() { _, _ = m.Apply(c.op) }); n > c.max {
			t.Errorf("%s: %.1f allocations, want at most %.0f", c.what, n, c.max)
		}
	}
	if n := testing.AllocsPerRun(100, func() { _, _ = m.Query(get) }); n > 1 {
		t.Errorf("a query: %.1f allocations, want at most 1", n)
	}
	if v, ok := m.Get("g0/a"); !ok || v != strings.Repeat("v", 100) {
		t.Fatalf("g0/a = %q, %v after the rewrites", v, ok)
	}
}

// TestCorruptPutAppliesNothing: a two-key put whose second key is truncated
// fails whole. The machine applied the first key, then errored on the second,
// so a client that was told its write failed found it half there.
func TestCorruptPutAppliesNothing(t *testing.T) {
	m := NewKVMachine(0, PrefixRoute(1))
	op := []byte{kvOpPut}
	op = wire.AppendUvarint(op, 2)
	op = wire.AppendString(op, "g0/a")
	op = wire.AppendString(op, "1")
	op = append(wire.AppendUvarint(op, 50), "g0/"...) // a key of 50 bytes, 3 of them there
	before, _ := m.Snapshot()
	if _, err := m.Apply(op); err == nil || !strings.Contains(err.Error(), "corrupt put key") {
		t.Fatalf("Apply = %v, want a corrupt put key error", err)
	}
	if after, _ := m.Snapshot(); string(after) != string(before) || m.Len() != 0 || m.Applied() != 0 {
		t.Fatalf("a corrupt put left %d keys and %d applied commands", m.Len(), m.Applied())
	}
}

// frameLoop is a connection whose reads return one frame over and over, and
// whose writes — the answers its connection's writer sends — are dropped.
type frameLoop struct {
	net.Conn
	frame []byte
	off   int
}

func (f *frameLoop) Read(p []byte) (int, error) {
	n := copy(p, f.frame[f.off:])
	f.off = (f.off + n) % len(f.frame)
	return n, nil
}

func (f *frameLoop) Write(p []byte) (int, error)      { return len(p), nil }
func (f *frameLoop) SetWriteDeadline(time.Time) error { return nil }

// loopConn serves v's frame over and over to a burst of its own.
func loopConn(t *testing.T, v any) *burst {
	t.Helper()
	frame, err := wire.AppendFrame(nil, types.NoProcess, tcp.SvcProto, 0, v)
	if err != nil {
		t.Fatal(err)
	}
	return &burst{conn: tcp.NewSvcConn(&frameLoop{frame: frame})}
}

// serveNext reads b's next frame in place and serves it.
func serveNext(t *testing.T, s *Server, b *burst) {
	kind, body, err := b.conn.Next()
	if err != nil || !s.serve(b, kind, body) {
		t.Fatalf("frame not served: %v", err)
	}
}

// TestRequestPathAllocations pins the serving replica's request path, frame
// by frame: a write request from its frame into the burst costs the cast's
// payload and nothing else; a write's reply from Deliver into its
// connection's queue, and the apply to an existing session with a machine
// that allocates nothing, cost nothing; a lease read on the fast path costs
// its result. Queued answers grow their connection's buffer, amortised.
func TestRequestPathAllocations(t *testing.T) {
	m := NewKVMachine(0, PrefixRoute(1))
	if _, err := m.Apply(EncodePut(map[string]string{"g0/a": "value"})); err != nil {
		t.Fatal(err)
	}
	lease := new(fd.Lease)
	lease.Extend(time.Now().Add(time.Hour))
	s := NewServer(ServerConfig{Groups: 1, Machine: m, Lease: lease,
		Submit: func([]byte, types.GroupSet, func(types.MessageID)) {}})

	write := loopConn(t, Request{Session: 1, Seq: 1, Dest: types.NewGroupSet(0), Op: []byte("a write's op")})
	if n := testing.AllocsPerRun(1000, func() {
		serveNext(t, s, write)
		write.casts = write.casts[:0]
	}); n > 1 {
		t.Errorf("a write request from frame to burst: %.1f allocations, want the payload's 1", n)
	}

	read := loopConn(t, ReadReq{Session: 1, Seq: 1, Group: 0, Mode: readModeLease, Op: EncodeGet("g0/a")})
	if n := testing.AllocsPerRun(1000, func() { serveNext(t, s, read) }); n > 1 {
		t.Errorf("a fast-path lease read: %.1f allocations, want at most its result's 1", n)
	}

	s.cfg.Machine = nopMachine{}
	conn := write.conn
	const runs = 1000
	payloads := make([][]byte, sessionWindow+2*(runs+1))
	for i := range payloads {
		payloads[i] = wire.AppendValue(nil, Command{Session: 2, Seq: uint64(i + 1), Op: []byte("op")})
	}
	next := 0
	deliver := func() types.MessageID {
		id := types.MessageID{Origin: 1, Seq: uint64(next + 1)}
		s.Deliver(id, payloads[next])
		next++
		return id
	}
	for range sessionWindow {
		deliver() // the session's ring at its full size
	}
	if n := testing.AllocsPerRun(runs, func() { deliver() }); n != 0 {
		t.Errorf("an apply to an existing session: %.1f allocations, want 0", n)
	}
	if n := testing.AllocsPerRun(runs, func() {
		id := types.MessageID{Origin: 1, Seq: uint64(next + 1)}
		s.submitted(id, pendingCast{conn: conn, first: pendingReq{session: 2, seq: uint64(next + 1)}})
		if deliver() != id {
			t.Fatal("delivered another cast")
		}
	}); n != 0 {
		t.Errorf("a write's reply from Deliver to queued bytes: %.1f allocations, want 0", n)
	}
}

// BenchmarkApply is the service layer's budget record: one delivered
// one-command put, rewriting a key of this shard, into an existing session.
func BenchmarkApply(b *testing.B) {
	s := NewServer(ServerConfig{Groups: 2, Machine: NewKVMachine(0, PrefixRoute(2)),
		Submit: func([]byte, types.GroupSet, func(types.MessageID)) {}})
	op := EncodePut(map[string]string{"g0/k": "value", "g1/k": "other shard's"})
	payloads := make([][]byte, 1024)
	seq := uint64(0)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if i%len(payloads) == 0 {
			b.StopTimer()
			for j := range payloads {
				payloads[j] = wire.AppendValue(payloads[j][:0], Command{Session: 1, Seq: seq + uint64(j) + 1, Op: op})
			}
			b.StartTimer()
		}
		seq++
		s.Deliver(types.MessageID{Origin: 1, Seq: seq}, payloads[i%len(payloads)])
	}
}

// TestParkedReadOwnsItsOp: a read that parks for its watermark answers for
// its own key after the connection has read another request into the
// buffer its frame was read in.
func TestParkedReadOwnsItsOp(t *testing.T) {
	s, _ := recordingServer(t, 1, NewKVMachine(0, PrefixRoute(1)), nil)
	c, conn := dialRaw(t, s)
	parked := ReadReq{Session: 1, Seq: 1, Mode: readModeWatermark, MinWatermark: 1, Op: EncodeGet("g0/a")}
	other := ReadReq{Session: 1, Seq: 2, Mode: readModeWatermark, Op: EncodeGet("g0/b")}
	if _, err := c.Write(frames(t, parked, other)); err != nil {
		t.Fatal(err)
	}
	_ = conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	if v, err := conn.ReadMsg(); err != nil || v.(ReadResp).Seq != 2 {
		t.Fatalf("first answer %+v, %v: want the unparked read's", v, err)
	}
	s.Deliver(types.MessageID{Origin: 1, Seq: 1}, castOf(Request{Session: 1, Seq: 1, Op: EncodePut(map[string]string{"g0/a": "A", "g0/b": "B"})}))
	v, err := conn.ReadMsg()
	if err != nil {
		t.Fatal(err)
	}
	r := v.(ReadResp)
	if val, found, err := DecodeGetResult(r.Result); r.Seq != 1 || err != nil || !found || val != "A" {
		t.Fatalf("the parked read answered %+v (%q, %v, %v), want g0/a = A", r, val, found, err)
	}
}
