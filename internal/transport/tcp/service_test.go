package tcp

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"os"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"wanamcast/internal/types"
	"wanamcast/internal/wire"
)

// TestSvcConnRoundTrip: values written on one end come out the other, over
// a real socket, concurrently with replies in the opposite direction.
func TestSvcConnRoundTrip(t *testing.T) {
	ln, err := SvcListen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		for {
			v, err := conn.ReadMsg()
			if err != nil {
				return
			}
			if err := conn.WriteMsg(types.ProcessID(1), v); err != nil {
				return
			}
		}
	}()

	conn, err := SvcDial(ln.Addr().String(), time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	for _, v := range []any{"hello", 42, []byte{1, 2, 3}, nil, true} {
		if err := conn.WriteMsg(types.NoProcess, v); err != nil {
			t.Fatalf("write %v: %v", v, err)
		}
		_ = conn.SetReadDeadline(time.Now().Add(5 * time.Second))
		got, err := conn.ReadMsg()
		if err != nil {
			t.Fatalf("read echo of %v: %v", v, err)
		}
		switch want := v.(type) {
		case []byte:
			if string(got.([]byte)) != string(want) {
				t.Fatalf("echo = %v, want %v", got, want)
			}
		default:
			if got != v {
				t.Fatalf("echo = %v, want %v", got, v)
			}
		}
	}
}

// TestSvcConnReadDeadline: an expired deadline errors the read instead of
// blocking forever.
func TestSvcConnReadDeadline(t *testing.T) {
	ln, err := SvcListen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		conn, err := ln.Accept()
		if err == nil {
			defer conn.Close()
			_, _ = conn.ReadMsg() // hold the conn open, send nothing
		}
	}()
	conn, err := SvcDial(ln.Addr().String(), time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	_ = conn.SetReadDeadline(time.Now().Add(30 * time.Millisecond))
	if _, err := conn.ReadMsg(); err == nil {
		t.Fatal("ReadMsg returned without data before the deadline")
	}
}

// TestSvcConnCorruptFrame: a hostile length prefix is an error, not a
// panic or an attacker-sized allocation.
func TestSvcConnCorruptFrame(t *testing.T) {
	ln, err := SvcListen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	errCh := make(chan error, 1)
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			errCh <- err
			return
		}
		defer conn.Close()
		_, err = conn.ReadMsg()
		errCh <- err
	}()
	raw, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], 1<<31) // far beyond MaxFrame
	if _, err := raw.Write(hdr[:]); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-errCh:
		if err == nil {
			t.Fatal("server accepted a frame longer than MaxFrame")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("server did not reject the corrupt frame")
	}
}

// TestSvcConnReadsPlainFramesOnly: ReadMsg decodes a plain frame's value and
// refuses a batch envelope and a frame with bytes after its value.
func TestSvcConnReadsPlainFramesOnly(t *testing.T) {
	plain, err := wire.AppendFrame(nil, 1, SvcProto, 0, "x")
	if err != nil {
		t.Fatal(err)
	}
	trailing := append(bytes.Clone(plain), 0)
	binary.BigEndian.PutUint32(trailing, uint32(len(trailing)-4))
	var bw wire.BatchWriter
	bw.Begin(1)
	sub, _ := wire.AppendSub(nil, SvcProto, 0, "x")
	bw.Add(sub)
	envelope, _, _, _, err := bw.Finish(nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	for name, c := range map[string]struct {
		frame []byte
		ok    bool
	}{"plain": {plain, true}, "trailing": {trailing, false}, "envelope": {envelope, false}} {
		a, b := net.Pipe()
		go func() { _, _ = a.Write(c.frame) }()
		v, err := NewSvcConn(b).ReadMsg()
		if ok := err == nil && v == "x"; ok != c.ok {
			t.Errorf("%s: ReadMsg = %v, %v", name, v, err)
		}
		a.Close()
		b.Close()
	}
}

// TestWakeWithNothingQueuedSwapsNothing: a writer wake that finds nothing
// queued — a Post whose wake raced the previous swap — leaves the buffers as
// they are. A writer that swapped on it handed Post the buffer it would
// write from next: frames posted during that write overwrote the ones being
// sent, and the peer read some replies twice and others never.
func TestWakeWithNothingQueuedSwapsNothing(t *testing.T) {
	a, b := net.Pipe() // unbuffered: a Write lasts until the peer reads it
	conn, peer := NewSvcConn(a), NewSvcConn(b)
	defer peer.Close()
	queued := func() int {
		conn.mu.Lock()
		defer conn.mu.Unlock()
		return len(conn.q)
	}
	next, want := 0, 0
	post := func(n int) {
		for range n {
			next++
			if err := Post(conn, 1, next); err != nil {
				t.Fatal(err)
			}
		}
	}
	for range 20 {
		conn.mu.Lock()
		conn.signal() // a wake with nothing queued
		conn.mu.Unlock()
		waitFor(t, 5*time.Second, func() bool { return len(conn.wake) == 0 })
		time.Sleep(time.Millisecond) // and found the queue empty
		post(1)
		waitFor(t, 5*time.Second, func() bool { return queued() == 0 })
		post(3) // while the writer is still writing the first
		for range 4 {
			want++
			_ = peer.SetReadDeadline(time.Now().Add(5 * time.Second))
			v, err := peer.ReadMsg()
			if err != nil {
				t.Fatal(err)
			}
			if v != want {
				t.Fatalf("read %v, want %d: a frame was overwritten while it was being written", v, want)
			}
		}
	}
	_ = conn.Close()
	waitFor(t, 5*time.Second, func() bool { return !writerRuns(conn) })
	if err := Post(conn, 1, 0); err == nil {
		t.Fatal("Post after Close succeeded")
	}
}

// writerRuns reports whether s's writer goroutine is running.
func writerRuns(s *SvcConn) bool {
	buf := make([]byte, 1<<20)
	return strings.Contains(string(buf[:runtime.Stack(buf, true)]), fmt.Sprintf("(*SvcConn).writeLoop(%p", s))
}

// countConn counts the writes to a connection, and those made by a
// connection's writer goroutine.
type countConn struct {
	net.Conn
	writes, byWriter atomic.Int64
}

func (c *countConn) Write(b []byte) (int, error) {
	c.writes.Add(1)
	buf := make([]byte, 4096)
	if strings.Contains(string(buf[:runtime.Stack(buf, false)]), "(*SvcConn).writeLoop(") {
		c.byWriter.Add(1)
	}
	return c.Conn.Write(b)
}

// svcPair is a loopback service connection whose writes are counted, and
// the server's end of it.
func svcPair(t *testing.T) (*SvcConn, *countConn, *SvcConn) {
	t.Helper()
	ln, err := SvcListen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	raw, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	server, err := ln.Accept()
	if err != nil {
		t.Fatal(err)
	}
	cc := &countConn{Conn: raw}
	client := NewSvcConn(cc)
	t.Cleanup(func() { _ = client.Close(); _ = server.Close() })
	return client, cc, server
}

// parked reports whether s's reader is blocked on the socket.
func parked(s *SvcConn) bool { return s.parked.Load() }

// TestSvcConnBurstWhileReaderParked: requests that one goroutine sends
// while the connection's reader waits for replies leave in a few writes,
// all the writer's — the shape of a client that multiplexes sessions on
// one connection.
func TestSvcConnBurstWhileReaderParked(t *testing.T) {
	client, cc, server := svcPair(t)
	read := make(chan error, 1)
	go func() {
		_, err := client.ReadMsg()
		read <- err
	}()
	waitFor(t, 5*time.Second, func() bool { return parked(client) })
	const requests = 32
	for i := range requests {
		if err := client.WriteMsg(types.NoProcess, i); err != nil {
			t.Fatal(err)
		}
	}
	for i := range requests {
		_ = server.SetReadDeadline(time.Now().Add(5 * time.Second))
		if v, err := server.ReadMsg(); err != nil || v != i {
			t.Fatalf("request %d read as %v, %v", i, v, err)
		}
	}
	writes, byWriter := cc.writes.Load(), cc.byWriter.Load()
	t.Logf("%d requests in %d writes", requests, writes)
	if writes > 8 || byWriter != writes {
		t.Fatalf("%d requests in %d writes, %d of them the writer's: want at most 8, all the writer's", requests, writes, byWriter)
	}
	if err := server.WriteMsg(1, "done"); err != nil {
		t.Fatal(err)
	}
	if err := <-read; err != nil {
		t.Fatal(err)
	}
}

// TestSvcConnRequestResponseWritesInline: a caller that sends a request and
// then reads its reply writes each request itself, in one write, and never
// wakes the connection's writer.
func TestSvcConnRequestResponseWritesInline(t *testing.T) {
	client, cc, server := svcPair(t)
	go func() {
		for {
			v, err := server.ReadMsg()
			if err != nil || server.WriteMsg(1, v) != nil {
				return
			}
		}
	}()
	const requests = 50
	for i := range requests {
		if err := client.WriteMsg(types.NoProcess, i); err != nil {
			t.Fatal(err)
		}
		if n := cc.writes.Load(); n != int64(i+1) {
			t.Fatalf("request %d: %d writes when WriteMsg returned, want %d", i, n, i+1)
		}
		_ = client.SetReadDeadline(time.Now().Add(5 * time.Second))
		if v, err := client.ReadMsg(); err != nil || v != i {
			t.Fatalf("reply %d read as %v, %v", i, v, err)
		}
	}
	if n := cc.byWriter.Load(); n != 0 {
		t.Fatalf("the writer wrote %d times: want every write on the caller's goroutine", n)
	}
}

// TestSvcConnReaderNeverWrites: one end sends far more than the pipe
// between them holds before it reads anything, and the other end answers
// each frame as its reader takes it. The answers pile up on the writer; the
// answering end's reader goes on reading, so the sender finishes and then
// reads every answer. A reader that wrote the answers itself would block on
// a sender that is blocked writing to it.
func TestSvcConnReaderNeverWrites(t *testing.T) {
	a, b := net.Pipe() // holds nothing: a Write lasts until the peer reads it
	sender, answerer := NewSvcConn(a), NewSvcConn(b)
	defer sender.Close()
	defer answerer.Close()
	const frames = 64
	payload := bytes.Repeat([]byte("p"), 16<<10)
	go func() {
		for {
			v, err := answerer.ReadMsg()
			if err != nil || Post(answerer, 1, v) != nil {
				return
			}
		}
	}()
	for i := range frames {
		if err := sender.WriteMsg(types.NoProcess, append(wire.AppendUvarint(nil, uint64(i)), payload...)); err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
	}
	_ = sender.SetReadDeadline(time.Now().Add(5 * time.Second))
	for i := range frames {
		v, err := sender.ReadMsg()
		if err != nil {
			t.Fatalf("answer %d: %v", i, err)
		}
		if n, _, _ := wire.Uvarint(v.([]byte)); n != uint64(i) {
			t.Fatalf("answer %d read as %d", i, n)
		}
	}
}

// TestSvcConnPostWithoutReaderIsWritten: a Post on a connection whose
// reader never started is written by the writer: nothing would flush it
// otherwise.
func TestSvcConnPostWithoutReaderIsWritten(t *testing.T) {
	a, b := net.Pipe()
	conn, peer := NewSvcConn(a), NewSvcConn(b)
	defer conn.Close()
	defer peer.Close()
	if err := Post(conn, 1, "posted"); err != nil {
		t.Fatal(err)
	}
	_ = peer.SetReadDeadline(time.Now().Add(5 * time.Second))
	if v, err := peer.ReadMsg(); err != nil || v != "posted" {
		t.Fatalf("the peer read %v, %v: the frame was stranded", v, err)
	}
}

// gateConn is a connection whose writes wait until the gate opens, or until
// it is closed.
type gateConn struct {
	net.Conn
	gate, closed chan struct{}
	written      atomic.Int64
}

func (c *gateConn) Write(b []byte) (int, error) {
	select {
	case <-c.gate:
	case <-c.closed:
		return 0, net.ErrClosed
	}
	c.written.Add(1)
	return len(b), nil
}

func (c *gateConn) Close() error {
	close(c.closed)
	return nil
}

func (*gateConn) SetWriteDeadline(time.Time) error { return nil }

// TestSvcConnCloseDropsWhatIsQueued pins a frame queued before Close: Close
// returns at once, while a write is still under way, and what was queued
// behind that write is never written; later writes fail. A lane that closes
// a connection never waits for its peer.
func TestSvcConnCloseDropsWhatIsQueued(t *testing.T) {
	c := &gateConn{gate: make(chan struct{}), closed: make(chan struct{})}
	defer close(c.gate)
	conn := NewSvcConn(c)
	if err := Post(conn, 1, "being written"); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 5*time.Second, func() bool {
		conn.mu.Lock()
		defer conn.mu.Unlock()
		return conn.writing
	})
	if err := conn.WriteMsg(types.NoProcess, "queued"); err != nil {
		t.Fatal(err)
	}
	closed := make(chan error, 1)
	go func() { closed <- conn.Close() }()
	select {
	case err := <-closed:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Close waited for the write under way")
	}
	waitFor(t, 5*time.Second, func() bool { return !writerRuns(conn) })
	if n := c.written.Load(); n != 0 {
		t.Fatalf("%d writes completed: want the one under way cut and the queued frame dropped", n)
	}
	if err := conn.WriteMsg(types.NoProcess, "late"); !errors.Is(err, net.ErrClosed) {
		t.Fatalf("WriteMsg after Close: %v, want net.ErrClosed", err)
	}
	if err := Post(conn, 1, "late"); !errors.Is(err, net.ErrClosed) {
		t.Fatalf("Post after Close: %v, want net.ErrClosed", err)
	}
	if err := conn.Close(); err != nil {
		t.Fatalf("a second Close: %v", err)
	}
}

// TestSvcConnStalledPeerCostsTheConnection: a peer that stops reading costs
// the connection once a write has waited the write timeout, whichever
// goroutine writes: the caller's, or the writer while the reader waits.
func TestSvcConnStalledPeerCostsTheConnection(t *testing.T) {
	const timeout = 200 * time.Millisecond
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		for {
			c, err := ln.Accept() // and never read
			if err != nil {
				return
			}
			defer c.Close()
		}
	}()
	big := bytes.Repeat([]byte("x"), 1<<20)
	for _, reading := range []bool{false, true} {
		conn, err := SvcDial(ln.Addr().String(), timeout)
		if err != nil {
			t.Fatal(err)
		}
		read := make(chan error, 1)
		if reading {
			go func() {
				_, err := conn.ReadMsg()
				read <- err
			}()
			waitFor(t, 5*time.Second, func() bool { return parked(conn) })
		}
		start := time.Now()
		if reading {
			// More than the kernel buffers between the sockets hold, and
			// less than maxQueued: the writer's write must time out.
			for i := 0; i < 48 && err == nil; i++ {
				err = conn.WriteMsg(types.NoProcess, big)
			}
			select {
			case rerr := <-read:
				if rerr == nil {
					t.Fatal("the reader read a frame the stalled peer never sent")
				}
			case <-time.After(10 * time.Second):
				t.Fatal("the connection to a stalled peer was still open after 10 s")
			}
			if err == nil {
				err = conn.WriteMsg(types.NoProcess, big)
			}
		}
		for err == nil && time.Since(start) < 10*time.Second {
			err = conn.WriteMsg(types.NoProcess, big)
		}
		if !errors.Is(err, os.ErrDeadlineExceeded) && !errors.Is(err, net.ErrClosed) {
			t.Fatalf("reader parked %v: a write to a stalled peer ended with %v, want its deadline or the closed connection", reading, err)
		}
		if took := time.Since(start); took < timeout {
			t.Fatalf("reader parked %v: the connection failed after %v, before its write timeout", reading, took)
		}
		t.Logf("reader parked %v: the connection failed after %v: %v", reading, time.Since(start), err)
	}
}

// TestSvcConnPipelinesBothWaysOverAPipe: both ends of an unbuffered pipe
// send a stream of frames while each reads the other's: no end waits on a
// write the other end cannot take because it is writing too.
func TestSvcConnPipelinesBothWaysOverAPipe(t *testing.T) {
	a, b := net.Pipe()
	ends := []*SvcConn{NewSvcConn(a), NewSvcConn(b)}
	defer ends[0].Close()
	defer ends[1].Close()
	const frames = 500
	payload := bytes.Repeat([]byte("p"), 1500)
	errs := make(chan error, 4)
	for _, end := range ends {
		go func() {
			for i := range frames {
				if err := end.WriteMsg(types.NoProcess, append(wire.AppendUvarint(nil, uint64(i)), payload...)); err != nil {
					errs <- err
					return
				}
			}
			errs <- nil
		}()
		go func() {
			_ = end.SetReadDeadline(time.Now().Add(20 * time.Second))
			for i := range frames {
				v, err := end.ReadMsg()
				if err != nil {
					errs <- err
					return
				}
				if n, _, _ := wire.Uvarint(v.([]byte)); n != uint64(i) {
					errs <- fmt.Errorf("frame %d read as %d", i, n)
					return
				}
			}
			errs <- nil
		}()
	}
	for range 4 {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
}
