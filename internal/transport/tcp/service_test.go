package tcp

import (
	"bytes"
	"encoding/binary"
	"net"
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
	exited := make(chan struct{})
	go func() {
		conn.WriteLoop(5*time.Second, func() {})
		close(exited)
	}()
	until := func(what string, cond func() bool) {
		t.Helper()
		for deadline := time.Now().Add(5 * time.Second); !cond(); time.Sleep(100 * time.Microsecond) {
			if time.Now().After(deadline) {
				t.Fatalf("timed out waiting until %s", what)
			}
		}
	}
	queued := func() int {
		conn.qmu.Lock()
		defer conn.qmu.Unlock()
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
		conn.wake <- struct{}{} // a wake with nothing queued
		until("the writer took the wake", func() bool { return len(conn.wake) == 0 })
		time.Sleep(time.Millisecond) // and found the queue empty
		post(1)
		until("the writer swapped the frame out", func() bool { return queued() == 0 })
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
	select {
	case <-exited:
	case <-time.After(5 * time.Second):
		t.Fatal("WriteLoop did not return after Close")
	}
	if err := Post(conn, 1, 0); err == nil {
		t.Fatal("Post after Close succeeded")
	}
}
