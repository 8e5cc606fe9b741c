package tcp

import (
	"bufio"
	"cmp"
	"encoding/binary"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"wanamcast/internal/types"
	"wanamcast/internal/wire"
)

// The client-facing side of the live runtime: unlike the process-to-process
// transport above (fixed topology, per-pair writer goroutines, injected WAN
// delay), service connections are ad-hoc — any number of clients dial in,
// speak length-prefixed internal/wire frames, and hang up. SvcListen /
// SvcDial / SvcConn are the shared framing layer that internal/svc builds
// its request/reply protocol on.
//
// A connection has one outbound queue, and flush is the one way out of it:
// one Write of all that is queued, under the write timeout; a failed write
// costs the connection. WriteMsg flushes on its caller's goroutine unless
// the reader is blocked on the socket; all else wakes the connection's
// writer, whose wake is the window in which a pipelining client's burst
// gathers into one write. A reader never writes: it could block on a peer
// that is blocked writing to it.

// SvcProto labels service frames on the wire (wire.Frame.Proto).
const SvcProto = "svc"

// SvcConn is one client-facing connection speaking length-prefixed
// internal/wire values, written as above. Reads come from one goroutine at a
// time: Next reads a frame in place, ReadMsg decodes it into a value of its
// own.
type SvcConn struct {
	c       net.Conn
	br      *bufio.Reader
	rbuf    []byte
	timeout time.Duration // bounds each write
	wrote   func()        // runs after each write, if set
	parked  atomic.Bool   // the reader is blocked on the socket

	mu      sync.Mutex
	q       []byte // queued frames
	spare   []byte // the last write's buffer: q's next
	writing bool   // a flush is writing
	closed  bool
	wake    chan struct{} // the writer's, made at its first wake; capacity 1
}

// maxQueued bounds what a connection holds for a peer that does not read:
// past it, as past the write timeout, the peer loses its connection.
const maxQueued = 64 << 20

// NewSvcConn wraps an established connection; a write may wait dialTimeout.
func NewSvcConn(c net.Conn) *SvcConn {
	return &SvcConn{c: c, br: bufio.NewReaderSize(c, 64<<10), timeout: dialTimeout}
}

// SvcDial connects to a service listener. timeout bounds the connect and
// each write (0: dialTimeout).
func SvcDial(addr string, timeout time.Duration) (*SvcConn, error) {
	timeout = cmp.Or(max(timeout, 0), dialTimeout)
	c, err := net.DialTimeout("tcp", addr, timeout)
	if err != nil {
		return nil, err
	}
	s := NewSvcConn(c)
	s.timeout = timeout
	return s, nil
}

// WriteMsg queues v as a wire frame and flushes, unless the reader is
// blocked on the socket. from identifies the sender (servers use their
// ProcessID, clients types.NoProcess). It is safe from any goroutine.
func (s *SvcConn) WriteMsg(from types.ProcessID, v any) error {
	s.mu.Lock()
	err := enqueue(s, from, v)
	switch {
	case err == nil && !s.parked.Load():
		return s.flush()
	case err == nil:
		s.signal()
	}
	s.mu.Unlock()
	return err
}

// Post queues v as a wire frame, encoded straight into the queue (a
// registered T is not boxed), for the writer: it never writes, for it runs
// on process lanes.
func Post[T any](s *SvcConn, from types.ProcessID, v T) error {
	s.mu.Lock()
	err := enqueue(s, from, v)
	if err == nil && !s.writing {
		s.signal()
	}
	s.mu.Unlock()
	return err
}

// enqueue appends v's frame to s's queue; callers hold s.mu. It fails once
// the connection is closed.
func enqueue[T any](s *SvcConn, from types.ProcessID, v T) error {
	if s.closed {
		return net.ErrClosed
	}
	b, err := wire.AppendFrame(s.q, from, SvcProto, 0, v)
	if s.q = b; err == nil && len(b) > maxQueued {
		_ = s.abort()
		err = fmt.Errorf("tcp: %d bytes queued for a peer that does not read", len(b))
	}
	return err
}

// signal wakes the writer, started at the first wake; callers hold s.mu on
// an open connection.
func (s *SvcConn) signal() {
	if s.wake == nil {
		s.wake = make(chan struct{}, 1)
		go s.writeLoop()
	}
	select {
	case s.wake <- struct{}{}:
	default: // a wake is already pending
	}
}

func (s *SvcConn) writeLoop() {
	for range s.wake {
		s.mu.Lock()
		_ = s.flush()
	}
}

// flush writes the queue in one Write; the caller holds s.mu, and flush
// releases it. Over a write under way it writes nothing: what is queued
// meanwhile wakes the writer once that write ends. A failed write costs the
// connection.
func (s *SvcConn) flush() error {
	out := s.q
	if len(out) == 0 || s.writing { // never swap an empty queue: nothing to gain
		s.mu.Unlock()
		return nil
	}
	s.q, s.writing = s.spare, true
	s.mu.Unlock()
	_ = s.c.SetWriteDeadline(time.Now().Add(s.timeout))
	_, err := s.c.Write(out)
	if err == nil && s.wrote != nil {
		s.wrote()
	}
	s.mu.Lock()
	if s.spare, s.writing = out[:0], false; err != nil {
		_ = s.abort()
	} else if len(s.q) > 0 { // none once closed
		s.signal()
	}
	s.mu.Unlock()
	return err
}

// abort closes the socket, drops what is queued and stops the writer;
// callers hold s.mu. A write under way fails; none is waited for.
func (s *SvcConn) abort() error {
	if s.closed {
		return nil
	}
	if s.closed, s.q = true, nil; s.wake != nil {
		close(s.wake)
	}
	return s.c.Close()
}

// Next reads the next frame and returns its value's kind and body, a view of
// the connection's read buffer that stays valid until the next read. Errors
// (including corruption and deadline expiry) are terminal for the connection.
func (s *SvcConn) Next() (wire.Kind, []byte, error) {
	value, err := s.value()
	if err != nil {
		return 0, nil, err
	}
	return wire.Kind(value[0]), value[1:], nil
}

// value reads the next frame and returns its value, kind first: a view of the
// read buffer.
func (s *SvcConn) value() ([]byte, error) {
	s.parked.Store(!s.FrameBuffered())
	buf, err := wire.ReadFrameBytes(s.br, &s.rbuf)
	if s.parked.Store(false); err != nil {
		return nil, err
	}
	_, value, err := wire.FrameValue(buf)
	return value, err
}

// ReadMsg reads the next frame as Next does and returns its value, decoded by
// its registered codec into memory of its own (DecodeValue). A frame with
// bytes after its value, or a batch envelope, is an error: a service
// connection carries plain frames.
func (s *SvcConn) ReadMsg() (any, error) {
	value, err := s.value()
	if err != nil {
		return nil, err
	}
	v, rest, err := wire.DecodeValue(value)
	if err == nil && len(rest) != 0 {
		err = fmt.Errorf("tcp: %d bytes after a service frame's value", len(rest))
	}
	return v, err
}

// FrameBuffered reports, without blocking, whether the next frame is already
// wholly in the read buffer, so that ReadMsg returns it without waiting for
// the socket.
func (s *SvcConn) FrameBuffered() bool {
	n := s.br.Buffered()
	if n < 4 {
		return false
	}
	hdr, _ := s.br.Peek(4) // buffered: Peek does not read
	return uint64(n-4) >= uint64(binary.BigEndian.Uint32(hdr))
}

// SetReadDeadline bounds the next ReadMsg.
func (s *SvcConn) SetReadDeadline(t time.Time) error { return s.c.SetReadDeadline(t) }

// Close closes the socket at once, as abort does, for lanes call it: the
// writer returns once the write it cut does. Later WriteMsg and Post calls
// fail with net.ErrClosed.
func (s *SvcConn) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.abort()
}

// SvcListener accepts client-facing service connections. A write of an
// accepted connection may wait WriteTimeout (0: dialTimeout), and Wrote, if
// set, runs after each; set both before the first Accept.
type SvcListener struct {
	ln           net.Listener
	WriteTimeout time.Duration
	Wrote        func()
}

// SvcListen opens a service listener on addr ("host:port"; port 0 picks a
// free port — read it back with Addr).
func SvcListen(addr string) (*SvcListener, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	return &SvcListener{ln: ln}, nil
}

// Accept waits for the next client connection.
func (l *SvcListener) Accept() (*SvcConn, error) {
	c, err := l.ln.Accept()
	if err != nil {
		return nil, err
	}
	s := NewSvcConn(c)
	s.timeout, s.wrote = cmp.Or(l.WriteTimeout, dialTimeout), l.Wrote
	return s, nil
}

// Addr returns the bound address.
func (l *SvcListener) Addr() net.Addr { return l.ln.Addr() }

// Close stops accepting; blocked Accept calls return an error.
func (l *SvcListener) Close() error { return l.ln.Close() }
