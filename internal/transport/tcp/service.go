package tcp

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"net"
	"sync"
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

// SvcProto labels service frames on the wire (wire.Frame.Proto).
const SvcProto = "svc"

// SvcConn is one client-facing connection speaking length-prefixed
// internal/wire values; reads come from one goroutine at a time. WriteMsg
// writes a value at once; Post, safe from any goroutine, queues it for
// WriteLoop, which sends all that is queued in one Write. Next reads a frame
// in place, ReadMsg decodes it into a value of its own.
type SvcConn struct {
	c  net.Conn
	br *bufio.Reader

	wmu  sync.Mutex
	wbuf []byte

	qmu    sync.Mutex
	q      []byte // frames posted since WriteLoop's last swap
	closed bool
	spare  []byte        // WriteLoop's: its last write's buffer, Post's next
	wake   chan struct{} // capacity 1; coalesced

	rbuf []byte
}

// maxQueued bounds what Post holds for a client that does not read: past
// it, as past WriteLoop's timeout, the client loses its connection.
const maxQueued = 64 << 20

// NewSvcConn wraps an established connection.
func NewSvcConn(c net.Conn) *SvcConn {
	return &SvcConn{c: c, br: bufio.NewReaderSize(c, 64<<10), wake: make(chan struct{}, 1)}
}

// SvcDial connects to a service listener (timeout 0: dialTimeout).
func SvcDial(addr string, timeout time.Duration) (*SvcConn, error) {
	if timeout <= 0 {
		timeout = dialTimeout
	}
	c, err := net.DialTimeout("tcp", addr, timeout)
	if err != nil {
		return nil, err
	}
	return NewSvcConn(c), nil
}

// WriteMsg sends one value as a wire frame. from identifies the sender
// (servers use their ProcessID, clients types.NoProcess). It is safe to
// call from any goroutine.
func (s *SvcConn) WriteMsg(from types.ProcessID, v any) error {
	s.wmu.Lock()
	defer s.wmu.Unlock()
	b, err := wire.AppendFrame(s.wbuf[:0], from, SvcProto, 0, v)
	if err != nil {
		return err
	}
	s.wbuf = b
	_, err = s.c.Write(b)
	return err
}

// Post queues v as a wire frame for s's WriteLoop, encoded straight into the
// queue (a registered T is not boxed); it never touches the socket. It fails
// once the connection is closed.
func Post[T any](s *SvcConn, from types.ProcessID, v T) error {
	s.qmu.Lock()
	if s.closed {
		s.qmu.Unlock()
		return net.ErrClosed
	}
	b, err := wire.AppendFrame(s.q, from, SvcProto, 0, v)
	s.q = b
	s.qmu.Unlock()
	if err == nil && len(b) > maxQueued {
		_ = s.Close()
		err = fmt.Errorf("tcp: %d bytes queued for a client that does not read", len(b))
	}
	s.signal()
	return err
}

func (s *SvcConn) signal() {
	select {
	case s.wake <- struct{}{}:
	default: // a wake is already pending
	}
}

// WriteLoop sends what Post queues until the connection closes, each wake's
// worth in one Write under a deadline timeout away; wrote runs after each
// write. A failed write closes the connection.
func (s *SvcConn) WriteLoop(timeout time.Duration, wrote func()) {
	for range s.wake {
		s.qmu.Lock()
		out, closed := s.q, s.closed
		if len(out) > 0 {
			// Never on an empty queue: a wake that raced the last swap
			// would hand Post the buffer the next write is taken from.
			s.q = s.spare
		}
		s.qmu.Unlock()
		if closed {
			return
		}
		if len(out) == 0 {
			continue
		}
		_ = s.c.SetWriteDeadline(time.Now().Add(timeout))
		if _, err := s.c.Write(out); err != nil {
			_ = s.Close()
			return
		}
		s.spare = out[:0]
		wrote()
	}
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
	buf, err := wire.ReadFrameBytes(s.br, &s.rbuf)
	if err != nil {
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

// SetWriteDeadline bounds subsequent WriteMsg calls.
func (s *SvcConn) SetWriteDeadline(t time.Time) error { return s.c.SetWriteDeadline(t) }

// Close closes the socket and stops WriteLoop; later Posts fail.
func (s *SvcConn) Close() error {
	s.qmu.Lock()
	s.closed, s.q = true, nil
	s.qmu.Unlock()
	s.signal()
	return s.c.Close()
}

// SvcListener accepts client-facing service connections.
type SvcListener struct {
	ln net.Listener
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
	return NewSvcConn(c), nil
}

// Addr returns the bound address.
func (l *SvcListener) Addr() net.Addr { return l.ln.Addr() }

// Close stops accepting; blocked Accept calls return an error.
func (l *SvcListener) Close() error { return l.ln.Close() }
