package tcp

import (
	"bufio"
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
// internal/wire values. Reads and writes are independently safe for
// concurrent use: writes serialise on an internal lock (replies may be
// issued from a different goroutine than the reader), reads must come from
// a single goroutine at a time.
type SvcConn struct {
	c  net.Conn
	br *bufio.Reader

	wmu  sync.Mutex
	wbuf []byte

	rbuf []byte
}

// NewSvcConn wraps an established connection.
func NewSvcConn(c net.Conn) *SvcConn {
	return &SvcConn{c: c, br: bufio.NewReaderSize(c, 64<<10)}
}

// SvcDial connects to a service listener.
func SvcDial(addr string, timeout time.Duration) (*SvcConn, error) {
	if timeout <= 0 {
		timeout = time.Second
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

// ReadMsg reads the next frame and returns its body. Errors (including
// corruption and deadline expiry) are terminal for the connection.
func (s *SvcConn) ReadMsg() (any, error) {
	f, err := wire.ReadFrame(s.br, &s.rbuf)
	if err != nil {
		return nil, err
	}
	return f.Body, nil
}

// SetReadDeadline bounds the next ReadMsg.
func (s *SvcConn) SetReadDeadline(t time.Time) error { return s.c.SetReadDeadline(t) }

// SetWriteDeadline bounds subsequent WriteMsg calls.
func (s *SvcConn) SetWriteDeadline(t time.Time) error { return s.c.SetWriteDeadline(t) }

// Close closes the underlying socket.
func (s *SvcConn) Close() error { return s.c.Close() }

// RemoteAddr returns the peer address (diagnostics).
func (s *SvcConn) RemoteAddr() net.Addr { return s.c.RemoteAddr() }

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
