package svc

import (
	"cmp"
	"fmt"
	"slices"
	"time"

	"wanamcast/internal/metrics"
	"wanamcast/internal/transport/tcp"
	"wanamcast/internal/types"
	"wanamcast/internal/wire"
)

// ClientConfig configures one client session.
type ClientConfig struct {
	// Session is this client's unique session identifier (required,
	// non-zero, unique across concurrently live clients — the exactly-once
	// guarantee is per session).
	Session uint64
	// Addrs maps each group to the client-facing addresses of its servers.
	// It may be partial: a server contacted off-shard answers with a
	// Redirect carrying usable addresses.
	Addrs map[types.GroupID][]string
	// Timeout is the first attempt's reply deadline (default 250 ms); it
	// doubles on every retry, capped at 16× — retries resend under the SAME
	// sequence number, so a slow command is never executed twice. It bounds
	// no write: a request's write may wait the dial timeout (1 s) before it
	// costs the connection.
	Timeout time.Duration
	// Stats, when non-nil, receives client-observed latency and retry
	// counters.
	Stats *metrics.Service
}

// Consistency selects how a Client.Read is served.
type Consistency int

const (
	// ConsistencyOrdered routes the read through the ordering layer like a
	// write: linearizable, at full WAN cost.
	ConsistencyOrdered Consistency = iota
	// ConsistencyLease serves the read locally at the shard's lease
	// holder: zero WAN round trips, linearizable as long as writes route
	// through the lease holder (the client's default rank-first routing).
	ConsistencyLease
	// ConsistencyWatermark serves the read at ANY replica of the shard, at
	// that replica's delivery watermark: zero WAN round trips,
	// read-your-writes and monotonic per session (the client carries its
	// watermark into every read), not linearizable across sessions.
	ConsistencyWatermark
)

// consistencyNames are the modes' names, the flag values of cmd/wankv.
var consistencyNames = []string{"ordered", "lease", "watermark"}

// String names the consistency mode.
func (c Consistency) String() string {
	if c >= 0 && int(c) < len(consistencyNames) {
		return consistencyNames[c]
	}
	return fmt.Sprintf("Consistency(%d)", int(c))
}

// ParseConsistency parses a -consistency flag value.
func ParseConsistency(s string) (Consistency, error) {
	if i := slices.Index(consistencyNames, s); i >= 0 {
		return Consistency(i), nil
	}
	return 0, fmt.Errorf("svc: unknown consistency %q (want ordered, lease, or watermark)", s)
}

// Client is a shard-aware service client: it routes each command to a
// server of one of its destination shards, retries with the same sequence
// number on timeout, and follows redirects. One Client is one session;
// it is NOT safe for concurrent use (sessions are closed-loop by design —
// run one goroutine per Client). A request is written on the caller's
// goroutine within the dial timeout: a wedged server (stopped reading, its
// TCP buffer full) costs the connection after that long.
type Client struct {
	cfg        ClientConfig
	seq        uint64
	conn       *tcp.SvcConn
	connAddr   string
	candidates []string // current coordinator candidates, rotated on failure
	next       int

	// Read-tier state. readConns caches one connection per replica
	// address (reads fan out across replicas; the write conn stays
	// dedicated to the ordered path). wm tracks, per shard, the highest
	// watermark this session has observed — from write replies (Order)
	// and read responses — and rides into every ReadReq as the barrier
	// that makes reads read-your-writes and monotonic. groupOf inverts
	// the address book for attributing write replies to shards.
	readConns map[string]*tcp.SvcConn
	readSeq   uint64
	readNext  map[types.GroupID]int // watermark-mode rotation cursor
	wm        map[types.GroupID]uint64
	groupOf   map[string]types.GroupID
}

// NewClient builds a client.
func NewClient(cfg ClientConfig) *Client {
	if cfg.Session == 0 {
		panic("svc: ClientConfig.Session is required and must be non-zero")
	}
	cfg.Timeout = cmp.Or(max(cfg.Timeout, 0), 250*time.Millisecond)
	c := &Client{
		cfg:       cfg,
		readConns: make(map[string]*tcp.SvcConn),
		readNext:  make(map[types.GroupID]int),
		wm:        make(map[types.GroupID]uint64),
		groupOf:   make(map[string]types.GroupID),
	}
	for g, addrs := range cfg.Addrs {
		for _, a := range addrs {
			c.groupOf[a] = g
		}
	}
	return c
}

// Close drops the connections. The session's dedup state lives on at the
// servers, so a future client reusing the session id and a higher sequence
// continues it.
func (c *Client) Close() {
	c.dropConn()
	for addr, conn := range c.readConns {
		_ = conn.Close()
		delete(c.readConns, addr)
	}
}

// Watermark returns the highest delivery watermark this session has
// observed for shard g (0 before the first write or read there).
func (c *Client) Watermark(g types.GroupID) uint64 { return c.wm[g] }

// maxAttempts bounds send attempts per command: with the reply deadline
// doubling from Timeout to its 16× cap, they wait 79× Timeout in all.
const maxAttempts = 8

// Invoke executes op exactly once on the shards in dest and returns the
// coordinator shard's result. It blocks until a reply or until every
// attempt is exhausted; the returned error distinguishes application
// errors (the command executed, the machine said no) from exhaustion (the
// command may or may not have executed — a fresh Invoke with a new
// operation is still safe, but the caller should treat the outcome as
// unknown).
func (c *Client) Invoke(dest types.GroupSet, op []byte) ([]byte, error) {
	if dest.Size() == 0 {
		return nil, fmt.Errorf("svc: empty destination set")
	}
	c.seq++
	req := Request{Session: c.cfg.Session, Seq: c.seq, Dest: dest, Op: op}
	c.candidates = c.routeCandidates(dest)
	c.next = 0
	// A connection kept from an earlier command may point at a server
	// outside this command's shards; re-route up front instead of paying a
	// redirect round trip.
	if c.conn != nil && !slices.Contains(c.candidates, c.connAddr) {
		c.dropConn()
	}
	start := time.Now()
	timeout := c.cfg.Timeout
	var lastErr error
	for attempt := 0; attempt < maxAttempts; attempt++ {
		if attempt > 0 {
			c.cfg.Stats.RecordRetry()
			timeout = min(2*timeout, 16*c.cfg.Timeout)
		}
		conn, err := c.ensureConn()
		if err != nil {
			lastErr = err
			continue
		}
		if err := conn.WriteMsg(types.NoProcess, req); err != nil {
			lastErr = err
			c.dropConn()
			continue
		}
		res, retry, err := c.awaitReply(conn, req, time.Now().Add(timeout))
		if retry {
			lastErr = err
			continue
		}
		c.cfg.Stats.RecordOutcome(dest.Size(), time.Since(start), err == nil)
		return res, err
	}
	c.cfg.Stats.RecordOutcome(dest.Size(), time.Since(start), false)
	return nil, fmt.Errorf("svc: no reply for (session %d, seq %d) after %d attempts: %w",
		req.Session, req.Seq, maxAttempts, lastErr)
}

// awaitReply reads until the matching reply, a redirect, or the deadline,
// decoding only those two kinds. retry=true means resend the same request
// (possibly elsewhere).
func (c *Client) awaitReply(conn *tcp.SvcConn, req Request, deadline time.Time) (res []byte, retry bool, err error) {
	for {
		_ = conn.SetReadDeadline(deadline)
		kind, body, rerr := conn.Next()
		switch {
		case rerr != nil:
		case kind == wire.KindSvcReply:
			m, ok := view(body, decodeReply)
			if !ok {
				rerr = corruptFrame(kind)
				break
			}
			if m.Session != req.Session || m.Seq != req.Seq {
				continue // stale reply from an earlier retry round
			}
			if !m.OK {
				return nil, false, fmt.Errorf("svc: %s", m.Err)
			}
			// The coordinator's watermark after our command applied: fold
			// it into the session watermark so a follower read that
			// follows this write is parked until it sees it.
			if g, ok := c.groupOf[c.connAddr]; ok && m.Order > c.wm[g] {
				c.wm[g] = m.Order
			}
			return m.Result, false, nil
		case kind == wire.KindSvcRedirect:
			m, ok := view(body, decodeRedirect)
			if !ok {
				rerr = corruptFrame(kind)
				break
			}
			if m.Session != req.Session || m.Seq != req.Seq {
				continue
			}
			if len(m.Addrs) > 0 {
				c.candidates, c.next = m.Addrs, 0
			}
			c.dropConn() // re-route to a redirected address
			return nil, true, fmt.Errorf("svc: redirected to %v", m.Groups)
		default:
			continue // any other frame is ignored
		}
		// Timeout, broken connection or corrupt frame: drop it so a late
		// reply cannot leak into the next exchange, and retry under the
		// same seq.
		c.dropConn()
		return nil, true, fmt.Errorf("svc: awaiting (session %d, seq %d): %w", req.Session, req.Seq, rerr)
	}
}

// corruptFrame is the error of a frame of kind whose body does not decode.
func corruptFrame(kind wire.Kind) error { return fmt.Errorf("svc: corrupt frame of kind %d", kind) }

// routeCandidates orders coordinator addresses: servers of the destination
// groups first (in GroupSet order), then — when the address map knows none
// of them — every known server, trusting redirects to steer us.
func (c *Client) routeCandidates(dest types.GroupSet) []string {
	var out []string
	for _, g := range dest.Groups() {
		out = append(out, c.cfg.Addrs[g]...)
	}
	if len(out) == 0 {
		for _, addrs := range c.cfg.Addrs {
			out = append(out, addrs...)
		}
	}
	return out
}

// ensureConn returns the live connection, dialing the next candidate if
// needed.
func (c *Client) ensureConn() (*tcp.SvcConn, error) {
	if c.conn != nil {
		return c.conn, nil
	}
	if len(c.candidates) == 0 {
		return nil, fmt.Errorf("svc: no server addresses known")
	}
	addr := c.candidates[c.next%len(c.candidates)]
	c.next++
	conn, err := tcp.SvcDial(addr, 0)
	if err != nil {
		return nil, fmt.Errorf("svc: dial %s: %w", addr, err)
	}
	c.conn, c.connAddr = conn, addr
	return conn, nil
}

func (c *Client) dropConn() {
	if c.conn != nil {
		_ = c.conn.Close()
		c.conn, c.connAddr = nil, ""
	}
}

// Read executes the read-only op against shard g under the given
// consistency mode and returns the result.
//
// Lease mode tries the shard's replicas in rank order (rank 0 is the
// expected lease holder); watermark mode rotates across them. Every
// response is checked against the session's tracked watermark: a replica
// answering below it — a restarted replica still catching up, or a
// partitioned leftover — is rejected as stale and the next replica tried.
// When every replica refuses (lease lapsed mid-failover, all behind), the
// read falls back to the ordered path, which is always correct — the fast
// modes are a performance tier, never a correctness gamble. Ordered mode
// goes straight through Invoke.
//
// The latency is recorded under the REQUESTED class ("read-lease",
// "read-watermark", "read-ordered") even when the read fell back, so the
// histograms expose what each tier actually costs end to end.
func (c *Client) Read(g types.GroupID, op []byte, mode Consistency) ([]byte, error) {
	start := time.Now()
	res, err := c.read(g, op, mode)
	c.cfg.Stats.RecordClassOutcome("read-"+mode.String(), time.Since(start), err == nil)
	return res, err
}

func (c *Client) read(g types.GroupID, op []byte, mode Consistency) ([]byte, error) {
	if mode == ConsistencyOrdered {
		return c.Invoke(types.NewGroupSet(g), op)
	}
	addrs := c.cfg.Addrs[g]
	if len(addrs) == 0 {
		return nil, fmt.Errorf("svc: no known servers for group %v", g)
	}
	wireMode := readModeLease
	rotate := 0
	if mode == ConsistencyWatermark {
		wireMode = readModeWatermark
		rotate = c.readNext[g]
		c.readNext[g]++
	}
	var lastErr error
	for i := 0; i < len(addrs); i++ {
		addr := addrs[(i+rotate)%len(addrs)]
		res, err := c.readAt(addr, g, op, wireMode)
		if err == nil {
			return res, nil
		}
		lastErr = err
	}
	// Every replica refused or was unreachable: the ordered path is the
	// always-correct fallback (and the latency stays billed to the
	// requested class, where the cost belongs).
	res, err := c.Invoke(types.NewGroupSet(g), op)
	if err != nil {
		return nil, fmt.Errorf("svc: %v read of group %v fell back to ordered and failed: %w (last fast-path error: %v)",
			mode, g, err, lastErr)
	}
	return res, nil
}

// readAt performs one read attempt against one replica.
func (c *Client) readAt(addr string, g types.GroupID, op []byte, wireMode byte) ([]byte, error) {
	c.readSeq++
	req := ReadReq{Session: c.cfg.Session, Seq: c.readSeq, Group: g,
		Mode: wireMode, MinWatermark: c.wm[g], Op: op}
	resp, err := c.ask(addr, req)
	switch {
	case err != nil:
		return nil, err
	case !resp.OK:
		return nil, fmt.Errorf("svc: read at %s: %s", addr, resp.Err)
	case resp.Watermark < c.wm[g]:
		// The replica answered below what this session has already
		// seen — its barrier cannot be trusted (restarted behind, or
		// fenced leftovers). Reject rather than travel back in time.
		c.cfg.Stats.RecordStaleRead()
		return nil, fmt.Errorf("svc: stale read at %s: watermark %d below session's %d",
			addr, resp.Watermark, c.wm[g])
	}
	c.wm[g] = resp.Watermark
	return resp.Result, nil
}

// ask sends req to the replica at addr on its cached connection and returns
// its answer — answers to an abandoned earlier read are skipped, and frames of
// any other kind are not decoded — dropping the connection on a transport
// error or an answer that does not decode.
func (c *Client) ask(addr string, req ReadReq) (ReadResp, error) {
	conn, err := c.readConn(addr)
	if err != nil {
		return ReadResp{}, err
	}
	deadline := time.Now().Add(c.cfg.Timeout)
	if err := conn.WriteMsg(types.NoProcess, req); err != nil {
		c.dropReadConn(addr)
		return ReadResp{}, err
	}
	for {
		_ = conn.SetReadDeadline(deadline)
		kind, body, err := conn.Next()
		if err == nil && kind != wire.KindSvcReadResp {
			continue
		}
		if err == nil {
			resp, ok := view(body, decodeReadResp)
			if ok && resp.Session == req.Session && resp.Seq == req.Seq {
				return resp, nil
			} else if ok {
				continue // an answer to an abandoned read
			}
			err = corruptFrame(kind)
		}
		c.dropReadConn(addr)
		return ReadResp{}, err
	}
}

func (c *Client) readConn(addr string) (*tcp.SvcConn, error) {
	if conn := c.readConns[addr]; conn != nil {
		return conn, nil
	}
	conn, err := tcp.SvcDial(addr, 0)
	if err != nil {
		return nil, fmt.Errorf("svc: dial %s: %w", addr, err)
	}
	c.readConns[addr] = conn
	return conn, nil
}

func (c *Client) dropReadConn(addr string) {
	if conn := c.readConns[addr]; conn != nil {
		_ = conn.Close()
		delete(c.readConns, addr)
	}
}
