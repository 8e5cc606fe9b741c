package svc

import (
	"cmp"
	"fmt"
	"slices"
	"time"

	"wanamcast/internal/metrics"
	"wanamcast/internal/transport/tcp"
	"wanamcast/internal/types"
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
	// sequence number, so a slow command is never executed twice.
	Timeout time.Duration
	// MaxAttempts bounds send attempts per command (default 8).
	MaxAttempts int
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
// run one goroutine per Client).
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
	cfg.MaxAttempts = cmp.Or(max(cfg.MaxAttempts, 0), 8)
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

// Seq returns the sequence number of the most recent Invoke (0 before the
// first): the handle Certify takes to name a write.
func (c *Client) Seq() uint64 { return c.seq }

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
	for attempt := 0; attempt < c.cfg.MaxAttempts; attempt++ {
		if attempt > 0 {
			c.cfg.Stats.RecordRetry()
			timeout = min(2*timeout, 16*c.cfg.Timeout)
		}
		conn, err := c.ensureConn()
		if err != nil {
			lastErr = err
			continue
		}
		// A write deadline keeps a wedged server (accepted, stopped
		// reading, full TCP buffer) from blocking Invoke past the attempt
		// budget — mirror of the server's ReplyTimeout.
		_ = conn.SetWriteDeadline(time.Now().Add(timeout))
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
		req.Session, req.Seq, c.cfg.MaxAttempts, lastErr)
}

// awaitReply reads until the matching reply, a redirect, or the deadline.
// retry=true means resend the same request (possibly elsewhere).
func (c *Client) awaitReply(conn *tcp.SvcConn, req Request, deadline time.Time) (res []byte, retry bool, err error) {
	for {
		_ = conn.SetReadDeadline(deadline)
		v, rerr := conn.ReadMsg()
		if rerr != nil {
			// Timeout or broken connection: drop it so a late reply cannot
			// leak into the next exchange, and retry under the same seq.
			c.dropConn()
			return nil, true, fmt.Errorf("svc: awaiting (session %d, seq %d): %w", req.Session, req.Seq, rerr)
		}
		switch m := v.(type) { // any other frame is ignored
		case Reply:
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
		case Redirect:
			if m.Session != req.Session || m.Seq != req.Seq {
				continue
			}
			if len(m.Addrs) > 0 {
				c.candidates, c.next = m.Addrs, 0
			}
			c.dropConn() // re-route to a redirected address
			return nil, true, fmt.Errorf("svc: redirected to %v", m.Groups)
		}
	}
}

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
	resp, err := ask(c, addr, req, func(r ReadResp) bool { return r.Session == req.Session && r.Seq == req.Seq })
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

// Certify collects a delivery certificate for this session's write seq
// against shard g: it asks every replica for a countersignature and
// returns a certificate carrying a quorum of shares that agree on the
// receipt (message ID, order, state hash). Verify it offline with
// KeyRing.VerifyCertificate. The write must still be inside the session's
// dedup window. A write returns once one replica has applied it, so a
// replica that refuses a seq this session has issued may only be behind: it
// is asked again until Timeout after the call. A seq never issued fails at
// once.
func (c *Client) Certify(g types.GroupID, seq uint64) (Certificate, error) {
	addrs := c.cfg.Addrs[g]
	if len(addrs) == 0 {
		return Certificate{}, fmt.Errorf("svc: no known servers for group %v", g)
	}
	quorum := len(addrs)/2 + 1
	deadline := time.Now().Add(c.cfg.Timeout)
	// Bucket shares by receipt: correct replicas agree, so the biggest
	// bucket is the shard's answer; a diverging or lying replica lands in
	// its own bucket and simply fails to contribute.
	buckets := make(map[string]*Certificate)
	req := CertReq{Session: c.cfg.Session, Seq: seq}
	var lastErr error
	for replicas := addrs; ; time.Sleep(2 * time.Millisecond) {
		var behind []string
		for _, addr := range replicas {
			share, err := ask(c, addr, req, func(s CertShare) bool { return s.Session == req.Session && s.Seq == req.Seq })
			if err == nil && !share.OK {
				err = fmt.Errorf("svc: certificate share at %s: %s", addr, share.Err)
				if seq <= c.seq && time.Now().Before(deadline) {
					behind = append(behind, addr)
				}
			}
			if err != nil {
				lastErr = err
				continue
			}
			key := string(receiptBytes(share.ID, share.Group, share.Order, share.Hash))
			cert := buckets[key]
			if cert == nil {
				cert = &Certificate{
					ID: share.ID, Group: share.Group, Order: share.Order,
					Hash:   append([]byte(nil), share.Hash...),
					Shares: make(map[types.ProcessID][]byte),
				}
				buckets[key] = cert
			}
			cert.Shares[share.Proc] = append([]byte(nil), share.MAC...)
			if len(cert.Shares) >= quorum {
				return *cert, nil
			}
		}
		if replicas = behind; len(replicas) == 0 {
			break
		}
	}
	return Certificate{}, fmt.Errorf("svc: no quorum of matching certificate shares for (session %d, seq %d) on group %v (last error: %v)",
		c.cfg.Session, seq, g, lastErr)
}

// ask sends req to the replica at addr on its cached connection and returns
// the first T that mine accepts — frames of an abandoned earlier request are
// skipped — dropping the connection on a transport error.
func ask[T any](c *Client, addr string, req any, mine func(T) bool) (T, error) {
	var m T
	conn, err := c.readConn(addr)
	if err != nil {
		return m, err
	}
	deadline := time.Now().Add(c.cfg.Timeout)
	_ = conn.SetWriteDeadline(deadline)
	if err := conn.WriteMsg(types.NoProcess, req); err != nil {
		c.dropReadConn(addr)
		return m, err
	}
	for {
		_ = conn.SetReadDeadline(deadline)
		v, err := conn.ReadMsg()
		if err != nil {
			c.dropReadConn(addr)
			return m, err
		}
		if m, ok := v.(T); ok && mine(m) {
			return m, nil
		}
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
