// Package svc is the client-facing replicated service layer: it turns the
// live cluster's genuine atomic multicast (Algorithm A1) into an
// exactly-once replicated state machine that real clients call over TCP.
//
// # Architecture
//
// Every replica process of the ordering cluster also runs a Server: a
// client-facing listener speaking a request/reply protocol framed with
// internal/wire (Kinds Request, Reply, Redirect). A client names the exact
// set of shards its operation touches; the contacted server — which must
// belong to one of them — wraps the operation in a Command tagged with the
// client's (session, sequence) identity and genuinely multicasts it to
// exactly those shards via A1. Uninvolved shards never see the command
// (genuineness, the paper's §1 motivation). When the command A-Delivers
// locally, the server applies it to its StateMachine and answers the
// client; every other destination replica applies it in the same total
// order, so replicas of a shard stay identical and cross-shard commands
// serialize consistently everywhere.
//
// A request costs its connection no wait on the ordering layer: the
// multicast is posted to the replica's event loop (Cluster.Submit), and the
// reader goes on to the next request. A cast carries one read burst's
// commands for one destination set: while the next frame is already wholly
// buffered the reader keeps reading, and then casts once per destination
// set, in arrival order (and before it serves a read, so a connection's
// write still precedes its later read). It never waits for more input.
// Answers are posted too, to one writer per connection, which sends each
// burst of them in one write; no event loop ever touches a socket.
//
// # Sessions and exactly-once execution
//
// Each client owns a session (a unique uint64) and numbers its commands
// with a per-session sequence, one outstanding command at a time. A retry
// after a timeout reuses the same sequence number. Every replica keeps a
// dedup table per session: a sliding window of applied sequence numbers
// with their cached results. The table needs no replication protocol of
// its own — it is a deterministic function of the A-Delivery order, so all
// replicas of a shard agree on it. A retried command therefore mutates the
// state machine exactly once, no matter how many times the client resent
// it or how many duplicate Commands reached the ordering layer; later
// copies hit the table and are answered from the cached result.
//
// The table is a window rather than a high-water mark on purpose: two
// commands of one session that touch different shard sets may be
// delivered at a shard they share in the opposite of issue order (atomic
// multicast fixes a pairwise-consistent total order, not real-time
// order), and a mark-only table would mistake the earlier command for a
// duplicate and drop its writes. Window entries older than sessionWindow
// below the session's maximum are pruned; a request that far behind is
// answered "expired" — a correct closed-loop client can never send one.
//
// Total dedup memory is bounded on both axes: at most sessionWindow
// cached results per session (a ring that grows by doubling, so a session
// of one command holds two slots), and at most ServerConfig.MaxSessions
// sessions per replica, evicted least-recently-delivered-to first, in
// O(1). Eviction keys off the delivery order only, so replicas of a shard
// evict in lockstep and their tables stay identical.
//
// # Redirects
//
// A server contacted with a destination set that excludes its own group
// does not proxy: it answers Redirect carrying the addresses of servers
// that can coordinate (members of the destination groups). The shard-aware
// Client routes by key → group up front, so redirects only happen when its
// address map is stale or incomplete; it follows the redirect and resends
// under the same sequence number.
//
// Reply results are replica-local: for a cross-shard command the client
// receives the coordinator shard's result (each shard applies only its
// part of the operation).
package svc

import (
	"bytes"
	"cmp"
	"container/list"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"wanamcast/internal/fd"
	"wanamcast/internal/metrics"
	"wanamcast/internal/trace"
	"wanamcast/internal/transport/tcp"
	"wanamcast/internal/types"
	"wanamcast/internal/wire"
)

// StateMachine is one replica's application state. Apply is invoked in
// A-Delivery order, sequentially, for every command addressed to the
// replica's shard; it returns the replica-local result. op is shared with
// the ordering layer: read it, never write it. Snapshot
// serialises the state deterministically (replica-equality checks, crash
// recovery, state transfer); Restore replaces the state with a previously
// Snapshot-ted one — it runs during crash recovery, before any Apply of
// the new incarnation. Implementations need no internal locking for Apply
// (the Server serialises calls) but Snapshot may race with Apply and must
// synchronise if the machine is read concurrently.
type StateMachine interface {
	Apply(op []byte) ([]byte, error)
	Snapshot() ([]byte, error)
	Restore(snapshot []byte) error
}

// QueryMachine is the optional read-only surface of a StateMachine. Query
// evaluates a read-only operation against the current state WITHOUT going
// through the ordering layer — the read tier (lease and watermark reads)
// requires it. Unlike Apply, Query may run concurrently with Apply and
// with other Queries; implementations must synchronise internally.
type QueryMachine interface {
	Query(op []byte) ([]byte, error)
}

// ServerConfig configures one replica's client-facing server.
type ServerConfig struct {
	// Self and Group identify the replica within the ordering cluster.
	Self  types.ProcessID
	Group types.GroupID
	// Groups is |Γ|, the number of shards (required). Requests naming a
	// destination group outside [0, Groups) are refused: the ordering
	// layer's topology lookups panic on unknown groups, and a malformed
	// client request must cost an error reply, never the replica.
	Groups int
	// Addr is the client-facing listen address (e.g. "127.0.0.1:0").
	Addr string
	// Machine is the replica's state machine (required).
	Machine StateMachine
	// Submit hands a cast's payload, one or more encoded commands, to the
	// ordering layer without waiting (required): genuinely multicast it to
	// dest, then call done on the replica's event loop, before any delivery
	// of it there, with its MessageID — the zero ID if the cast was refused.
	Submit func(payload []byte, dest types.GroupSet, done func(types.MessageID))
	// GroupAddrs resolves a group to its servers' client-facing addresses,
	// for Redirect replies. Nil disables redirect address hints.
	GroupAddrs func(g types.GroupID) []string
	// Stats, when non-nil, receives service-level counters.
	Stats *metrics.Service
	// Tracer, when non-nil and enabled, records the client-facing spans of
	// the message lifecycle: StageSubmit when a request arrives,
	// StageEnqueue when it is handed to the ordering layer, StageReply
	// (with the server-side end-to-end latency) when the delivery answers
	// the client.
	Tracer *trace.Tracer
	// ReplyTimeout bounds each write to a client (default 5s); a client too
	// slow to take its replies loses the connection, not the command. No
	// program sets it: it is the seam TestSlowClientLosesOnlyItsConnection
	// and TestClosingAStalledClientStallsNoDelivery shorten.
	ReplyTimeout time.Duration
	// MaxSessions bounds the replicated dedup table (default 65536
	// sessions): beyond it the least-recently-delivered-to session is
	// evicted. Eviction is driven purely by A-Delivery order, so replicas
	// of a shard evict identically and their tables never diverge. A
	// client idle long enough to be evicted loses exactly-once for its
	// in-flight command and must open a fresh session. No program sets it:
	// it is the seam TestSessionEviction and TestSessionEvictionOrderPinned
	// shrink.
	MaxSessions int
	// Lease, when non-nil, is this replica's leader lease (the transport's
	// per-process lease object). Lease-mode reads are served only while it
	// is valid — checked before AND after the query, so a lease that
	// lapses mid-read can never leak a stale result. Nil refuses lease
	// reads outright.
	Lease *fd.Lease
}

// readTimeout bounds how long a read parks waiting for the replica's
// watermark to reach the client's MinWatermark. A read that far behind
// answers an error and lets the client retry elsewhere.
const readTimeout = 2 * time.Second

// sessionWindow bounds the per-session dedup window: how many recent
// (sequence → result) entries each replica retains. A closed-loop client
// has at most two sequence numbers live at once (the outstanding command
// and, under shard-order inversion, its predecessor), so 128 is deep
// margin; anything older answers "expired" rather than re-executing.
const sessionWindow = 128

// appliedCmd is one executed command's cached outcome and its shard-local
// delivery order, the server's tick at first apply. The order is Reply.Order,
// the watermark a session carries into its reads for read-your-writes; like
// the outcome, it is a deterministic function of the A-Delivery sequence, so
// every replica of the shard caches the same one.
type appliedCmd struct {
	result []byte
	err    string
	order  uint64
}

// session is one client session's replicated dedup state. It is identical
// on every replica of a shard because it advances only on A-Delivery. It is a
// window of applied sequences, not a high-water mark: see the package doc.
type session struct {
	id     uint64
	maxSeq uint64
	// applied is the window, a ring of slots indexed by seq % len(applied).
	// It starts at two slots and doubles, up to sessionWindow, rather than
	// overwrite a slot whose command is still inside the window; read it
	// through get.
	applied []slot
	// touched is the server's delivery tick of the session's most recent
	// command — NEVER a request-path timestamp: eviction order must be a
	// deterministic function of the A-Delivery sequence alone, or replicas
	// of a shard would evict different sessions and their dedup tables
	// (replicated state!) would diverge. order is the session's place in
	// Server.byTouch, which is sorted by touched.
	touched uint64
	order   *list.Element
}

// slot is one entry of a session's ring: seq's cached outcome, when set.
type slot struct {
	seq uint64
	set bool
	appliedCmd
}

// get returns seq's cached outcome if seq is inside the window.
func (ss *session) get(seq uint64) (appliedCmd, bool) {
	sl := &ss.applied[seq%uint64(len(ss.applied))]
	return sl.appliedCmd, sl.set && sl.seq == seq && seq+sessionWindow > ss.maxSeq
}

// put records the outcome of seq, a command inside the window and not in the
// ring yet; maxSeq already counts it.
func (ss *session) put(seq uint64, ac appliedCmd) {
	for {
		// At sessionWindow slots no two commands inside the window share one.
		n := uint64(len(ss.applied))
		if sl := &ss.applied[seq%n]; !sl.set || sl.seq+sessionWindow <= ss.maxSeq || n == sessionWindow {
			*sl = slot{seq: seq, set: true, appliedCmd: ac}
			return
		}
		ring := make([]slot, 2*n)
		for _, sl := range ss.applied {
			if sl.set && sl.seq+sessionWindow > ss.maxSeq {
				ring[sl.seq%uint64(len(ring))] = sl
			}
		}
		ss.applied = ring
	}
}

// pendingReq is a locally submitted command awaiting A-Delivery, so the
// submitting server can answer its client.
type pendingReq struct {
	session uint64
	seq     uint64
	at      time.Time // arrival, stamped only while tracing (zero = untimed)
}

// pendingCast is one cast's requests, all from one connection, in the order
// of its commands. The first is held inline: a lone command parks without a
// slice.
type pendingCast struct {
	conn  *tcp.SvcConn
	first pendingReq
	more  []pendingReq
}

// req returns the cast's i-th request.
func (pc *pendingCast) req(i int) pendingReq {
	if i == 0 {
		return pc.first
	}
	return pc.more[i-1]
}

// maxCastBytes bounds a cast's payload: a burst's commands for one
// destination set are cast once they reach it.
const maxCastBytes = 16 << 10

// burst is what a connection's reader has taken from its buffer and not yet
// cast: per destination set, in order of first arrival, a payload and its
// requests.
type burst struct {
	conn  *tcp.SvcConn
	casts []outCast
}

// outCast is one destination set's share of a burst.
type outCast struct {
	dest    types.GroupSet
	payload []byte
	reqs    pendingCast
}

// add appends req's command to the cast for its destination set and reports
// whether that cast is full.
func (b *burst) add(req Request, at time.Time) bool {
	i := 0
	for i < len(b.casts) && !b.casts[i].dest.Equal(req.Dest) {
		i++
	}
	pr := pendingReq{session: req.Session, seq: req.Seq, at: at}
	if i == len(b.casts) {
		payload := append(make([]byte, 0, 32+len(req.Op)), byte(wire.KindSvcCommand))
		b.casts = append(b.casts, outCast{dest: req.Dest, payload: payload, reqs: pendingCast{conn: b.conn, first: pr}})
	} else {
		b.casts[i].reqs.more = append(b.casts[i].reqs.more, pr)
	}
	c := &b.casts[i]
	c.payload = appendCommand(c.payload, Command{Session: req.Session, Seq: req.Seq, Op: req.Op})
	return len(c.payload) >= maxCastBytes
}

// readWaiter is one parked read: the replica's watermark has not yet
// reached the client's MinWatermark, so the read waits (bounded by
// readTimeout) for the deliveries to catch up instead of failing. It holds a
// copy of the request's op. done flips (under Server.mu) when exactly one of
// Deliver or the timeout claims the waiter.
type readWaiter struct {
	conn  *tcp.SvcConn
	req   ReadReq
	timer *time.Timer
	done  bool
}

// Server serves one replica's clients. Create with NewServer, attach it as
// its process's replica (Cluster.SetReplica), then Listen and Serve.
type Server struct {
	cfg ServerConfig
	ln  *tcp.SvcListener

	// wm mirrors tick for lock-free reads: the replica's delivery
	// watermark, the highest contiguous prefix of the shard's A-Delivery
	// order this replica has applied.
	wm atomic.Uint64

	mu       sync.Mutex
	sessions map[uint64]*session
	byTouch  list.List // the sessions, least recently touched first
	tick     uint64    // delivery counter driving deterministic session LRU
	answers  []Reply   // Deliver's scratch: the replies it posts once s.mu is free
	pending  map[types.MessageID]pendingCast
	waiters  []*readWaiter
	conns    map[*tcp.SvcConn]bool
	closed   bool

	wg sync.WaitGroup
}

// NewServer builds (but does not start) a server.
func NewServer(cfg ServerConfig) *Server {
	if cfg.Machine == nil || cfg.Submit == nil {
		panic("svc: ServerConfig.Machine and Submit are required")
	}
	if cfg.Groups < 1 {
		panic("svc: ServerConfig.Groups is required")
	}
	cfg.ReplyTimeout = cmp.Or(max(cfg.ReplyTimeout, 0), 5*time.Second)
	cfg.MaxSessions = cmp.Or(max(cfg.MaxSessions, 0), 65536)
	return &Server{
		cfg:      cfg,
		sessions: make(map[uint64]*session),
		pending:  make(map[types.MessageID]pendingCast),
		conns:    make(map[*tcp.SvcConn]bool),
	}
}

// Listen binds the client-facing listener without accepting yet; Addr is
// valid afterwards. ServeCluster uses the split phases to finish the
// redirect address book before any client can possibly connect.
func (s *Server) Listen() error {
	ln, err := tcp.SvcListen(s.cfg.Addr)
	if err != nil {
		return fmt.Errorf("svc: listen %s: %w", s.cfg.Addr, err)
	}
	ln.WriteTimeout, ln.Wrote = s.cfg.ReplyTimeout, s.cfg.Stats.RecordReplyWrite
	s.ln = ln
	return nil
}

// Serve starts accepting client connections. Call after Listen.
func (s *Server) Serve() {
	s.wg.Add(1)
	go s.acceptLoop()
}

// Addr returns the bound client-facing address (valid after Listen).
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Stop closes the listener and every client connection and waits for the
// connection goroutines to drain. Idempotent.
func (s *Server) Stop() {
	s.mu.Lock()
	if !s.closed && s.ln != nil {
		_ = s.ln.Close()
	}
	s.closed = true
	for c := range s.conns {
		_ = c.Close() // serveConn deletes it once s.mu is free
	}
	s.mu.Unlock()
	s.wg.Wait()
}

func (s *Server) acceptLoop() {
	defer s.wg.Done()
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			return // listener closed
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			_ = conn.Close()
			return
		}
		s.conns[conn] = true
		s.mu.Unlock()
		s.wg.Add(1)
		go s.serveConn(conn)
	}
}

// serveConn reads conn's requests until it ends. Writes are cast per burst:
// what was read while the next frame was already wholly buffered is cast
// once that is no longer so, or before a read is served, or once a cast is
// full, or when the connection ends.
func (s *Server) serveConn(conn *tcp.SvcConn) {
	defer s.wg.Done()
	b := &burst{conn: conn}
	defer func() {
		s.submit(b)
		_ = conn.Close()
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
	}()
	for {
		kind, body, err := conn.Next()
		if err != nil || !s.serve(b, kind, body) {
			return // client hung up or sent garbage
		}
		if !conn.FrameBuffered() {
			s.submit(b)
		}
	}
}

// serve handles one frame of b's connection, read in place: body is valid
// until the next read. It reports false for a frame that is no request, a
// protocol violation that costs the connection.
func (s *Server) serve(b *burst, kind wire.Kind, body []byte) bool {
	switch kind {
	case wire.KindSvcRequest:
		if req, ok := view(body, readRequest); ok {
			s.handle(b, req)
			return true
		}
	case wire.KindSvcReadReq:
		if req, ok := view(body, readReadReq); ok {
			s.submit(b)
			s.handleRead(b.conn, req)
			return true
		}
	}
	return false
}

// Watermark returns the replica's delivery watermark: how many commands
// of its shard's A-Delivery sequence it has applied. Reads serve at this
// watermark; a client comparing watermarks across replicas sees which one
// is ahead.
func (s *Server) Watermark() uint64 { return s.wm.Load() }

// handleRead serves one read-tier request on the connection's goroutine.
// Reads never touch the ordering layer: a lease read costs a local
// lease-validity check plus the query, a watermark read just the query —
// zero WAN round trips either way. If the replica's watermark has not
// reached the client's MinWatermark, the read parks until a delivery
// catches it up (bounded by readTimeout); that barrier is what makes
// follower reads read-your-writes and monotonic per session.
func (s *Server) handleRead(conn *tcp.SvcConn, req ReadReq) {
	s.cfg.Stats.RecordRequest()
	fail := func(err string) {
		post(s, conn, ReadResp{Session: req.Session, Seq: req.Seq, Err: err})
	}
	if req.Group != s.cfg.Group {
		fail(fmt.Sprintf("read for group %v at a member of group %v", req.Group, s.cfg.Group))
		return
	}
	if _, ok := s.cfg.Machine.(QueryMachine); !ok {
		fail("state machine does not support local reads")
		return
	}
	switch req.Mode {
	case readModeLease:
		if s.cfg.Lease == nil || !s.cfg.Lease.Valid() {
			s.cfg.Stats.RecordLeaseDenied()
			fail("no lease")
			return
		}
	case readModeWatermark:
		// any replica serves
	default:
		fail(fmt.Sprintf("unknown read mode %d", req.Mode))
		return
	}
	if s.wm.Load() >= req.MinWatermark {
		s.finishRead(conn, req)
		return
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	// Re-check under the lock: a delivery between the fast check and the
	// park would otherwise strand the waiter until the timeout.
	if s.wm.Load() >= req.MinWatermark {
		s.mu.Unlock()
		s.finishRead(conn, req)
		return
	}
	req.Op = bytes.Clone(req.Op) // the waiter outlives the frame
	w := &readWaiter{conn: conn, req: req}
	w.timer = time.AfterFunc(readTimeout, func() { s.expireRead(w) })
	s.waiters = append(s.waiters, w)
	s.mu.Unlock()
}

// finishRead runs the query and answers the read. The published watermark
// is read BEFORE the query — the result reflects at least that much of
// the delivery sequence, possibly more, so the client's tracked watermark
// stays a sound lower bound. Lease validity is re-checked AFTER the
// query: a lease that lapsed mid-read (suspicion, partition fencing)
// conservatively turns the answer into a refusal rather than risk serving
// a value a new holder may already have superseded.
func (s *Server) finishRead(conn *tcp.SvcConn, req ReadReq) {
	resp := ReadResp{Session: req.Session, Seq: req.Seq, Watermark: s.wm.Load()}
	res, err := s.cfg.Machine.(QueryMachine).Query(req.Op)
	if req.Mode == readModeLease && (s.cfg.Lease == nil || !s.cfg.Lease.Valid()) {
		s.cfg.Stats.RecordLeaseDenied()
		resp.Err = "no lease"
		post(s, conn, resp)
		return
	}
	if err != nil {
		resp.Err = err.Error()
	} else {
		resp.OK = true
		resp.Result = res
		s.cfg.Stats.RecordReply()
	}
	post(s, conn, resp)
}

// expireRead fails a parked read whose watermark barrier never cleared.
func (s *Server) expireRead(w *readWaiter) {
	s.mu.Lock()
	if w.done {
		s.mu.Unlock()
		return
	}
	w.done = true
	for i, q := range s.waiters {
		if q == w {
			s.waiters = append(s.waiters[:i], s.waiters[i+1:]...)
			break
		}
	}
	wm := s.wm.Load()
	s.mu.Unlock()
	post(s, w.conn, ReadResp{Session: w.req.Session, Seq: w.req.Seq, Watermark: wm,
		Err: fmt.Sprintf("replica at watermark %d, behind requested %d", wm, w.req.MinWatermark)})
}

// handle processes one request on the connection's goroutine: it answers
// what it can at once and adds the rest to b, the connection's burst. It
// never waits for the ordering layer.
func (s *Server) handle(b *burst, req Request) {
	conn := b.conn
	s.cfg.Stats.RecordRequest()
	var start time.Time
	if s.cfg.Tracer.Enabled() {
		start = time.Now()
		s.cfg.Tracer.Record(int(s.cfg.Self), trace.StageSubmit, types.MessageID{}, s.cfg.Self, 0)
	}
	if req.Dest.Size() == 0 {
		s.reply(conn, Reply{Session: req.Session, Seq: req.Seq, Err: "empty destination set"})
		return
	}
	for _, g := range req.Dest.Groups() {
		if g < 0 || int(g) >= s.cfg.Groups {
			s.reply(conn, Reply{Session: req.Session, Seq: req.Seq,
				Err: fmt.Sprintf("destination group %v outside topology (%d shards)", g, s.cfg.Groups)})
			return
		}
	}
	if !req.Dest.Contains(s.cfg.Group) {
		s.cfg.Stats.RecordRedirect()
		var addrs []string
		if s.cfg.GroupAddrs != nil {
			for _, g := range req.Dest.Groups() {
				addrs = append(addrs, s.cfg.GroupAddrs(g)...)
			}
		}
		post(s, conn, Redirect{Session: req.Session, Seq: req.Seq, Groups: req.Dest, Addrs: addrs})
		return
	}

	// Fast path: the command already committed (a retry arriving after the
	// original's delivery). Answer from the replicated dedup table without
	// re-submitting.
	s.mu.Lock()
	if r, done := s.cachedReply(req, true); done {
		s.mu.Unlock()
		s.reply(conn, r)
		return
	}
	s.mu.Unlock()

	if b.add(req, start) {
		s.submit(b)
	}
}

// submit casts b's payloads, in order, and empties b.
func (s *Server) submit(b *burst) {
	for i, c := range b.casts {
		b.casts[i] = outCast{} // the payload is the ordering layer's now
		s.cfg.Stats.RecordCast()
		reqs := c.reqs // the callback holds the requests alone, by value: no c on the heap
		s.cfg.Submit(c.payload, c.dest, func(id types.MessageID) { s.submitted(id, reqs) })
	}
	b.casts = b.casts[:0]
}

// submitted runs on the replica's event loop right after pc's commands were
// cast as id, before any delivery of id here: it parks pc on id.
func (s *Server) submitted(id types.MessageID, pc pendingCast) {
	for i := 0; i <= len(pc.more); i++ {
		if at := pc.req(i).at; !at.IsZero() {
			s.cfg.Tracer.Record(int(s.cfg.Self), trace.StageEnqueue, id, s.cfg.Self, time.Since(at).Nanoseconds())
		}
	}
	if id.IsZero() {
		// The ordering layer refused the submission (the replica's process
		// is crashed and not yet restarted). No reply: the client times
		// out and retries against a live replica under the same sequence.
		return
	}
	s.mu.Lock()
	s.pending[id] = pc
	s.mu.Unlock()
}

// cachedReply answers req from the session window if its sequence number
// has already been applied (or has aged out of the window entirely).
// recordDup controls whether a hit counts toward the duplicates metric —
// true for genuine client resends, false for the answer once the command
// is delivered (apply counts a delivered duplicate). Callers hold s.mu.
func (s *Server) cachedReply(req Request, recordDup bool) (Reply, bool) {
	sess := s.sessions[req.Session]
	if sess == nil {
		return Reply{}, false
	}
	if ac, done := sess.get(req.Seq); done {
		if recordDup {
			s.cfg.Stats.RecordDuplicate()
		}
		r := Reply{Session: req.Session, Seq: req.Seq, OK: ac.err == "", Err: ac.err}
		if r.OK {
			r.Result, r.Order = ac.result, ac.order
		}
		return r, true
	}
	if req.Seq+sessionWindow <= sess.maxSeq {
		// Too old to still hold a result — and too old to be a live retry
		// from a correct closed-loop client. Refuse rather than re-execute.
		return Reply{Session: req.Session, Seq: req.Seq,
			Err: fmt.Sprintf("sequence %d expired (session window past %d)", req.Seq, sess.maxSeq)}, true
	}
	return Reply{}, false
}

// Deliver feeds one local A-Delivery into the server; the cluster calls it
// for the process the server is attached to. A payload that does not parse
// whole as a cast's Commands (commands) applies nothing, so the service coexists
// with other traffic on the same cluster, and a malformed cast applies none
// of its commands — identically at every replica, which all deliver the same
// bytes. Deliver runs on the replica's event loop: calls are sequential and
// in delivery order, which is exactly the state machine's contract.
func (s *Server) Deliver(id types.MessageID, payload []byte) {
	cmds, ok := commands(payload)
	if !ok {
		return
	}
	s.mu.Lock()
	if s.closed {
		// A stopped server must go fully inert: it stays attached to its
		// process until a new replica replaces it, and a ghost apply would
		// double-execute commands against a dead machine and skew the
		// shared metrics.
		s.mu.Unlock()
		return
	}
	for len(cmds) > 0 {
		var cmd Command
		cmd, cmds, _ = readCommand(cmds)
		s.apply(cmd)
	}
	// Published only now that the cast's commands have applied: a read that
	// finds the watermark at t must find command t in the machine.
	s.wm.Store(s.tick)
	pc, waiting := s.pending[id]
	s.answers = s.answers[:0]
	if waiting {
		delete(s.pending, id)
		for i := 0; i <= len(pc.more); i++ {
			pr := pc.req(i)
			r, _ := s.cachedReply(Request{Session: pr.session, Seq: pr.seq}, false)
			s.answers = append(s.answers, r)
		}
	}
	// Claim every parked read whose watermark barrier this delivery
	// cleared; the queries run off-loop so a read can never stall the
	// delivery sequence.
	var ready []*readWaiter
	kept := s.waiters[:0]
	for _, w := range s.waiters {
		if !w.done && w.req.MinWatermark <= s.tick {
			w.done = true
			w.timer.Stop()
			ready = append(ready, w)
		} else {
			kept = append(kept, w)
		}
	}
	s.waiters = kept
	s.mu.Unlock()
	for _, w := range ready {
		// Not wg-tracked: Deliver can legitimately race Stop, where a wg.Add
		// against the final wg.Wait would be misuse.
		go s.finishRead(w.conn, w.req)
	}
	for i, r := range s.answers {
		if at := pc.req(i).at; !at.IsZero() {
			// Server-side end-to-end: client submit → reply handed off.
			s.cfg.Tracer.Record(int(s.cfg.Self), trace.StageReply, id, s.cfg.Self, time.Since(at).Nanoseconds())
		}
		// A post: a slow client never stalls the replica's deliveries.
		s.reply(pc.conn, r)
	}
}

// apply takes one delivered command through the replicated state: the
// delivery tick, the session window and the machine. Callers hold s.mu.
func (s *Server) apply(cmd Command) {
	s.tick++
	sess := s.sessions[cmd.Session]
	if sess == nil {
		// The newcomer joins the touch order at its newest end, so it can
		// never be its own victim.
		sess = &session{id: cmd.Session, applied: make([]slot, 2)}
		sess.order = s.byTouch.PushBack(sess)
		s.sessions[cmd.Session] = sess
		if len(s.sessions) > s.cfg.MaxSessions {
			s.evictOldestSession()
		}
	}
	s.byTouch.MoveToBack(sess.order)
	sess.touched = s.tick
	if _, done := sess.get(cmd.Seq); done || cmd.Seq+sessionWindow <= sess.maxSeq {
		// A duplicate Command ordered by a client retry (or one that fell
		// out of the window): suppressed here, at every replica, by the
		// replicated dedup table.
		s.cfg.Stats.RecordDuplicate()
		return
	}
	// First delivery of this (session, seq): the one and only state
	// mutation, identical at every replica of every destination shard. Its
	// order is recorded here and only here, so a duplicate is answered with
	// the original's.
	res, err := s.cfg.Machine.Apply(cmd.Op)
	ac := appliedCmd{result: res, order: s.tick}
	if err != nil {
		ac.err = err.Error()
	}
	sess.maxSeq = max(sess.maxSeq, cmd.Seq)
	sess.put(cmd.Seq, ac)
}

// evictOldestSession drops the session with the oldest delivery tick, the
// front of the touch order. Callers hold s.mu. Because ticks advance only on
// A-Delivery, every replica of the shard evicts the same session at the same
// point in the command sequence, keeping the replicated dedup tables
// identical.
func (s *Server) evictOldestSession() {
	delete(s.sessions, s.byTouch.Remove(s.byTouch.Front()).(*session).id)
}

// reply posts r to conn's writer.
func (s *Server) reply(conn *tcp.SvcConn, r Reply) {
	if r.OK {
		s.cfg.Stats.RecordReply()
	}
	post(s, conn, r)
}

// post queues v, encoded straight into conn's write queue, for its writer. A
// connection that cannot take it (closed, too far behind) is closed: the
// client retries elsewhere under the same sequence.
func post[T any](s *Server, conn *tcp.SvcConn, v T) {
	if err := tcp.Post(conn, s.cfg.Self, v); err != nil {
		_ = conn.Close()
	}
}
