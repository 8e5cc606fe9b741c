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
// cached results per session, and at most ServerConfig.MaxSessions
// sessions per replica, evicted least-recently-delivered-to first.
// Eviction keys off the delivery order only, so replicas of a shard evict
// in lockstep and their tables stay identical.
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
	"crypto/sha256"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"wanamcast/internal/fd"
	"wanamcast/internal/metrics"
	"wanamcast/internal/trace"
	"wanamcast/internal/transport/tcp"
	"wanamcast/internal/types"
)

// StateMachine is one replica's application state. Apply is invoked in
// A-Delivery order, sequentially, for every command addressed to the
// replica's shard; it returns the replica-local result. Snapshot
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
	// Submit hands a command to the ordering layer: genuinely multicast it
	// to dest and return its MessageID (required). It must be safe to call
	// from connection goroutines and must not be called on the cluster's
	// event loop (the Server never does).
	Submit func(cmd Command, dest types.GroupSet) types.MessageID
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
	// ReplyTimeout bounds each reply write (default 5s); a client too slow
	// to take its reply loses the connection, not the command.
	ReplyTimeout time.Duration
	// MaxSessions bounds the replicated dedup table (default 65536
	// sessions): beyond it the least-recently-delivered-to session is
	// evicted. Eviction is driven purely by A-Delivery order, so replicas
	// of a shard evict identically and their tables never diverge. A
	// client idle long enough to be evicted loses exactly-once for its
	// in-flight command and must open a fresh session.
	MaxSessions int
	// Lease, when non-nil, is this replica's leader lease (the transport's
	// per-process lease object). Lease-mode reads are served only while it
	// is valid — checked before AND after the query, so a lease that
	// lapses mid-read can never leak a stale result. Nil refuses lease
	// reads outright.
	Lease *fd.Lease
	// Ring, when non-nil, enables delivery certificates: the server
	// answers CertReq with an HMAC countersignature under its own derived
	// key. Nil refuses certificate requests.
	Ring *KeyRing
	// ReadTimeout bounds how long a read parks waiting for the replica's
	// watermark to reach the client's MinWatermark (default 2s). A read
	// that far behind answers an error and lets the client retry
	// elsewhere.
	ReadTimeout time.Duration
}

// sessionWindow bounds the per-session dedup window: how many recent
// (sequence → result) entries each replica retains. A closed-loop client
// has at most two sequence numbers live at once (the outstanding command
// and, under shard-order inversion, its predecessor), so 128 is deep
// margin; anything older answers "expired" rather than re-executing.
const sessionWindow = 128

// appliedCmd is one executed command's cached outcome, plus the receipt a
// delivery certificate attests: the shard-local delivery order (the
// server's tick at first apply), the message ID that carried the command,
// and the shard's rolling state hash after the apply. All three are
// deterministic functions of the A-Delivery sequence, so every replica of
// the shard countersigns the same receipt.
type appliedCmd struct {
	result []byte
	err    string
	order  uint64
	id     types.MessageID
	hash   [sha256.Size]byte
}

// session is one client session's replicated dedup state. It is identical
// on every replica of a shard because it advances only on A-Delivery.
//
// The table is a WINDOW of applied sequences, not just a high-water mark:
// two commands of one session with different destination sets may be
// delivered in opposite relative order at a shard they share (atomic
// multicast guarantees pairwise-consistent order, not issue order), and a
// mark-only table would misread the earlier command as a duplicate and
// drop its writes. With the window, each sequence number executes exactly
// once no matter how deliveries interleave.
type session struct {
	maxSeq uint64
	// applied is swept once per window of inserts, not per apply, so it holds
	// up to two windows: read it through get, which sees the window only.
	applied map[uint64]appliedCmd
	// touched is the server's delivery tick of the session's most recent
	// command — NEVER a request-path timestamp: eviction order must be a
	// deterministic function of the A-Delivery sequence alone, or replicas
	// of a shard would evict different sessions and their dedup tables
	// (replicated state!) would diverge.
	touched uint64
}

// get returns seq's cached outcome if seq is inside the window.
func (ss *session) get(seq uint64) (appliedCmd, bool) {
	ac, ok := ss.applied[seq]
	return ac, ok && seq+sessionWindow > ss.maxSeq
}

// pendingReq is a locally submitted command awaiting A-Delivery, so the
// submitting server can answer its client.
type pendingReq struct {
	conn    *tcp.SvcConn
	session uint64
	seq     uint64
	at      time.Time // submit time, stamped only while tracing (zero = untimed)
}

// readWaiter is one parked read: the replica's watermark has not yet
// reached the client's MinWatermark, so the read waits (bounded by
// ReadTimeout) for the deliveries to catch up instead of failing. done
// flips (under Server.mu) when exactly one of Deliver or the timeout
// claims the waiter.
type readWaiter struct {
	conn  *tcp.SvcConn
	req   ReadReq
	timer *time.Timer
	done  bool
}

// Server serves one replica's clients. Create with NewServer, then Start.
type Server struct {
	cfg ServerConfig
	ln  *tcp.SvcListener

	// wm mirrors tick for lock-free reads: the replica's delivery
	// watermark, the highest contiguous prefix of the shard's A-Delivery
	// order this replica has applied.
	wm atomic.Uint64

	mu        sync.Mutex
	sessions  map[uint64]*session
	tick      uint64 // delivery counter driving deterministic session LRU
	stateHash [sha256.Size]byte
	chain     []byte // Deliver's scratch: what the next state hash is taken over
	pending   map[types.MessageID]pendingReq
	waiters   []*readWaiter
	conns     map[*tcp.SvcConn]bool
	closed    bool

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
	if cfg.ReplyTimeout <= 0 {
		cfg.ReplyTimeout = 5 * time.Second
	}
	if cfg.MaxSessions <= 0 {
		cfg.MaxSessions = 65536
	}
	if cfg.ReadTimeout <= 0 {
		cfg.ReadTimeout = 2 * time.Second
	}
	return &Server{
		cfg:      cfg,
		sessions: make(map[uint64]*session),
		pending:  make(map[types.MessageID]pendingReq),
		conns:    make(map[*tcp.SvcConn]bool),
	}
}

// Start opens the client listener and begins accepting (Listen + Serve).
// Wire the cluster's delivery hook to Deliver before Start so no delivery
// is missed.
func (s *Server) Start() error {
	if err := s.Listen(); err != nil {
		return err
	}
	s.Serve()
	return nil
}

// Listen binds the client-facing listener without accepting yet; Addr is
// valid afterwards. ServeCluster uses the split phases to finish the
// redirect address book before any client can possibly connect.
func (s *Server) Listen() error {
	ln, err := tcp.SvcListen(s.cfg.Addr)
	if err != nil {
		return fmt.Errorf("svc: listen %s: %w", s.cfg.Addr, err)
	}
	s.ln = ln
	return nil
}

// Serve starts accepting client connections. Call after Listen.
func (s *Server) Serve() {
	s.wg.Add(1)
	go s.acceptLoop()
}

// Addr returns the bound client-facing address (valid after Start).
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Stop closes the listener and every client connection and waits for the
// connection goroutines to drain. Idempotent.
func (s *Server) Stop() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		s.wg.Wait()
		return
	}
	s.closed = true
	conns := make([]*tcp.SvcConn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	s.mu.Unlock()
	if s.ln != nil {
		_ = s.ln.Close()
	}
	for _, c := range conns {
		_ = c.Close()
	}
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

func (s *Server) serveConn(conn *tcp.SvcConn) {
	defer s.wg.Done()
	defer func() {
		_ = conn.Close()
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
	}()
	for {
		v, err := conn.ReadMsg()
		if err != nil {
			return // client hung up or sent garbage
		}
		switch req := v.(type) {
		case Request:
			s.handle(conn, req)
		case ReadReq:
			s.handleRead(conn, req)
		case CertReq:
			s.handleCert(conn, req)
		default:
			return // protocol violation: cost the connection
		}
	}
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
// catches it up (bounded by ReadTimeout); that barrier is what makes
// follower reads read-your-writes and monotonic per session.
func (s *Server) handleRead(conn *tcp.SvcConn, req ReadReq) {
	if s.cfg.Stats != nil {
		s.cfg.Stats.RecordRequest()
	}
	fail := func(err string) {
		_ = s.writeMsg(conn, ReadResp{Session: req.Session, Seq: req.Seq, Err: err})
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
			if s.cfg.Stats != nil {
				s.cfg.Stats.RecordLeaseDenied()
			}
			fail("no lease")
			return
		}
	case readModeWatermark:
		// any replica serves
	default:
		fail(fmt.Sprintf("unknown read mode %d", req.Mode))
		return
	}
	w := &readWaiter{conn: conn, req: req}
	if s.wm.Load() >= req.MinWatermark {
		s.finishRead(w)
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
		s.finishRead(w)
		return
	}
	w.timer = time.AfterFunc(s.cfg.ReadTimeout, func() { s.expireRead(w) })
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
func (s *Server) finishRead(w *readWaiter) {
	resp := ReadResp{Session: w.req.Session, Seq: w.req.Seq, Watermark: s.wm.Load()}
	res, err := s.cfg.Machine.(QueryMachine).Query(w.req.Op)
	if w.req.Mode == readModeLease && (s.cfg.Lease == nil || !s.cfg.Lease.Valid()) {
		if s.cfg.Stats != nil {
			s.cfg.Stats.RecordLeaseDenied()
		}
		resp.Err = "no lease"
		_ = s.writeMsg(w.conn, resp)
		return
	}
	if err != nil {
		resp.Err = err.Error()
	} else {
		resp.OK = true
		resp.Result = res
		if s.cfg.Stats != nil {
			s.cfg.Stats.RecordReply()
		}
	}
	_ = s.writeMsg(w.conn, resp)
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
	_ = s.writeMsg(w.conn, ReadResp{Session: w.req.Session, Seq: w.req.Seq, Watermark: wm,
		Err: fmt.Sprintf("replica at watermark %d, behind requested %d", wm, w.req.MinWatermark)})
}

// handleCert answers one certificate request with this replica's HMAC
// countersignature over the command's receipt. The command must still be
// inside the session's dedup window; the receipt (order, message ID,
// rolling state hash) was recorded at first apply and is identical at
// every replica of the shard.
func (s *Server) handleCert(conn *tcp.SvcConn, req CertReq) {
	if s.cfg.Stats != nil {
		s.cfg.Stats.RecordRequest()
	}
	share := CertShare{Session: req.Session, Seq: req.Seq, Proc: s.cfg.Self, Group: s.cfg.Group}
	if s.cfg.Ring == nil {
		share.Err = "certificates disabled (no secret configured)"
		_ = s.writeMsg(conn, share)
		return
	}
	s.mu.Lock()
	var (
		ac appliedCmd
		ok bool
	)
	if sess := s.sessions[req.Session]; sess != nil {
		ac, ok = sess.get(req.Seq)
	}
	s.mu.Unlock()
	if !ok {
		share.Err = fmt.Sprintf("(session %d, seq %d) not in the dedup window", req.Session, req.Seq)
		_ = s.writeMsg(conn, share)
		return
	}
	share.OK = true
	share.ID = ac.id
	share.Order = ac.order
	share.Hash = append([]byte(nil), ac.hash[:]...)
	share.MAC = s.cfg.Ring.Sign(s.cfg.Self, receiptBytes(share.ID, share.Group, share.Order, share.Hash))
	_ = s.writeMsg(conn, share)
}

// handle processes one request on the connection's goroutine. It never
// blocks on the ordering layer's event loops beyond the submit hand-off
// and never holds s.mu across Submit (Deliver runs on the event loop and
// takes s.mu — holding it across Submit would deadlock).
func (s *Server) handle(conn *tcp.SvcConn, req Request) {
	if s.cfg.Stats != nil {
		s.cfg.Stats.RecordRequest()
	}
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
		if s.cfg.Stats != nil {
			s.cfg.Stats.RecordRedirect()
		}
		var addrs []string
		if s.cfg.GroupAddrs != nil {
			for _, g := range req.Dest.Groups() {
				addrs = append(addrs, s.cfg.GroupAddrs(g)...)
			}
		}
		_ = s.writeMsg(conn, Redirect{Session: req.Session, Seq: req.Seq, Groups: req.Dest, Addrs: addrs})
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

	id := s.cfg.Submit(Command{Session: req.Session, Seq: req.Seq, Op: req.Op}, req.Dest)
	if !start.IsZero() {
		s.cfg.Tracer.Record(int(s.cfg.Self), trace.StageEnqueue, id, s.cfg.Self, time.Since(start).Nanoseconds())
	}
	if id.IsZero() {
		// The ordering layer refused the submission (the replica's process
		// is crashed and not yet restarted). No reply: the client times
		// out and retries against a live replica under the same sequence.
		return
	}

	s.mu.Lock()
	// The command may have been delivered between Submit returning and
	// this re-lock; answer now if so, else park the reply on its
	// MessageID. A hit here is (almost always) this very submission
	// racing its own delivery, not a client retry, so it must not count
	// toward the duplicates metric.
	if r, done := s.cachedReply(req, false); done {
		s.mu.Unlock()
		s.reply(conn, r)
		return
	}
	s.pending[id] = pendingReq{conn: conn, session: req.Session, seq: req.Seq, at: start}
	s.mu.Unlock()
}

// cachedReply answers req from the session window if its sequence number
// has already been applied (or has aged out of the window entirely).
// recordDup controls whether a hit counts toward the duplicates metric —
// true for genuine client resends, false for a submission racing its own
// delivery. Callers hold s.mu.
func (s *Server) cachedReply(req Request, recordDup bool) (Reply, bool) {
	sess := s.sessions[req.Session]
	if sess == nil {
		return Reply{}, false
	}
	if ac, done := sess.get(req.Seq); done {
		if recordDup && s.cfg.Stats != nil {
			s.cfg.Stats.RecordDuplicate()
		}
		return appliedReply(req.Session, req.Seq, ac), true
	}
	if req.Seq+sessionWindow <= sess.maxSeq {
		// Too old to still hold a result — and too old to be a live retry
		// from a correct closed-loop client. Refuse rather than re-execute.
		return Reply{Session: req.Session, Seq: req.Seq,
			Err: fmt.Sprintf("sequence %d expired (session window past %d)", req.Seq, sess.maxSeq)}, true
	}
	return Reply{}, false
}

// appliedReply builds the reply for a cached command outcome.
func appliedReply(sessionID, seq uint64, ac appliedCmd) Reply {
	r := Reply{Session: sessionID, Seq: seq, OK: ac.err == "", Err: ac.err}
	if r.OK {
		r.Result = ac.result
		r.Order = ac.order
	}
	return r
}

// Deliver feeds one local A-Delivery into the server. Wire it to the
// cluster's per-process delivery hook; non-Command payloads are ignored so
// the service coexists with other traffic on the same cluster. Deliver
// runs on the replica's event loop: calls are sequential and in delivery
// order, which is exactly the state machine's contract.
func (s *Server) Deliver(id types.MessageID, payload any) {
	cmd, ok := payload.(Command)
	if !ok {
		return
	}
	s.mu.Lock()
	if s.closed {
		// A stopped server must go fully inert: its delivery hook cannot
		// be unregistered from the cluster, and a ghost apply would
		// double-execute commands against a dead machine and skew the
		// shared metrics.
		s.mu.Unlock()
		return
	}
	s.tick++
	s.wm.Store(s.tick)
	sess := s.sessions[cmd.Session]
	if sess == nil {
		// touched is set before the eviction sweep so the newcomer can
		// never be its own victim.
		sess = &session{applied: make(map[uint64]appliedCmd), touched: s.tick}
		s.sessions[cmd.Session] = sess
		if len(s.sessions) > s.cfg.MaxSessions {
			s.evictOldestSession()
		}
	}
	sess.touched = s.tick
	if _, done := sess.applied[cmd.Seq]; !done && cmd.Seq+sessionWindow > sess.maxSeq {
		// First delivery of this (session, seq): the one and only state
		// mutation, identical at every replica of every destination shard.
		// The receipt (order, id, rolling hash) is recorded here and only
		// here, so duplicates certify the original's receipt.
		res, err := s.cfg.Machine.Apply(cmd.Op)
		ac := appliedCmd{result: res, order: s.tick, id: id}
		if err != nil {
			ac.err = err.Error()
		}
		s.chain = append(s.chain[:0], s.stateHash[:]...)
		s.chain = id.AppendTo(s.chain)
		s.chain = append(s.chain, cmd.Op...)
		s.stateHash = sha256.Sum256(s.chain)
		ac.hash = s.stateHash
		sess.applied[cmd.Seq] = ac
		if cmd.Seq > sess.maxSeq {
			sess.maxSeq = cmd.Seq
		}
		if len(sess.applied) > 2*sessionWindow {
			for q := range sess.applied {
				if q+sessionWindow <= sess.maxSeq {
					delete(sess.applied, q)
				}
			}
		}
	} else if s.cfg.Stats != nil {
		// A duplicate Command ordered by a client retry (or one that fell
		// out of the window): suppressed here, at every replica, by the
		// replicated dedup table.
		s.cfg.Stats.RecordDuplicate()
	}
	pr, waiting := s.pending[id]
	var r Reply
	if waiting {
		delete(s.pending, id)
		if ac, ok := sess.get(pr.seq); ok {
			r = appliedReply(pr.session, pr.seq, ac)
		} else {
			r = Reply{Session: pr.session, Seq: pr.seq,
				Err: fmt.Sprintf("sequence %d expired (session window past %d)", pr.seq, sess.maxSeq)}
		}
	}
	// Claim every parked read whose watermark barrier this delivery
	// cleared; the queries run off-loop so a read can never stall the
	// delivery sequence.
	var ready []*readWaiter
	if len(s.waiters) > 0 {
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
	}
	s.mu.Unlock()
	for _, w := range ready {
		// Untracked for the same reason as the reply goroutine below.
		go s.finishRead(w)
	}
	if waiting {
		if !pr.at.IsZero() {
			// Server-side end-to-end: client submit → reply handed off.
			s.cfg.Tracer.Record(int(s.cfg.Self), trace.StageReply, id, s.cfg.Self, time.Since(pr.at).Nanoseconds())
		}
		// Off-loop: a slow client must never stall the replica's
		// deliveries. The goroutine is deliberately not wg-tracked — it
		// only touches the connection (safe after Stop closed it), and
		// Deliver can legitimately race Stop, where a wg.Add against the
		// final wg.Wait would be misuse.
		go s.reply(pr.conn, r)
	}
}

// evictOldestSession drops the session with the oldest delivery tick.
// Callers hold s.mu. Because ticks advance only on A-Delivery, every
// replica of the shard evicts the same session at the same point in the
// command sequence, keeping the replicated dedup tables identical.
func (s *Server) evictOldestSession() {
	var (
		victim uint64
		oldest uint64
		found  bool
	)
	for id, sess := range s.sessions {
		if !found || sess.touched < oldest {
			victim, oldest, found = id, sess.touched, true
		}
	}
	if found {
		delete(s.sessions, victim)
	}
}

// SessionCount returns how many sessions the dedup table currently holds
// (diagnostics; bounded by ServerConfig.MaxSessions).
func (s *Server) SessionCount() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.sessions)
}

// reply sends r on conn under the write deadline; errors cost the
// connection (the client will retry elsewhere under the same sequence).
func (s *Server) reply(conn *tcp.SvcConn, r Reply) {
	if s.cfg.Stats != nil && r.OK {
		s.cfg.Stats.RecordReply()
	}
	_ = s.writeMsg(conn, r)
}

func (s *Server) writeMsg(conn *tcp.SvcConn, v any) error {
	_ = conn.SetWriteDeadline(time.Now().Add(s.cfg.ReplyTimeout))
	if err := conn.WriteMsg(s.cfg.Self, v); err != nil {
		_ = conn.Close()
		return err
	}
	return nil
}
