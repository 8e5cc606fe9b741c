package main

import (
	"fmt"
	"math/rand"
	"sync"
	"syscall"
	"time"

	"wanamcast/internal/metrics"
	"wanamcast/internal/svc"
	"wanamcast/internal/transport/tcp"
	"wanamcast/internal/types"
	"wanamcast/internal/workload"
)

// The load generator. One process, one sender goroutine, one reader
// goroutine per client connection, two connections: clients are homed on
// shards g0 and g1, so g2 is only ever a remote addressee. Each
// connection multiplexes many virtual sessions with one outstanding
// command each; the server parks replies per (session, seq), so no
// goroutine-per-client pool is needed and the generator fits two cores.

// opSpec is one generated operation. The cluster receives only these.
type opSpec struct {
	due  time.Duration // open loop: offset from window start at which it is due
	conn int           // which client connection (= home shard) issues it
	dest types.GroupSet
	read bool
}

type opKind uint8

const (
	opWrite opKind = iota // svc write, ordered by A1
	opRead                // svc lease read, never ordered
	opBcast               // direct A2 broadcast
)

// sample is one finished operation as the client saw it.
type sample struct {
	due    time.Duration // offset from window start: scheduled (open) or sent (closed)
	lat    time.Duration // due → reply (broadcast: due → last delivery)
	floor  time.Duration // the paper's floor for this op: latency degree × WAN delay
	late   time.Duration // open loop: how long after due the request left
	dest   uint8         // bitmask of addressed shards
	fanout uint8
	kind   opKind
	ok     bool
}

// floorOf is the least latency any algorithm could give an op: a write to
// two or more shards takes Δ=2 WAN hops (A1), a warm broadcast Δ=1 (A2),
// and a single-shard write or a lease read never crosses the WAN.
func floorOf(kind opKind, fanout uint8, wan time.Duration) time.Duration {
	switch {
	case kind == opBcast:
		return wan
	case kind == opWrite && fanout >= 2:
		return 2 * wan
	}
	return 0
}

func destMask(d types.GroupSet) (mask, fanout uint8) {
	for _, g := range d.Groups() {
		mask |= 1 << uint(g)
	}
	return mask, uint8(d.Size())
}

// poissonArrivals draws arrival offsets with exponential gaps of mean
// 1/rate until window is exceeded.
func poissonArrivals(rng *rand.Rand, rate float64, window time.Duration) []time.Duration {
	var out []time.Duration
	at := 0.0
	for {
		at += rng.ExpFloat64() / rate
		d := time.Duration(at * float64(time.Second))
		if d >= window {
			return out
		}
		out = append(out, d)
	}
}

// closedPlanLen is how many operations a closed loop plans per
// connection; a loop that outruns its plan wraps around. Plans stay small
// because they are live heap the collector marks during the window.
const closedPlanLen = 1 << 13

// clientPlans is n ops of the §1 mix (60 % one shard, 30 % two, 10 % all)
// for each of the two client connections: plan i is homed on shard i.
func clientPlans(topo *types.Topology, seed int64, n int, readFraction float64, localOnly bool) [][]workload.ClientOp {
	spec := workload.ClientSpec{Clients: 2, Ops: n, Seed: seed, ReadFraction: readFraction}
	if localOnly || topo.NumGroups() == 1 {
		spec.Mix = []workload.MixEntry{{Groups: 1, Weight: 1}}
	}
	return workload.ClientPlans(topo, spec)
}

// openSchedule is a Poisson schedule at rate ops/s over window: each
// arrival picks a connection and takes that connection's next planned op.
func openSchedule(topo *types.Topology, seed int64, rate float64, window time.Duration) []opSpec {
	rng := rand.New(rand.NewSource(seed))
	arrivals := poissonArrivals(rng, rate, window)
	plans := clientPlans(topo, seed, max(len(arrivals), 1), 0, false)
	var cursor [2]int
	ops := make([]opSpec, len(arrivals))
	for i, at := range arrivals {
		c := rng.Intn(2)
		p := plans[c][cursor[c]]
		cursor[c]++
		ops[i] = opSpec{due: at, conn: c, dest: p.Dest, read: p.Read}
	}
	return ops
}

// sessionTable is one connection's virtual sessions: slot i is session
// base+i+1, holds at most one outstanding command, and numbers its
// writes and reads in separate sequences, as svc.Client does.
type sessionTable struct {
	base     uint64
	slots    []sessionSlot
	free     []int
	inflight int
	maxIn    int
}

type sessionSlot struct {
	seq, rseq uint64
	busy      bool
	op        opSpec
	due, sent time.Time
	barrier   uint64 // read: the MinWatermark it carried
}

// acquire hands out an idle session, opening a new one when all are busy.
func (t *sessionTable) acquire() int {
	var i int
	if n := len(t.free); n > 0 {
		i, t.free = t.free[n-1], t.free[:n-1]
	} else {
		i = len(t.slots)
		t.slots = append(t.slots, sessionSlot{})
	}
	t.slots[i].busy = true
	t.inflight++
	if t.inflight > t.maxIn {
		t.maxIn = t.inflight
	}
	return i
}

func (t *sessionTable) release(i int) {
	t.slots[i].busy = false
	t.free = append(t.free, i)
	t.inflight--
}

func (t *sessionTable) session(i int) uint64 { return t.base + uint64(i) + 1 }

// lookup maps a reply's (session, seq) back to its busy slot; anything
// else is a reply nobody is waiting for.
func (t *sessionTable) lookup(session, seq uint64, read bool) (int, bool) {
	if session <= t.base || session > t.base+uint64(len(t.slots)) {
		return 0, false
	}
	i := int(session - t.base - 1)
	s := &t.slots[i]
	if !s.busy || s.op.read != read {
		return 0, false
	}
	want := s.seq
	if read {
		want = s.rseq
	}
	return i, want == seq
}

// leaseMode is svc's wire value for a lease read (ReadReq.Mode).
const leaseMode byte = 1

// payloadVariants is how many distinct key sets each destination set
// cycles through.
const payloadVariants = 32

// clientConn is one client connection with its sessions.
type clientConn struct {
	c     *tcp.SvcConn
	idx   int
	home  types.GroupID
	wan   time.Duration
	stats *metrics.Service
	puts  map[uint8][][]byte // dest mask → pre-encoded put commands
	gets  [][]byte

	mu    sync.Mutex
	tab   sessionTable
	freed chan<- int // closed loop: receives idx once per finished op
	wm    uint64     // highest home-shard order seen: the read barrier
	start time.Time
	out   []sample
	sends int
	errs  []string
	done  chan struct{} // reader exited
}

func dialClient(addr string, idx int, home types.GroupID, wan time.Duration, stats *metrics.Service) (*clientConn, error) {
	c, err := tcp.SvcDial(addr, 2*time.Second)
	if err != nil {
		return nil, fmt.Errorf("dial client %d to %s: %w", idx, addr, err)
	}
	cc := &clientConn{c: c, idx: idx, home: home, wan: wan, stats: stats, puts: make(map[uint8][][]byte), done: make(chan struct{})}
	cc.tab.base = uint64(idx+1) * 1_000_000
	for v := 0; v < payloadVariants; v++ {
		cc.gets = append(cc.gets, svc.EncodeGet(fmt.Sprintf("g%d/k%d", home, v)))
	}
	go cc.readLoop()
	return cc, nil
}

func (cc *clientConn) putFor(dest types.GroupSet, mask uint8, n int) []byte {
	pool := cc.puts[mask]
	if pool == nil {
		for v := 0; v < payloadVariants; v++ {
			sets := make(map[string]string, dest.Size())
			for _, g := range dest.Groups() {
				sets[fmt.Sprintf("g%d/k%d", g, v)] = fmt.Sprintf("c%d-v%d", cc.home, v)
			}
			pool = append(pool, svc.EncodePut(sets))
		}
		cc.puts[mask] = pool
	}
	return pool[n%payloadVariants]
}

// send issues op on an idle session. due is when it was scheduled; the
// latency clock starts there, not at the write.
func (cc *clientConn) send(op opSpec, due time.Time) error {
	mask, _ := destMask(op.dest)
	cc.mu.Lock()
	i := cc.tab.acquire()
	s := &cc.tab.slots[i]
	s.op, s.due, s.sent = op, due, time.Now()
	if due.IsZero() {
		s.due = s.sent
	}
	session := cc.tab.session(i)
	var msg any
	if op.read {
		s.rseq++
		s.barrier = cc.wm
		msg = svc.ReadReq{Session: session, Seq: s.rseq, Group: cc.home, Mode: leaseMode,
			MinWatermark: s.barrier, Op: cc.gets[cc.sends%payloadVariants]}
	} else {
		s.seq++
		msg = svc.Request{Session: session, Seq: s.seq, Dest: op.dest, Op: cc.putFor(op.dest, mask, cc.sends)}
	}
	cc.sends++
	cc.mu.Unlock()
	return cc.c.WriteMsg(types.NoProcess, msg)
}

func (cc *clientConn) readLoop() {
	defer close(cc.done)
	for {
		v, err := cc.c.ReadMsg()
		if err != nil {
			return // closed by close(), or the server hung up: unanswered ops count as failed
		}
		now := time.Now()
		var (
			session, seq, order uint64
			read, ok            bool
			errText             string
		)
		switch r := v.(type) {
		case svc.Reply:
			session, seq, ok, errText, order = r.Session, r.Seq, r.OK, r.Err, r.Order
		case svc.ReadResp:
			session, seq, ok, errText, read = r.Session, r.Seq, r.OK, r.Err, true
			order = r.Watermark
		default:
			cc.fail(fmt.Sprintf("unexpected %T from server", v))
			continue
		}
		cc.mu.Lock()
		i, found := cc.tab.lookup(session, seq, read)
		if !found {
			cc.errs = append(cc.errs, fmt.Sprintf("reply for (session %d, seq %d) nobody waits for", session, seq))
			cc.mu.Unlock()
			continue
		}
		s := &cc.tab.slots[i]
		if read && ok && order < s.barrier {
			// The replica answered below the barrier the read carried.
			ok, errText = false, "stale read"
			cc.stats.RecordStaleRead()
		}
		if !ok && len(cc.errs) < 8 {
			cc.errs = append(cc.errs, "op failed: "+errText)
		}
		// Every reply comes from a home-shard replica and carries that
		// shard's watermark: the barrier later lease reads carry.
		if ok && order > cc.wm {
			cc.wm = order
		}
		mask, fanout := destMask(s.op.dest)
		kind := opWrite
		if read {
			kind = opRead
		}
		cc.out = append(cc.out, sample{
			due: s.due.Sub(cc.start), lat: now.Sub(s.due), floor: floorOf(kind, fanout, cc.wan),
			late: s.sent.Sub(s.due), dest: mask, fanout: fanout, kind: kind, ok: ok,
		})
		cc.tab.release(i)
		freed := cc.freed
		cc.mu.Unlock()
		if freed != nil {
			freed <- cc.idx
		}
	}
}

func (cc *clientConn) fail(msg string) {
	cc.mu.Lock()
	cc.errs = append(cc.errs, msg)
	cc.mu.Unlock()
}

func (cc *clientConn) inflight() int {
	cc.mu.Lock()
	defer cc.mu.Unlock()
	return cc.tab.inflight
}

// begin starts a phase: samples are timed against start from here on,
// and a closed loop gets a token on freed for every finished op. Call only
// while nothing is in flight.
func (cc *clientConn) begin(start time.Time, freed chan<- int) {
	cc.mu.Lock()
	cc.start, cc.out, cc.freed = start, nil, freed
	cc.tab.maxIn = 0
	cc.mu.Unlock()
}

func (cc *clientConn) close() {
	_ = cc.c.Close()
	<-cc.done
}

// phase is what one generator run produced.
type phase struct {
	start      time.Time
	samples    []sample
	sent       int
	unanswered int
	inflight   int // most commands outstanding at once on one connection
	window     time.Duration
	errs       []string
}

// drainTimeout is how long after the window closes an unanswered op
// counts as failed.
const drainTimeout = 5 * time.Second

// collect waits for outstanding replies and gathers both connections.
func collect(conns []*clientConn, start time.Time, sent int, window time.Duration) phase {
	deadline := time.Now().Add(drainTimeout)
	for time.Now().Before(deadline) {
		n := 0
		for _, cc := range conns {
			n += cc.inflight()
		}
		if n == 0 {
			break
		}
		time.Sleep(time.Millisecond)
	}
	ph := phase{start: start, sent: sent, window: window}
	for _, cc := range conns {
		cc.mu.Lock()
		ph.samples = append(ph.samples, cc.out...)
		ph.unanswered += cc.tab.inflight
		if cc.tab.maxIn > ph.inflight {
			ph.inflight = cc.tab.maxIn
		}
		ph.errs = append(ph.errs, cc.errs...)
		cc.errs = nil
		cc.mu.Unlock()
	}
	return ph
}

// sleepUntil blocks the calling thread until t. The open-loop sender
// paces itself with nanosleep because the runtime's timers are no finer
// than the poller's millisecond when the process is otherwise idle, and
// an op sent up to a millisecond late reads as a millisecond of latency.
func sleepUntil(t time.Time) {
	for d := time.Until(t); d > 0; d = time.Until(t) {
		ts := syscall.NsecToTimespec(int64(d))
		_ = syscall.Nanosleep(&ts, nil) // a signal ends it early: sleep again
	}
}

// runOpen plays ops on their schedule, whatever the replies do.
func runOpen(conns []*clientConn, ops []opSpec, window time.Duration) (phase, error) {
	start := time.Now()
	for _, cc := range conns {
		cc.begin(start, nil)
	}
	for _, op := range ops {
		due := start.Add(op.due)
		sleepUntil(due)
		if err := conns[op.conn].send(op, due); err != nil {
			return phase{}, fmt.Errorf("send: %w", err)
		}
	}
	if d := time.Until(start.Add(window)); d > 0 {
		time.Sleep(d)
	}
	return collect(conns, start, len(ops), window), nil
}

// runClosed keeps sessions commands outstanding (split evenly over the
// connections), each session sending its next planned op when the
// previous reply lands, until window has passed or limit ops were sent
// (0 = no limit).
func runClosed(conns []*clientConn, plans [][]workload.ClientOp, sessions int, window time.Duration, limit int) (phase, error) {
	freed := make(chan int, sessions) // one token per session: a reader never blocks handing one back
	start := time.Now()
	for i, cc := range conns {
		cc.begin(start, freed)
		for s := 0; s < sessions/len(conns); s++ {
			freed <- i
		}
	}
	end := time.NewTimer(window)
	defer end.Stop()
	cursor := make([]int, len(conns))
	sent := 0
loop:
	for limit == 0 || sent < limit {
		select {
		case <-end.C:
			break loop
		case c := <-freed:
			p := plans[c][cursor[c]%len(plans[c])]
			cursor[c]++
			if err := conns[c].send(opSpec{conn: c, dest: p.Dest, read: p.Read}, time.Time{}); err != nil {
				return phase{}, fmt.Errorf("send: %w", err)
			}
			sent++
		}
	}
	elapsed := time.Since(start)
	if elapsed > window {
		elapsed = window
	}
	return collect(conns, start, sent, elapsed), nil
}
