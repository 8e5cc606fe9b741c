// Package consensus implements the uniform consensus abstraction the paper
// assumes inside every group (§2.1–2.2): uniform integrity, termination,
// and uniform agreement.
//
// The implementation is a multi-instance, leader-driven Paxos restricted to
// one group. Leadership comes from the Ω oracle (internal/fd); safety never
// depends on Ω, only liveness does. All consensus traffic stays inside the
// group, so consensus contributes zero inter-group message delays — exactly
// the accounting the paper uses for algorithms A1 and A2, where consensus
// "is run inside groups exclusively" (§6).
//
// Liveness is proposer-driven: every process holding an undecided proposal
// periodically re-forwards it to the current leader, and the leader
// re-drives its phases on its own retry tick or on a member's — a second
// ForwardMsg from one member — so decisions survive lost frames, leader
// crashes and Ω mistakes. A ballot-0 leader sends its Accept once per
// instance, whatever the number of members that forward a proposal. Crucially for the paper's quiescence property (Prop.
// A.9), the retry timer is armed only while undecided proposals exist:
// an idle consensus layer sends nothing and schedules nothing.
//
// Ω mistakes include FALSE suspicions and their revocation (fd.Oracle
// Unsuspect, the heartbeat detector's trust restoration): a leader can be
// demoted mid-instance while its ballot's messages are in flight, the next
// rank drives a higher ballot concurrently, and the old leader re-drives
// after re-election. Safety through such ballot races rests on the
// acceptor guards alone — promised/accepted only move up, and a value is
// adopted from the highest accepted ballot of a promise quorum — so no
// handler consults the detector on the receive path; leadership only
// gates who initiates ballots. When an old leader's ballot has been
// outbid, its retry tick observes maxSeen > ballot and restarts with a
// fresh owned ballot, which converges once Ω stabilises
// (suspicion_test.go sweeps demotion instants across the round trip and
// storms flaps over pipelined instances to pin this).
package consensus

import (
	"fmt"
	"maps"
	"math/bits"
	"slices"
	"time"

	"wanamcast/internal/fd"
	"wanamcast/internal/metrics"
	"wanamcast/internal/node"
	"wanamcast/internal/ring"
	"wanamcast/internal/storage"
	"wanamcast/internal/trace"
	"wanamcast/internal/types"
	"wanamcast/internal/wire"
)

// Value is a consensus value: the bytes of a batch's tagged encoding
// (wire.AppendTagged), made once by its proposer. The engine agrees on it as
// a black box (§2.1, §6): messages, WAL records and snapshots copy it, a
// receiver copies it out of its receive buffer once, and only the process
// that applies a decision decodes it (Batcher). Nobody writes its bytes.
type Value = wire.Tagged

// Wire message bodies; wire.go registers their codecs.
type (
	// ForwardMsg carries a proposal from a group member to the leader.
	ForwardMsg struct {
		Instance uint64
		Value    Value
	}
	// PrepareMsg is Paxos phase 1a.
	PrepareMsg struct {
		Instance uint64
		Ballot   int64
	}
	// PromiseMsg is Paxos phase 1b.
	PromiseMsg struct {
		Instance uint64
		Ballot   int64
		VBallot  int64 // highest ballot in which the sender accepted, or -1
		VValue   Value
	}
	// AcceptMsg is Paxos phase 2a.
	AcceptMsg struct {
		Instance uint64
		Ballot   int64
		Value    Value
	}
	// AcceptedMsg is Paxos phase 2b.
	AcceptedMsg struct {
		Instance uint64
		Ballot   int64
	}
	// DecideMsg announces a decision. The leader's goes by reference —
	// Ballot >= 0 names the chosen ballot, no Value: a decided batch crosses
	// each link once, in its AcceptMsg. Catch-up replies carry the value
	// and Ballot -1.
	DecideMsg struct {
		Instance uint64
		Ballot   int64
		Value    Value
	}
	// LearnMsg asks a peer for an instance's decision: the peer replies
	// with DecideMsg if it knows one and stays silent otherwise. Restarted
	// or gap-stalled learners use it to recover decisions whose original
	// announcement they missed, acceptors one announced by reference in a
	// ballot they did not vote in.
	LearnMsg struct {
		Instance uint64
	}
)

// instance is the per-instance acceptor+leader state.
type instance struct {
	used bool // touched: snapshots and recovery cover exactly the touched instances

	// Acceptor state.
	promised int64 // highest ballot promised; -1 initially (ballot 0 always allowed)
	accepted int64 // highest ballot accepted, -1 if none
	aValue   Value

	// Proposer state.
	proposal    Value // this process's own proposal, nil if none
	hasProposal bool

	// Leader state (used only while this process believes it leads).
	ballot    int64 // ballot this leader is driving, -1 if none
	leadValue Value
	hasLead   bool
	forwarded uint64 // ranks whose ForwardMsg this leader has had: a second one is that member's retry tick
	// A phase in flight has a bitmask of the group ranks heard from; of
	// phase 1's promises only the highest accepted ballot's is kept.
	phase1, phase2     bool
	phase1OK, phase2OK uint64
	bestVBallot        int64
	bestVValue         Value

	// Learner state.
	decided  bool
	decision Value

	maxSeen int64 // highest ballot observed in any message
}

// DefaultRetry is the retry cadence of an engine configured with none.
const DefaultRetry = 40 * time.Millisecond

// Config configures a Consensus engine for one process.
type Config struct {
	API      *node.Proc
	Detector *fd.Oracle
	// OnDecide is invoked exactly once per instance, in arrival order (not
	// necessarily instance order; clients consume decisions by their own
	// instance counter, as Algorithms A1/A2 do with K).
	OnDecide func(instance uint64, value Value)
	// RetryInterval is the re-drive period for undecided proposals.
	// Defaults to DefaultRetry.
	RetryInterval time.Duration
	// ProtoLabel overrides the wire label (default "consensus"); distinct
	// labels let two consensus engines coexist on one process.
	ProtoLabel string
	// Log, when non-nil, makes the acceptor durable: promised and accepted
	// ballots are persisted (and synced) BEFORE the Promise/Accepted reply
	// leaves the process, so a restarted acceptor can never break a
	// promise; decisions are appended (unsynced — they are group-durable
	// and recoverable from peers) so local replay reconstructs the applied
	// sequence. Because a consensus value is a whole ordering batch, the
	// steady-state cost is one fsync per batch, not one per message.
	Log *storage.Log
}

// Consensus is the per-process consensus engine. Register it on the
// process's node.Proc; it is driven entirely by Start, its handlers and timers.
type Consensus struct {
	api   *node.Proc
	det   *fd.Oracle
	onDec func(uint64, Value)
	retry time.Duration
	label string

	group  []types.ProcessID
	rank   int // index of self in group
	d      int // group size
	quorum int
	// Instances are numbered densely, so they live in pages of pageSize
	// keyed by k / pageSize: a page never moves, so an *instance stays valid,
	// and a stray far-away instance number costs one page.
	pages   map[uint64]*page
	pending []uint64 // undecided instances with a local proposal, ascending
	timerOn bool
	tickFn  func() // c.tick, bound once: the timer is re-armed per proposal

	log        *storage.Log
	recovering bool                   // replaying the log: no re-persisting
	parked     ring.FIFO[parkedReply] // replies waiting on a group-commit barrier, oldest first
	sendParked func()                 // sends the oldest parked reply; built at the first one
}

var _ node.Protocol = (*Consensus)(nil)

// New builds a consensus engine. It panics on a missing API, Detector, or
// OnDecide: those are wiring bugs.
func New(cfg Config) *Consensus {
	if cfg.API == nil || cfg.Detector == nil || cfg.OnDecide == nil {
		panic("consensus: Config.API, Detector and OnDecide are required")
	}
	retry := cfg.RetryInterval
	if retry <= 0 {
		retry = DefaultRetry
	}
	label := cfg.ProtoLabel
	if label == "" {
		label = "consensus"
	}
	c := &Consensus{
		api:   cfg.API,
		det:   cfg.Detector,
		onDec: cfg.OnDecide,
		retry: retry,
		label: label,
		pages: make(map[uint64]*page),
		log:   cfg.Log,
	}
	c.tickFn = c.tick
	c.group = cfg.API.Topo().Members(cfg.API.Group())
	c.d = len(c.group)
	if c.d > 64 {
		panic(fmt.Sprintf("consensus: a group of %d exceeds the 64 ranks a quorum bitmask holds", c.d))
	}
	c.quorum = c.d/2 + 1
	c.rank = -1
	for i, p := range c.group {
		if p == cfg.API.Self() {
			c.rank = i
			break
		}
	}
	if c.rank < 0 {
		panic(fmt.Sprintf("consensus: %v not in its own group", cfg.API.Self()))
	}
	return c
}

// Proto implements node.Protocol.
func (c *Consensus) Proto() string { return c.label }

// Start implements node.Protocol: it subscribes to leadership changes so
// proposals are re-routed and new leaders take over undecided instances.
func (c *Consensus) Start() {
	c.det.Subscribe(func(g types.GroupID, leader types.ProcessID) {
		if g != c.api.Group() || c.api.Crashed() {
			return
		}
		c.onLeaderChange(leader)
	})
}

// Propose submits value for the given instance. Re-proposing an instance
// that already has a local proposal or a decision is a no-op, matching the
// at-most-one-proposal-per-instance discipline (propK in the paper).
func (c *Consensus) Propose(inst uint64, value Value) {
	in := c.inst(inst)
	if in.decided || in.hasProposal {
		return
	}
	in.proposal = value
	in.hasProposal = true
	i, _ := slices.BinarySearch(c.pending, inst)
	c.pending = slices.Insert(c.pending, i, inst)
	c.api.Trace(trace.StagePropose, types.MessageID{}, int64(inst))
	c.drive(inst)
	c.armTimer()
}

// Decided returns the decision for inst, if any.
func (c *Consensus) Decided(inst uint64) (Value, bool) {
	in := c.lookup(inst)
	if in == nil || !in.decided {
		return nil, false
	}
	return in.decision, true
}

// Handlers implements node.Protocol.
func (c *Consensus) Handlers() []node.Handler { return handlers }

// handlers is every engine's dispatch table, the steady state's messages first.
var handlers = []node.Handler{node.On((*Consensus).onAccepted), node.On((*Consensus).onAccept), node.On((*Consensus).onForward),
	node.On((*Consensus).onDecide), node.On((*Consensus).onPrepare), node.On((*Consensus).onPromise), node.On((*Consensus).onLearnReq)}

// pageSize is the number of consecutive instances one page holds.
const pageSize = 32

type page [pageSize]instance

// lookup returns instance k if anything ever touched it, else nil.
func (c *Consensus) lookup(k uint64) *instance {
	if pg := c.pages[k/pageSize]; pg != nil && pg[k%pageSize].used {
		return &pg[k%pageSize]
	}
	return nil
}

// inst returns instance k, touching it.
func (c *Consensus) inst(k uint64) *instance {
	pg := c.pages[k/pageSize]
	if pg == nil {
		pg = new(page)
		for i := range pg {
			pg[i] = instance{promised: -1, accepted: -1, ballot: -1, maxSeen: -1}
		}
		c.pages[k/pageSize] = pg
	}
	in := &pg[k%pageSize]
	in.used = true
	return in
}

// each calls fn for every touched instance at or above from, ascending.
func (c *Consensus) each(from uint64, fn func(k uint64, in *instance)) {
	for _, no := range slices.Sorted(maps.Keys(c.pages)) {
		for i := range c.pages[no] {
			if k, in := no*pageSize+uint64(i), &c.pages[no][i]; in.used && k >= from {
				fn(k, in)
			}
		}
	}
}

func (c *Consensus) leader() types.ProcessID { return c.det.Leader(c.api.Group()) }

func (c *Consensus) isLeader() bool { return c.leader() == c.api.Self() }

// drive makes progress on instance k from this process's perspective:
// leaders run their phases, others forward the proposal to the leader.
func (c *Consensus) drive(k uint64) {
	in := c.inst(k)
	if in.decided || !in.hasProposal {
		return
	}
	if !c.isLeader() {
		node.Send(c.api, c.leader(), c.label, ForwardMsg{Instance: k, Value: in.proposal})
		return
	}
	c.lead(k, in.proposal)
}

// lead starts (or restarts) this process's leadership of instance k with
// initial value v.
func (c *Consensus) lead(k uint64, v Value) {
	in := c.inst(k)
	if in.decided {
		return
	}
	if !in.hasLead {
		in.leadValue = v
		in.hasLead = true
	}
	if in.ballot < 0 {
		in.ballot = c.nextBallot(in)
	}
	if in.ballot == 0 {
		// Ballot 0 belongs to the initial (rank-0) leader and needs no
		// phase 1: acceptors start with promised = -1 and thus accept it.
		// The Accept goes out once: every member forwards its proposal, and
		// the ForwardMsgs after the first find phase 2 open.
		if !in.phase2 {
			c.broadcastAccept(k, in)
		}
		return
	}
	if in.phase1 {
		// Phase 1 already in flight for this ballot; restarting here
		// would discard promises and livelock against re-forwarded
		// proposals. The retry timer re-drives with a fresh ballot if
		// the instance stalls.
		return
	}
	in.phase1, in.phase1OK, in.bestVBallot, in.bestVValue = true, 0, -1, nil
	node.Multicast(c.api, c.group, c.label, PrepareMsg{Instance: k, Ballot: in.ballot})
}

// nextBallot picks the smallest ballot owned by this process greater than
// any ballot seen on instance in. Ballot b is owned by group rank b mod d.
func (c *Consensus) nextBallot(in *instance) int64 {
	b := int64(c.rank)
	for b <= in.maxSeen || b < in.ballot {
		b += int64(c.d)
	}
	return b
}

func (c *Consensus) broadcastAccept(k uint64, in *instance) {
	in.phase2, in.phase2OK = true, 0
	node.Multicast(c.api, c.group, c.label, AcceptMsg{Instance: k, Ballot: in.ballot, Value: in.leadValue})
}

// decideMsg is a decided instance's catch-up answer.
func decideMsg(k uint64, in *instance) DecideMsg {
	return DecideMsg{Instance: k, Ballot: -1, Value: in.decision}
}

func (c *Consensus) onForward(from types.ProcessID, m ForwardMsg) {
	in := c.inst(m.Instance)
	if in.decided {
		// Catch-up: tell the sender the decision directly.
		node.Send(c.api, from, c.label, decideMsg(m.Instance, in))
		return
	}
	if !c.isLeader() {
		// Stale route; the proposer will retry toward the real leader.
		return
	}
	if bit := c.rankBit(from); in.forwarded&bit == 0 {
		in.forwarded |= bit
		c.lead(m.Instance, m.Value)
	} else if in.hasLead {
		// The sender's retry tick: what it was owed, or its answer, is lost.
		c.redrive(m.Instance, in)
	}
}

func (c *Consensus) onPrepare(from types.ProcessID, m PrepareMsg) {
	in := c.inst(m.Instance)
	in.maxSeen = max(in.maxSeen, m.Ballot)
	if in.decided {
		node.Send(c.api, from, c.label, decideMsg(m.Instance, in))
		return
	}
	if m.Ballot < in.promised {
		return // reject silently; the leader retries with a higher ballot
	}
	// Equal ballots are re-promised: retransmitted Prepares must be
	// idempotent for liveness over lossy or reordered transports. Only a
	// ballot increase is persisted — a re-promise restates durable state.
	if m.Ballot > in.promised {
		in.promised = m.Ballot
		c.log.Append(storage.Record{Kind: storage.KindPromise, Proto: c.label, Inst: m.Instance, Ballot: m.Ballot})
	}
	// The promise must survive a crash before it is given: the reply waits
	// for the record's durability barrier (afterBarrier). A re-promise
	// rides the same barrier so it can never overtake a first promise whose
	// fsync is still in flight. The reply captures the acceptor state at
	// promise time; a racing Accept at this same ballot is harmless (its
	// leader has already closed phase 1).
	c.afterBarrier(trace.StagePromise, from,
		PromiseMsg{Instance: m.Instance, Ballot: m.Ballot, VBallot: in.accepted, VValue: in.aValue})
}

// afterBarrier sends reply once every record appended so far is durable:
// after an inline fsync on a synchronous log, or parked in c.parked until
// the group-commit syncer's next covering fsync. A log runs continuations
// in stage order, so each barrier's, the one bound sendParked, sends the
// oldest. st is the sub-span: how long the reply waited.
func (c *Consensus) afterBarrier(st trace.Stage, to types.ProcessID, reply PromiseMsg) {
	p := parkedReply{st: st, start: -1, to: to, reply: reply} // start -1: not tracing
	if c.api.Tracing() {
		p.start = c.api.Now()
	}
	if !c.log.Deferred() {
		c.log.Commit()
		c.sendTraced(p)
		return
	}
	if c.sendParked == nil {
		c.sendParked = func() { c.sendTraced(c.parked.Pop()) }
	}
	c.parked.Push(p)
	c.log.CommitThen(c.sendParked)
}

// parkedReply is a Promise reply (st StagePromise) or an Accepted one (st
// StageAccept: the Promise's instance and ballot), and its sub-span's start.
type parkedReply struct {
	st    trace.Stage
	start time.Duration
	to    types.ProcessID
	reply PromiseMsg
}

func (c *Consensus) sendTraced(p parkedReply) {
	if p.start >= 0 {
		c.api.Trace(p.st, types.MessageID{}, int64(c.api.Now()-p.start))
	}
	if p.st == trace.StageAccept {
		node.Send(c.api, p.to, c.label, AcceptedMsg{Instance: p.reply.Instance, Ballot: p.reply.Ballot})
		return
	}
	node.Send(c.api, p.to, c.label, p.reply)
}

func (c *Consensus) onPromise(from types.ProcessID, m PromiseMsg) {
	in := c.inst(m.Instance)
	if in.decided || in.ballot != m.Ballot || !in.phase1 {
		return
	}
	in.phase1OK |= c.rankBit(from)
	if m.VBallot > in.bestVBallot {
		in.bestVBallot, in.bestVValue = m.VBallot, m.VValue
	}
	if bits.OnesCount64(in.phase1OK) < c.quorum {
		return
	}
	// Quorum of promises: adopt the value of the highest accepted ballot,
	// if any, else keep our own.
	if in.bestVBallot >= 0 {
		in.leadValue = in.bestVValue
	}
	in.phase1, in.bestVValue = false, nil // phase 1 done for this ballot
	c.broadcastAccept(m.Instance, in)
}

func (c *Consensus) onAccept(from types.ProcessID, m AcceptMsg) {
	in := c.inst(m.Instance)
	in.maxSeen = max(in.maxSeen, m.Ballot)
	if in.decided {
		node.Send(c.api, from, c.label, decideMsg(m.Instance, in))
		return
	}
	if m.Ballot < in.promised {
		return
	}
	// A retransmitted Accept for the ballot already voted (one ballot
	// carries one value) restates durable state: nothing new is appended.
	if m.Ballot > in.accepted {
		in.promised, in.accepted, in.aValue = m.Ballot, m.Ballot, m.Value
		c.log.Append(storage.Record{Kind: storage.KindAccept, Proto: c.label, Inst: m.Instance, Ballot: m.Ballot, Value: storage.View(m.Value)})
	}
	// The vote must survive a crash before it is cast: it waits like the
	// Promise reply in onPrepare — and a retransmission's reply shares the
	// original's barrier ordering, so it cannot leak an unsynced vote.
	c.afterBarrier(trace.StageAccept, from, PromiseMsg{Instance: m.Instance, Ballot: m.Ballot}) // m.Ballot == in.accepted by now
}

func (c *Consensus) onAccepted(from types.ProcessID, m AcceptedMsg) {
	in := c.inst(m.Instance)
	if in.decided || in.ballot != m.Ballot || !in.phase2 {
		return
	}
	in.phase2OK |= c.rankBit(from)
	if bits.OnesCount64(in.phase2OK) < c.quorum {
		return
	}
	// Majority accepted: the value is chosen. Announce its ballot: every
	// acceptor that voted in it holds the value already.
	node.Multicast(c.api, c.group, c.label, DecideMsg{Instance: m.Instance, Ballot: m.Ballot})
	c.learn(m.Instance, in.leadValue)
}

// onDecide learns the carried value or, announced by reference, the value
// this acceptor accepted in the named ballot. One whose vote is for another
// ballot (Accept dropped, or a stale lower one) must not guess: it fetches.
func (c *Consensus) onDecide(from types.ProcessID, m DecideMsg) {
	switch in := c.inst(m.Instance); {
	case m.Ballot < 0:
		c.learn(m.Instance, m.Value)
	case in.decided:
	case in.accepted == m.Ballot:
		c.learn(m.Instance, in.aValue)
	default:
		c.api.Metrics().Add(metrics.LearnFetches, 1)
		node.Send(c.api, from, c.label, LearnMsg{Instance: m.Instance})
	}
}

// learn records a decision and fires the client callback exactly once.
// The decision is appended to the log BEFORE its effects run (so replay
// order matches event order) but not synced: a decision is group-durable,
// and a restarted process recovers a lost tail from live peers.
func (c *Consensus) learn(k uint64, v Value) {
	in := c.inst(k)
	if in.decided {
		return
	}
	in.decided = true
	in.decision = v
	if i, ok := slices.BinarySearch(c.pending, k); ok {
		c.pending = slices.Delete(c.pending, i, i+1)
	}
	// Nothing reads the losing proposals of a decided instance: holding them
	// would pin every member's own batch for as long as the instance lives.
	in.proposal, in.leadValue, in.bestVValue = nil, nil, nil
	if !c.recovering {
		c.log.Append(storage.Record{Kind: storage.KindDecide, Proto: c.label, Inst: k, Value: storage.View(v)})
	}
	c.api.Metrics().Add(metrics.ConsensusInstances, 1)
	c.api.Trace(trace.StageLearn, types.MessageID{}, int64(k))
	c.onDec(k, v)
}

// onLearnReq answers a peer's decision query (restart catch-up and gap
// healing); unknown instances stay silent — the asker retries elsewhere.
func (c *Consensus) onLearnReq(from types.ProcessID, m LearnMsg) {
	if in := c.lookup(m.Instance); in != nil && in.decided {
		node.Send(c.api, from, c.label, decideMsg(m.Instance, in))
	}
}

// requestDecision asks every group peer for instance k's decision.
func (c *Consensus) requestDecision(k uint64) {
	for _, q := range c.group {
		if q != c.api.Self() {
			node.Send(c.api, q, c.label, LearnMsg{Instance: k})
		}
	}
}

func (c *Consensus) onLeaderChange(leader types.ProcessID) {
	// Re-route pending proposals; a new leader takes over immediately.
	for _, k := range c.pending {
		c.drive(k)
	}
	c.armTimer()
}

// rankBit is group member p's bit in a quorum mask (a stranger's index, −1,
// shifts out to 0).
func (c *Consensus) rankBit(p types.ProcessID) uint64 { return 1 << uint(slices.Index(c.group, p)) }

// armTimer schedules the retry tick if undecided proposals exist. The timer
// chain stops as soon as pending drains, keeping the layer quiescent.
func (c *Consensus) armTimer() {
	if c.timerOn || len(c.pending) == 0 {
		return
	}
	c.timerOn = true
	c.api.After(c.retry, c.tickFn)
}

// tick is the retry timer: it re-drives every pending instance.
func (c *Consensus) tick() {
	c.timerOn = false
	for _, k := range c.pending {
		in := c.lookup(k)
		if in == nil || in.decided {
			continue
		}
		if !c.isLeader() || !in.hasLead {
			c.drive(k)
		} else {
			c.redrive(k, in)
		}
	}
	c.armTimer()
}

// redrive is the leader's retransmission of undecided instance k, which it
// leads: on its own retry tick, or on a member's (a repeated ForwardMsg).
func (c *Consensus) redrive(k uint64, in *instance) {
	switch {
	case in.maxSeen > in.ballot:
		// Outbid by a higher ballot: restart with a fresh one.
		in.ballot = c.nextBallot(in)
		in.phase1, in.phase2 = false, false
		c.lead(k, in.leadValue)
	case in.phase1:
		// Phase 1 in flight: retransmit the Prepare and keep the
		// promises collected so far. Equal-ballot Prepares are
		// re-promised, so this converges even when the retry
		// period is shorter than the group's round-trip time —
		// bumping the ballot here instead would livelock.
		node.Multicast(c.api, c.group, c.label, PrepareMsg{Instance: k, Ballot: in.ballot})
	case in.phase2:
		// Phase 2 in flight: retransmit the Accept likewise.
		node.Multicast(c.api, c.group, c.label, AcceptMsg{Instance: k, Ballot: in.ballot, Value: in.leadValue})
	default:
		c.lead(k, in.leadValue)
	}
}
