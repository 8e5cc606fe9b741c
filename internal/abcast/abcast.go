// Package abcast implements Algorithm A2 of the paper: the first
// fault-tolerant atomic broadcast with a latency degree of one (§5).
//
// The algorithm is proactive: processes execute an unbounded sequence of
// rounds. In round K, each group agrees (by intra-group consensus) on its
// bundle of messages — the messages R-Delivered locally but not yet
// A-Delivered — then groups exchange bundles, and everyone A-Delivers the
// union of all round-K bundles in a deterministic order. Because a message
// R-MCast inside its caster's group rides the very next bundle exchange,
// its only inter-group delay is that single exchange: latency degree one.
//
// Quiescence (Prop. A.9) comes from the Barrier variable: a round that
// delivers nothing does not raise the Barrier, so once R-Delivered messages
// drain and casts cease, line 11's guard goes false forever and processes
// stop. A cast arriving after quiescence restarts rounds — the caster's
// group via line 11's first disjunct, the other groups via the bundle they
// receive (line 10) — at the cost of latency degree two (Theorem 5.2),
// which §3 proves unavoidable. The predictor's patience is not a knob: it is
// the paper's one round past a useful one, a window of rounds when
// pipelining, plus the stream rule below — this package's answer to the
// "more elaborate prediction strategies" §5.3 leaves open.
//
// Rounds run on the batched, pipelined ordering engine of
// internal/consensus, shared with Algorithm A1: the engine owns the
// propose window (Config.Pipeline rounds in flight beyond the current
// delivery round), the per-round batch cap (Config.MaxBatch), in-flight
// exclusion, and in-order consumption of out-of-order decisions. The
// quiescence logic stays here, expressed as the engine's Gate: a round
// past the Barrier with nothing to propose is not started.
//
// With Pipeline P > 1 the proactivity covers the whole window: a useful
// round K raises the Barrier to K+P (the paper: K+1), and every process opens
// the next round on its own clock, D/P after the previous one, D being its
// running estimate of a round's open→complete time. All groups so open the
// same rounds at one cadence without first hearing a remote bundle for them;
// a cast waits at most D/P for a round open everywhere, then one WAN delay.
// The price is rounds: up to P per round time while traffic is live, and P
// empty ones before quiescence. The cadence is derived, not configured, and
// soft state: none of it is logged or snapshotted.
//
// The Barrier rule tells a stream from a lone cast. Round K raises the
// Barrier when it completes, a round time — P pace slots — after it opened,
// so with K+P every useless round of a live stream finds an idle group's
// next round already past its Barrier: that round opens a slot or two late,
// on the next useful completion, while the group holding a cast opened it on
// time and waits. So once two useful rounds lie within 2P rounds of each
// other, a useful round K raises the Barrier to K+2P, one window of patience
// beyond the window itself, and a stream misses a round only after P useless
// ones in a row. A round that leaves the Barrier behind ends the stream: the
// next cast is a lone one again and costs P empty rounds, a stream that stops
// costs 2P, and every finite workload still quiesces. The predictor's memory
// is one round number, soft state like the cadence.
//
// Line 15 — every member ships its group's bundle — also splits on P. With
// P > 1 a member ships iff, in its own Ω view, it is the group's leader or
// the leader's successor in rank order: two copies reach each receiver, not
// d (one copy would make any slow sender the round's tail). On every Ω
// change a member that finds itself a sender re-ships the decided bundles of
// rounds K−P to the highest open one: a group that lacks round r's bundle
// completes no round past r, so no sender runs more than a window ahead of
// it, consensus keeps decided instances, and a receiver drops a repeat
// undecoded. Up to f < d/2 crashes between decide and ship thus still reach
// every receiver — given, as everywhere here, that a copy sent by a process
// that stays up arrives. P ≤ 1 keeps line 15 verbatim, and not for taste:
// Theorem 5.1's degree of one is measured on the modified Lamport clocks,
// which tick on inter-group sends; when every member ships every round the
// members' clocks advance in lockstep, and with the reduced sender set a
// cast from a non-sender measures degree two at unchanged wall latency
// (TestSustainedStreamKeepsDegreeOne's rank-2 casters).
package abcast

import (
	"cmp"
	"fmt"
	"slices"
	"sync/atomic"
	"time"

	"wanamcast/internal/consensus"
	"wanamcast/internal/fd"
	"wanamcast/internal/metrics"
	"wanamcast/internal/node"
	"wanamcast/internal/rmcast"
	"wanamcast/internal/statesync"
	"wanamcast/internal/storage"
	"wanamcast/internal/trace"
	"wanamcast/internal/types"
)

// Record is one broadcast message as it travels in bundles.
type Record struct {
	ID      types.MessageID
	Payload any
}

// ItemID implements consensus.Item.
func (r Record) ItemID() types.MessageID { return r.ID }

// BundleMsg is the (K, msgSet) inter-group message of line 15.
type BundleMsg struct {
	Round uint64
	Set   []Record
	// enc stands in for Set on a bundle decoded from the wire (see Records):
	// more than one member of a group ships the group's bundle, so a receiver
	// drops all copies but the first, and only the kept one should pay for
	// decoding.
	enc []byte
}

// Config configures an A2 endpoint on one process.
type Config struct {
	Host     node.Registrar
	Detector fd.Detector
	// OnDeliver is invoked on every A-Deliver, in delivery order. May be
	// nil.
	OnDeliver func(id types.MessageID, payload any)
	// ConsensusRetry overrides the consensus retry interval.
	ConsensusRetry time.Duration
	// LabelPrefix namespaces the wire labels (default "a2").
	LabelPrefix string
	// NextID overrides cast-ID allocation. Hosts running several casting
	// endpoints on one process must share one allocator, or their message
	// IDs collide. Nil uses a private per-endpoint counter.
	NextID func() types.MessageID
	// Pipeline is the maximum number of rounds in flight. The paper's
	// Algorithm A2 is strictly sequential (Pipeline 1, the default): the
	// wait at line 16 blocks round K+1's consensus until round K's
	// bundles arrive, so round throughput is one per inter-group delay.
	// Higher values are an extension: a group may propose and ship rounds
	// K+1..K+Pipeline−1 while earlier bundles are still in flight;
	// A-Delivery still happens strictly in round order, so every §2.2
	// property is preserved. While traffic is live every group opens the
	// window's rounds at a derived pace of one per (round time / Pipeline),
	// so a message waits that long, not a WAN delay, for a round already
	// open everywhere, and two members of a group, not all, ship its
	// bundles (package doc: Barrier rule, sender set, price in rounds).
	// Pipeline is also the quiescence predictor's patience: a useful round
	// keeps the whole window live, so Pipeline empty rounds follow a lone
	// cast (at Pipeline 1 the paper's one, lines 22–23); with Pipeline > 1
	// a stream of useful rounds earns Pipeline more, so 2×Pipeline empty
	// rounds end a stream. Messages decided in an in-flight round are
	// excluded from later proposals, but that exclusion is local to each
	// proposer: with Pipeline >= 2 two members can decide the same record
	// into two rounds' bundles, so bundle shipping is at-least-once.
	// Delivery stays exactly-once — tryCompleteRound dedups via ADELIVERED
	// identically at every process.
	Pipeline int
	// MaxBatch caps how many records one round's bundle may carry. Zero
	// means unbounded — the paper's rule (the bundle is everything
	// R-Delivered but not yet A-Delivered).
	MaxBatch int
	// Log, when non-nil, makes the endpoint durable: the consensus
	// acceptor persists promises and votes, round decisions and received
	// remote bundles are appended for replay, and state transfer
	// (StartSync) records the rounds it adopts from peers.
	Log *storage.Log
	// Sync sets the state-transfer archive bound and completion hooks.
	Sync statesync.Options
}

// Bcast is the per-process Algorithm A2 endpoint.
type Bcast struct {
	api       node.API
	senders   fd.Senders // who ships this group's bundles (package doc: line 15)
	onDeliver func(types.MessageID, any)
	label     string

	rm     *rmcast.RMcast
	engine *consensus.Batcher[Record]
	// outside lists every process of the other groups, line 15's addressees.
	// It is built on the first ship: an endpoint that never ships — an idle A2
	// beside A1 on a simulated process — holds nothing that grows with the
	// system.
	outside []types.ProcessID

	// wm counts this endpoint's A-Deliveries, readable lock-free off the
	// event loop (the read tier's delivery watermark).
	wm atomic.Uint64

	k          uint64 // current delivery round (line 2's K)
	rdelivered map[types.MessageID]Record
	adelivered map[types.MessageID]bool
	rdOrder    []types.MessageID // R-Delivery order, for deterministic proposals
	barrier    uint64
	ring       []roundSlot              // Msgs: the uncompleted rounds' bundles, round r in ring[r%len] (see slot)
	inDecided  map[types.MessageID]bool // decided into a bundle, not yet delivered
	castSeq    uint64
	nextID     func() types.MessageID
	rdAt       map[types.MessageID]orderSpan // own-group messages being ordered, kept only while tracing

	// Round pacing (Pipeline > 1; see mayPropose). Soft state, reset by state
	// transfer: a restarted endpoint runs unpaced until it has timed a round.
	pipeline time.Duration // Config.Pipeline, at least 1
	paceD    time.Duration // estimated open→complete time of a round; 0 = none yet
	opened   uint64        // highest round known open in this group
	openedAt time.Duration // when opened last advanced
	probe    uint64        // round being timed for paceD; 0 = none
	probeAt  time.Duration // when the probe round opened
	paceAt   time.Duration // deadline of the armed pace timer; 0 = none
	paceFn   func()        // the pace timer's callback, built once
	slotted  uint64        // latest round held back for its pace slot: it was proposable before the slot came
	shut     uint64        // latest round the Barrier refused
	// lastUseful is the stream predictor's memory (Pipeline > 1; see
	// deliverRound): the latest useful round, 0 once quiescence was predicted.
	lastUseful uint64

	// Durability & recovery state (see Config.Log). The sync position is k.
	log  *storage.Log
	sync *statesync.Engine[RoundSet, SyncTail]
}

// orderSpan times one message through A2's order stage for the tracer.
type orderSpan struct {
	rd      time.Duration // R-Delivery
	decided time.Duration // its bundle decided in this group; 0 = not yet
}

// roundSlot holds one uncompleted round's bundles. A completed round's slot
// is reused, sets and all, by a later round.
type roundSlot struct {
	round  uint64     // 0 = free: rounds count from 1
	sets   [][]Record // by sender group, this group's being its decided one; nil = not in (an empty one is non-nil)
	remote int        // bundles in from other groups
}

var _ node.Protocol = (*Bcast)(nil)

// New builds an A2 endpoint and registers it (with its sub-protocols) on
// the host process.
func New(cfg Config) *Bcast {
	if cfg.Host == nil || cfg.Detector == nil {
		panic("abcast: Config.Host and Detector are required")
	}
	prefix := cfg.LabelPrefix
	if prefix == "" {
		prefix = "a2"
	}
	pipeline := max(cfg.Pipeline, 1)
	b := &Bcast{
		api:        cfg.Host,
		onDeliver:  cfg.OnDeliver,
		label:      prefix,
		pipeline:   time.Duration(pipeline),
		k:          1,
		rdelivered: make(map[types.MessageID]Record),
		adelivered: make(map[types.MessageID]bool),
		ring:       make([]roundSlot, 4*pipeline),
		inDecided:  make(map[types.MessageID]bool),
		nextID:     cfg.NextID,
		log:        cfg.Log,
	}
	b.sync = statesync.New(statesync.Config[RoundSet, SyncTail]{
		API:     cfg.Host,
		Label:   prefix,
		Batch:   syncBatch,
		Codec:   syncCodec,
		Pos:     b.Round,
		Apply:   func(rs RoundSet) { b.applySyncRound(rs, false) },
		Tail:    b.syncTail,
		Adopt:   b.adoptState,
		Resume:  b.resumeRounds,
		Options: cfg.Sync,
	})
	topo := cfg.Host.Topo()
	copies := 0 // line 15: every member ships
	if pipeline > 1 {
		copies = 2 // the leader and its successor: one slow sender is not the round's tail
	}
	b.senders = fd.NewSenders(cfg.Detector, topo, cfg.Host.Self(), copies)
	b.paceFn = func() {
		b.paceAt = 0
		b.engine.Pump()
	}
	if b.nextID == nil {
		b.nextID = func() types.MessageID {
			b.castSeq++
			return types.MessageID{Origin: b.api.Self(), Seq: b.castSeq}
		}
	}
	b.rm = rmcast.New(rmcast.Config{
		API:        cfg.Host,
		Mode:       rmcast.ModeEager, // intra-group only: cheap, robust agreement
		OnDeliver:  b.onRDeliver,
		ProtoLabel: prefix + ".rm",
	})
	b.engine = consensus.NewBatcher(consensus.BatcherConfig[Record]{
		API:           cfg.Host,
		Detector:      cfg.Detector,
		RetryInterval: cfg.ConsensusRetry,
		ProtoLabel:    prefix + ".cons",
		MaxBatch:      cfg.MaxBatch,
		Pipeline:      cfg.Pipeline,
		Log:           cfg.Log,
		Fill:          b.fillBundle,
		Gate:          b.mayPropose,
		Base:          func() uint64 { return b.k },
		OnDecide:      b.shipBundle,
		OnApply:       b.applyRound,
	})
	cfg.Host.Register(b.rm)
	cfg.Host.Register(b.engine.Protocol())
	cfg.Host.Register(b)
	return b
}

// Proto implements node.Protocol.
func (b *Bcast) Proto() string { return b.label }

// Start implements node.Protocol: when pipelining, a member that Ω makes a
// sender ships what the previous senders may not have (see reship).
func (b *Bcast) Start() { b.senders.OnChange(b.api.Crashed, b.reship) }

// ABCast atomically broadcasts payload to all groups and returns the
// assigned message ID (Task 1, lines 4–5): the message is reliably
// multicast to the caster's own group only.
func (b *Bcast) ABCast(payload any) types.MessageID {
	id := b.nextID()
	b.api.RecordCast(id)
	own := types.NewGroupSet(b.api.Group())
	b.rm.MCast(rmcast.Message{ID: id, Dest: own, Payload: payload})
	return id
}

// Round returns the process's current round number K (for tests).
func (b *Bcast) Round() uint64 { return b.k }

// Barrier returns the current Barrier value (for tests).
func (b *Bcast) Barrier() uint64 { return b.barrier }

// onRDeliver is Task 2, lines 6–7.
func (b *Bcast) onRDeliver(m rmcast.Message) {
	if b.adelivered[m.ID] {
		// Already A-Delivered via a remote bundle (and pruned from the
		// R-Delivered working set); re-admitting would re-propose it.
		return
	}
	if _, ok := b.rdelivered[m.ID]; ok {
		return
	}
	b.rdelivered[m.ID] = Record{ID: m.ID, Payload: m.Payload}
	b.rdOrder = append(b.rdOrder, m.ID)
	if b.api.Tracing() {
		if b.rdAt == nil {
			b.rdAt = make(map[types.MessageID]orderSpan)
		}
		b.rdAt[m.ID] = orderSpan{rd: b.api.Now()}
	}
	b.engine.Pump()
}

// Receive implements node.Protocol: it handles bundle messages from other
// groups (Task 3, lines 8–10) and the restart state-transfer exchange.
func (b *Bcast) Receive(from types.ProcessID, body any) {
	switch m := body.(type) {
	case BundleMsg:
		g := b.api.Topo().GroupOf(from)
		if s := b.slot(m.Round, false); m.Round < b.k || (s != nil && s.sets[g] != nil) {
			b.api.Metrics().Add(metrics.BundleRepeatsDropped, 1)
			return // a repeated or late copy changes nothing: drop it undecoded
		}
		set, err := m.Records()
		if err != nil {
			b.api.Tracef("a2: dropping undecodable round-%d bundle from %v: %v", m.Round, from, err)
			return
		}
		b.handleBundle(g, m.Round, set, false)
	default:
		if !b.sync.Receive(from, body) {
			panic(fmt.Sprintf("abcast: unexpected message %T", body))
		}
	}
}

// handleBundle records one remote group's round bundle. replay marks WAL
// replay: state advances identically but nothing is re-logged.
func (b *Bcast) handleBundle(g types.GroupID, round uint64, set []Record, replay bool) {
	b.storeBundle(g, round, set, replay)
	b.engine.Pump()
	b.tryCompleteRound()
}

// slot returns the ring slot of an uncompleted round, or nil if it has none
// and create is false. Rounds in flight span a few pipeline depths; should
// two ever fall on one slot, the ring doubles until they do not.
func (b *Bcast) slot(round uint64, create bool) *roundSlot {
	for {
		s := &b.ring[round%uint64(len(b.ring))]
		if s.round == round {
			return s
		}
		if !create {
			return nil
		}
		if s.round == 0 {
			s.round = round
			if s.sets == nil {
				s.sets = make([][]Record, b.api.Topo().NumGroups())
			}
			return s
		}
		old := b.ring
		b.ring = make([]roundSlot, 2*len(old))
		for _, o := range old {
			if o.round != 0 {
				b.ring[o.round%uint64(len(b.ring))] = o // distinct mod n stay distinct mod 2n
			}
		}
	}
}

// storeBundle is lines 9–10: file group g's bundle under its round — the
// group's own is its decided one — and raise the Barrier to a remote one's
// round. State transfer and snapshot restore use it directly.
func (b *Bcast) storeBundle(g types.GroupID, round uint64, set []Record, replay bool) {
	if round < b.k {
		// The round already completed here: every member of the sender
		// group ships its group's bundle, so late copies keep arriving
		// after the first one completed the round. Storing them would
		// occupy a slot nothing ever reads or frees again; and a
		// completed round can no longer need the Barrier raised to it
		// (future rounds are all > round).
		return
	}
	own := g == b.api.Group()
	if s := b.slot(round, true); s.sets[g] == nil {
		s.sets[g] = set
		if set == nil {
			s.sets[g] = []Record{} // in, though empty
		}
		if !own {
			s.remote++
		}
		if !own && !replay && b.log != nil {
			// Unsynced: a lost tail bundle is re-fetched from peers by the
			// next restart's state transfer.
			b.log.Append(storage.Record{Kind: storage.KindBundle, Proto: b.label,
				Inst: round, Aux: uint64(g), Value: set})
		}
	}
	if !own && round > b.barrier {
		b.barrier = round
	}
}

// fillBundle is the engine's Fill hook (Task 4, line 12's msgSet):
// RDELIVERED \ ADELIVERED, minus messages decided into an undelivered
// bundle or in flight in an undecided round (relevant only when
// pipelining), in R-Delivery order up to limit. Both fences are local to
// this proposer — a record this process never proposed can still be
// decided into two concurrent rounds by different members — so they bound
// redundant shipping rather than prevent it (see Config.Pipeline).
func (b *Bcast) fillBundle(exclude func(types.MessageID) bool, limit int) []Record {
	var out []Record
	for _, id := range b.rdOrder {
		if b.adelivered[id] || b.inDecided[id] || exclude(id) {
			continue
		}
		out = append(out, b.rdelivered[id])
		if limit > 0 && len(out) == limit {
			break
		}
	}
	return out
}

// mayPropose is the engine's Gate (line 11's guard, generalized): a round
// is started if it is within the Barrier (keepalive) or there is something
// to propose — and, when pipelining, no sooner than a Pipeline-th of a
// round time after the previous round, so the window's rounds spread over
// the round time instead of bunching at its start. A round held back arms
// the pace timer: it is never forgotten.
func (b *Bcast) mayPropose(inst uint64, batch []Record) bool {
	if inst > b.barrier && len(batch) == 0 {
		b.shut = inst
		return false
	}
	if b.pipeline > 1 {
		now := b.api.Now()
		if due := b.openedAt + b.paceD/b.pipeline; inst > b.opened && due > now {
			b.slotted = inst
			if b.paceAt == 0 || b.paceAt > due {
				b.paceAt = due
				b.api.After(due-now, b.paceFn)
			}
			return false
		}
		b.noteOpen(inst, now)
	}
	return true
}

// noteOpen records that round inst is open in this group — proposed here or
// learned decided — and starts timing it if no round is being timed. A round
// opens late when the Barrier held it shut past its pace slot, until a cast
// or a remote bundle arrived; one that merely waited for the propose window
// is on the pace.
func (b *Bcast) noteOpen(inst uint64, now time.Duration) {
	if inst <= b.opened || inst < b.k {
		return
	}
	slot := metrics.RoundsOnPace
	if b.shut == inst && b.slotted != inst && now > b.openedAt+b.paceD/b.pipeline {
		slot = metrics.RoundsLate
	}
	b.api.Metrics().AddGroup(b.api.Group(), slot, 1)
	b.opened, b.openedAt = inst, now
	if b.probe == 0 {
		b.probe, b.probeAt = inst, now
	}
}

// shipBundle is the engine's OnDecide hook (line 14's "When Decided" and
// line 15): the moment our group's round bundle is decided — possibly out
// of round order when pipelining — ship it to every process outside the
// group, if this member is a sender, and fence its records against
// re-proposal.
func (b *Bcast) shipBundle(inst uint64, set []Record) {
	for _, rec := range set {
		b.inDecided[rec.ID] = true
	}
	if len(b.rdAt) > 0 {
		now := b.api.Now()
		for _, rec := range set {
			if sp, ok := b.rdAt[rec.ID]; ok && sp.decided == 0 {
				sp.decided = now
				b.rdAt[rec.ID] = sp
				b.api.Trace(trace.StageRoundWait, rec.ID, int64(now-sp.rd))
			}
		}
	}
	if b.pipeline > 1 {
		b.noteOpen(inst, b.api.Now())
	}
	if b.senders.Sends() {
		b.ship(inst, set)
	}
}

// ship sends one round's bundle of this group to every process outside it.
func (b *Bcast) ship(round uint64, set []Record) {
	if b.outside == nil {
		topo, own := b.api.Topo(), b.api.Group()
		b.outside = make([]types.ProcessID, 0, topo.N()-len(topo.Members(own)))
		for _, g := range topo.AllGroups().Groups() {
			if g != own {
				b.outside = append(b.outside, topo.Members(g)...)
			}
		}
	}
	b.api.Metrics().Add(metrics.BundleCopiesSent, len(b.outside))
	b.api.Multicast(b.outside, b.label, BundleMsg{Round: round, Set: set})
}

// reship runs on every Ω change in this group that finds this member a
// sender: it ships the group's decided bundles of rounds K−Pipeline up
// to the highest open one, which the previous senders may have crashed
// before shipping. No older round can be missing anywhere: a group that
// lacks round r's bundle completes no round past r and proposes none past
// r+Pipeline−1, so no sender is more than Pipeline rounds ahead of it.
// Receivers drop the copies they already have undecoded.
func (b *Bcast) reship() {
	window := uint64(b.pipeline)
	for r := max(b.k, window+1) - window; r <= b.opened; r++ {
		if set, ok := b.engine.Decided(r); ok {
			b.ship(r, set)
		}
	}
}

// applyRound is the engine's OnApply hook: decisions arrive here in dense
// round order; completing the round additionally waits for the other
// groups' bundles (the wait at line 16).
func (b *Bcast) applyRound(inst uint64, set []Record) {
	b.storeBundle(b.api.Group(), inst, set, true)
	b.tryCompleteRound()
}

// tryCompleteRound is the event-driven form of the wait at line 16: once
// our own round-K bundle is decided and a bundle from every other group has
// arrived, execute lines 17–23.
func (b *Bcast) tryCompleteRound() {
	if b.sync.Gated() {
		// State transfer in progress: rounds this process missed must be
		// adopted (in order) before any new round may deliver.
		return
	}
	s, own := b.slot(b.k, false), b.api.Group()
	if s == nil || s.sets[own] == nil || s.remote < len(s.sets)-1 {
		return
	}
	// Lines 17–18: the round's delivery set is the union of all bundles,
	// built at its final size: the sync archive keeps it.
	n := 0
	for _, set := range s.sets {
		n += len(set)
	}
	union := append(make([]Record, 0, n), s.sets[own]...)
	for g, set := range s.sets {
		if types.GroupID(g) != own {
			union = append(union, set...)
		}
	}
	// Line 19: deterministic order — ascending message ID.
	slices.SortFunc(union, func(x, y Record) int {
		return cmp.Or(cmp.Compare(x.ID.Origin, y.ID.Origin), cmp.Compare(x.ID.Seq, y.ID.Seq))
	})
	b.deliverRound(union, "")
	if b.probe == b.k-1 {
		// The timed round completed: fold its open→complete time into the
		// estimate. It falls at once and rises slowly — one stalled round
		// must not slow the cadence of the rounds after it.
		if d := b.api.Now() - b.probeAt; b.paceD == 0 || d < b.paceD {
			b.paceD = d
		} else {
			b.paceD += (d - b.paceD) / 4
		}
		b.probe = 0
	}
	// An already-received decision or bundle may complete the next round.
	b.engine.Pump()
	b.tryCompleteRound()
}

// deliverRound executes lines 19–23 for round K's union, already in delivery
// order: A-Deliver what is new, close the round, move to the next. State
// transfer and its replay repeat the group's rounds through it (how says so).
func (b *Bcast) deliverRound(union []Record, how string) {
	for _, rec := range union {
		delete(b.inDecided, rec.ID)
		delete(b.rdelivered, rec.ID)
		if b.adelivered[rec.ID] {
			delete(b.rdAt, rec.ID)
			continue
		}
		b.adelivered[rec.ID] = true
		b.wm.Add(1)
		if sp, ok := b.rdAt[rec.ID]; ok {
			// Ordering residency: R-Delivery → round completion, and the
			// share of it after the bundle was decided here.
			now := b.api.Now()
			b.api.Trace(trace.StageOrder, rec.ID, int64(now-sp.rd))
			if sp.decided != 0 {
				b.api.Trace(trace.StageBlocked, rec.ID, int64(now-sp.decided))
			}
			delete(b.rdAt, rec.ID)
		}
		b.api.RecordDeliver(rec.ID)
		if b.api.TraceOn() {
			b.api.Tracef("a2: A-Deliver %v in round %d%s", rec.ID, b.k, how)
		}
		if b.onDeliver != nil {
			b.onDeliver(rec.ID, rec.Payload)
		}
	}
	// Compact the R-Delivery working set: fillBundle walks rdOrder on
	// every Pump, so delivered entries must not accumulate across rounds.
	if len(union) > 0 {
		b.compactRDOrder()
	}
	if s := b.slot(b.k, false); s != nil {
		clear(s.sets)
		s.round, s.remote = 0, 0
	}
	b.sync.Record(RoundSet{Round: b.k, Set: union})
	// Line 21.
	b.k++
	// Lines 22–23: keep rounds running only if this one was useful. The
	// predictor's patience is the window: a useful round keeps the next
	// Pipeline rounds live (the paper's one at Pipeline 1).
	if len(union) == 0 {
		if b.k > b.barrier {
			b.lastUseful = 0 // quiescence predicted: the next cast is a lone one
		}
		return
	}
	window := uint64(b.pipeline)
	patience := window
	if window > 1 {
		// A stream — two useful rounds within two windows of each other —
		// earns one more window of patience: the Barrier rises only when a
		// round completes, a window after it opened, so without the slack
		// every useless round of a live stream closes the Barrier on an idle
		// group's next round (package doc).
		if useful := b.k - 1; b.lastUseful != 0 && useful-b.lastUseful <= 2*window {
			patience += window
		}
		b.lastUseful = b.k - 1
	}
	if b.k+patience-1 > b.barrier {
		b.barrier = b.k + patience - 1
	}
}
