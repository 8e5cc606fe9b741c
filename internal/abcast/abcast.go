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
// Rounds run on consensus.Batcher, as A1's instances do: it owns the propose
// window (Pipeline rounds from the delivery round on), the bundle cap
// (MaxBatch), in-flight exclusion and in-order application. The quiescence
// logic stays here as its Gate: a round past the Barrier with nothing to
// propose is not started.
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
// P > 1 two members ship (package group has the argument): in each member's
// own Ω view, the group's leader and its successor in rank order, so two
// copies reach each receiver, not d (one copy would make any slow sender the
// round's tail). A new sender re-ships the decided bundles of rounds K−P to
// the highest open one (reship). That reaches every receiver within a window
// of the sender's round, not one that lags its own group by more: a receiver
// whose round K has waited on a group's bundle pulls it (pull), and a member
// answers with its group's decided bundle of round K, which consensus keeps
// (answerPull) — a function of the round's decision, as a re-ship is. A
// receiver drops a repeat. P ≤ 1 keeps line 15 verbatim, and not
// for taste: Theorem 5.1's degree of one is measured on the modified Lamport
// clocks, which tick on inter-group sends; when every member ships every
// round the members' clocks advance in lockstep, and with the reduced sender
// set a cast from a non-sender measures degree two at unchanged wall latency
// (TestSustainedStreamKeepsDegreeOne's rank-2 casters).
//
// Recovery is the group endpoint's (package group). A2 snapshots its round,
// Barrier, R-Delivered working set and bundles (save, load), and replays
// remote bundles and adopted rounds (replay). A state transfer's position is
// K, its record a completed round's union (RoundSet), its tail the Barrier
// and the remote bundles in flight (SyncTail). No round completes while the
// gate is shut.
package abcast

import (
	"cmp"
	"slices"
	"time"

	"wanamcast/internal/consensus"
	"wanamcast/internal/group"
	"wanamcast/internal/metrics"
	"wanamcast/internal/node"
	"wanamcast/internal/rmcast"
	"wanamcast/internal/statesync"
	"wanamcast/internal/storage"
	"wanamcast/internal/trace"
	"wanamcast/internal/types"
)

// Record is one broadcast message as it travels in bundles: A2 reads its ID
// only, and carries the payload bytes as they were cast.
type Record struct {
	ID      types.MessageID
	Payload []byte
}

// ItemID implements consensus.Item.
func (r Record) ItemID() types.MessageID { return r.ID }

// BundleMsg is the (K, msgSet) inter-group message of line 15.
type BundleMsg struct {
	Round uint64
	Set   []Record
}

// PullMsg asks a member of another group for its group's bundle of Round
// (see pull).
type PullMsg struct {
	Round uint64
}

// Config configures an A2 endpoint on one process. Pipeline is also the
// maximum number of rounds in flight and the quiescence predictor's patience
// (package doc); MaxBatch caps a round's bundle.
type Config = group.Config

// Bcast is the per-process Algorithm A2 endpoint: A2's rule on a group's.
type Bcast struct {
	*group.Endpoint[Record, RoundSet, SyncTail]
	api       *node.Proc
	onDeliver func(types.MessageID, []byte)
	// outside lists every process of the other groups, line 15's addressees,
	// from the first ship on: an endpoint that never ships (an idle A2 beside
	// A1 on a simulated process) holds nothing that grows with the system.
	outside []types.ProcessID

	k          uint64 // current delivery round (line 2's K)
	rdelivered map[types.MessageID]Record
	adelivered map[types.MessageID]bool
	rdOrder    []types.MessageID // R-Delivery order, for deterministic proposals
	barrier    uint64
	ring       []roundSlot                   // Msgs: the uncompleted rounds' bundles, round r in ring[r%len] (see slot)
	inDecided  map[types.MessageID]bool      // decided into a bundle, not yet delivered
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
	since  uint64     // the pull tick on which this group's own bundle came in (group.Endpoint.Wait)
}

// New builds an A2 endpoint and registers it on the host process.
func New(cfg Config) *Bcast {
	pipeline := max(cfg.Pipeline, 1)
	b := &Bcast{
		api:        cfg.Host,
		onDeliver:  cfg.OnDeliver,
		pipeline:   time.Duration(pipeline),
		k:          1,
		rdelivered: make(map[types.MessageID]Record),
		adelivered: make(map[types.MessageID]bool),
		ring:       make([]roundSlot, 4*pipeline),
		inDecided:  make(map[types.MessageID]bool),
	}
	b.paceFn = func() {
		b.paceAt = 0
		b.Engine.Pump()
	}
	b.Endpoint = group.New(cfg, group.Rule{
		Label:      "a2",
		Mode:       rmcast.ModeEager, // intra-group only: cheap, robust agreement
		OnRDeliver: b.onRDeliver,
		Copies:     2, // the leader and its successor: one slow sender is not the round's tail
		Reship:     b.reship,
		Pull:       b.pull,
		Save:       b.save,
		Load:       b.load,
		Replay:     b.replay,
	}, consensus.BatcherConfig[Record]{
		Fill:     b.fillBundle,
		Gate:     b.mayPropose,
		Base:     func() uint64 { return b.k },
		OnDecide: b.shipBundle,
		OnApply:  b.applyRound,
	}, statesync.Config[RoundSet, SyncTail]{
		Batch:  syncBatch,
		Codec:  syncCodec,
		Pos:    b.Round,
		Apply:  func(rs RoundSet) { b.applySyncRound(rs, false) },
		Tail:   b.syncTail,
		Adopt:  b.adoptState,
		Resume: b.resumeRounds,
	})
	cfg.Host.Register(b)
	return b
}

// Handlers implements node.Protocol.
func (b *Bcast) Handlers() []node.Handler { return handlers }

var handlers = append([]node.Handler{node.On((*Bcast).onBundle),
	node.On(func(b *Bcast, from types.ProcessID, m PullMsg) { b.answerPull(from, m.Round) })},
	statesync.Handlers(func(b *Bcast) *statesync.Engine[RoundSet, SyncTail] { return b.Sync })...)

// ABCast atomically broadcasts payload to all groups and returns the
// assigned message ID (Task 1, lines 4–5): the message is reliably
// multicast to the caster's own group only.
func (b *Bcast) ABCast(payload []byte) types.MessageID {
	return b.Cast(payload, types.NewGroupSet(b.api.Group()))
}

// Round returns the process's current round number K (for tests).
func (b *Bcast) Round() uint64 { return b.k }

// onRDeliver is Task 2, lines 6–7.
func (b *Bcast) onRDeliver(m rmcast.Message) {
	if _, ok := b.rdelivered[m.ID]; ok || b.adelivered[m.ID] {
		return // a repeat, or A-Delivered off a remote bundle and pruned: re-admitting would re-propose it
	}
	b.rdelivered[m.ID] = Record{ID: m.ID, Payload: m.Payload}
	b.rdOrder = append(b.rdOrder, m.ID)
	if b.api.Tracing() {
		if b.rdAt == nil {
			b.rdAt = make(map[types.MessageID]orderSpan)
		}
		b.rdAt[m.ID] = orderSpan{rd: b.api.Now()}
	}
	b.Engine.Pump()
}

// onBundle handles a bundle message from another group (Task 3, lines 8–10).
func (b *Bcast) onBundle(from types.ProcessID, m BundleMsg) {
	g := b.api.Topo().GroupOf(from)
	if s := b.slot(m.Round, false); m.Round < b.k || (s != nil && s.sets[g] != nil) {
		b.api.Metrics().Add(metrics.BundleRepeatsDropped, 1)
		return // a repeated or late copy changes nothing
	}
	b.handleBundle(g, m.Round, m.Set, false)
}

// handleBundle records one remote group's round bundle. replay marks WAL
// replay: state advances identically but nothing is re-logged.
func (b *Bcast) handleBundle(g types.GroupID, round uint64, set []Record, replay bool) {
	b.storeBundle(g, round, set, replay)
	b.Engine.Pump()
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
		if own {
			s.since = b.Wait()
		} else {
			s.remote++
			if !replay && b.Log != nil {
				// Unsynced: a lost tail bundle is re-fetched from peers by the
				// next restart's state transfer.
				b.Log.Append(storage.Record{Kind: storage.KindBundle, Proto: b.Proto(),
					Inst: round, Aux: uint64(g), Value: set})
			}
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
// redundant shipping rather than prevent it, and deliverRound dedups through
// ADELIVERED identically at every process. A full-only fill counts first and
// builds only a full bundle; short of limit R-Delivered records it does not
// count.
func (b *Bcast) fillBundle(exclude func(types.MessageID) bool, limit int, full bool) []Record {
	if full && len(b.rdOrder) < limit {
		return nil
	}
	var out []Record
	n := 0
	for _, id := range b.rdOrder {
		if b.adelivered[id] || b.inDecided[id] || exclude(id) {
			continue
		}
		if n++; !full {
			out = append(out, b.rdelivered[id])
		}
		if n == limit {
			break
		}
	}
	if full && n == limit {
		return b.fillBundle(exclude, limit, false)
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
	if b.Sends() {
		b.ship(inst, set)
	}
}

// ship sends one round's bundle of this group to every process outside it.
func (b *Bcast) ship(round uint64, set []Record) {
	if b.outside == nil {
		topo := b.api.Topo()
		b.outside = topo.AppendProcessesIn(make([]types.ProcessID, 0, topo.N()), topo.AllGroups(), b.api.Group())
	}
	b.api.Metrics().Add(metrics.BundleCopiesSent, len(b.outside))
	node.Multicast(b.api, b.outside, b.Proto(), BundleMsg{Round: round, Set: set})
}

// reship is the group's Reship hook: the decided bundles of rounds K−Pipeline
// to the highest open one. A group that lacks round r's bundle proposes no
// round past r+Pipeline−1, so the window reaches every group; a member that
// lags its own group by more pulls.
func (b *Bcast) reship() {
	window := uint64(b.pipeline)
	for r := max(b.k, window+1) - window; r <= b.opened; r++ {
		if set, ok := b.Engine.Decided(r); ok {
			b.ship(r, set)
		}
	}
}

// pull is the group's Pull hook: round K waits, once this group's own bundle
// of it is in, on each group whose bundle it lacks.
func (b *Bcast) pull() {
	s := b.slot(b.k, false)
	if s == nil || s.sets[b.api.Group()] == nil || s.remote == len(s.sets)-1 {
		return
	}
	if n := b.Due(s.since); n > 0 {
		for g, set := range s.sets {
			if set == nil {
				node.Send(b.api, b.Ask(types.GroupID(g), n), b.Proto(), PullMsg{Round: b.k})
			}
		}
	}
}

// answerPull sends the asker this group's bundle of round r, if this member
// has learned its decision.
func (b *Bcast) answerPull(to types.ProcessID, r uint64) {
	set, ok := b.Engine.Decided(r)
	if !ok {
		b.api.Metrics().Add(metrics.BundlePullsUnserved, 1)
		return
	}
	b.api.Metrics().Add(metrics.BundlePullsServed, 1)
	node.Send(b.api, to, b.Proto(), BundleMsg{Round: r, Set: set})
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
	if b.Syncing() {
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
	b.Engine.Pump()
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
		b.rdOrder = slices.DeleteFunc(b.rdOrder, func(id types.MessageID) bool { _, ok := b.rdelivered[id]; return !ok })
	}
	if s := b.slot(b.k, false); s != nil {
		clear(s.sets)
		s.round, s.remote = 0, 0
	}
	b.Sync.Record(RoundSet{Round: b.k, Set: union})
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

// syncBatch bounds the rounds one state-transfer answer carries.
const syncBatch = 128

// replay is the group's Replay hook: remote bundles and rounds adopted by a
// state transfer.
func (b *Bcast) replay(rec storage.Record) bool {
	set, _ := rec.Value.([]Record)
	switch rec.Kind {
	case storage.KindBundle:
		b.handleBundle(types.GroupID(rec.Aux), rec.Inst, set, true)
	case storage.KindRound:
		b.applySyncRound(RoundSet{Round: rec.Inst, Set: set}, true)
	default:
		return false
	}
	return true
}

// syncTail captures the in-flight state a caught-up requester adopts.
func (b *Bcast) syncTail() SyncTail {
	_, remote := b.inFlight()
	return SyncTail{Barrier: b.barrier, Bundles: remote}
}

// adoptState takes over a caught-up peer's in-flight bundles and horizon.
func (b *Bcast) adoptState(t SyncTail) {
	for _, gb := range t.Bundles {
		b.storeBundle(gb.Group, gb.Round, gb.Set, false)
	}
	if t.Barrier > b.barrier {
		b.barrier = t.Barrier
	}
	// Round r is instance r, and only completed rounds were handed over:
	// the group's bundles of rounds decided but not yet completed must
	// still be learned here, or round K waits for its own bundle forever.
	b.Engine.SkipTo(b.k)
}

// applySyncRound repeats one round the group completed while this process
// was down: deliver its union's undelivered records in the deterministic
// order and advance K. replay marks WAL replay (no re-logging).
func (b *Bcast) applySyncRound(rs RoundSet, replay bool) {
	if rs.Round != b.k {
		return
	}
	if !replay {
		b.Log.Append(storage.Record{Kind: storage.KindRound, Proto: b.Proto(), Inst: rs.Round, Value: rs.Set})
	}
	b.deliverRound(rs.Set, " (state transfer)")
}

// resumeRounds runs when the state transfer ends: round completion is live
// again and the engine pumps.
func (b *Bcast) resumeRounds() {
	// Rounds adopted from peers were not timed here: start unpaced.
	b.paceD, b.probe, b.lastUseful = 0, 0, 0
	b.Engine.Pump()
	b.tryCompleteRound()
}
