// Package amcast implements Algorithm A1 of the paper: a genuine,
// fault-tolerant atomic multicast with the optimal latency degree of two
// for messages addressed to multiple groups (§4). Every message progresses
// through four stages:
//
//	s0: each destination group runs consensus to fix its timestamp proposal;
//	s1: destination groups exchange proposals via (TS, m) messages;
//	s2: each group runs a second consensus on a payload-free (id, final
//	    timestamp) item, advancing its clock past the final timestamp;
//	s3: m is deliverable.
//
// It follows the paper's listing with THREE deviations.
//
// One: lines 35–37, which let the group whose proposal is the maximum enter
// s3 on the arrival of the last (TS, m), are gone — every multi-group message
// reaches s3 through a decision of its group (an intra-group instance: the
// latency degree stays two). That buys the invariant: a process's A-Delivery
// sequence is a function of its group's decision sequence and of nothing
// else. The delivery test runs only when a decision is applied and reads only
// what decisions fixed — the entries at stage >= s1, under the group's
// proposal until their s2 decision and the final timestamp after it; never an
// s0 entry (members hold different ones) or a maximum adopted on a message
// arrival. A single-group message is A-Delivered in the decision that orders
// it (NewFritzke's [5] pipeline gives it two instances, as any other);
// multi-group messages in s3 are delivered in (ts, id) order while minimal
// among the entries at stage >= s1. A single-shard write thus costs one
// intra-group consensus and never queues behind another message's WAN round
// trip, as it did under the paper's line 4.
//
// Two: timestamps are hybrid. The listing's K is a bare Lamport counter that
// line 31 moves past every timestamp a decision fixes, so it runs at its
// group's decision rate, and the final timestamp — the maximum of the
// groups' proposals — is mostly named by a remote group, one WAN hop after
// the cast: the message then queues at its own caster behind every later
// local cast still in s1, up to a second WAN round trip. Here an s0 item
// carries its proposer's hint — the process's physical clock in µs
// (node.Proc.Micros) when it admitted m — and the decision fixes a
// multi-group message's proposal as max(K, hint), a function of the decision
// sequence still. A proposer in the group that cast m adds a lead to its
// hint: how far, lately, the remote destination groups' proposals for this
// group's casts ran ahead of the local clock — the one-way delay plus the
// clock offset (leadEst). So the caster's group's proposal is the maximum,
// the final timestamp is known where m was cast when it was cast, and
// nothing cast there later sorts below it. And line 31 is cut to what safety
// needs: K moves past final timestamps (s2 items) only — past every proposal,
// a led one would drag K a WAN delay ahead of the clock and the remote group
// would hand the skew back.
//
// Three: who carries (TS, m). Line 24 has every member of a group send it to
// every member of every other destination group, d × d copies of which a
// receiver keeps the first. With Pipeline > 1 a group speaks as one party
// (package group has the argument): the member that is its leader in its own
// Ω view when m's s0 decision applies sends, nobody else; Pipeline <= 1 keeps
// line 24 to the message. A proposal is a function of the group's decision
// sequence, and a copy sent after the s2 decision carries the final
// timestamp, the maximum of all proposals, which in place of one of them
// leaves the maximum unchanged. A new sender re-ships every undelivered entry
// at stage >= s1 (reship); an entry that waits in s1 pulls the proposals it
// lacks (pull), answered from PENDING or the delivery archive (answerPull).
// The latency degree is untouched, lone cast included: the sender holds m
// already, so its multicast is stamped as each of the d it replaces was
// (TestOneSenderKeepsDegreeTwo).
//
// Hints and leads are soft state: read off a clock nobody vouches for, never
// logged, snapshotted or transferred (a restarted replica leads by 0 until it
// has seen its group's next casts answered; a message it was not handed to
// order — it met it in a decision, a (TS, m) or a replay — carries no hint
// and gives no sample). A clock that is skewed, frozen, fast, jumping or
// garbage costs latency and never a property: where hints fall short the
// proposals are K's, the paper's counter; where one runs ahead, K follows it
// and the groups wait out the difference in timestamp order; and a decided
// hint counts for at most 2^62 (maxHint), so no reading can take K to where
// it would wrap.
//
// Safety: (1) members of a group apply the same decisions in the same order,
// so they deliver identical sequences; (2) multi-group messages keep the
// paper's final-timestamp order in every group — an entry blocks under a
// timestamp no larger than its final one, anything s0-decided after a
// delivery is proposed at K or above, which that delivery's s2 decision moved
// past its final timestamp, and ties break on the message id: the paper's own
// argument, which never needed s0 entries to block or K to tick otherwise;
// (3) a single-group message lives in one group's sequence only, so the union
// of the groups' orders stays acyclic — §2.2's uniform prefix order
// constrains two messages only at processes addressed by both.
//
// Ordering runs on consensus.Batcher: an instance carries a batch of pending
// s0/s2 descriptors (line 14's "propose all of PENDING", capped by MaxBatch),
// Pipeline instances in flight, numbered densely and apart from K. Decisions
// apply in instance order, so what they fix — proposals, final timestamps, K
// — is a function of the decision sequence (Lemma A.1) at any depth.
//
// Every s0 item and (TS, m) carries m itself, as in the paper, but A1 reads
// m.id and m.dst only: the payload is the bytes its caster's edge encoded,
// framed by length and never parsed here. Its owner parses it — the service
// layer applies nothing it cannot parse. A1 checking it on receipt would buy
// nothing: channels are reliable (§2.1), and a per-kind parse never caught a
// corruption that still parses. Per-frame integrity is item 13(a) of
// ROADMAP.md, out of scope here.
//
// Recovery is the group endpoint's (package group). A1 snapshots its clock,
// PENDING, received proposals and delivered set (save, load), and replays
// admissions, (TS, m) receipts and adopted deliveries through the code paths
// that logged them (replay). A state transfer's position is the A-Delivery
// count, its record one delivery (DeliverRec), its tail all the delivery rule
// reads (SyncTail). While the gate is shut, what decisions release is held
// (release) and delivered in release order when it lifts (resumeDelivery).
package amcast

import (
	"cmp"
	"fmt"
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

// Stage is a message's position in the s0–s3 pipeline.
type Stage int

// Stages of Algorithm A1. The numbering follows the paper.
const (
	Stage0 Stage = iota // timestamp proposal pending (consensus)
	Stage1              // proposals being exchanged across groups
	Stage2              // clock catch-up pending (second consensus)
	Stage3              // deliverable, waiting to be minimal
)

// String implements fmt.Stringer.
func (s Stage) String() string { return fmt.Sprintf("s%d", int(s)) }

// Descriptor is the per-message record that travels through consensus
// proposals and (TS, m) messages: the message itself, its stage, and a
// timestamp — the proposer's hint in an s0 item, the group's proposal in a
// (TS, m), the final timestamp in an s2 item. A1 reads m.id and m.dst only:
// the payload is the bytes the caster handed over, carried as they are.
type Descriptor struct {
	ID      types.MessageID
	Dest    types.GroupSet
	Payload []byte
	TS      uint64
	Stage   Stage
}

// ItemID implements consensus.Item.
func (d Descriptor) ItemID() types.MessageID { return d.ID }

// TSMsg is the (TS, m) inter-group message of line 24: it carries the
// sender group's timestamp proposal and, per the paper's footnote 4, also
// propagates m itself in case the caster crashed. Desc.Stage is Stage1, or
// Stage3 on a copy sent after the group's s2 decision (a re-ship, an answer to
// a pull): TS is then m's final timestamp, which serves as well (package doc).
type TSMsg struct {
	Desc Descriptor
}

// PullMsg asks a member of another destination group for its group's (TS, m)
// (see pull). It is the asker's own (TS, m) besides: the member asked may
// lack that, or m itself.
type PullMsg struct {
	Desc Descriptor
}

// Config configures an A1 endpoint on one process.
type Config = group.Config

// pend is the local state of a message in PENDING. ts is fixed by decisions
// alone and unset in s0: the group's proposal until the s2 decision, the
// final timestamp after it. Whether a stage >= s1 entry reads s1 or s2
// depends on message arrival, so the delivery test asks only "is it s3".
type pend struct {
	id      types.MessageID
	dest    types.GroupSet
	payload []byte
	ts      uint64
	at      uint64 // api.Micros when this process was handed m to order (0: it learned m from a decision, a (TS, m) or a replay): the hint's base, the lead samples' origin
	stage   Stage
	final   uint64        // the adopted maximum (lines 39–40): fills the s2 item, nothing else
	props   []prop        // received (TS, m) proposals, aligned with dest.Groups(); nil until the first
	inline  [2]prop       // props' storage for up to two groups: one allocation for the entry
	seq     uint64        // admission order, for FIFO-fair batch fills
	since   uint64        // the pull tick on which it entered s1 (group.Endpoint.Wait)
	adm     time.Duration // admit time, recorded only while tracing (0 = untimed)
	s3At    time.Duration // when the s2 decision applied, recorded only while tracing
}

// prop is one destination group's timestamp proposal, once it is in.
type prop struct {
	ts uint64
	in bool
}

// cmpPend is the (m.ts, m.id) order of line 4.
func cmpPend(p, q *pend) int {
	return cmp.Or(cmp.Compare(p.ts, q.ts), p.id.Compare(q.id))
}

// Mcast is the per-process Algorithm A1 endpoint: A1's rule on a group's.
type Mcast struct {
	*group.Endpoint[Descriptor, DeliverRec, SyncTail]
	api       *node.Proc
	onDeliver func(types.MessageID, []byte)
	skip      bool // stage skipping: false only in NewFritzke's [5] pipeline

	k uint64 // the group clock copy K (line 2)
	// leads holds a remote group's lead from its first sample on: soft state,
	// see leadEst. A map, not a slice by group, so a process that never hears
	// from a group holds nothing for it (a 15000-group simulation).
	leads   map[types.GroupID]*leadEst
	pending map[types.MessageID]*pend
	// order holds the entries the delivery test reads — stage >= s1, not yet
	// released; all multi-group but in NewFritzke's — by (ts, id). fresh holds
	// the s0 entries in admission order (one that left s0 is dropped at the
	// next fill), held what decisions released while delivery was gated, in
	// release order. cand, stage1 and tos are scratch (fillBatch,
	// processDecision, sendTS). A received (TS, m) proposal lives in its
	// message's entry: handleTS admits the message it names first, so there
	// is no proposal without one.
	order, fresh, held, cand, stage1 []*pend
	tos                              []types.ProcessID
	adelivered                       map[types.MessageID]bool
	admitSeq                         uint64
	delivered                        uint64 // total A-Deliveries at this process: the sync position
}

// New builds an A1 endpoint and registers it on the host process.
func New(cfg Config) *Mcast { return build(cfg, false) }

// NewFritzke builds the Fritzke et al. [5] atomic multicast on A1's engine,
// the contrast §4.1 draws: no stage skipping, so every message traverses all
// four stages (two consensus instances, single-group messages included), and
// the initial cast uses the eager (uniform-style) reliable multicast, which
// relays every copy and therefore sends O(k²d²) messages where A1's direct
// primitive sends d(k−1). Its label is "fritzke".
func NewFritzke(cfg Config) *Mcast { return build(cfg, true) }

func build(cfg Config, fritzke bool) *Mcast {
	a := &Mcast{
		api:        cfg.Host,
		onDeliver:  cfg.OnDeliver,
		skip:       !fritzke,
		k:          1,
		leads:      make(map[types.GroupID]*leadEst),
		pending:    make(map[types.MessageID]*pend),
		adelivered: make(map[types.MessageID]bool),
	}
	rule := group.Rule{
		Label:      "a1",
		Mode:       rmcast.ModeDirect,
		OnRDeliver: a.onRDeliver,
		Copies:     1,
		Reship:     a.reship,
		Pull:       a.pull,
		Save:       a.save,
		Load:       a.load,
		Replay:     a.replay,
	}
	if fritzke {
		rule.Label, rule.Mode = "fritzke", rmcast.ModeEager
	}
	a.Endpoint = group.New(cfg, rule, consensus.BatcherConfig[Descriptor]{Fill: a.fillBatch, OnApply: a.processDecision},
		statesync.Config[DeliverRec, SyncTail]{
			Batch:  syncBatch,
			Codec:  syncCodec,
			Pos:    a.Delivered,
			Apply:  func(dr DeliverRec) { a.applySyncDeliver(dr, false) },
			Tail:   a.syncTail,
			Adopt:  a.adoptState,
			Resume: a.resumeDelivery,
		})
	cfg.Host.Register(a)
	return a
}

// Handlers implements node.Protocol.
func (a *Mcast) Handlers() []node.Handler { return handlers }

var handlers = append([]node.Handler{
	node.On(func(a *Mcast, from types.ProcessID, m TSMsg) {
		if g, ok := a.senderGroup(from, m.Desc); ok {
			a.handleTS(g, m.Desc, false)
		}
	}),
	node.On(func(a *Mcast, from types.ProcessID, m PullMsg) { // a pull carries the asker's (TS, m) too
		if g, ok := a.senderGroup(from, m.Desc); ok {
			a.handleTS(g, m.Desc, false)
			a.answerPull(from, m.Desc.ID)
		}
	})},
	statesync.Handlers(func(a *Mcast) *statesync.Engine[DeliverRec, SyncTail] { return a.Sync })...)

// AMCast atomically multicasts payload to the groups in dest and returns
// the assigned message ID (Task 1, lines 8–9). The caster need not belong
// to dest.
func (a *Mcast) AMCast(payload []byte, dest types.GroupSet) types.MessageID {
	if dest.Size() == 0 {
		panic("amcast: A-MCast with empty destination")
	}
	return a.Cast(payload, dest)
}

// K returns the process's copy of its group's clock (for tests).
func (a *Mcast) K() uint64 { return a.k }

// senderGroup returns the group of from, the sender of a (TS, m) or a pull,
// and whether m is addressed to both that group and this process's. A message
// that is not came from a broken peer: admitting it would let this group
// order and deliver an m not addressed to it (§2.2 uniform integrity), so it
// is dropped, as rmcast drops a misrouted DataMsg.
func (a *Mcast) senderGroup(from types.ProcessID, d Descriptor) (types.GroupID, bool) {
	g := a.api.Topo().GroupOf(from)
	if d.Dest.Contains(g) && d.Dest.Contains(a.api.Group()) {
		return g, true
	}
	a.api.Tracef("a1: dropped (TS, %v) from %v, not addressed to groups %v and %v", d.ID, from, g, a.api.Group())
	return g, false
}

// handleTS processes one (TS, m) proposal from group g. replay marks WAL
// replay: state advances identically but nothing is re-logged.
func (a *Mcast) handleTS(g types.GroupID, d Descriptor, replay bool) {
	if a.adelivered[d.ID] {
		return // late proposal for a delivered message
	}
	p := a.pending[d.ID]
	if p == nil { // line 10: a TS message also introduces m if unseen
		p = a.newPend(d.ID, d.Dest, d.Payload, 0)
		a.Engine.Pump()
	}
	// Record the sender group's proposal for line 33.
	if p.setProp(g, d.TS) && !replay {
		if d.Stage == Stage1 && p.at != 0 && a.owns(p) { // a final timestamp may be this group's own led proposal: no sample
			a.learnLead(g, int64(d.TS-p.at))
		}
		if a.Log != nil {
			// Unsynced: a lost tail proposal is re-fetched from peers by the
			// next restart's state transfer, exactly like a proposal that
			// never arrived.
			a.Log.Append(storage.Record{Kind: storage.KindTSProp, Proto: a.Proto(),
				Aux: uint64(g), Value: TSMsg{Desc: d}})
		}
	}
	a.checkStage1(p)
}

// has reports whether the proposal of p.dest.Groups()[i] is in.
func (p *pend) has(i int) bool { return p.props != nil && p.props[i].in }

// setProp records destination group g's proposal and reports whether it is
// the first from g.
func (p *pend) setProp(g types.GroupID, ts uint64) bool {
	i, ok := slices.BinarySearch(p.dest.Groups(), g)
	if !ok || p.has(i) {
		return false
	}
	if p.props == nil {
		p.props = slices.Grow(p.inline[:0], p.dest.Size())[:p.dest.Size()] // inline while it fits
	}
	p.props[i] = prop{ts: ts, in: true}
	return true
}

// onRDeliver is Task 2, lines 10–13. An s0 entry gates no delivery —
// members hold different ones.
func (a *Mcast) onRDeliver(m rmcast.Message) { a.admit(m.ID, m.Dest, m.Payload, a.api.Micros(), true) }

// admit adds m to PENDING at stage s0 (lines 11–13), unless already pending
// or delivered; at is its pend.at. A first admission off R-MCast is logged
// (unsynced): a replay that dropped it would leave a message only this
// process was handed unproposed.
func (a *Mcast) admit(id types.MessageID, dest types.GroupSet, payload []byte, at uint64, log bool) {
	if _, ok := a.pending[id]; ok || a.adelivered[id] {
		return
	}
	if log {
		a.Log.Append(storage.Record{Kind: storage.KindAdmit, Proto: a.Proto(), ID: id, Dest: dest, Payload: payload})
	}
	a.newPend(id, dest, payload, at)
	a.Engine.Pump()
}

// newPend enters m into PENDING at stage s0.
func (a *Mcast) newPend(id types.MessageID, dest types.GroupSet, payload []byte, at uint64) *pend {
	a.admitSeq++
	p := &pend{id: id, dest: dest, payload: payload, at: at, seq: a.admitSeq}
	if a.api.Tracing() {
		p.adm = a.api.Now()
	}
	a.pending[id] = p
	a.fresh = append(a.fresh, p)
	return p
}

// fillBatch is the engine's Fill hook (Task at lines 14–17): the
// proposable set is every pending s0/s2 message not already in flight up to
// limit — s2 items first (payload-free, and other groups' clocks wait on
// them), then s0 in admission order — canonically sorted by message ID. A
// multi-group s0 item's TS is this proposer's hint: its clock at admission,
// plus the lead when its group cast m. A single-group item has none, and
// neither has an entry this process was not handed: both fall back to K.
// A full-only fill short of limit builds nothing; short by count alone, it
// walks nothing.
func (a *Mcast) fillBatch(exclude func(types.MessageID) bool, limit int, full bool) []Descriptor {
	if full && len(a.order)+len(a.fresh) < limit {
		return nil
	}
	cand := a.cand[:0]
	for _, p := range a.order {
		if p.stage == Stage2 && !exclude(p.id) {
			cand = append(cand, p)
		}
	}
	n := 0
	for _, p := range a.fresh {
		if p.stage != Stage0 {
			continue // decided or delivered since: forget it
		}
		a.fresh[n] = p
		n++
		if !exclude(p.id) {
			cand = append(cand, p)
		}
	}
	clear(a.fresh[n:])
	a.fresh = a.fresh[:n]
	if full && len(cand) < limit {
		clear(cand)
		a.cand = cand
		return nil
	}
	if limit > 0 && len(cand) > limit {
		cand = cand[:limit]
	}
	set := make([]Descriptor, len(cand))
	for i, p := range cand {
		if p.stage == Stage2 {
			// Every process that applies an s2 item has applied or adopted
			// the s0 item that carried the payload.
			set[i] = Descriptor{ID: p.id, TS: p.final, Stage: Stage2}
		} else {
			set[i] = Descriptor{ID: p.id, Dest: p.dest, Payload: p.payload}
			if p.dest.Size() > 1 && p.at != 0 {
				set[i].TS = p.at + a.lead(p)
			}
		}
	}
	clear(cand)
	a.cand = cand
	sortDescriptors(set)
	return set
}

// processDecision is the engine's OnApply hook: it executes lines 19–32
// for the decision of (dense) instance inst. Decisions apply in instance
// order, so the timestamps fixed here — max(K, the decided hint) for a
// multi-group s0 message, the carried TS for s2 — the clock advance of
// line 31 and the deliveries are identical at every group member.
func (a *Mcast) processDecision(inst uint64, set []Descriptor) {
	toStage1 := a.stage1[:0]
	for _, d := range set {
		if a.adelivered[d.ID] {
			// Defensive: a delivered message cannot re-enter PENDING.
			a.api.Tracef("a1: decision %d contains already-delivered %v", inst, d.ID)
			continue
		}
		p := a.pending[d.ID]
		switch {
		case p == nil && d.Stage == Stage0:
			// Line 30: the decision introduces m to this process.
			p = a.newPend(d.ID, d.Dest, d.Payload, 0)
		case p == nil, d.Stage == Stage0 && p.stage > Stage0, d.Stage == Stage2 && p.stage == Stage3:
			// With Pipeline >= 2 the engine's in-flight exclusion is
			// proposer-local, so two group members may propose m to
			// different concurrent instances and both decisions carry it.
			// Only the first application is binding: re-applying would
			// regress the stage, fix a second (different) timestamp, and
			// re-send a divergent group proposal. The guard is
			// deterministic across the group: stages leave s0 and enter s3
			// only here, in instance order. (An s2 item for a message never
			// seen cannot happen: its s0 decision came first.)
			a.api.Tracef("a1: decision %d repeats %v at stale stage %v", inst, d.ID, d.Stage)
			continue
		}
		switch {
		case d.Stage == Stage2:
			// Line 26: this decision fixes the final timestamp. Line 31, as
			// far as safety needs it: K moves past final timestamps only.
			a.orderRemove(p)
			if p.id.Origin == a.api.Self() && p.dest.Size() > 1 {
				a.api.Metrics().OnOwnerProposal(d.TS - p.ts)
			}
			p.ts, p.stage = d.TS, Stage3
			a.orderInsert(p)
			a.k = max(a.k, d.TS+1)
			if p.adm > 0 {
				p.s3At = a.api.Now()
			}
			if b := a.order[0]; b.stage < Stage3 && a.api.TraceOn() { // an s3 head leaves in this decision's pass
				a.api.Tracef("a1: %v deliverable at ts=%d, waits for multi-group %v (in %v, cast locally: %t)", p.id, p.ts, b.id, b.stage, a.owns(b))
			}
		case a.skip && p.dest.Size() == 1:
			// Lines 28–29: single destination group, the proposal is final
			// and constrains nobody else — delivered in this decision.
			p.ts, p.stage = a.k, Stage3
			a.release(p)
		default:
			// Lines 21–24: fix the group proposal — K, or the proposer's
			// hint where that is ahead — and exchange it. (The [5] pipeline
			// walks single-group messages through here too, under K alone.)
			p.ts, p.stage, p.since = a.k, Stage1, a.Wait()
			if p.dest.Size() > 1 {
				p.ts = max(a.k, min(d.TS, maxHint))
			}
			a.orderInsert(p)
			a.sendTS(p)
			toStage1 = append(toStage1, p)
		}
	}
	// Line 32.
	a.adeliveryTest()
	// Proposals from other groups may have arrived before we reached s1.
	for _, p := range toStage1 {
		a.checkStage1(p)
	}
	clear(toStage1)
	a.stage1 = toStage1
}

// maxHint caps a decided hint, so that no clock — a garbage one reads near
// 2^64 — can take a timestamp to where K's +1 past it would wrap.
const maxHint = 1 << 62

// leadWindow is how many samples a lead looks back on.
const leadWindow = 32

// leadEst measures, for one remote group g, how far g's proposals for this
// group's casts run ahead of the local clock at their admission here: the
// one-way delay to g plus g's clock offset. It is soft state — 0 until
// learned, gone with the process — and a wrong one costs latency only. The
// lead is the second largest of the last leadWindow samples (the largest
// while the window fills): one stalled (TS, m) cannot move it (a mean plus
// deviations ran away after a single 100 ms stall), a longer delay shows
// after two samples, and about one cast in leadWindow is outbid by a hair. A
// shorter delay shows slowly: g proposes max(K, its clock), and while the
// lead is too long g's K sits on this group's own last final timestamp, so
// the samples echo the lead, one cast gap shorter each window.
type leadEst struct {
	win  [leadWindow]int64
	n    int // samples ever taken
	lead uint64
}

// owns reports whether this process's group cast p, a multi-group message:
// whether its proposals for p carry the lead.
func (a *Mcast) owns(p *pend) bool {
	return p.dest.Size() > 1 && a.api.Topo().GroupOf(p.id.Origin) == a.api.Group()
}

// lead returns what this process adds to its clock in its hint for p.
func (a *Mcast) lead(p *pend) (lead uint64) {
	if a.owns(p) {
		for _, g := range p.dest.Groups() {
			if e := a.leads[g]; e != nil {
				lead = max(lead, e.lead)
			}
		}
	}
	return lead
}

// learnLead takes one sample of remote group g's lead.
func (a *Mcast) learnLead(g types.GroupID, sample int64) {
	e := a.leads[g]
	if e == nil {
		e = new(leadEst)
		a.leads[g] = e
	}
	e.win[e.n%leadWindow] = sample
	e.n++
	first, second := int64(0), int64(0) // the two largest, floored at 0
	for _, v := range e.win[:min(e.n, leadWindow)] {
		if v > first {
			first, second = v, first
		} else if v > second {
			second = v
		}
	}
	if e.n >= leadWindow {
		first = second
	}
	if uint64(first) != e.lead {
		e.lead = uint64(first)
		a.api.Metrics().OnOwnerLead(a.api.Group(), g, e.lead)
	}
}

// tsDesc is this group's (TS, m) for p, an entry at stage >= s1: its proposal
// or, past the s2 decision, m's final timestamp.
func (p *pend) tsDesc() Descriptor {
	d := Descriptor{ID: p.id, Dest: p.dest, Payload: p.payload, TS: p.ts, Stage: Stage1}
	if p.stage == Stage3 {
		d.Stage = Stage3
	}
	return d
}

// sendTS sends (TS, m) to every process of every other destination group
// (line 24), if this member is a sender (deviation three).
func (a *Mcast) sendTS(p *pend) {
	if !a.Sends() {
		return
	}
	a.tos = a.api.Topo().AppendProcessesIn(a.tos[:0], p.dest, a.api.Group())
	node.Multicast(a.api, a.tos, a.Proto(), TSMsg{Desc: p.tsDesc()})
}

// reship is the group's Reship hook: (TS, m) again for every undelivered
// entry at stage >= s1.
func (a *Mcast) reship() {
	for _, p := range a.order {
		a.sendTS(p)
	}
	a.api.Metrics().Add(metrics.TSReshipped, len(a.order))
}

// pull is the group's Pull hook: an s1 entry waits on each destination group
// whose proposal it lacks.
func (a *Mcast) pull() {
	for _, p := range a.order {
		if p.stage != Stage1 {
			continue
		}
		if n := a.Due(p.since); n > 0 {
			for i, g := range p.dest.Groups() {
				if g != a.api.Group() && !p.has(i) {
					node.Send(a.api, a.Ask(g, n), a.Proto(), PullMsg{Desc: p.tsDesc()})
				}
			}
		}
	}
}

// answerPull sends the asker this group's (TS, m) for id, if decisions here
// have fixed one; for a delivered m, the final timestamp off the archive.
func (a *Mcast) answerPull(to types.ProcessID, id types.MessageID) {
	p := a.pending[id]
	if p == nil {
		if i := slices.IndexFunc(a.Archive(), func(dr DeliverRec) bool { return dr.ID == id }); i >= 0 {
			dr := a.Archive()[i]
			p = &pend{id: id, dest: dr.Dest, payload: dr.Payload, ts: dr.TS, stage: Stage3}
		}
	}
	if p == nil || p.stage < Stage1 {
		a.api.Metrics().Add(metrics.TSPullsUnserved, 1)
		return
	}
	a.api.Metrics().Add(metrics.TSPullsServed, 1)
	node.Send(a.api, to, a.Proto(), TSMsg{Desc: p.tsDesc()})
}

// finalTS evaluates line 33 for p: once a proposal from every other
// destination group is known it returns the maximum of all proposals.
func (a *Mcast) finalTS(p *pend) (final uint64, ok bool) {
	final = p.ts
	for i, g := range p.dest.Groups() {
		if g == a.api.Group() {
			continue
		}
		if !p.has(i) {
			return 0, false
		}
		final = max(final, p.props[i].ts)
	}
	return final, true
}

// checkStage1 evaluates lines 33–40 for p: once every proposal is known,
// adopt the maximum and go through s2 — also when this group's proposal IS
// the maximum (the paper's lines 35–37 would enter s3 here, on a message
// arrival, at a different instant on every member). The maximum goes to
// p.final, never to p.ts: a member that has the last (TS, m) must block
// exactly as long as one that has not.
func (a *Mcast) checkStage1(p *pend) {
	if p == nil || p.stage != Stage1 {
		return
	}
	if final, ok := a.finalTS(p); ok {
		p.final, p.stage = final, Stage2
		a.Engine.Pump()
	}
}

func (a *Mcast) orderInsert(p *pend) {
	i, _ := slices.BinarySearchFunc(a.order, p, cmpPend)
	a.order = slices.Insert(a.order, i, p)
}

func (a *Mcast) orderRemove(p *pend) {
	if i, ok := slices.BinarySearchFunc(a.order, p, cmpPend); ok {
		a.order = slices.Delete(a.order, i, i+1)
	}
}

// adeliveryTest is the ADeliveryTest procedure (lines 3–7) over what
// decisions fixed: release, in (ts, id) order, every s3 message that is
// minimal among the entries at stage >= s1. It runs when a decision has
// been applied and when a state transfer ends — never on a message receipt.
func (a *Mcast) adeliveryTest() {
	for len(a.order) > 0 && a.order[0].stage == Stage3 {
		p := a.order[0]
		a.order = slices.Delete(a.order, 0, 1)
		a.release(p)
	}
}

// release A-Delivers p, or — while a state transfer is in progress — holds
// it for resumeDelivery: deliveries this process missed must land first (in
// the group's order), or the local sequence would diverge from the group's.
func (a *Mcast) release(p *pend) {
	if a.Syncing() {
		a.held = append(a.held, p)
		return
	}
	if p.adm > 0 {
		// order: admit → delivery. blocked: the decision that made p
		// deliverable → delivery (0 when that decision is this one).
		now, since := a.api.Now(), p.s3At
		if since == 0 {
			since = now
		}
		a.api.Trace(trace.StageOrder, p.id, int64(now-p.adm))
		a.api.Trace(trace.StageBlocked, p.id, int64(now-since))
	}
	delete(a.pending, p.id)
	a.deliver(DeliverRec{ID: p.id, Dest: p.dest, TS: p.ts, Payload: p.payload}, "")
}

// deliver A-Delivers one message: ADELIVERED, the delivery count and the
// archive that serves restarted peers' state transfers, then the host. A
// state transfer repeats the group's deliveries through it (how says so).
func (a *Mcast) deliver(dr DeliverRec, how string) {
	a.api.RecordDeliver(dr.ID)
	a.adelivered[dr.ID] = true
	a.delivered++
	a.Sync.Record(dr)
	if a.api.TraceOn() {
		a.api.Tracef("a1: A-Deliver %v ts=%d%s", dr.ID, dr.TS, how)
	}
	if a.onDeliver != nil {
		a.onDeliver(dr.ID, dr.Payload)
	}
}

// sortDescriptors orders a proposal deterministically by message ID.
func sortDescriptors(set []Descriptor) {
	slices.SortFunc(set, func(x, y Descriptor) int { return x.ID.Compare(y.ID) })
}

// syncBatch bounds the deliveries one state-transfer answer carries; a
// farther-behind requester iterates.
const syncBatch = 256

// reindex rebuilds what is derived from PENDING after a snapshot restore or
// a state-transfer adoption: the delivery order, the s0 list and — from the
// received proposals, because it is not persisted — the adopted maximum of
// every entry whose proposals are complete. The caller pumps.
func (a *Mcast) reindex() {
	a.order, a.fresh = a.order[:0], a.fresh[:0]
	for _, p := range a.pending {
		if p.stage == Stage1 || p.stage == Stage2 {
			p.stage = Stage1
			if final, ok := a.finalTS(p); ok {
				p.final, p.stage = final, Stage2
			}
		}
		if p.stage == Stage0 {
			a.fresh = append(a.fresh, p)
		} else if !slices.Contains(a.held, p) {
			a.order = append(a.order, p)
		}
	}
	slices.SortFunc(a.order, cmpPend)
	slices.SortFunc(a.fresh, func(p, q *pend) int { return cmp.Compare(p.seq, q.seq) })
}

// replay is the group's Replay hook: admissions, (TS, m) receipts, and
// deliveries adopted by a state transfer.
func (a *Mcast) replay(rec storage.Record) bool {
	switch rec.Kind {
	case storage.KindAdmit:
		a.admit(rec.ID, rec.Dest, rec.Payload, 0, false)
	case storage.KindTSProp:
		if tm, ok := rec.Value.(TSMsg); ok {
			a.handleTS(types.GroupID(rec.Aux), tm.Desc, true)
		}
	case storage.KindDeliver:
		a.applySyncDeliver(DeliverRec{ID: rec.ID, Dest: rec.Dest, TS: rec.Inst, Payload: rec.Payload}, true)
	default:
		return false
	}
	return true
}

// Delivered returns the process's total A-Delivery count.
func (a *Mcast) Delivered() uint64 { return a.delivered }

// syncTail captures the in-flight state a caught-up requester adopts.
func (a *Mcast) syncTail() SyncTail {
	t := SyncTail{Applied: a.Engine.AppliedInstances(), K: a.k}
	for _, p := range a.pending {
		t.Pending = append(t.Pending,
			Descriptor{ID: p.id, Dest: p.dest, Payload: p.payload, TS: p.ts, Stage: p.stage})
		for i, pr := range p.props {
			if pr.in {
				t.Props = append(t.Props, PropEntry{ID: p.id, Group: p.dest.Groups()[i], TS: pr.ts})
			}
		}
	}
	sortDescriptors(t.Pending)
	slices.SortFunc(t.Props, func(x, y PropEntry) int { return cmp.Or(x.ID.Compare(y.ID), cmp.Compare(x.Group, y.Group)) })
	return t
}

// applySyncDeliver repeats one delivery the group made while this process
// was down (or, on replay, one it had already adopted before the crash).
func (a *Mcast) applySyncDeliver(dr DeliverRec, replay bool) {
	if a.adelivered[dr.ID] {
		return
	}
	if p := a.pending[dr.ID]; p != nil {
		a.orderRemove(p)
		p.stage = Stage3 // so that the s0 list forgets it
		delete(a.pending, dr.ID)
	}
	if !replay {
		a.Log.Append(storage.Record{Kind: storage.KindDeliver, Proto: a.Proto(),
			Inst: dr.TS, ID: dr.ID, Dest: dr.Dest, Payload: dr.Payload})
	}
	a.deliver(dr, " (state transfer)")
}

// adoptState merges a caught-up peer's in-flight state: PENDING stages and
// timestamps, received proposals, the group clock, and the engine horizon.
// Entries this process has and the peer lacks are kept — they re-propose
// through the normal path.
func (a *Mcast) adoptState(t SyncTail) {
	for _, d := range t.Pending {
		if a.adelivered[d.ID] {
			continue
		}
		p := a.pending[d.ID]
		if p == nil {
			a.admitSeq++
			p = &pend{id: d.ID, dest: d.Dest, payload: d.Payload, ts: d.TS, stage: d.Stage, seq: a.admitSeq}
			a.pending[d.ID] = p
		} else if d.Stage > p.stage {
			p.stage = d.Stage
			p.ts = d.TS
		}
	}
	for _, pr := range t.Props {
		if p := a.pending[pr.ID]; p != nil { // a peer's proposals are all for its PENDING, adopted above
			p.setProp(pr.Group, pr.TS)
		}
	}
	if t.K > a.k {
		a.k = t.K
	}
	// Merged proposals may complete stage 1 for adopted messages.
	a.reindex()
	a.Engine.SkipTo(t.Applied + 1)
}

// resumeDelivery runs when the state transfer ends: what decisions released
// behind the gate and the transfer did not deliver is A-Delivered in
// release order, the ADeliveryTest is live again and the engine pumps.
func (a *Mcast) resumeDelivery() {
	held := a.held
	a.held = nil
	for _, p := range held {
		if a.pending[p.id] == p { // else the transfer delivered it
			a.release(p)
		}
	}
	a.adeliveryTest()
	a.Engine.Pump()
}
