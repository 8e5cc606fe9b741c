// Crash recovery for Algorithm A1: what is A1's own in a restart.
//
// Local recovery: RestoreSnapshot rebuilds the endpoint (clock, PENDING,
// received proposals, delivered set, delivery archive, and the ordering
// engine) from the last snapshot, Recover re-fires the apply cascade for
// decisions the snapshot knew, and ReplayRecord replays the WAL tail —
// decisions, admissions, (TS, m) receipts, and previously adopted
// deliveries — through the very same code paths that produced them, so the
// reconstructed state is byte-identical to the pre-crash state the log
// covers.
//
// Catch-up from the group is internal/statesync's protocol. A1 plugs in:
// the position is the A-Delivery count; the record is one delivery
// (DeliverRec); the tail is PENDING, the received proposals, the group
// clock and the engine horizon (SyncTail) — everything the delivery rule
// reads; an entry's adopted maximum is recomputed from the proposals. While
// the gate is shut, decisions still apply and what they release is held,
// not delivered (release); resumeDelivery delivers it in release order.
package amcast

import (
	"cmp"
	"fmt"
	"maps"
	"slices"

	"wanamcast/internal/rmcast"
	"wanamcast/internal/statesync"
	"wanamcast/internal/storage"
	"wanamcast/internal/types"
	"wanamcast/internal/wire"
)

// syncBatch bounds the deliveries one state-transfer answer carries; a
// farther-behind requester iterates.
const syncBatch = 256

// DeliverRec is one archived A-Delivery: what a peer needs to repeat it.
type DeliverRec struct {
	ID      types.MessageID
	Dest    types.GroupSet
	TS      uint64
	Payload any
}

// SyncTail is A1's in-flight state, adopted by a requester that has caught
// up with the responder's deliveries.
type SyncTail struct {
	Applied uint64 // responder's applied consensus instances
	K       uint64 // responder's group clock
	Pending []Descriptor
	Props   []PropEntry
}

// PropEntry is one received (TS, m) proposal: message, proposing group,
// proposed timestamp.
type PropEntry struct {
	ID    types.MessageID
	Group types.GroupID
	TS    uint64
}

// --- snapshot ---------------------------------------------------------------

// AppendSnapshot encodes the endpoint's full replicated state (including
// its ordering engine) for the host's snapshot section.
func (a *Mcast) AppendSnapshot(buf []byte) []byte {
	buf = wire.AppendUvarint(buf, a.k)
	buf = wire.AppendUvarint(buf, a.admitSeq)
	buf = wire.AppendUvarint(buf, a.castSeq)
	buf = wire.AppendUvarint(buf, a.delivered)
	// PENDING, in admission order.
	pends := slices.SortedFunc(maps.Values(a.pending), func(p, q *pend) int { return cmp.Compare(p.seq, q.seq) })
	buf = wire.AppendUvarint(buf, uint64(len(pends)))
	for _, p := range pends {
		d := Descriptor{ID: p.id, Dest: p.dest, Payload: p.payload, TS: p.ts, Stage: p.stage}
		buf = d.AppendTo(buf)
		buf = wire.AppendUvarint(buf, p.seq)
	}
	// ADELIVERED ids, sorted.
	buf = statesync.AppendIDSet(buf, a.adelivered)
	// Received proposals, sorted by (id, group).
	pends = slices.DeleteFunc(pends, func(p *pend) bool { return p.props == nil })
	slices.SortFunc(pends, func(p, q *pend) int { return p.id.Compare(q.id) })
	buf = wire.AppendUvarint(buf, uint64(len(pends)))
	for _, p := range pends {
		buf = p.id.AppendTo(buf)
		n := 0
		for _, pr := range p.props {
			if pr.in {
				n++
			}
		}
		buf = wire.AppendUvarint(buf, uint64(n))
		for i, g := range p.dest.Groups() {
			if p.props[i].in {
				buf = wire.AppendVarint(buf, int64(g))
				buf = wire.AppendUvarint(buf, p.props[i].ts)
			}
		}
	}
	// Delivery archive (payload-bearing, bounded), its first index in front.
	buf = wire.AppendUvarint(buf, a.sync.Base())
	buf = a.sync.AppendArchive(buf)
	// The ordering engine, length-prefixed.
	return wire.AppendBytes(buf, a.engine.AppendSnapshot(nil))
}

// RestoreSnapshot rebuilds the endpoint from AppendSnapshot's encoding.
func (a *Mcast) RestoreSnapshot(data []byte) error {
	var err error
	if a.k, data, err = wire.Uvarint(data); err != nil {
		return err
	}
	if a.admitSeq, data, err = wire.Uvarint(data); err != nil {
		return err
	}
	if a.castSeq, data, err = wire.Uvarint(data); err != nil {
		return err
	}
	if a.delivered, data, err = wire.Uvarint(data); err != nil {
		return err
	}
	a.wm.Store(a.delivered)
	var n int
	if n, data, err = wire.SliceLen(data); err != nil {
		return err
	}
	for i := 0; i < n; i++ {
		var d Descriptor
		if data, err = d.read(data, nil, true); err != nil {
			return err
		}
		var seq uint64
		if seq, data, err = wire.Uvarint(data); err != nil {
			return err
		}
		a.pending[d.ID] = &pend{id: d.ID, dest: d.Dest, payload: d.Value(), ts: d.TS, stage: d.Stage, seq: seq}
	}
	if data, err = statesync.DecodeIDSet(data, a.adelivered); err != nil {
		return err
	}
	if n, data, err = wire.SliceLen(data); err != nil {
		return err
	}
	for i := 0; i < n; i++ {
		var id types.MessageID
		if id, data, err = types.DecodeMessageID(data); err != nil {
			return err
		}
		var m int
		if m, data, err = wire.SliceLen(data); err != nil {
			return err
		}
		p := a.pending[id]
		for j := 0; j < m; j++ {
			var g int64
			if g, data, err = wire.Varint(data); err != nil {
				return err
			}
			var ts uint64
			if ts, data, err = wire.Uvarint(data); err != nil {
				return err
			}
			if p != nil {
				p.setProp(types.GroupID(g), ts)
			}
		}
	}
	var archBase uint64
	if archBase, data, err = wire.Uvarint(data); err != nil {
		return err
	}
	if data, err = a.sync.RestoreArchive(data); err != nil {
		return err
	}
	if a.sync.Base() != archBase {
		return fmt.Errorf("%w: a1 archive starts at %d, not %d", wire.ErrCorrupt, a.sync.Base(), archBase)
	}
	var engineBlob []byte
	if engineBlob, _, err = wire.Bytes(data); err != nil {
		return err
	}
	a.reindex()
	return a.engine.RestoreSnapshot(engineBlob)
}

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

// Recover re-fires the apply cascade for decisions the restored snapshot
// knew about. Call after RestoreSnapshot and before WAL replay; the host
// must have the process in recovering mode (sends suppressed).
func (a *Mcast) Recover() {
	a.engine.BeginRecovery()
	a.engine.Recover()
}

// EndRecovery leaves replay mode once the WAL tail has been replayed, and
// shuts the delivery gate until StartSync's transfer finishes (see
// statesync.Engine.Arm).
func (a *Mcast) EndRecovery() {
	a.engine.EndRecovery()
	a.sync.Arm()
}

// ReplayRecord replays one WAL record belonging to this endpoint (its own
// label or its consensus engine's).
func (a *Mcast) ReplayRecord(rec storage.Record) error {
	if rec.Proto == a.engine.Label() {
		return a.engine.ReplayRecord(rec)
	}
	switch rec.Kind {
	case storage.KindAdmit:
		a.admit(rec.ID, rec.Dest, rec.Value, 0)
	case storage.KindTSProp:
		if tm, ok := rec.Value.(TSMsg); ok {
			a.handleTS(types.GroupID(rec.Aux), tm.Desc, true)
		}
	case storage.KindDeliver:
		a.applySyncDeliver(DeliverRec{ID: rec.ID, Dest: rec.Dest, TS: rec.Inst, Payload: rec.Value}, true)
	default:
		a.api.Tracef("a1: ignoring unexpected WAL record kind %d", rec.Kind)
	}
	return nil
}

// --- state transfer ---------------------------------------------------------

// EngineLabel returns the ordering engine's wire label (the WAL namespace
// of the endpoint's consensus records).
func (a *Mcast) EngineLabel() string { return a.engine.Label() }

// Syncing reports whether organic delivery is gated: recovery has ended or a
// state transfer has started, and the transfer has not finished (an
// abandoned one never does).
func (a *Mcast) Syncing() bool { return a.sync.Gated() }

// Delivered returns the process's total A-Delivery count. It runs on the
// event loop; off-loop readers use Watermark.
func (a *Mcast) Delivered() uint64 { return a.delivered }

// Archive returns the retained tail of the process's A-Deliveries, in
// delivery order, each with the timestamp it was delivered under.
func (a *Mcast) Archive() []DeliverRec { return a.sync.Archive() }

// Watermark returns the endpoint's delivery watermark — the same count as
// Delivered, but readable lock-free from any goroutine (the read tier
// samples it to decide whether a replica can serve a session's read).
func (a *Mcast) Watermark() uint64 { return a.wm.Load() }

// StartSync begins catch-up from the same-group peers after a restart.
func (a *Mcast) StartSync() { a.sync.Start() }

// syncTail captures the in-flight state a caught-up requester adopts.
func (a *Mcast) syncTail() SyncTail {
	t := SyncTail{Applied: a.engine.AppliedInstances(), K: a.k}
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
	a.adelivered[dr.ID] = true
	if p := a.pending[dr.ID]; p != nil {
		a.orderRemove(p)
		p.stage = Stage3 // so that the s0 list forgets it
		delete(a.pending, dr.ID)
	}
	if !replay {
		a.log.Append(storage.Record{Kind: storage.KindDeliver, Proto: a.label,
			Inst: dr.TS, ID: dr.ID, Dest: dr.Dest, Value: dr.Payload})
	}
	a.api.RecordDeliver(dr.ID)
	a.recordDelivered(dr)
	if a.api.TraceOn() {
		a.api.Tracef("a1: A-Deliver %v ts=%d (state transfer)", dr.ID, dr.TS)
	}
	if a.onDeliver != nil {
		a.onDeliver(rmcast.Message{ID: dr.ID, Dest: dr.Dest, Payload: dr.Payload})
	}
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
			p = &pend{id: d.ID, dest: d.Dest, payload: d.Value(), ts: d.TS, stage: d.Stage, seq: a.admitSeq}
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
	a.engine.SkipTo(t.Applied + 1)
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
	a.engine.Pump()
	a.reship() // entries adopted in s1 were never sent from here
	a.armPull()
}
