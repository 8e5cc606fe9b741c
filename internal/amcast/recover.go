// Crash recovery and restart state transfer for Algorithm A1.
//
// Recovery is two-phase. Phase one is local: RestoreSnapshot rebuilds the
// endpoint (clock, PENDING, received proposals, delivered set, delivery
// archive, and the ordering engine) from the last snapshot, Recover
// re-fires the apply cascade for decisions the snapshot knew, and
// ReplayRecord replays the WAL tail — decisions, (TS, m) receipts, and
// previously adopted deliveries — through the very same code paths that
// produced them, so the reconstructed state is byte-identical to the
// pre-crash state the log covers.
//
// Phase two is remote: StartSync asks the same-group peers for everything
// that happened while the process was down. Same-group members A-Deliver
// identical sequences (they apply the same decisions and receive the same
// proposals), so catch-up is log shipping: the peer streams its archived
// deliveries from the requester's count, in bounded batches, and finishes
// with its current PENDING/proposal tables and engine horizon, which the
// requester adopts. Until the transfer completes, organic delivery is
// gated — missed messages must land first or the local sequence would
// diverge from the group's.
package amcast

import (
	"fmt"
	"sort"
	"time"

	"wanamcast/internal/rmcast"
	"wanamcast/internal/storage"
	"wanamcast/internal/types"
	"wanamcast/internal/wire"
)

// syncBatch bounds the deliveries one SyncResp carries; a farther-behind
// requester iterates.
const syncBatch = 256

// syncRetryEvery is the re-request period while a state transfer is
// outstanding (responses can be dropped like any frame).
const syncRetryEvery = 100 * time.Millisecond

// DeliverRec is one archived A-Delivery: what a peer needs to repeat it.
type DeliverRec struct {
	ID      types.MessageID
	Dest    types.GroupSet
	TS      uint64
	Payload any
}

// SyncReq asks a group peer for the deliveries from index From onward.
type SyncReq struct {
	From uint64
}

// SyncResp is the bounded state-transfer answer: the archived deliveries
// [Base, Base+len(Deliveries)), the responder's delivery count, engine
// horizon, clock, and — for adoption once the requester is caught up —
// its current PENDING descriptors and received proposals.
type SyncResp struct {
	Base       uint64
	Deliveries []DeliverRec
	Next       uint64 // responder's delivery count
	Applied    uint64 // responder's applied consensus instances
	K          uint64 // responder's group clock
	// Pending and Props are populated only on a response that brings the
	// requester fully up to date (they are adopted, not merged chunkwise,
	// so shipping them in every chunk would be pure overhead).
	Pending []Descriptor
	Props   []PropEntry
	TooFar  bool // requester predates the archive: log transfer impossible
	// Busy marks a responder that is itself recovering: its archive
	// entries are valid facts, but its in-flight state must not be
	// adopted. When EVERY group peer answers Busy with nothing newer, the
	// whole group is restarting together and there is nothing left to
	// catch up from — the requester resumes (the full-group power-event
	// case).
	Busy bool
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
	pends := make([]*pend, 0, len(a.pending))
	for _, p := range a.pending {
		pends = append(pends, p)
	}
	sort.Slice(pends, func(i, j int) bool { return pends[i].seq < pends[j].seq })
	buf = wire.AppendUvarint(buf, uint64(len(pends)))
	for _, p := range pends {
		d := Descriptor{ID: p.id, Dest: p.dest, Payload: p.payload, TS: p.ts, Stage: p.stage}
		buf = d.AppendTo(buf)
		buf = wire.AppendUvarint(buf, p.seq)
	}
	// ADELIVERED ids, sorted.
	buf = appendIDSet(buf, a.adelivered)
	// Received proposals, sorted by (id, group).
	buf = wire.AppendUvarint(buf, uint64(len(a.tsProps)))
	ids := make([]types.MessageID, 0, len(a.tsProps))
	for id := range a.tsProps {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i].Less(ids[j]) })
	for _, id := range ids {
		props := a.tsProps[id]
		buf = id.AppendTo(buf)
		gs := make([]types.GroupID, 0, len(props))
		for g := range props {
			gs = append(gs, g)
		}
		sort.Slice(gs, func(i, j int) bool { return gs[i] < gs[j] })
		buf = wire.AppendUvarint(buf, uint64(len(gs)))
		for _, g := range gs {
			buf = wire.AppendVarint(buf, int64(g))
			buf = wire.AppendUvarint(buf, props[g])
		}
	}
	// Delivery archive (payload-bearing, bounded).
	buf = wire.AppendUvarint(buf, a.archBase)
	buf = wire.AppendUvarint(buf, uint64(len(a.archive)))
	for _, dr := range a.archive {
		buf = appendDeliverRec(buf, dr)
	}
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
		if data, err = d.DecodeFrom(data); err != nil {
			return err
		}
		var seq uint64
		if seq, data, err = wire.Uvarint(data); err != nil {
			return err
		}
		a.pending[d.ID] = &pend{id: d.ID, dest: d.Dest, payload: d.Payload, ts: d.TS, stage: d.Stage, seq: seq}
	}
	if data, err = restoreIDSet(data, a.adelivered); err != nil {
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
		props := make(map[types.GroupID]uint64, m)
		for j := 0; j < m; j++ {
			var g int64
			if g, data, err = wire.Varint(data); err != nil {
				return err
			}
			var ts uint64
			if ts, data, err = wire.Uvarint(data); err != nil {
				return err
			}
			props[types.GroupID(g)] = ts
		}
		a.tsProps[id] = props
	}
	if a.archBase, data, err = wire.Uvarint(data); err != nil {
		return err
	}
	if n, data, err = wire.SliceLen(data); err != nil {
		return err
	}
	a.archive = a.archive[:0]
	for i := 0; i < n; i++ {
		var dr DeliverRec
		if dr, data, err = decodeDeliverRec(data); err != nil {
			return err
		}
		a.archive = append(a.archive, dr)
	}
	var engineBlob []byte
	if engineBlob, _, err = wire.Bytes(data); err != nil {
		return err
	}
	return a.engine.RestoreSnapshot(engineBlob)
}

// Recover re-fires the apply cascade for decisions the restored snapshot
// knew about. Call after RestoreSnapshot and before WAL replay; the host
// must have the process in recovering mode (sends suppressed).
func (a *Mcast) Recover() {
	a.engine.BeginRecovery()
	a.engine.Recover()
}

// EndRecovery leaves replay mode once the WAL tail has been replayed. If
// the group has peers, organic delivery is gated from here on: the
// replayed state is a consistent cut of the pre-crash state, but the group
// may have delivered past that cut while the process was down, and an
// organic event (a frame arriving before the host gets around to
// StartSync) must not let the ADeliveryTest run ahead of the missed
// prefix. StartSync's completion (finishSync) lifts the gate.
func (a *Mcast) EndRecovery() {
	a.engine.EndRecovery()
	if len(a.api.Topo().Members(a.api.Group())) > 1 {
		a.syncing = true
	}
}

// ReplayRecord replays one WAL record belonging to this endpoint (its own
// label or its consensus engine's).
func (a *Mcast) ReplayRecord(rec storage.Record) error {
	if rec.Proto == a.engine.Label() {
		return a.engine.ReplayRecord(rec)
	}
	switch rec.Kind {
	case storage.KindAdmit:
		a.admit(rec.ID, rec.Dest, rec.Value)
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

// Syncing reports whether a state transfer is in progress (delivery gated).
func (a *Mcast) Syncing() bool { return a.syncing }

// SyncFailed reports an abandoned state transfer: the group's archives no
// longer cover this process's position, so it cannot rejoin by log
// shipping (delivery stays gated).
func (a *Mcast) SyncFailed() bool { return a.syncFailed }

// Delivered returns the process's total A-Delivery count. It runs on the
// event loop; off-loop readers use Watermark.
func (a *Mcast) Delivered() uint64 { return a.delivered }

// Watermark returns the endpoint's delivery watermark — the same count as
// Delivered, but readable lock-free from any goroutine (the read tier
// samples it to decide whether a replica can serve a session's read).
func (a *Mcast) Watermark() uint64 { return a.wm.Load() }

// StartSync begins catch-up from the same-group peers after a restart:
// organic delivery is gated until a peer confirms this process has seen
// every delivery the group made while it was down. With no group peers
// there is nobody to have diverged from, so sync completes immediately.
func (a *Mcast) StartSync() {
	if len(a.api.Topo().Members(a.api.Group())) <= 1 {
		a.finishSync()
		return
	}
	a.syncing = true
	a.syncFailed = false
	a.syncHeard = make(map[types.ProcessID]syncPeerInfo)
	a.sendSyncReq()
	a.armSyncRetry()
}

func (a *Mcast) sendSyncReq() {
	self := a.api.Self()
	var tos []types.ProcessID
	for _, q := range a.api.Topo().Members(a.api.Group()) {
		if q != self {
			tos = append(tos, q)
		}
	}
	a.api.Multicast(tos, a.label, SyncReq{From: a.delivered})
}

func (a *Mcast) armSyncRetry() {
	a.api.After(syncRetryEvery, func() {
		if !a.syncing || a.syncFailed {
			return
		}
		a.sendSyncReq()
		a.armSyncRetry()
	})
}

// onSyncReq serves a restarted peer. A responder that is itself syncing
// answers Busy: its archived deliveries are immutable facts and safe to
// ship, but its in-flight state is not yet the group's and must not be
// adopted.
func (a *Mcast) onSyncReq(from types.ProcessID, m SyncReq) {
	resp := SyncResp{Base: m.From, Next: a.delivered, Applied: a.engine.AppliedInstances(),
		K: a.k, Busy: a.syncing}
	if m.From < a.archBase {
		resp.TooFar = true
		a.api.Send(from, a.label, resp)
		return
	}
	end := m.From + syncBatch
	if end > a.delivered {
		end = a.delivered
	}
	for i := m.From; i < end; i++ {
		resp.Deliveries = append(resp.Deliveries, a.archive[i-a.archBase])
	}
	// In-flight state rides only the response that completes the catch-up.
	if !resp.Busy && end == a.delivered {
		for _, p := range a.pending {
			resp.Pending = append(resp.Pending,
				Descriptor{ID: p.id, Dest: p.dest, Payload: p.payload, TS: p.ts, Stage: p.stage})
		}
		sortDescriptors(resp.Pending)
		for id, props := range a.tsProps {
			for g, ts := range props {
				resp.Props = append(resp.Props, PropEntry{ID: id, Group: g, TS: ts})
			}
		}
		sort.Slice(resp.Props, func(i, j int) bool {
			if resp.Props[i].ID != resp.Props[j].ID {
				return resp.Props[i].ID.Less(resp.Props[j].ID)
			}
			return resp.Props[i].Group < resp.Props[j].Group
		})
	}
	a.api.Send(from, a.label, resp)
}

// onSyncResp consumes one state-transfer answer.
func (a *Mcast) onSyncResp(from types.ProcessID, m SyncResp) {
	if !a.syncing {
		return
	}
	if m.TooFar {
		// Terminal: the peers' archives will never again cover our index.
		// Stop the request loop but keep delivery gated — resuming with a
		// hole would diverge from the group order. The operator remedy is
		// a larger SyncArchive (or fresh state); Syncing() stays true as
		// the visible symptom.
		a.api.Tracef("a1: peer archive no longer covers delivery %d; cannot catch up by log transfer (sync abandoned)", a.delivered)
		a.syncFailed = true
		if a.onFailed != nil {
			a.onFailed()
		}
		return
	}
	idx := m.Base
	for _, dr := range m.Deliveries {
		if idx == a.delivered {
			a.applySyncDeliver(dr, false)
		}
		idx++
	}
	a.syncHeard[from] = syncPeerInfo{next: m.Next, busy: m.Busy}
	switch {
	case !m.Busy && a.delivered >= m.Next:
		// Caught up with a serving peer: adopt its in-flight state and
		// resume.
		a.adoptState(m)
		a.finishSync()
	case a.delivered > m.Base:
		// Progress was made but more remains: ask for the next batch now
		// rather than waiting for the retry timer.
		a.sendSyncReq()
	default:
		a.maybeFinishGroupRestart()
	}
}

// maybeFinishGroupRestart resumes when every group peer has answered Busy
// with nothing newer than we already have: the whole group is restarting
// together, each member recovered from its own disk, and the archives have
// been cross-shipped — nobody holds anything more to transfer. In-flight
// state needs no adoption (each member replayed its own); any instance
// gap between members heals through the consensus LearnMsg path.
func (a *Mcast) maybeFinishGroupRestart() {
	self := a.api.Self()
	for _, q := range a.api.Topo().Members(a.api.Group()) {
		if q == self {
			continue
		}
		info, ok := a.syncHeard[q]
		if !ok || !info.busy || info.next > a.delivered {
			return
		}
	}
	a.api.Tracef("a1: whole group restarting, no peer ahead of delivery %d; resuming", a.delivered)
	a.finishSync()
}

// applySyncDeliver repeats one delivery the group made while this process
// was down (or, on replay, one it had already adopted before the crash).
func (a *Mcast) applySyncDeliver(dr DeliverRec, replay bool) {
	if a.adelivered[dr.ID] {
		return
	}
	a.adelivered[dr.ID] = true
	delete(a.pending, dr.ID)
	delete(a.tsProps, dr.ID)
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
func (a *Mcast) adoptState(m SyncResp) {
	for _, d := range m.Pending {
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
		} else if d.Stage == p.stage && d.TS > p.ts {
			p.ts = d.TS
		}
	}
	for _, pr := range m.Props {
		if a.adelivered[pr.ID] {
			continue
		}
		props := a.tsProps[pr.ID]
		if props == nil {
			props = make(map[types.GroupID]uint64)
			a.tsProps[pr.ID] = props
		}
		if _, seen := props[pr.Group]; !seen {
			props[pr.Group] = pr.TS
		}
	}
	if m.K > a.k {
		a.k = m.K
	}
	a.engine.SkipTo(m.Applied + 1)
	// Merged proposals may complete stage 1 for adopted messages.
	for id, p := range a.pending {
		if p.stage == Stage1 {
			a.checkStage1(id)
		}
	}
}

// finishSync ends the transfer: delivery resumes, the engine pumps, and
// the host is told (it typically snapshots the freshly synced state).
func (a *Mcast) finishSync() {
	a.syncing = false
	a.syncHeard = nil
	a.adeliveryTest()
	a.engine.Pump()
	if a.onSynced != nil {
		a.onSynced()
	}
}

// --- small helpers ----------------------------------------------------------

func appendIDSet(buf []byte, set map[types.MessageID]bool) []byte {
	ids := make([]types.MessageID, 0, len(set))
	for id := range set {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i].Less(ids[j]) })
	buf = wire.AppendUvarint(buf, uint64(len(ids)))
	for _, id := range ids {
		buf = id.AppendTo(buf)
	}
	return buf
}

func restoreIDSet(data []byte, set map[types.MessageID]bool) ([]byte, error) {
	n, data, err := wire.SliceLen(data)
	if err != nil {
		return nil, err
	}
	for i := 0; i < n; i++ {
		var id types.MessageID
		if id, data, err = types.DecodeMessageID(data); err != nil {
			return nil, err
		}
		set[id] = true
	}
	return data, nil
}

func appendDeliverRec(buf []byte, dr DeliverRec) []byte {
	buf = dr.ID.AppendTo(buf)
	buf = dr.Dest.AppendTo(buf)
	buf = wire.AppendUvarint(buf, dr.TS)
	return wire.AppendValue(buf, dr.Payload)
}

func decodeDeliverRec(data []byte) (dr DeliverRec, rest []byte, err error) {
	if dr.ID, data, err = types.DecodeMessageID(data); err != nil {
		return dr, nil, err
	}
	if dr.Dest, data, err = types.DecodeGroupSet(data); err != nil {
		return dr, nil, err
	}
	if dr.TS, data, err = wire.Uvarint(data); err != nil {
		return dr, nil, err
	}
	dr.Payload, data, err = wire.DecodeValue(data)
	return dr, data, err
}

// PendingIDs summarises the PENDING table — one "id@stage/ts" string per
// message, in admission order (restart and chaos diagnostics).
func (a *Mcast) PendingIDs() []string {
	pends := make([]*pend, 0, len(a.pending))
	for _, p := range a.pending {
		pends = append(pends, p)
	}
	sort.Slice(pends, func(i, j int) bool { return pends[i].seq < pends[j].seq })
	out := make([]string, 0, len(pends))
	for _, p := range pends {
		out = append(out, fmt.Sprintf("%v@s%d/%d", p.id, p.stage, p.ts))
	}
	return out
}
