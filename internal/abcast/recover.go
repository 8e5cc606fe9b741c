// Crash recovery and restart state transfer for Algorithm A2.
//
// Recovery mirrors amcast's: RestoreSnapshot rebuilds the endpoint (round,
// Barrier, the R-Delivered working set, received remote bundles, the
// completed-round archive, and the ordering engine), Recover re-fires the
// apply cascade for decisions the snapshot knew, and ReplayRecord replays
// the WAL tail — decisions, remote-bundle receipts, adopted rounds —
// through the same code paths that produced them.
//
// State transfer is round shipping: every group member completes the same
// rounds with the same unions, so a restarted process asks its same-group
// peers for the archived unions from its round onward, applies them in
// order (delivering what it had not delivered), then adopts the peer's
// engine horizon, Barrier, and in-flight remote bundles. Until then round
// completion is gated.
package abcast

import (
	"cmp"
	"slices"
	"sort"
	"time"

	"wanamcast/internal/storage"
	"wanamcast/internal/types"
	"wanamcast/internal/wire"
)

// syncBatch bounds the rounds one SyncResp carries.
const syncBatch = 128

// syncRetryEvery is the re-request period while a state transfer is
// outstanding.
const syncRetryEvery = 100 * time.Millisecond

// SyncReq asks a group peer for completed rounds from From onward.
type SyncReq struct {
	From uint64
}

// RoundSet is one completed round's delivered union.
type RoundSet struct {
	Round uint64
	Set   []Record
}

// GroupBundle is one received (still in-flight) remote bundle.
type GroupBundle struct {
	Round uint64
	Group types.GroupID
	Set   []Record
}

// SyncResp is the bounded state-transfer answer.
type SyncResp struct {
	Base    uint64     // first round in Rounds
	Rounds  []RoundSet // consecutive completed rounds [Base, Base+len)
	Next    uint64     // responder's current round K
	Barrier uint64
	// Bundles (remote bundles for rounds >= Next) ride only the response
	// that completes the catch-up; chunked responses omit them.
	Bundles []GroupBundle
	TooFar  bool
	// Busy marks a responder that is itself recovering; see the amcast
	// counterpart — when EVERY group peer is Busy with nothing newer, the
	// whole group is restarting together and the requester resumes.
	Busy bool
}

// archiveRound retains one completed round for restarted peers.
func (b *Bcast) archiveRound(round uint64, union []Record) {
	if b.archCap <= 0 {
		return
	}
	b.archive, _ = storage.TrimTail(append(b.archive, roundUnion{round: round, set: union}), b.archCap)
	b.archBase = b.archive[0].round
}

// --- snapshot ---------------------------------------------------------------

// AppendSnapshot encodes the endpoint's full replicated state (including
// its ordering engine) for the host's snapshot section.
func (b *Bcast) AppendSnapshot(buf []byte) []byte {
	buf = wire.AppendUvarint(buf, b.k)
	buf = wire.AppendUvarint(buf, b.barrier)
	buf = wire.AppendUvarint(buf, b.castSeq)
	// R-Delivered working set, in R-Delivery order.
	buf = wire.AppendUvarint(buf, uint64(len(b.rdOrder)))
	for _, id := range b.rdOrder {
		buf = b.rdelivered[id].AppendTo(buf)
	}
	buf = appendIDSet(buf, b.adelivered)
	buf = appendIDSet(buf, b.inDecided)
	// Own decided bundles for uncompleted rounds.
	rounds := make([]uint64, 0, len(b.decided))
	for r := range b.decided {
		rounds = append(rounds, r)
	}
	sort.Slice(rounds, func(i, j int) bool { return rounds[i] < rounds[j] })
	buf = wire.AppendUvarint(buf, uint64(len(rounds)))
	for _, r := range rounds {
		buf = wire.AppendUvarint(buf, r)
		buf = AppendRecords(buf, b.decided[r])
	}
	// Remote bundles for uncompleted rounds, sorted by (round, group).
	var gbs []GroupBundle
	for r, perGroup := range b.bundles {
		for g, set := range perGroup {
			gbs = append(gbs, GroupBundle{Round: r, Group: g, Set: set})
		}
	}
	sortGroupBundles(gbs)
	buf = appendGroupBundles(buf, gbs)
	// Completed-round archive.
	buf = wire.AppendUvarint(buf, uint64(len(b.archive)))
	for _, ru := range b.archive {
		buf = wire.AppendUvarint(buf, ru.round)
		buf = AppendRecords(buf, ru.set)
	}
	// The ordering engine, length-prefixed.
	return wire.AppendBytes(buf, b.engine.AppendSnapshot(nil))
}

// RestoreSnapshot rebuilds the endpoint from AppendSnapshot's encoding.
func (b *Bcast) RestoreSnapshot(data []byte) error {
	var err error
	if b.k, data, err = wire.Uvarint(data); err != nil {
		return err
	}
	if b.barrier, data, err = wire.Uvarint(data); err != nil {
		return err
	}
	if b.castSeq, data, err = wire.Uvarint(data); err != nil {
		return err
	}
	var n int
	if n, data, err = wire.SliceLen(data); err != nil {
		return err
	}
	for i := 0; i < n; i++ {
		var r Record
		if data, err = r.DecodeFrom(data); err != nil {
			return err
		}
		b.rdelivered[r.ID] = r
		b.rdOrder = append(b.rdOrder, r.ID)
	}
	if data, err = decodeIDSet(data, b.adelivered); err != nil {
		return err
	}
	if data, err = decodeIDSet(data, b.inDecided); err != nil {
		return err
	}
	if n, data, err = wire.SliceLen(data); err != nil {
		return err
	}
	for i := 0; i < n; i++ {
		var r uint64
		if r, data, err = wire.Uvarint(data); err != nil {
			return err
		}
		var set []Record
		if set, data, err = DecodeRecords(data); err != nil {
			return err
		}
		b.decided[r] = set
	}
	var gbs []GroupBundle
	if gbs, data, err = decodeGroupBundles(data); err != nil {
		return err
	}
	for _, gb := range gbs {
		b.storeBundle(gb.Group, gb.Round, gb.Set, true)
	}
	if n, data, err = wire.SliceLen(data); err != nil {
		return err
	}
	b.archive = b.archive[:0]
	for i := 0; i < n; i++ {
		var ru roundUnion
		if ru.round, data, err = wire.Uvarint(data); err != nil {
			return err
		}
		if ru.set, data, err = DecodeRecords(data); err != nil {
			return err
		}
		b.archive = append(b.archive, ru)
	}
	if len(b.archive) > 0 {
		b.archBase = b.archive[0].round
	} else {
		b.archBase = b.k
	}
	var engineBlob []byte
	if engineBlob, _, err = wire.Bytes(data); err != nil {
		return err
	}
	return b.engine.RestoreSnapshot(engineBlob)
}

// Recover re-fires the apply cascade for decisions the restored snapshot
// knew about (see amcast.Recover).
func (b *Bcast) Recover() {
	b.engine.BeginRecovery()
	b.engine.Recover()
}

// EndRecovery leaves replay mode once the WAL tail has been replayed.
func (b *Bcast) EndRecovery() { b.engine.EndRecovery() }

// ReplayRecord replays one WAL record belonging to this endpoint.
func (b *Bcast) ReplayRecord(rec storage.Record) error {
	if rec.Proto == b.engine.Label() {
		return b.engine.ReplayRecord(rec)
	}
	switch rec.Kind {
	case storage.KindBundle:
		set, _ := rec.Value.([]Record)
		b.handleBundle(types.GroupID(rec.Aux), rec.Inst, set, true)
	case storage.KindRound:
		set, _ := rec.Value.([]Record)
		b.applySyncRound(rec.Inst, set, true)
	default:
		b.api.Tracef("a2: ignoring unexpected WAL record kind %d", rec.Kind)
	}
	return nil
}

// --- state transfer ---------------------------------------------------------

// EngineLabel returns the ordering engine's wire label (the WAL namespace
// of the endpoint's consensus records).
func (b *Bcast) EngineLabel() string { return b.engine.Label() }

// Syncing reports whether a state transfer is in progress.
func (b *Bcast) Syncing() bool { return b.syncing }

// SyncFailed reports an abandoned state transfer (see amcast.SyncFailed).
func (b *Bcast) SyncFailed() bool { return b.syncFailed }

// Watermark returns how many messages this endpoint has A-Delivered,
// readable lock-free from any goroutine (the read tier's delivery
// watermark).
func (b *Bcast) Watermark() uint64 { return b.wm.Load() }

// StartSync begins catch-up from the same-group peers after a restart.
func (b *Bcast) StartSync() {
	if len(b.api.Topo().Members(b.api.Group())) <= 1 {
		b.finishSync()
		return
	}
	b.syncing = true
	b.syncFailed = false
	b.syncHeard = make(map[types.ProcessID]syncPeerInfo)
	b.sendSyncReq()
	b.armSyncRetry()
}

func (b *Bcast) sendSyncReq() {
	self := b.api.Self()
	var tos []types.ProcessID
	for _, q := range b.api.Topo().Members(b.api.Group()) {
		if q != self {
			tos = append(tos, q)
		}
	}
	b.api.Multicast(tos, b.label, SyncReq{From: b.k})
}

func (b *Bcast) armSyncRetry() {
	b.api.After(syncRetryEvery, func() {
		if !b.syncing || b.syncFailed {
			return
		}
		b.sendSyncReq()
		b.armSyncRetry()
	})
}

// onSyncReq serves a restarted peer from the completed-round archive. A
// responder that is itself syncing answers Busy: archived rounds are
// immutable facts, but its in-flight state must not be adopted.
func (b *Bcast) onSyncReq(from types.ProcessID, m SyncReq) {
	resp := SyncResp{Base: m.From, Next: b.k, Barrier: b.barrier, Busy: b.syncing}
	if m.From < b.archBase {
		resp.TooFar = true
		b.api.Send(from, b.label, resp)
		return
	}
	end := m.From + syncBatch
	if end > b.k {
		end = b.k
	}
	for r := m.From; r < end; r++ {
		resp.Rounds = append(resp.Rounds, RoundSet{Round: r, Set: b.archive[r-b.archBase].set})
	}
	// In-flight bundles ride only the response that completes the catch-up.
	if !resp.Busy && end == b.k {
		for r, perGroup := range b.bundles {
			for g, set := range perGroup {
				resp.Bundles = append(resp.Bundles, GroupBundle{Round: r, Group: g, Set: set})
			}
		}
		sortGroupBundles(resp.Bundles)
	}
	b.api.Send(from, b.label, resp)
}

// onSyncResp consumes one state-transfer answer.
func (b *Bcast) onSyncResp(from types.ProcessID, m SyncResp) {
	if !b.syncing {
		return
	}
	if m.TooFar {
		// Terminal; see the amcast counterpart.
		b.api.Tracef("a2: peer archive no longer covers round %d; cannot catch up by log transfer (sync abandoned)", b.k)
		b.syncFailed = true
		if b.onFailed != nil {
			b.onFailed()
		}
		return
	}
	progressed := false
	for _, rs := range m.Rounds {
		if rs.Round == b.k {
			b.applySyncRound(rs.Round, rs.Set, false)
			progressed = true
		}
	}
	b.syncHeard[from] = syncPeerInfo{next: m.Next, busy: m.Busy}
	switch {
	case !m.Busy && b.k >= m.Next:
		// Caught up with a serving peer: adopt its in-flight bundles and
		// horizon.
		for _, gb := range m.Bundles {
			b.storeBundle(gb.Group, gb.Round, gb.Set, false)
		}
		if m.Barrier > b.barrier {
			b.barrier = m.Barrier
		}
		// Round r is instance r, and only completed rounds were handed over:
		// the group's bundles of rounds decided but not yet completed must
		// still be learned here, or round K waits for its own bundle forever.
		b.engine.SkipTo(b.k)
		b.finishSync()
	case progressed:
		b.sendSyncReq()
	default:
		b.maybeFinishGroupRestart()
	}
}

// maybeFinishGroupRestart resumes when every group peer has answered Busy
// with no round newer than ours — the full-group restart case; see the
// amcast counterpart.
func (b *Bcast) maybeFinishGroupRestart() {
	self := b.api.Self()
	for _, q := range b.api.Topo().Members(b.api.Group()) {
		if q == self {
			continue
		}
		info, ok := b.syncHeard[q]
		if !ok || !info.busy || info.next > b.k {
			return
		}
	}
	b.api.Tracef("a2: whole group restarting, no peer ahead of round %d; resuming", b.k)
	b.finishSync()
}

// applySyncRound repeats one round the group completed while this process
// was down: deliver its union's undelivered records in the deterministic
// order and advance K. replay marks WAL replay (no re-logging).
func (b *Bcast) applySyncRound(round uint64, union []Record, replay bool) {
	if round != b.k {
		return
	}
	if !replay {
		b.log.Append(storage.Record{Kind: storage.KindRound, Proto: b.label, Inst: round, Value: union})
	}
	b.deliverRound(union, " (state transfer)")
}

// compactRDOrder drops R-Delivery order entries whose records are gone.
func (b *Bcast) compactRDOrder() {
	kept := b.rdOrder[:0]
	for _, id := range b.rdOrder {
		if _, ok := b.rdelivered[id]; ok {
			kept = append(kept, id)
		}
	}
	b.rdOrder = kept
}

// finishSync ends the transfer: round completion resumes and the engine
// pumps; the host is told so it can snapshot the synced state.
func (b *Bcast) finishSync() {
	b.syncing = false
	b.syncHeard = nil
	// Rounds adopted from peers were not timed here: start unpaced.
	b.paceD, b.probe = 0, 0
	b.engine.Pump()
	b.tryCompleteRound()
	if b.onSynced != nil {
		b.onSynced()
	}
}

// --- helpers ----------------------------------------------------------------

// appendIDSet appends set's ids in ascending order, their count first.
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

// decodeIDSet reads appendIDSet's encoding into set.
func decodeIDSet(data []byte, set map[types.MessageID]bool) ([]byte, error) {
	n, data, err := wire.SliceLen(data)
	for i := 0; i < n && err == nil; i++ {
		var id types.MessageID
		if id, data, err = types.DecodeMessageID(data); err == nil {
			set[id] = true
		}
	}
	return data, err
}

func sortGroupBundles(gbs []GroupBundle) {
	slices.SortFunc(gbs, func(x, y GroupBundle) int {
		return cmp.Or(cmp.Compare(x.Round, y.Round), cmp.Compare(x.Group, y.Group))
	})
}

func appendGroupBundles(buf []byte, gbs []GroupBundle) []byte {
	buf = wire.AppendUvarint(buf, uint64(len(gbs)))
	for _, gb := range gbs {
		buf = wire.AppendUvarint(buf, gb.Round)
		buf = wire.AppendVarint(buf, int64(gb.Group))
		buf = AppendRecords(buf, gb.Set)
	}
	return buf
}

func decodeGroupBundles(data []byte) ([]GroupBundle, []byte, error) {
	n, data, err := wire.SliceLen(data)
	if err != nil {
		return nil, nil, err
	}
	var gbs []GroupBundle
	for i := 0; i < n; i++ {
		var gb GroupBundle
		if gb.Round, data, err = wire.Uvarint(data); err != nil {
			return nil, nil, err
		}
		var g int64
		if g, data, err = wire.Varint(data); err != nil {
			return nil, nil, err
		}
		gb.Group = types.GroupID(g)
		if gb.Set, data, err = DecodeRecords(data); err != nil {
			return nil, nil, err
		}
		gbs = append(gbs, gb)
	}
	return gbs, data, nil
}
