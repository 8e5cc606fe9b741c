// Crash recovery for Algorithm A2: what is A2's own in a restart.
//
// Local recovery mirrors amcast's: RestoreSnapshot rebuilds the endpoint
// (round, Barrier, the R-Delivered working set, received remote bundles, the
// completed-round archive, and the ordering engine), Recover re-fires the
// apply cascade for decisions the snapshot knew, and ReplayRecord replays
// the WAL tail — decisions, remote-bundle receipts, adopted rounds —
// through the same code paths that produced them.
//
// Catch-up from the group is internal/statesync's protocol. A2 plugs in:
// the position is the round K; the record is one completed round's union
// (RoundSet), applied by delivering what it had not delivered; the tail is
// the Barrier and the in-flight remote bundles (SyncTail), adopted together
// with skipping the engine to K. While the gate is shut no round completes.
package abcast

import (
	"cmp"
	"slices"

	"wanamcast/internal/statesync"
	"wanamcast/internal/storage"
	"wanamcast/internal/types"
	"wanamcast/internal/wire"
)

// syncBatch bounds the rounds one state-transfer answer carries.
const syncBatch = 128

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

// SyncTail is A2's in-flight state, adopted by a requester that has caught
// up with the responder's rounds: the Barrier and the remote bundles of
// rounds not yet completed.
type SyncTail struct {
	Barrier uint64
	Bundles []GroupBundle
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
	buf = statesync.AppendIDSet(buf, b.adelivered)
	buf = statesync.AppendIDSet(buf, b.inDecided)
	// Own decided bundles for uncompleted rounds, by round, then the remote
	// bundles, by (round, group).
	own, remote := b.inFlight()
	buf = wire.AppendUvarint(buf, uint64(len(own)))
	for _, gb := range own {
		buf = wire.AppendUvarint(buf, gb.Round)
		buf = AppendRecords(buf, gb.Set)
	}
	buf = appendGroupBundles(buf, remote)
	// Completed-round archive.
	buf = b.sync.AppendArchive(buf)
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
	if data, err = statesync.DecodeIDSet(data, b.adelivered); err != nil {
		return err
	}
	if data, err = statesync.DecodeIDSet(data, b.inDecided); err != nil {
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
		b.storeBundle(b.api.Group(), r, set, true)
	}
	var gbs []GroupBundle
	if gbs, data, err = decodeGroupBundles(data); err != nil {
		return err
	}
	for _, gb := range gbs {
		b.storeBundle(gb.Group, gb.Round, gb.Set, true)
	}
	if data, err = b.sync.RestoreArchive(data); err != nil {
		return err
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

// EndRecovery leaves replay mode once the WAL tail has been replayed, and
// shuts the round-completion gate until StartSync's transfer finishes (see
// statesync.Engine.Arm).
func (b *Bcast) EndRecovery() {
	b.engine.EndRecovery()
	b.sync.Arm()
}

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
		b.applySyncRound(RoundSet{Round: rec.Inst, Set: set}, true)
	default:
		b.api.Tracef("a2: ignoring unexpected WAL record kind %d", rec.Kind)
	}
	return nil
}

// --- state transfer ---------------------------------------------------------

// EngineLabel returns the ordering engine's wire label (the WAL namespace
// of the endpoint's consensus records).
func (b *Bcast) EngineLabel() string { return b.engine.Label() }

// Syncing reports whether round completion is gated: recovery has ended or
// a state transfer has started, and the transfer has not finished.
func (b *Bcast) Syncing() bool { return b.sync.Gated() }

// Watermark returns how many messages this endpoint has A-Delivered,
// readable lock-free from any goroutine (the read tier's delivery
// watermark).
func (b *Bcast) Watermark() uint64 { return b.wm.Load() }

// StartSync begins catch-up from the same-group peers after a restart.
func (b *Bcast) StartSync() { b.sync.Start() }

// inFlight lists the uncompleted rounds' bundles, each list by (round,
// group): this group's decided ones, and those received from other groups.
func (b *Bcast) inFlight() (own, remote []GroupBundle) {
	for _, s := range b.ring {
		for g, set := range s.sets {
			if set == nil {
				continue
			}
			gb := GroupBundle{Round: s.round, Group: types.GroupID(g), Set: set}
			if gb.Group == b.api.Group() {
				own = append(own, gb)
			} else {
				remote = append(remote, gb)
			}
		}
	}
	sortGroupBundles(own)
	sortGroupBundles(remote)
	return own, remote
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
	b.engine.SkipTo(b.k)
}

// applySyncRound repeats one round the group completed while this process
// was down: deliver its union's undelivered records in the deterministic
// order and advance K. replay marks WAL replay (no re-logging).
func (b *Bcast) applySyncRound(rs RoundSet, replay bool) {
	if rs.Round != b.k {
		return
	}
	if !replay {
		b.log.Append(storage.Record{Kind: storage.KindRound, Proto: b.label, Inst: rs.Round, Value: rs.Set})
	}
	b.deliverRound(rs.Set, " (state transfer)")
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

// resumeRounds runs when the state transfer ends: round completion is live
// again and the engine pumps.
func (b *Bcast) resumeRounds() {
	// Rounds adopted from peers were not timed here: start unpaced.
	b.paceD, b.probe, b.lastUseful = 0, 0, 0
	b.engine.Pump()
	b.tryCompleteRound()
}

// --- helpers ----------------------------------------------------------------

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
