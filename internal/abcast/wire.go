// Every byte format of Algorithm A2 (see internal/wire): the (K, msgSet)
// bundle and the pull for one, the []Record batches that travel as consensus
// values, the record and tail of its state-transfer answers, and its part of
// a snapshot.
package abcast

import (
	"bytes"
	"cmp"
	"slices"

	"wanamcast/internal/statesync"
	"wanamcast/internal/types"
	"wanamcast/internal/wire"
)

func init() {
	wire.Register(wire.KindABcastBundle,
		func(buf []byte, m BundleMsg) []byte { return AppendRecords(wire.AppendUvarint(buf, m.Round), m.Set) },
		func(data []byte) (m BundleMsg, rest []byte, err error) {
			d := wire.Decoder{Data: data}
			m.Round, m.Set = wire.Read(&d, wire.Uvarint), wire.Read(&d, DecodeRecords)
			return m, d.Data, d.Err
		})
	wire.Register(wire.KindABcastRecords, AppendRecords, DecodeRecords)
	wire.Register(wire.KindABcastPull,
		func(buf []byte, m PullMsg) []byte { return wire.AppendUvarint(buf, m.Round) },
		func(data []byte) (m PullMsg, rest []byte, err error) { m.Round, rest, err = wire.Uvarint(data); return })
	statesync.RegisterResp(wire.KindA2SyncResp, syncCodec)
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

// SyncTail is A2's in-flight state, adopted by a requester that has caught
// up with the responder's rounds: the Barrier and the remote bundles of
// rounds not yet completed.
type SyncTail struct {
	Barrier uint64
	Bundles []GroupBundle
}

// syncCodec encodes A2's archive records (a round number and its union, in
// snapshots and on the wire) and its state-transfer tail.
var syncCodec = statesync.Codec[RoundSet, SyncTail]{
	AppendRec: func(buf []byte, rs RoundSet) []byte {
		return AppendRecords(wire.AppendUvarint(buf, rs.Round), rs.Set)
	},
	DecodeRec: func(data []byte) (RoundSet, []byte, error) {
		d := wire.Decoder{Data: data}
		rs := RoundSet{Round: wire.Read(&d, wire.Uvarint), Set: wire.Read(&d, DecodeRecords)}
		return rs, d.Data, d.Err
	},
	AppendTail: func(buf []byte, t SyncTail) []byte {
		return appendGroupBundles(wire.AppendUvarint(buf, t.Barrier), t.Bundles)
	},
	DecodeTail: func(data []byte) (SyncTail, []byte, error) {
		d := wire.Decoder{Data: data}
		t := SyncTail{Barrier: wire.Read(&d, wire.Uvarint), Bundles: wire.Read(&d, decodeGroupBundles)}
		return t, d.Data, d.Err
	},
}

// AppendTo appends r's wire encoding.
func (r Record) AppendTo(buf []byte) []byte {
	buf = r.ID.AppendTo(buf)
	return wire.AppendBytes(buf, r.Payload)
}

// DecodeFrom decodes r from data and returns the remainder; the payload is
// copied out of data.
func (r *Record) DecodeFrom(data []byte) (rest []byte, err error) {
	if r.ID, data, err = types.DecodeMessageID(data); err != nil {
		return nil, err
	}
	r.Payload, data, err = wire.Bytes(data)
	r.Payload = bytes.Clone(r.Payload)
	return data, err
}

// AppendRecords appends a record batch (an A2 consensus value and the body
// of every bundle).
//
// Batches are delta-encoded: the first record's MessageID is written in
// full, every subsequent one as zig-zag varint deltas of (Origin, Seq)
// against its predecessor. Bundles are runs of per-origin sequences, so the
// deltas are almost always (0, +1) — two bytes where the full ID spent up
// to twelve.
func AppendRecords(buf []byte, rs []Record) []byte {
	buf = wire.AppendUvarint(buf, uint64(len(rs)))
	for i := range rs {
		r := &rs[i]
		if i == 0 {
			buf = r.AppendTo(buf)
			continue
		}
		prev := &rs[i-1]
		buf = wire.AppendVarint(buf, int64(r.ID.Origin)-int64(prev.ID.Origin))
		buf = wire.AppendVarint(buf, int64(r.ID.Seq-prev.ID.Seq))
		buf = wire.AppendBytes(buf, r.Payload)
	}
	return buf
}

// DecodeRecords decodes a record batch and returns the remainder. The
// payloads share one copy of their bytes.
func DecodeRecords(data []byte) ([]Record, []byte, error) {
	n, data, err := wire.SliceLen(data)
	if err != nil || n == 0 {
		return nil, data, err
	}
	rs := make([]Record, n)
	for i := range rs {
		r := &rs[i]
		if i == 0 {
			r.ID, data, err = types.DecodeMessageID(data)
		} else {
			prev := &rs[i-1]
			var do, ds int64
			if do, data, err = wire.Varint(data); err == nil {
				ds, data, err = wire.Varint(data)
			}
			r.ID = types.MessageID{Origin: types.ProcessID(int64(prev.ID.Origin) + do), Seq: prev.ID.Seq + uint64(ds)}
		}
		if err == nil {
			r.Payload, data, err = wire.Bytes(data)
		}
		if err != nil {
			return nil, nil, err
		}
	}
	wire.Own(rs, func(r *Record) *[]byte { return &r.Payload })
	return rs, data, nil
}

// save is the group's Save hook: A2's part of the snapshot section.
func (b *Bcast) save(buf []byte, castSeq uint64) []byte {
	buf = wire.AppendUvarint(buf, b.k)
	buf = wire.AppendUvarint(buf, b.barrier)
	buf = wire.AppendUvarint(buf, castSeq)
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
	return appendGroupBundles(buf, remote)
}

// load is the group's Load hook: it reads what save wrote.
func (b *Bcast) load(data []byte) (castSeq uint64, rest []byte, err error) {
	d := wire.Decoder{Data: data}
	b.k = wire.Read(&d, wire.Uvarint)
	b.barrier = wire.Read(&d, wire.Uvarint)
	castSeq = wire.Read(&d, wire.Uvarint)
	for n := wire.Read(&d, wire.SliceLen); n > 0 && d.Err == nil; n-- {
		var r Record
		if d.Step(r.DecodeFrom); d.Err == nil {
			b.rdelivered[r.ID] = r
			b.rdOrder = append(b.rdOrder, r.ID)
		}
	}
	d.Step(func(data []byte) ([]byte, error) { return statesync.DecodeIDSet(data, b.adelivered) })
	d.Step(func(data []byte) ([]byte, error) { return statesync.DecodeIDSet(data, b.inDecided) })
	for n := wire.Read(&d, wire.SliceLen); n > 0 && d.Err == nil; n-- {
		if r, set := wire.Read(&d, wire.Uvarint), wire.Read(&d, DecodeRecords); d.Err == nil {
			b.storeBundle(b.api.Group(), r, set, true)
		}
	}
	for _, gb := range wire.Read(&d, decodeGroupBundles) {
		b.storeBundle(gb.Group, gb.Round, gb.Set, true)
	}
	return castSeq, d.Data, d.Err
}

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
	byRound := func(x, y GroupBundle) int {
		return cmp.Or(cmp.Compare(x.Round, y.Round), cmp.Compare(x.Group, y.Group))
	}
	slices.SortFunc(own, byRound)
	slices.SortFunc(remote, byRound)
	return own, remote
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

func decodeGroupBundles(data []byte) (gbs []GroupBundle, rest []byte, err error) {
	d := wire.Decoder{Data: data}
	for n := wire.Read(&d, wire.SliceLen); n > 0 && d.Err == nil; n-- {
		gb := GroupBundle{Round: wire.Read(&d, wire.Uvarint), Group: types.GroupID(wire.Read(&d, wire.Varint))}
		gb.Set = wire.Read(&d, DecodeRecords)
		gbs = append(gbs, gb)
	}
	if d.Err != nil {
		return nil, nil, d.Err
	}
	return gbs, d.Data, nil
}
