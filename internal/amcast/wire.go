// Every byte format of Algorithm A1 (see internal/wire): the (TS, m)
// descriptor message and the pull, the []Descriptor batches that travel as
// consensus values, the record and tail of its state-transfer answers, and
// its part of a snapshot.
package amcast

import (
	"bytes"
	"cmp"
	"fmt"
	"maps"
	"slices"

	"wanamcast/internal/statesync"
	"wanamcast/internal/types"
	"wanamcast/internal/wire"
)

func init() {
	wire.Register(wire.KindAMcastTS,
		func(buf []byte, m TSMsg) []byte { return m.Desc.AppendTo(buf) },
		func(data []byte) (m TSMsg, rest []byte, err error) {
			m.Desc, rest, err = decodeDescriptor(data)
			return
		})
	wire.Register(wire.KindAMcastPull,
		func(buf []byte, m PullMsg) []byte { return m.Desc.AppendTo(buf) },
		func(data []byte) (m PullMsg, rest []byte, err error) {
			m.Desc, rest, err = decodeDescriptor(data)
			return
		})
	wire.Register(wire.KindAMcastDescriptors, AppendDescriptors, DecodeDescriptors)
	statesync.RegisterResp(wire.KindA1SyncResp, syncCodec)
}

// DeliverRec is one archived A-Delivery: what a peer needs to repeat it.
type DeliverRec struct {
	ID      types.MessageID
	Dest    types.GroupSet
	TS      uint64
	Payload []byte
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

// syncCodec encodes A1's archive records and state-transfer tail.
var syncCodec = statesync.Codec[DeliverRec, SyncTail]{
	AppendRec:  appendDeliverRec,
	DecodeRec:  decodeDeliverRec,
	AppendTail: appendSyncTail,
	DecodeTail: decodeSyncTail,
}

// AppendTo appends d's wire encoding.
func (d Descriptor) AppendTo(buf []byte) []byte {
	buf = d.ID.AppendTo(buf)
	buf = d.Dest.AppendTo(buf)
	buf = wire.AppendUvarint(buf, d.TS)
	buf = append(buf, byte(d.Stage))
	return wire.AppendBytes(buf, d.Payload)
}

// read is the one element reader of A1's codecs: it decodes a descriptor in
// full, or after prev in a batch's delta encoding, and without the stage byte
// (stage false) a DeliverRec. The payload aliases data.
func (d *Descriptor) read(data []byte, prev *Descriptor, stage bool) (rest []byte, err error) {
	var dv int64
	same := false // the delta flags' bit 0: Dest is prev's
	if prev == nil {
		d.ID, data, err = types.DecodeMessageID(data)
	} else {
		if len(data) == 0 || data[0]&^1 != 0 {
			return nil, fmt.Errorf("%w: descriptor delta flags", wire.ErrCorrupt)
		}
		same, data = data[0] == 1, data[1:]
		if dv, data, err = wire.Varint(data); err == nil {
			d.ID.Origin = prev.ID.Origin + types.ProcessID(dv)
			dv, data, err = wire.Varint(data)
			d.ID.Seq = prev.ID.Seq + uint64(dv)
		}
	}
	if err != nil {
		return nil, err
	}
	if same {
		d.Dest = prev.Dest // GroupSets are immutable once built; sharing is safe
	} else if d.Dest, data, err = types.DecodeGroupSet(data); err != nil {
		return nil, err
	}
	if prev == nil {
		d.TS, data, err = wire.Uvarint(data)
	} else if dv, data, err = wire.Varint(data); err == nil {
		d.TS = prev.TS + uint64(dv)
	}
	if err != nil {
		return nil, err
	}
	if stage {
		if len(data) == 0 {
			return nil, fmt.Errorf("%w: descriptor stage", wire.ErrCorrupt)
		}
		d.Stage, data = Stage(data[0]), data[1:]
	}
	d.Payload, rest, err = wire.Bytes(data)
	return rest, err
}

// decodeDescriptor decodes a lone descriptor — a TSMsg's, a PullMsg's, a
// snapshot's — with its payload copied out of data, which may be a reused
// receive buffer.
func decodeDescriptor(data []byte) (d Descriptor, rest []byte, err error) {
	rest, err = d.read(data, nil, true)
	d.Payload = bytes.Clone(d.Payload)
	return d, rest, err
}

func appendDeliverRec(buf []byte, dr DeliverRec) []byte {
	buf = dr.ID.AppendTo(buf)
	buf = dr.Dest.AppendTo(buf)
	buf = wire.AppendUvarint(buf, dr.TS)
	return wire.AppendBytes(buf, dr.Payload)
}

func decodeDeliverRec(data []byte) (DeliverRec, []byte, error) {
	var d Descriptor
	rest, err := d.read(data, nil, false)
	if err != nil {
		return DeliverRec{}, nil, err
	}
	return DeliverRec{ID: d.ID, Dest: d.Dest, TS: d.TS, Payload: bytes.Clone(d.Payload)}, rest, nil
}

func appendSyncTail(buf []byte, t SyncTail) []byte {
	buf = wire.AppendUvarint(buf, t.Applied)
	buf = wire.AppendUvarint(buf, t.K)
	buf = AppendDescriptors(buf, t.Pending)
	buf = wire.AppendUvarint(buf, uint64(len(t.Props)))
	for _, pr := range t.Props {
		buf = pr.ID.AppendTo(buf)
		buf = wire.AppendVarint(buf, int64(pr.Group))
		buf = wire.AppendUvarint(buf, pr.TS)
	}
	return buf
}

func decodeSyncTail(data []byte) (SyncTail, []byte, error) {
	d := wire.Decoder{Data: data}
	t := SyncTail{Applied: wire.Read(&d, wire.Uvarint), K: wire.Read(&d, wire.Uvarint), Pending: wire.Read(&d, DecodeDescriptors)}
	for n := wire.Read(&d, wire.SliceLen); n > 0 && d.Err == nil; n-- {
		pr := PropEntry{ID: wire.Read(&d, types.DecodeMessageID), Group: types.GroupID(wire.Read(&d, wire.Varint))}
		pr.TS = wire.Read(&d, wire.Uvarint)
		t.Props = append(t.Props, pr)
	}
	return t, d.Data, d.Err
}

// AppendDescriptors appends a descriptor batch (an A1 consensus value).
//
// Batches are delta-encoded: the first descriptor is written in full, and
// every subsequent one carries zig-zag varint deltas of its MessageID
// (Origin, Seq) and timestamp against its predecessor, plus a flags byte
// whose bit 0 elides a destination set identical to the predecessor's. A
// decided batch is dominated by monotone-ish sequences (same origins, +1
// seqs, clustered logical clocks, one hot destination set), so the deltas
// collapse to one or two bytes where the full encoding spent five to ten.
func AppendDescriptors(buf []byte, ds []Descriptor) []byte {
	buf = wire.AppendUvarint(buf, uint64(len(ds)))
	for i := range ds {
		d := &ds[i]
		if i == 0 {
			buf = d.AppendTo(buf)
			continue
		}
		prev := &ds[i-1]
		flags := byte(0)
		if d.Dest.Equal(prev.Dest) {
			flags |= 1
		}
		buf = append(buf, flags)
		buf = wire.AppendVarint(buf, int64(d.ID.Origin)-int64(prev.ID.Origin))
		buf = wire.AppendVarint(buf, int64(d.ID.Seq-prev.ID.Seq))
		if flags&1 == 0 {
			buf = d.Dest.AppendTo(buf)
		}
		buf = wire.AppendVarint(buf, int64(d.TS-prev.TS))
		buf = append(buf, byte(d.Stage))
		buf = wire.AppendBytes(buf, d.Payload)
	}
	return buf
}

// DecodeDescriptors decodes a descriptor batch and returns the remainder. The
// payloads share one copy of their bytes.
func DecodeDescriptors(data []byte) ([]Descriptor, []byte, error) {
	n, rest, err := wire.SliceLen(data)
	if err != nil || n == 0 {
		return nil, rest, err
	}
	ds := make([]Descriptor, n)
	for i := range ds {
		var prev *Descriptor
		if i > 0 {
			prev = &ds[i-1]
		}
		if rest, err = ds[i].read(rest, prev, true); err != nil {
			return nil, nil, err
		}
	}
	wire.Own(ds, func(d *Descriptor) *[]byte { return &d.Payload })
	return ds, rest, nil
}

// save is the group's Save hook: A1's part of the snapshot section.
func (a *Mcast) save(buf []byte, castSeq uint64) []byte {
	buf = wire.AppendUvarint(buf, a.k)
	buf = wire.AppendUvarint(buf, a.admitSeq)
	buf = wire.AppendUvarint(buf, castSeq)
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
	// The first index of the delivery archive, which follows.
	return wire.AppendUvarint(buf, a.Sync.Base())
}

// load is the group's Load hook: it reads what save wrote.
func (a *Mcast) load(data []byte) (castSeq uint64, rest []byte, err error) {
	d := wire.Decoder{Data: data}
	a.k = wire.Read(&d, wire.Uvarint)
	a.admitSeq = wire.Read(&d, wire.Uvarint)
	castSeq = wire.Read(&d, wire.Uvarint)
	a.delivered = wire.Read(&d, wire.Uvarint)
	for n := wire.Read(&d, wire.SliceLen); n > 0 && d.Err == nil; n-- {
		desc := wire.Read(&d, decodeDescriptor)
		if seq := wire.Read(&d, wire.Uvarint); d.Err == nil {
			a.pending[desc.ID] = &pend{id: desc.ID, dest: desc.Dest, payload: desc.Payload, ts: desc.TS, stage: desc.Stage, seq: seq}
		}
	}
	d.Step(func(b []byte) ([]byte, error) { return statesync.DecodeIDSet(b, a.adelivered) })
	for n := wire.Read(&d, wire.SliceLen); n > 0 && d.Err == nil; n-- {
		p := a.pending[wire.Read(&d, types.DecodeMessageID)]
		for m := wire.Read(&d, wire.SliceLen); m > 0 && d.Err == nil; m-- {
			if g, ts := wire.Read(&d, wire.Varint), wire.Read(&d, wire.Uvarint); p != nil && d.Err == nil {
				p.setProp(types.GroupID(g), ts)
			}
		}
	}
	// The archive follows, its count first (statesync.Engine.AppendArchive),
	// and ends at the delivery count.
	archBase := wire.Read(&d, wire.Uvarint)
	if archived, _, err := wire.Uvarint(d.Data); d.Err == nil && err == nil && archBase+archived != a.delivered {
		d.Err = fmt.Errorf("%w: a1 archive starts at %d, not %d", wire.ErrCorrupt, a.delivered-archived, archBase)
	}
	a.reindex()
	return castSeq, d.Data, d.Err
}
