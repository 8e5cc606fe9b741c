// Wire codecs for Algorithm A1's messages (see internal/wire): the (TS, m)
// descriptor message, the []Descriptor batches that travel as consensus
// values, and the record and tail of its state-transfer answers.
package amcast

import (
	"fmt"

	"wanamcast/internal/statesync"
	"wanamcast/internal/types"
	"wanamcast/internal/wire"
)

func init() {
	wire.Register(wire.KindAMcastTS,
		func(buf []byte, m TSMsg) []byte { return m.AppendTo(buf) },
		func(data []byte) (m TSMsg, rest []byte, err error) { rest, err = m.DecodeFrom(data); return })
	wire.Register(wire.KindAMcastPull,
		func(buf []byte, m PullMsg) []byte { return m.Desc.AppendTo(buf) },
		func(data []byte) (m PullMsg, rest []byte, err error) { rest, err = m.Desc.DecodeFrom(data); return })
	wire.Register(wire.KindAMcastDescriptors, AppendDescriptors, DecodeDescriptors)
	statesync.RegisterResp(wire.KindA1SyncResp, syncCodec)
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
	return wire.AppendValue(buf, d.Payload)
}

// DecodeFrom decodes d from data and returns the remainder.
func (d *Descriptor) DecodeFrom(data []byte) (rest []byte, err error) {
	if d.ID, data, err = types.DecodeMessageID(data); err != nil {
		return nil, err
	}
	if d.Dest, data, err = types.DecodeGroupSet(data); err != nil {
		return nil, err
	}
	if d.TS, data, err = wire.Uvarint(data); err != nil {
		return nil, err
	}
	if len(data) == 0 {
		return nil, fmt.Errorf("%w: descriptor stage", wire.ErrCorrupt)
	}
	d.Stage, data = Stage(data[0]), data[1:]
	d.Payload, data, err = wire.DecodeValue(data)
	return data, err
}

// AppendTo appends m's wire encoding.
func (m TSMsg) AppendTo(buf []byte) []byte { return m.Desc.AppendTo(buf) }

// DecodeFrom decodes m from data and returns the remainder.
func (m *TSMsg) DecodeFrom(data []byte) ([]byte, error) { return m.Desc.DecodeFrom(data) }

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

func decodeSyncTail(data []byte) (t SyncTail, rest []byte, err error) {
	if t.Applied, data, err = wire.Uvarint(data); err != nil {
		return t, nil, err
	}
	if t.K, data, err = wire.Uvarint(data); err != nil {
		return t, nil, err
	}
	if t.Pending, data, err = DecodeDescriptors(data); err != nil {
		return t, nil, err
	}
	var n int
	if n, data, err = wire.SliceLen(data); err != nil {
		return t, nil, err
	}
	for i := 0; i < n; i++ {
		var pr PropEntry
		if pr.ID, data, err = types.DecodeMessageID(data); err != nil {
			return t, nil, err
		}
		var g int64
		if g, data, err = wire.Varint(data); err != nil {
			return t, nil, err
		}
		pr.Group = types.GroupID(g)
		if pr.TS, data, err = wire.Uvarint(data); err != nil {
			return t, nil, err
		}
		t.Props = append(t.Props, pr)
	}
	return t, data, nil
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
		buf = wire.AppendValue(buf, d.Payload)
	}
	return buf
}

// DecodeDescriptors decodes a descriptor batch and returns the remainder.
func DecodeDescriptors(data []byte) ([]Descriptor, []byte, error) {
	n, data, err := wire.SliceLen(data)
	if err != nil {
		return nil, nil, err
	}
	if n == 0 {
		return nil, data, nil
	}
	ds := make([]Descriptor, n)
	if data, err = ds[0].DecodeFrom(data); err != nil {
		return nil, nil, err
	}
	for i := 1; i < n; i++ {
		prev := &ds[i-1]
		d := &ds[i]
		if len(data) == 0 {
			return nil, nil, fmt.Errorf("%w: descriptor delta flags", wire.ErrCorrupt)
		}
		flags := data[0]
		data = data[1:]
		if flags&^byte(1) != 0 {
			return nil, nil, fmt.Errorf("%w: unknown descriptor delta flags", wire.ErrCorrupt)
		}
		var dv int64
		if dv, data, err = wire.Varint(data); err != nil {
			return nil, nil, err
		}
		d.ID.Origin = types.ProcessID(int64(prev.ID.Origin) + dv)
		if dv, data, err = wire.Varint(data); err != nil {
			return nil, nil, err
		}
		d.ID.Seq = prev.ID.Seq + uint64(dv)
		if flags&1 != 0 {
			d.Dest = prev.Dest // GroupSets are immutable once built; sharing is safe
		} else if d.Dest, data, err = types.DecodeGroupSet(data); err != nil {
			return nil, nil, err
		}
		if dv, data, err = wire.Varint(data); err != nil {
			return nil, nil, err
		}
		d.TS = prev.TS + uint64(dv)
		if len(data) == 0 {
			return nil, nil, fmt.Errorf("%w: descriptor stage", wire.ErrCorrupt)
		}
		d.Stage, data = Stage(data[0]), data[1:]
		if d.Payload, data, err = wire.DecodeValue(data); err != nil {
			return nil, nil, err
		}
	}
	return ds, data, nil
}
