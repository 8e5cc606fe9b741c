// Wire codecs for Algorithm A1's messages (see internal/wire): the (TS, m)
// descriptor message, the []Descriptor batches that travel as consensus
// values, and the record and tail of its state-transfer answers.
package amcast

import (
	"bytes"
	"fmt"

	"wanamcast/internal/statesync"
	"wanamcast/internal/types"
	"wanamcast/internal/wire"
)

func init() {
	wire.Register(wire.KindAMcastTS,
		func(buf []byte, m TSMsg) []byte { return m.Desc.AppendTo(buf) },
		func(data []byte) (m TSMsg, rest []byte, err error) { rest, err = m.Desc.decodeOwn(data); return })
	wire.Register(wire.KindAMcastPull,
		func(buf []byte, m PullMsg) []byte { return m.Desc.AppendTo(buf) },
		func(data []byte) (m PullMsg, rest []byte, err error) { rest, err = m.Desc.decodeOwn(data); return })
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
	return d.appendPayload(buf)
}

// appendPayload appends the bytes d's payload came off the wire in, verbatim,
// or else Payload's encoding.
func (d *Descriptor) appendPayload(buf []byte) []byte {
	if d.raw != nil {
		return append(buf, d.raw...)
	}
	return wire.AppendValue(buf, d.Payload)
}

// read is the one element reader of A1's codecs: it decodes a descriptor in
// full, or after prev in a batch's delta encoding, and without the stage byte
// (stage false) a DeliverRec. A payload that wire.SkipValidates is checked and
// kept encoded in d.raw, which aliases data; any other is decoded.
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
	if len(data) == 0 || !wire.SkipValidates(wire.Kind(data[0])) {
		d.Payload, rest, err = wire.DecodeValue(data)
		return rest, err
	}
	rest, err = wire.SkipValue(data)
	d.raw = data[:len(data)-len(rest)]
	return rest, err
}

// Value returns d's payload, decoding it if it is still in its wire encoding.
func (d Descriptor) Value() any {
	if d.raw == nil {
		return d.Payload
	}
	v, _, err := wire.DecodeValue(d.raw)
	if err != nil {
		panic(fmt.Sprintf("amcast: payload of %v, checked on receipt, does not decode: %v", d.ID, err))
	}
	return v
}

// decodeOwn decodes a lone descriptor, a TSMsg's or a PullMsg's: its raw
// payload is copied out of data, which may be a reused receive buffer.
func (d *Descriptor) decodeOwn(data []byte) ([]byte, error) {
	rest, err := d.read(data, nil, true)
	d.raw = bytes.Clone(d.raw)
	return rest, err
}

func appendDeliverRec(buf []byte, dr DeliverRec) []byte {
	buf = dr.ID.AppendTo(buf)
	buf = dr.Dest.AppendTo(buf)
	buf = wire.AppendUvarint(buf, dr.TS)
	return wire.AppendValue(buf, dr.Payload)
}

func decodeDeliverRec(data []byte) (DeliverRec, []byte, error) {
	var d Descriptor
	rest, err := d.read(data, nil, false)
	if err != nil {
		return DeliverRec{}, nil, err
	}
	return DeliverRec{ID: d.ID, Dest: d.Dest, TS: d.TS, Payload: d.Value()}, rest, nil
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
		buf = d.appendPayload(buf)
	}
	return buf
}

// DecodeDescriptors decodes a descriptor batch and returns the remainder. The
// payloads kept encoded share one copy of the batch's bytes.
func DecodeDescriptors(data []byte) ([]Descriptor, []byte, error) {
	n, rest, err := wire.SliceLen(data)
	if err != nil || n == 0 {
		return nil, rest, err
	}
	ds := make([]Descriptor, n)
	var own []byte
	for i := range ds {
		var prev *Descriptor
		if i > 0 {
			prev = &ds[i-1]
		}
		if rest, err = ds[i].read(rest, prev, true); err != nil {
			return nil, nil, err
		}
	}
	for i := range ds {
		if r := ds[i].raw; r != nil {
			if own == nil {
				own = bytes.Clone(data[:len(data)-len(rest)])
			}
			at := cap(data) - cap(r) // r slices data
			ds[i].raw = own[at : at+len(r)]
		}
	}
	return ds, rest, nil
}
