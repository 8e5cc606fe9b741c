// Wire codecs for Algorithm A2's messages (see internal/wire): the
// (K, msgSet) bundle, the []Record batches that travel as consensus
// values, and the record and tail of its state-transfer answers.
package abcast

import (
	"wanamcast/internal/statesync"
	"wanamcast/internal/types"
	"wanamcast/internal/wire"
)

func init() {
	wire.Register(wire.KindABcastBundle,
		func(buf []byte, m BundleMsg) []byte { return m.AppendTo(buf) },
		func(data []byte) (m BundleMsg, rest []byte, err error) { rest, err = m.DecodeFrom(data); return })
	wire.Register(wire.KindABcastRecords, AppendRecords, DecodeRecords)
	statesync.RegisterResp(wire.KindA2SyncResp, syncCodec)
}

// syncCodec encodes A2's archive records (a round number and its union, in
// snapshots and on the wire) and its state-transfer tail.
var syncCodec = statesync.Codec[RoundSet, SyncTail]{
	AppendRec: func(buf []byte, rs RoundSet) []byte {
		return AppendRecords(wire.AppendUvarint(buf, rs.Round), rs.Set)
	},
	DecodeRec: func(data []byte) (rs RoundSet, rest []byte, err error) {
		if rs.Round, data, err = wire.Uvarint(data); err != nil {
			return rs, nil, err
		}
		rs.Set, rest, err = DecodeRecords(data)
		return rs, rest, err
	},
	AppendTail: func(buf []byte, t SyncTail) []byte {
		return appendGroupBundles(wire.AppendUvarint(buf, t.Barrier), t.Bundles)
	},
	DecodeTail: func(data []byte) (t SyncTail, rest []byte, err error) {
		if t.Barrier, data, err = wire.Uvarint(data); err != nil {
			return t, nil, err
		}
		t.Bundles, rest, err = decodeGroupBundles(data)
		return t, rest, err
	},
}

// AppendTo appends r's wire encoding.
func (r Record) AppendTo(buf []byte) []byte {
	buf = r.ID.AppendTo(buf)
	return wire.AppendValue(buf, r.Payload)
}

// DecodeFrom decodes r from data and returns the remainder.
func (r *Record) DecodeFrom(data []byte) (rest []byte, err error) {
	if r.ID, data, err = types.DecodeMessageID(data); err != nil {
		return nil, err
	}
	r.Payload, data, err = wire.DecodeValue(data)
	return data, err
}

// AppendTo appends m's wire encoding.
func (m BundleMsg) AppendTo(buf []byte) []byte {
	buf = wire.AppendUvarint(buf, m.Round)
	if m.enc != nil {
		return append(buf, m.enc...)
	}
	return AppendRecords(buf, m.Set)
}

// DecodeFrom decodes m from data and returns the remainder. A non-empty
// Set is only stepped over and kept encoded; Records decodes it.
func (m *BundleMsg) DecodeFrom(data []byte) (rest []byte, err error) {
	if m.Round, data, err = wire.Uvarint(data); err != nil {
		return nil, err
	}
	n, rest, err := wire.SliceLen(data)
	for i := 0; i < n && err == nil; i++ {
		// A record is two varints — the ID, or its delta — and the payload.
		if _, rest, err = wire.Varint(rest); err == nil {
			if _, rest, err = wire.Varint(rest); err == nil {
				rest, err = wire.SkipValue(rest)
			}
		}
	}
	if n > 0 && err == nil {
		m.enc = append([]byte(nil), data[:len(data)-len(rest)]...)
	}
	return rest, err
}

// Records returns m's record set, decoding it if m came off the wire.
func (m BundleMsg) Records() ([]Record, error) {
	if m.enc == nil {
		return m.Set, nil
	}
	set, _, err := DecodeRecords(m.enc)
	return set, err
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
		buf = wire.AppendValue(buf, r.Payload)
	}
	return buf
}

// DecodeRecords decodes a record batch and returns the remainder.
func DecodeRecords(data []byte) ([]Record, []byte, error) {
	n, data, err := wire.SliceLen(data)
	if err != nil {
		return nil, nil, err
	}
	if n == 0 {
		return nil, data, nil
	}
	rs := make([]Record, n)
	if data, err = rs[0].DecodeFrom(data); err != nil {
		return nil, nil, err
	}
	for i := 1; i < n; i++ {
		prev := &rs[i-1]
		r := &rs[i]
		var dv int64
		if dv, data, err = wire.Varint(data); err != nil {
			return nil, nil, err
		}
		r.ID.Origin = types.ProcessID(int64(prev.ID.Origin) + dv)
		if dv, data, err = wire.Varint(data); err != nil {
			return nil, nil, err
		}
		r.ID.Seq = prev.ID.Seq + uint64(dv)
		if r.Payload, data, err = wire.DecodeValue(data); err != nil {
			return nil, nil, err
		}
	}
	return rs, data, nil
}
