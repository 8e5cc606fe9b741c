// The read tier's wire protocol: reads bypass the ordering layer entirely.
// A ReadReq names a single shard and a mode — lease (serve only while the
// replica holds its group's leader lease: linearizable when writes route
// through the lease holder, which is the client's default routing) or
// watermark (serve at the replica's delivery watermark, whatever replica
// answers). Both carry the client's MinWatermark: the replica parks the
// read until its own watermark catches up, which is what makes follower
// reads read-your-writes and monotonic per session.
package svc

import (
	"wanamcast/internal/types"
	"wanamcast/internal/wire"
)

// Read modes on the wire (ReadReq.Mode).
const (
	readModeLease     byte = 1
	readModeWatermark byte = 2
)

// ReadReq is one local (non-ordered) read of shard Group. Seq numbers the
// session's reads in their own namespace — reads are idempotent, so unlike
// write sequences they are never deduplicated, only matched to responses.
type ReadReq struct {
	Session uint64
	Seq     uint64
	Group   types.GroupID
	Mode    byte
	// MinWatermark is the highest shard watermark this session has
	// observed; the server answers only at or above it.
	MinWatermark uint64
	Op           []byte
}

// ReadResp answers a ReadReq. Watermark is the shard's delivery watermark
// at query time; a client seeing a Watermark below its own tracked value
// rejects the response as stale (a replica restarted behind, or a
// partitioned leftover) and retries elsewhere.
type ReadResp struct {
	Session   uint64
	Seq       uint64
	OK        bool
	Err       string
	Result    []byte
	Watermark uint64
}

func init() {
	wire.Register(wire.KindSvcReadReq, appendReadReq, owning(readReadReq, func(r *ReadReq) *[]byte { return &r.Op }))
	wire.Register(wire.KindSvcReadResp, appendReadResp, decodeReadResp)
}

func appendReadReq(buf []byte, r ReadReq) []byte {
	buf = wire.AppendUvarint(buf, r.Session)
	buf = wire.AppendUvarint(buf, r.Seq)
	buf = wire.AppendVarint(buf, int64(r.Group))
	buf = append(buf, r.Mode)
	buf = wire.AppendUvarint(buf, r.MinWatermark)
	return wire.AppendBytes(buf, r.Op)
}

// readReadReq parses a ReadReq whose Op aliases data.
func readReadReq(data []byte) (ReadReq, []byte, error) {
	d := wire.Decoder{Data: data}
	r := ReadReq{Session: wire.Read(&d, wire.Uvarint), Seq: wire.Read(&d, wire.Uvarint), Group: types.GroupID(wire.Read(&d, wire.Varint))}
	r.Mode, r.MinWatermark = wire.Read(&d, wire.Byte), wire.Read(&d, wire.Uvarint)
	r.Op = wire.Read(&d, wire.Bytes)
	return r, d.Data, d.Err
}

func appendReadResp(buf []byte, r ReadResp) []byte {
	buf = wire.AppendUvarint(buf, r.Session)
	buf = wire.AppendUvarint(buf, r.Seq)
	buf = wire.AppendBool(buf, r.OK)
	buf = wire.AppendString(buf, r.Err)
	buf = wire.AppendBytes(buf, r.Result)
	return wire.AppendUvarint(buf, r.Watermark)
}

func decodeReadResp(data []byte) (ReadResp, []byte, error) {
	d := wire.Decoder{Data: data}
	r := ReadResp{Session: wire.Read(&d, wire.Uvarint), Seq: wire.Read(&d, wire.Uvarint), OK: wire.Read(&d, wire.Bool)}
	r.Err, r.Result = wire.Read(&d, wire.String), append([]byte(nil), wire.Read(&d, wire.Bytes)...)
	r.Watermark = wire.Read(&d, wire.Uvarint)
	return r, d.Data, d.Err
}
