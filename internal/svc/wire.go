package svc

import (
	"wanamcast/internal/types"
	"wanamcast/internal/wire"
)

// Command is the replicated operation: the payload the server genuinely
// multicasts to the destination shards. (Session, Seq) is the client's
// exactly-once identity — every replica's dedup table is keyed by it, and
// because every replica of a shard sees the same A-Delivery order, the
// tables stay identical without any extra coordination.
type Command struct {
	Session uint64
	Seq     uint64
	Op      []byte
}

// Request is one client call: execute Op on the shards in Dest, exactly
// once, under (Session, Seq). Retries after a timeout MUST reuse the same
// Seq — that is what makes them retries rather than new commands.
type Request struct {
	Session uint64
	Seq     uint64
	Dest    types.GroupSet
	Op      []byte
}

// Reply answers a Request. Result is the replica-local result of the
// contacted server's shard. OK false carries an application or protocol
// error in Err. Order is the coordinator shard's delivery watermark after
// the command applied (0 for error replies): the client folds it into its
// per-shard watermark so follower reads are read-your-writes.
type Reply struct {
	Session uint64
	Seq     uint64
	OK      bool
	Err     string
	Result  []byte
	Order   uint64
}

// Redirect tells a client it asked the wrong shard: the contacted server's
// group is not in the request's destination set. Addrs lists client-facing
// addresses of servers that can coordinate the command (members of Groups).
type Redirect struct {
	Session uint64
	Seq     uint64
	Groups  types.GroupSet
	Addrs   []string
}

func init() {
	wire.Register(wire.KindSvcCommand, appendCommand, decodeCommand)
	wire.RegisterSkip(wire.KindSvcCommand, func(data []byte) ([]byte, error) {
		_, rest, err := readCommand(data)
		return rest, err
	})
	wire.Register(wire.KindSvcRequest, appendRequest, decodeRequest)
	wire.Register(wire.KindSvcReply, appendReply, decodeReply)
	wire.Register(wire.KindSvcRedirect, appendRedirect, decodeRedirect)
}

func appendCommand(buf []byte, c Command) []byte {
	buf = wire.AppendUvarint(buf, c.Session)
	buf = wire.AppendUvarint(buf, c.Seq)
	return wire.AppendBytes(buf, c.Op)
}

// readCommand parses a Command whose Op aliases data. It allocates nothing:
// it is Command's row of the wire skip table, and decodeCommand's parser.
func readCommand(data []byte) (c Command, rest []byte, err error) {
	if c.Session, data, err = wire.Uvarint(data); err != nil {
		return c, nil, err
	}
	if c.Seq, data, err = wire.Uvarint(data); err != nil {
		return c, nil, err
	}
	c.Op, rest, err = wire.Bytes(data)
	return c, rest, err
}

func decodeCommand(data []byte) (Command, []byte, error) {
	c, rest, err := readCommand(data)
	c.Op = append([]byte(nil), c.Op...) // Command outlives the input
	return c, rest, err
}

func appendRequest(buf []byte, r Request) []byte {
	buf = wire.AppendUvarint(buf, r.Session)
	buf = wire.AppendUvarint(buf, r.Seq)
	buf = r.Dest.AppendTo(buf)
	return wire.AppendBytes(buf, r.Op)
}

func decodeRequest(data []byte) (Request, []byte, error) {
	var r Request
	var err error
	if r.Session, data, err = wire.Uvarint(data); err != nil {
		return r, nil, err
	}
	if r.Seq, data, err = wire.Uvarint(data); err != nil {
		return r, nil, err
	}
	if r.Dest, data, err = types.DecodeGroupSet(data); err != nil {
		return r, nil, err
	}
	op, data, err := wire.Bytes(data)
	if err != nil {
		return r, nil, err
	}
	r.Op = append([]byte(nil), op...)
	return r, data, nil
}

func appendReply(buf []byte, r Reply) []byte {
	buf = wire.AppendUvarint(buf, r.Session)
	buf = wire.AppendUvarint(buf, r.Seq)
	ok := byte(0)
	if r.OK {
		ok = 1
	}
	buf = append(buf, ok)
	buf = wire.AppendString(buf, r.Err)
	buf = wire.AppendBytes(buf, r.Result)
	return wire.AppendUvarint(buf, r.Order)
}

func decodeReply(data []byte) (Reply, []byte, error) {
	var r Reply
	var err error
	if r.Session, data, err = wire.Uvarint(data); err != nil {
		return r, nil, err
	}
	if r.Seq, data, err = wire.Uvarint(data); err != nil {
		return r, nil, err
	}
	if len(data) == 0 {
		return r, nil, wire.ErrCorrupt
	}
	r.OK, data = data[0] != 0, data[1:]
	if r.Err, data, err = wire.String(data); err != nil {
		return r, nil, err
	}
	res, data, err := wire.Bytes(data)
	if err != nil {
		return r, nil, err
	}
	r.Result = append([]byte(nil), res...)
	if r.Order, data, err = wire.Uvarint(data); err != nil {
		return r, nil, err
	}
	return r, data, nil
}

func appendRedirect(buf []byte, r Redirect) []byte {
	buf = wire.AppendUvarint(buf, r.Session)
	buf = wire.AppendUvarint(buf, r.Seq)
	buf = r.Groups.AppendTo(buf)
	buf = wire.AppendUvarint(buf, uint64(len(r.Addrs)))
	for _, a := range r.Addrs {
		buf = wire.AppendString(buf, a)
	}
	return buf
}

func decodeRedirect(data []byte) (Redirect, []byte, error) {
	var r Redirect
	var err error
	if r.Session, data, err = wire.Uvarint(data); err != nil {
		return r, nil, err
	}
	if r.Seq, data, err = wire.Uvarint(data); err != nil {
		return r, nil, err
	}
	if r.Groups, data, err = types.DecodeGroupSet(data); err != nil {
		return r, nil, err
	}
	n, data, err := wire.SliceLen(data)
	if err != nil {
		return r, nil, err
	}
	if n > 0 {
		r.Addrs = make([]string, 0, n)
		for i := 0; i < n; i++ {
			var a string
			if a, data, err = wire.String(data); err != nil {
				return r, nil, err
			}
			r.Addrs = append(r.Addrs, a)
		}
	}
	return r, data, nil
}
