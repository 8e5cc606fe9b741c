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
	wire.Register(wire.KindSvcCommand, appendCommand, owning(readCommand, func(c *Command) *[]byte { return &c.Op }))
	wire.Register(wire.KindSvcRequest, appendRequest, owning(readRequest, func(r *Request) *[]byte { return &r.Op }))
	wire.Register(wire.KindSvcReply, appendReply, decodeReply)
	wire.Register(wire.KindSvcRedirect, appendRedirect, decodeRedirect)
}

func appendCommand(buf []byte, c Command) []byte {
	buf = wire.AppendUvarint(buf, c.Session)
	buf = wire.AppendUvarint(buf, c.Seq)
	return wire.AppendBytes(buf, c.Op)
}

// A service cast's payload is the KindSvcCommand byte followed by one or more
// Commands back to back: what one connection's read burst held for one
// destination set. A one-command payload is the Command's wire.AppendValue
// encoding.

// readCommand parses a Command whose Op aliases data. It allocates nothing:
// it is the parser of commands and of the codec registry.
func readCommand(data []byte) (Command, []byte, error) {
	d := wire.Decoder{Data: data}
	c := Command{Session: wire.Read(&d, wire.Uvarint), Seq: wire.Read(&d, wire.Uvarint), Op: wire.Read(&d, wire.Bytes)}
	return c, d.Data, d.Err
}

// commands checks that a delivered payload parses whole — the kind byte, then
// one or more Commands, nothing after — and returns the Commands' bytes for
// readCommand to walk. It allocates nothing and refuses anything else: the
// format's owner is the one to reject a malformed cast, and it applies none
// of it.
func commands(payload []byte) ([]byte, bool) {
	if len(payload) < 2 || wire.Kind(payload[0]) != wire.KindSvcCommand {
		return nil, false
	}
	for rest := payload[1:]; len(rest) > 0; {
		var err error
		if _, rest, err = readCommand(rest); err != nil {
			return nil, false
		}
	}
	return payload[1:], true
}

func appendRequest(buf []byte, r Request) []byte {
	buf = wire.AppendUvarint(buf, r.Session)
	buf = wire.AppendUvarint(buf, r.Seq)
	buf = r.Dest.AppendTo(buf)
	return wire.AppendBytes(buf, r.Op)
}

// readRequest parses a Request whose Op aliases data: the server reads its
// requests in place (see view).
func readRequest(data []byte) (Request, []byte, error) {
	d := wire.Decoder{Data: data}
	r := Request{Session: wire.Read(&d, wire.Uvarint), Seq: wire.Read(&d, wire.Uvarint), Dest: wire.Read(&d, types.DecodeGroupSet)}
	r.Op = wire.Read(&d, wire.Bytes)
	return r, d.Data, d.Err
}

// owning is the codec registry's decoder for a value that read parses with
// its op aliasing the input: the decoded value outlives the input, so it
// owns a copy of its op.
func owning[T any](read func([]byte) (T, []byte, error), op func(*T) *[]byte) func([]byte) (T, []byte, error) {
	return func(data []byte) (T, []byte, error) {
		v, rest, err := read(data)
		*op(&v) = append([]byte(nil), *op(&v)...)
		return v, rest, err
	}
}

// view parses a frame's body, read in place, with read: the value may alias
// body. Like SvcConn.ReadMsg it refuses a body with bytes left over.
func view[T any](body []byte, read func([]byte) (T, []byte, error)) (T, bool) {
	v, rest, err := read(body)
	return v, err == nil && len(rest) == 0
}

func appendReply(buf []byte, r Reply) []byte {
	buf = wire.AppendUvarint(buf, r.Session)
	buf = wire.AppendUvarint(buf, r.Seq)
	buf = wire.AppendBool(buf, r.OK)
	buf = wire.AppendString(buf, r.Err)
	buf = wire.AppendBytes(buf, r.Result)
	return wire.AppendUvarint(buf, r.Order)
}

func decodeReply(data []byte) (Reply, []byte, error) {
	d := wire.Decoder{Data: data}
	r := Reply{Session: wire.Read(&d, wire.Uvarint), Seq: wire.Read(&d, wire.Uvarint), OK: wire.Read(&d, wire.Bool)}
	r.Err, r.Result = wire.Read(&d, wire.String), append([]byte(nil), wire.Read(&d, wire.Bytes)...)
	r.Order = wire.Read(&d, wire.Uvarint)
	return r, d.Data, d.Err
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
	d := wire.Decoder{Data: data}
	r := Redirect{Session: wire.Read(&d, wire.Uvarint), Seq: wire.Read(&d, wire.Uvarint), Groups: wire.Read(&d, types.DecodeGroupSet)}
	for n := wire.Read(&d, wire.SliceLen); n > 0 && d.Err == nil; n-- {
		if a := wire.Read(&d, wire.String); d.Err == nil {
			r.Addrs = append(r.Addrs, a)
		}
	}
	return r, d.Data, d.Err
}
