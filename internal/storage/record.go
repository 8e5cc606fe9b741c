// WAL record encoding. A Record is the unit every durable layer appends:
// a kind byte, the owning protocol's wire label, a handful of numeric
// fields whose meaning is kind-specific, an application payload's bytes, and
// an optional value encoded through the internal/wire codec registry — so
// batched consensus values ([]amcast.Descriptor, []abcast.Record) reuse their
// zero-allocation encoders on the log path exactly as they do on the network
// path.
package storage

import (
	"bytes"
	"fmt"

	"wanamcast/internal/types"
	"wanamcast/internal/wire"
)

// Kind identifies what a WAL record means to its owning protocol.
type Kind byte

const (
	// KindInvalid is never written; a zero kind in a log is corruption.
	KindInvalid Kind = 0

	// KindPromise is a Paxos acceptor promise: Proto names the consensus
	// engine, Inst the instance, Ballot the promised ballot. Persisted
	// (and synced) BEFORE the Promise reply leaves the process.
	KindPromise Kind = 1
	// KindAccept is a Paxos acceptor vote: Inst, Ballot, and the accepted
	// Value. Persisted (and synced) BEFORE the Accepted reply leaves.
	KindAccept Kind = 2
	// KindDecide is a learned decision: Inst and the decided Value. It is
	// appended before the decision's effects run but not synced — a lost
	// tail decision is group-durable and recoverable from live peers.
	KindDecide Kind = 3
	// KindTSProp is an A1 (TS, m) receipt: Aux carries the proposing
	// group, Inst the proposed timestamp, and Value the full descriptor
	// (so replay can re-admit a message introduced only by the proposal).
	KindTSProp Kind = 4
	// KindBundle is an A2 remote-bundle receipt: Inst is the round, Aux
	// the sender group, Value the []Record bundle.
	KindBundle Kind = 5
	// KindDeliver is a delivery adopted from a peer during post-restart
	// state transfer (A1): ID/Dest identify the message, Inst its final
	// timestamp, Payload its payload.
	KindDeliver Kind = 6
	// KindRound is a completed round adopted from a peer during
	// post-restart state transfer (A2): Inst is the round, Value the
	// delivered []Record union.
	KindRound Kind = 7
	// KindAdmit is an A1 reliable-multicast receipt — a message's FIRST
	// admission to PENDING: ID/Dest identify the message, Payload carries
	// its payload. Unlogged admissions would let WAL replay reconstruct a
	// smaller PENDING set than the pre-crash one, weakening the
	// ADeliveryTest barrier and over-delivering out of group order.
	// Appended unsynced: a lost tail admission is as if the rmcast never
	// arrived — the (TS, m) path or the restart state transfer re-supplies
	// the message.
	KindAdmit Kind = 8
)

// Record is one durable event. Field meaning is kind-specific; unused
// fields stay zero and cost one byte each on disk.
type Record struct {
	Kind    Kind
	Proto   string // owning protocol label, e.g. "a1", "a1.cons"
	Inst    uint64 // instance / round / timestamp
	Ballot  int64  // Paxos ballot (KindPromise, KindAccept)
	Aux     uint64 // auxiliary small field (sender group, ...)
	ID      types.MessageID
	Dest    types.GroupSet
	Payload []byte // a message's payload (KindAdmit, KindDeliver)
	Value   any    // wire-encodable protocol value; nil allowed
}

// AppendTo appends rec's body (without framing) to buf. It allocates
// nothing for records whose Value has a registered wire codec.
func (rec Record) AppendTo(buf []byte) []byte {
	buf = append(buf, byte(rec.Kind))
	buf = wire.AppendString(buf, rec.Proto)
	buf = wire.AppendUvarint(buf, rec.Inst)
	buf = wire.AppendVarint(buf, rec.Ballot)
	buf = wire.AppendUvarint(buf, rec.Aux)
	buf = rec.ID.AppendTo(buf)
	buf = rec.Dest.AppendTo(buf)
	buf = wire.AppendBytes(buf, rec.Payload)
	return wire.AppendValue(buf, rec.Value)
}

// DecodeRecord decodes one record body and returns the remainder. It never
// panics on malformed input.
func DecodeRecord(data []byte) (rec Record, rest []byte, err error) {
	if len(data) == 0 {
		return rec, nil, fmt.Errorf("%w: empty record", wire.ErrCorrupt)
	}
	rec.Kind, data = Kind(data[0]), data[1:]
	if rec.Kind == KindInvalid {
		return rec, nil, fmt.Errorf("%w: zero record kind", wire.ErrCorrupt)
	}
	d := wire.Decoder{Data: data}
	rec.Proto = wire.Intern(wire.Read(&d, wire.Bytes))
	rec.Inst, rec.Ballot, rec.Aux = wire.Read(&d, wire.Uvarint), wire.Read(&d, wire.Varint), wire.Read(&d, wire.Uvarint)
	rec.ID, rec.Dest = wire.Read(&d, types.DecodeMessageID), wire.Read(&d, types.DecodeGroupSet)
	if p := wire.Read(&d, wire.Bytes); len(p) > 0 {
		rec.Payload = bytes.Clone(p) // the replay buffer is a whole segment
	}
	rec.Value = wire.Read(&d, wire.DecodeValue)
	return rec, d.Data, d.Err
}
