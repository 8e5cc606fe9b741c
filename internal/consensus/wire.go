// Wire codecs for the consensus messages, registered with the internal/wire
// catalog. A consensus value is bytes the engine never parses: a message
// carries it length-prefixed (a frame in an envelope has no length of its
// own), and a decoder copies it out of the receive buffer in one allocation.
package consensus

import "wanamcast/internal/wire"

func init() {
	wire.Register(wire.KindConsensusForward,
		func(buf []byte, m ForwardMsg) []byte {
			return wire.AppendBytes(wire.AppendUvarint(buf, m.Instance), m.Value)
		},
		func(data []byte) (ForwardMsg, []byte, error) {
			d := wire.Decoder{Data: data}
			m := ForwardMsg{Instance: wire.Read(&d, wire.Uvarint), Value: wire.Read(&d, value)}
			return m, d.Data, d.Err
		})
	wire.Register(wire.KindConsensusPrepare,
		func(buf []byte, m PrepareMsg) []byte { return head(buf, m.Instance, m.Ballot) },
		func(data []byte) (PrepareMsg, []byte, error) {
			d := wire.Decoder{Data: data}
			m := PrepareMsg{Instance: wire.Read(&d, wire.Uvarint), Ballot: wire.Read(&d, wire.Varint)}
			return m, d.Data, d.Err
		})
	wire.Register(wire.KindConsensusPromise,
		func(buf []byte, m PromiseMsg) []byte {
			return wire.AppendBytes(wire.AppendVarint(head(buf, m.Instance, m.Ballot), m.VBallot), m.VValue)
		},
		func(data []byte) (PromiseMsg, []byte, error) {
			d := wire.Decoder{Data: data}
			m := PromiseMsg{Instance: wire.Read(&d, wire.Uvarint), Ballot: wire.Read(&d, wire.Varint),
				VBallot: wire.Read(&d, wire.Varint), VValue: wire.Read(&d, value)}
			return m, d.Data, d.Err
		})
	wire.Register(wire.KindConsensusAccept,
		func(buf []byte, m AcceptMsg) []byte {
			return wire.AppendBytes(head(buf, m.Instance, m.Ballot), m.Value)
		},
		func(data []byte) (AcceptMsg, []byte, error) {
			d := wire.Decoder{Data: data}
			m := AcceptMsg{Instance: wire.Read(&d, wire.Uvarint), Ballot: wire.Read(&d, wire.Varint), Value: wire.Read(&d, value)}
			return m, d.Data, d.Err
		})
	wire.Register(wire.KindConsensusAccepted,
		func(buf []byte, m AcceptedMsg) []byte { return head(buf, m.Instance, m.Ballot) },
		func(data []byte) (AcceptedMsg, []byte, error) {
			d := wire.Decoder{Data: data}
			m := AcceptedMsg{Instance: wire.Read(&d, wire.Uvarint), Ballot: wire.Read(&d, wire.Varint)}
			return m, d.Data, d.Err
		})
	wire.Register(wire.KindConsensusDecide,
		func(buf []byte, m DecideMsg) []byte {
			if buf = head(buf, m.Instance, m.Ballot); m.Ballot >= 0 {
				return buf // by reference: the receiver holds the value
			}
			return wire.AppendBytes(buf, m.Value)
		},
		func(data []byte) (DecideMsg, []byte, error) {
			d := wire.Decoder{Data: data}
			m := DecideMsg{Instance: wire.Read(&d, wire.Uvarint), Ballot: wire.Read(&d, wire.Varint)}
			if m.Ballot < 0 {
				m.Value = wire.Read(&d, value)
			}
			return m, d.Data, d.Err
		})
	wire.Register(wire.KindConsensusLearn,
		func(buf []byte, m LearnMsg) []byte { return wire.AppendUvarint(buf, m.Instance) },
		func(data []byte) (m LearnMsg, rest []byte, err error) {
			m.Instance, rest, err = wire.Uvarint(data)
			return
		})
}

// head appends the instance and ballot most messages lead with.
func head(buf []byte, k uint64, ballot int64) []byte {
	return wire.AppendVarint(wire.AppendUvarint(buf, k), ballot)
}

// value consumes a length-prefixed value, copied out of data (an empty one
// is nil).
func value(data []byte) (Value, []byte, error) {
	v, rest, err := wire.Bytes(data)
	return append(Value(nil), v...), rest, err
}
