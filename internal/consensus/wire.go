// Wire codecs for the consensus messages. Each message implements the
// append-style AppendTo/DecodeFrom pair and registers itself with the
// internal/wire catalog; consensus values stay opaque `any` and round-trip
// through wire.AppendValue/DecodeValue (registered batch types inline,
// everything else via the gob fallback).
package consensus

import (
	"wanamcast/internal/wire"
)

func init() {
	wire.Register(wire.KindConsensusForward,
		func(buf []byte, m ForwardMsg) []byte { return m.AppendTo(buf) },
		func(data []byte) (m ForwardMsg, rest []byte, err error) { rest, err = m.DecodeFrom(data); return })
	wire.Register(wire.KindConsensusPrepare,
		func(buf []byte, m PrepareMsg) []byte { return m.AppendTo(buf) },
		func(data []byte) (m PrepareMsg, rest []byte, err error) { rest, err = m.DecodeFrom(data); return })
	wire.Register(wire.KindConsensusPromise,
		func(buf []byte, m PromiseMsg) []byte { return m.AppendTo(buf) },
		func(data []byte) (m PromiseMsg, rest []byte, err error) { rest, err = m.DecodeFrom(data); return })
	wire.Register(wire.KindConsensusAccept,
		func(buf []byte, m AcceptMsg) []byte { return m.AppendTo(buf) },
		func(data []byte) (m AcceptMsg, rest []byte, err error) { rest, err = m.DecodeFrom(data); return })
	wire.Register(wire.KindConsensusAccepted,
		func(buf []byte, m AcceptedMsg) []byte { return m.AppendTo(buf) },
		func(data []byte) (m AcceptedMsg, rest []byte, err error) { rest, err = m.DecodeFrom(data); return })
	wire.Register(wire.KindConsensusDecide,
		func(buf []byte, m DecideMsg) []byte { return m.AppendTo(buf) },
		func(data []byte) (m DecideMsg, rest []byte, err error) { rest, err = m.DecodeFrom(data); return })
	wire.Register(wire.KindConsensusLearn,
		func(buf []byte, m LearnMsg) []byte { return m.AppendTo(buf) },
		func(data []byte) (m LearnMsg, rest []byte, err error) { rest, err = m.DecodeFrom(data); return })
}

// AppendTo appends m's wire encoding.
func (m ForwardMsg) AppendTo(buf []byte) []byte {
	buf = wire.AppendUvarint(buf, m.Instance)
	return wire.AppendValue(buf, m.Value)
}

// DecodeFrom decodes m from data and returns the remainder.
func (m *ForwardMsg) DecodeFrom(data []byte) (rest []byte, err error) {
	if m.Instance, data, err = wire.Uvarint(data); err != nil {
		return nil, err
	}
	m.Value, data, err = wire.DecodeValue(data)
	return data, err
}

// AppendTo appends m's wire encoding.
func (m PrepareMsg) AppendTo(buf []byte) []byte {
	buf = wire.AppendUvarint(buf, m.Instance)
	return wire.AppendVarint(buf, m.Ballot)
}

// DecodeFrom decodes m from data and returns the remainder.
func (m *PrepareMsg) DecodeFrom(data []byte) (rest []byte, err error) {
	if m.Instance, data, err = wire.Uvarint(data); err != nil {
		return nil, err
	}
	m.Ballot, data, err = wire.Varint(data)
	return data, err
}

// AppendTo appends m's wire encoding.
func (m PromiseMsg) AppendTo(buf []byte) []byte {
	buf = wire.AppendUvarint(buf, m.Instance)
	buf = wire.AppendVarint(buf, m.Ballot)
	buf = wire.AppendVarint(buf, m.VBallot)
	return wire.AppendValue(buf, m.VValue)
}

// DecodeFrom decodes m from data and returns the remainder.
func (m *PromiseMsg) DecodeFrom(data []byte) (rest []byte, err error) {
	if m.Instance, data, err = wire.Uvarint(data); err != nil {
		return nil, err
	}
	if m.Ballot, data, err = wire.Varint(data); err != nil {
		return nil, err
	}
	if m.VBallot, data, err = wire.Varint(data); err != nil {
		return nil, err
	}
	m.VValue, data, err = wire.DecodeValue(data)
	return data, err
}

// AppendTo appends m's wire encoding.
func (m AcceptMsg) AppendTo(buf []byte) []byte {
	buf = wire.AppendUvarint(buf, m.Instance)
	buf = wire.AppendVarint(buf, m.Ballot)
	return wire.AppendValue(buf, m.Value)
}

// DecodeFrom decodes m from data and returns the remainder.
func (m *AcceptMsg) DecodeFrom(data []byte) (rest []byte, err error) {
	if m.Instance, data, err = wire.Uvarint(data); err != nil {
		return nil, err
	}
	if m.Ballot, data, err = wire.Varint(data); err != nil {
		return nil, err
	}
	m.Value, data, err = wire.DecodeValue(data)
	return data, err
}

// AppendTo appends m's wire encoding.
func (m AcceptedMsg) AppendTo(buf []byte) []byte {
	buf = wire.AppendUvarint(buf, m.Instance)
	return wire.AppendVarint(buf, m.Ballot)
}

// DecodeFrom decodes m from data and returns the remainder.
func (m *AcceptedMsg) DecodeFrom(data []byte) (rest []byte, err error) {
	if m.Instance, data, err = wire.Uvarint(data); err != nil {
		return nil, err
	}
	m.Ballot, data, err = wire.Varint(data)
	return data, err
}

// AppendTo appends m's wire encoding.
func (m LearnMsg) AppendTo(buf []byte) []byte {
	return wire.AppendUvarint(buf, m.Instance)
}

// DecodeFrom decodes m from data and returns the remainder.
func (m *LearnMsg) DecodeFrom(data []byte) (rest []byte, err error) {
	m.Instance, data, err = wire.Uvarint(data)
	return data, err
}

// AppendTo appends m's wire encoding.
func (m DecideMsg) AppendTo(buf []byte) []byte {
	buf = wire.AppendUvarint(buf, m.Instance)
	buf = wire.AppendVarint(buf, m.Ballot)
	if m.Ballot >= 0 {
		return buf // by reference: the receiver holds the value
	}
	return wire.AppendValue(buf, m.Value)
}

// DecodeFrom decodes m from data and returns the remainder.
func (m *DecideMsg) DecodeFrom(data []byte) (rest []byte, err error) {
	if m.Instance, data, err = wire.Uvarint(data); err != nil {
		return nil, err
	}
	if m.Ballot, data, err = wire.Varint(data); err != nil || m.Ballot >= 0 {
		return data, err
	}
	m.Value, data, err = wire.DecodeValue(data)
	return data, err
}
