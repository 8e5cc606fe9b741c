// Wire codecs for the reliable-multicast messages (see internal/wire).
package rmcast

import (
	"bytes"

	"wanamcast/internal/types"
	"wanamcast/internal/wire"
)

func init() {
	wire.Register(wire.KindRMcastData,
		func(buf []byte, m DataMsg) []byte { return m.M.AppendTo(buf) },
		func(data []byte) (m DataMsg, rest []byte, err error) { rest, err = m.M.DecodeFrom(data); return })
	// Message is also registered as a value codec: baselines carry whole
	// rmcast.Messages inside their own envelopes and consensus values.
	wire.Register(wire.KindRMcastMessage,
		func(buf []byte, m Message) []byte { return m.AppendTo(buf) },
		func(data []byte) (m Message, rest []byte, err error) { rest, err = m.DecodeFrom(data); return })
}

// AppendTo appends m's wire encoding.
func (m Message) AppendTo(buf []byte) []byte {
	buf = m.ID.AppendTo(buf)
	buf = m.Dest.AppendTo(buf)
	return wire.AppendBytes(buf, m.Payload)
}

// DecodeFrom decodes m from data and returns the remainder; the payload is
// copied out of data.
func (m *Message) DecodeFrom(data []byte) (rest []byte, err error) {
	if m.ID, data, err = types.DecodeMessageID(data); err != nil {
		return nil, err
	}
	if m.Dest, data, err = types.DecodeGroupSet(data); err != nil {
		return nil, err
	}
	m.Payload, data, err = wire.Bytes(data)
	m.Payload = bytes.Clone(m.Payload)
	return data, err
}
