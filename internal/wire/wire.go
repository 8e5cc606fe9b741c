// Package wire is the zero-allocation binary codec of the live TCP
// transport: a length-prefixed frame envelope plus a per-message-kind codec
// registry.
//
// Every protocol message of this repository encodes itself with an
// append-style AppendTo([]byte) []byte / DecodeFrom([]byte) pair (the
// GroupSet.MarshalBinary pattern from internal/types, generalised), and
// registers its codec here under a Kind byte from the catalog below.
// AppendValue dispatches on the dynamic type — registered types, the common
// scalars among them, through their codec, and everything else through a
// tagged encoding/gob blob (so arbitrary user payloads keep working,
// including the gob.Register requirement for non-basic types).
//
// An application payload is bytes inside the ordering core: the public edges
// (harness.System, the root package's Cluster and LiveCluster) encode a cast
// value once with AppendValue (EncodeValue), the core frames it with
// AppendBytes / Bytes and never parses it, and only a consumer that asks
// decodes it; gob lives at the edges only. The payload's owner validates it
// (the service layer applies no Command it cannot parse). The core parsing it
// would buy nothing: channels are reliable (§2.1), and a per-kind parse never
// caught a corruption that still parses. Per-frame integrity is item 5 of
// ROADMAP.md, out of scope here. A payload length that is truncated or runs
// past the input still fails the decode. A consensus value is bytes the same
// way (Tagged).
//
// Wire layout of one frame:
//
//	[4-byte big-endian length][from varint][proto string][ts varint][value]
//
// where a value is one Kind byte followed by the kind-specific body, and a
// string is a uvarint length followed by its bytes. Encoding appends into a
// caller-owned buffer and decoding reads out of a caller-owned buffer, so
// the steady-state hot path of the transport allocates nothing for the
// envelope. A value decoded through its type's decoder (DecoderOf) lands in
// a local of that type, unboxed: it costs only the bytes it keeps, which the
// decoders copy out of the input (strings, payloads; a batch's payloads into
// one allocation, Own), since the input buffer is reused. DecodeValue boxes
// what it decodes: the path of gob values and of callers without a type.
//
// The codec is explicitly not self-describing: both ends must run the same
// catalog. Unknown kinds and truncated or oversized frames decode to
// errors, never panics — the transport drops the connection and peers
// redial, the same channel-level contract the gob stream had.
package wire

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"maps"
	"math"
	"reflect"
	"sync"
	"sync/atomic"

	"wanamcast/internal/types"
)

// Kind identifies a registered wire encoding. The catalog is assigned here,
// centrally, so the kind space stays collision-free while each protocol
// package owns its own codec implementations.
type Kind byte

const (
	// KindInvalid is never written; a zero kind on the wire is corruption.
	KindInvalid Kind = 0

	// Scalar value kinds, registered in this package like any message.
	KindGob     Kind = 1 // uvarint length + encoding/gob blob of a wrapped any
	KindNil     Kind = 2 // empty body: the nil interface
	KindBool    Kind = 3 // one byte, 0 or 1
	KindInt     Kind = 4 // varint, decodes as int
	KindInt64   Kind = 5 // varint
	KindUint64  Kind = 6 // uvarint
	KindFloat64 Kind = 7 // 8-byte big-endian IEEE 754
	KindString  Kind = 8 // uvarint length + bytes
	KindBytes   Kind = 9 // uvarint length + bytes

	// Protocol message kinds. The codecs live next to the message types and
	// self-register in their package's init.
	KindConsensusForward  Kind = 16 // consensus.ForwardMsg
	KindConsensusPrepare  Kind = 17 // consensus.PrepareMsg
	KindConsensusPromise  Kind = 18 // consensus.PromiseMsg
	KindConsensusAccept   Kind = 19 // consensus.AcceptMsg
	KindConsensusAccepted Kind = 20 // consensus.AcceptedMsg
	KindConsensusDecide   Kind = 21 // consensus.DecideMsg
	KindConsensusLearn    Kind = 22 // consensus.LearnMsg (decision catch-up query)
	KindRMcastData        Kind = 24 // rmcast.DataMsg
	KindRMcastMessage     Kind = 25 // rmcast.Message (as a payload value)
	KindAMcastTS          Kind = 28 // amcast.TSMsg
	KindAMcastDescriptors Kind = 29 // []amcast.Descriptor (consensus value)
	KindAMcastPull        Kind = 30 // amcast.PullMsg
	KindABcastBundle      Kind = 32 // abcast.BundleMsg
	KindABcastRecords     Kind = 33 // []abcast.Record (consensus value)
	KindABcastPull        Kind = 34 // abcast.PullMsg
	KindSkeenData         Kind = 36 // baseline.SkeenData
	KindSkeenProp         Kind = 37 // baseline.SkeenProp
	KindHeartbeat         Kind = 40 // tcp heartbeatMsg (sender send-time beat)
	KindSvcRequest        Kind = 44 // svc.Request (client → server)
	KindSvcReply          Kind = 45 // svc.Reply (server → client)
	KindSvcRedirect       Kind = 46 // svc.Redirect (server → client)
	KindSvcCommand        Kind = 47 // svc.Command (the multicast payload)
	KindSyncReq           Kind = 50 // statesync.Req (restart state transfer, both algorithms)
	KindA1SyncResp        Kind = 51 // statesync.Resp[amcast.DeliverRec, amcast.SyncTail]
	KindA2SyncResp        Kind = 53 // statesync.Resp[abcast.RoundSet, abcast.SyncTail]
	KindLeaseGrant        Kind = 54 // tcp leaseGrantMsg (follower → leader lease vote)
	KindSvcReadReq        Kind = 55 // svc.ReadReq (client → server, read tier)
	KindSvcReadResp       Kind = 56 // svc.ReadResp (server → client)
	KindBatch             Kind = 60 // batch envelope: many frames, one header (batch.go); no value has it
)

// MaxFrame bounds one frame on the wire. A larger length prefix is treated
// as stream corruption: the reader drops the connection rather than
// allocating attacker-controlled amounts of memory.
const MaxFrame = 64 << 20

// ErrCorrupt reports a malformed buffer. All decode errors wrap it.
var ErrCorrupt = errors.New("wire: corrupt data")

func corrupt(what string) error { return fmt.Errorf("%w: %s", ErrCorrupt, what) }

type codec struct {
	kind     Kind
	append   func(buf []byte, v any) []byte
	decode   func(data []byte) (any, []byte, error)
	enc, dec any // the registered func(buf []byte, v T) []byte and func(data []byte) (T, []byte, error)
}

// registry is one immutable state of the codec tables. Every frame in and
// out looks a codec up, from every reader, writer and lane goroutine, so
// readers load a snapshot and take no lock (an RWMutex's two atomic adds per
// lookup bounced its cache line between the cores); Register, which runs from
// package inits, copies, adds and swaps under writeMu.
type registry struct {
	byType map[reflect.Type]*codec
	byKind [256]*codec
}

var (
	writeMu sync.Mutex // serialises Register and Intern's slow path
	reg     = snapshot(&registry{byType: map[reflect.Type]*codec{}})
)

// snapshot returns an atomic pointer that starts at v.
func snapshot[T any](v *T) *atomic.Pointer[T] {
	p := new(atomic.Pointer[T])
	p.Store(v)
	return p
}

// Register installs the codec for message type T under kind. It is meant to
// be called from package init functions; registering a kind or a type twice
// is a wiring bug and panics. enc appends T's body (without the kind byte);
// dec decodes it and returns the unconsumed remainder.
func Register[T any](kind Kind, enc func(buf []byte, v T) []byte, dec func(data []byte) (T, []byte, error)) {
	rt := reflect.TypeOf((*T)(nil)).Elem()
	c := &codec{
		kind:   kind,
		append: func(buf []byte, v any) []byte { return enc(buf, v.(T)) },
		decode: func(data []byte) (any, []byte, error) { return dec(data) },
		enc:    enc,
		dec:    dec,
	}
	writeMu.Lock()
	defer writeMu.Unlock()
	cur := reg.Load()
	if cur.byKind[kind] != nil {
		panic(fmt.Sprintf("wire: kind %d registered twice", kind))
	}
	if _, dup := cur.byType[rt]; dup {
		panic(fmt.Sprintf("wire: type %v registered twice", rt))
	}
	next := *cur
	next.byType = maps.Clone(cur.byType)
	next.byType[rt], next.byKind[kind] = c, c
	reg.Store(&next)
}

func lookupType(rt reflect.Type) *codec { return reg.Load().byType[rt] }

// DecoderOf returns T's kind and its registered decoder, which decodes a T
// unboxed — or a nil decoder when T has no codec (a T travels as gob).
func DecoderOf[T any]() (Kind, func(data []byte) (T, []byte, error)) {
	if c := lookupType(reflect.TypeFor[T]()); c != nil {
		return c.kind, c.dec.(func([]byte) (T, []byte, error))
	}
	return 0, nil
}

func lookupKind(k Kind) *codec { return reg.Load().byKind[k] }

// --- primitives -----------------------------------------------------------

// AppendUvarint appends x in unsigned varint encoding.
func AppendUvarint(buf []byte, x uint64) []byte { return binary.AppendUvarint(buf, x) }

// AppendVarint appends x in zig-zag varint encoding.
func AppendVarint(buf []byte, x int64) []byte { return binary.AppendVarint(buf, x) }

// AppendString appends a uvarint length followed by the string bytes.
func AppendString(buf []byte, s string) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(s)))
	return append(buf, s...)
}

// AppendBytes appends a uvarint length followed by b.
func AppendBytes(buf []byte, b []byte) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(b)))
	return append(buf, b...)
}

// AppendBool appends b as one byte, 1 for true.
func AppendBool(buf []byte, b bool) []byte {
	if b {
		return append(buf, 1)
	}
	return append(buf, 0)
}

// Bool consumes one byte, true unless it is 0.
func Bool(data []byte) (bool, []byte, error) {
	if len(data) == 0 {
		return false, nil, corrupt("bool")
	}
	return data[0] != 0, data[1:], nil
}

// Uvarint consumes an unsigned varint and returns the remainder.
func Uvarint(data []byte) (uint64, []byte, error) {
	x, n := binary.Uvarint(data)
	if n <= 0 {
		return 0, nil, corrupt("uvarint")
	}
	return x, data[n:], nil
}

// Varint consumes a zig-zag varint and returns the remainder.
func Varint(data []byte) (int64, []byte, error) {
	x, n := binary.Varint(data)
	if n <= 0 {
		return 0, nil, corrupt("varint")
	}
	return x, data[n:], nil
}

// Byte consumes one byte.
func Byte(data []byte) (byte, []byte, error) {
	if len(data) == 0 {
		return 0, nil, corrupt("byte")
	}
	return data[0], data[1:], nil
}

// Bytes consumes a length-prefixed byte slice. The returned slice ALIASES
// data; callers that retain it must copy.
func Bytes(data []byte) ([]byte, []byte, error) {
	n, data, err := Uvarint(data)
	if err != nil {
		return nil, nil, err
	}
	if n > uint64(len(data)) {
		return nil, nil, corrupt("byte-slice length exceeds input")
	}
	return data[:n], data[n:], nil
}

// Own copies the byte slices field picks out of xs — aliases of a receive
// buffer, as Bytes returns them — into one allocation and points them there,
// so that a decoded batch owns its payloads at the cost of one copy. An empty
// slice becomes nil.
func Own[T any](xs []T, field func(*T) *[]byte) {
	n := 0
	for i := range xs {
		n += len(*field(&xs[i]))
	}
	own := make([]byte, 0, n)
	for i := range xs {
		b := field(&xs[i])
		if len(*b) == 0 {
			*b = nil
			continue
		}
		at := len(own)
		own = append(own, *b...)
		*b = own[at:len(own):len(own)]
	}
}

// String consumes a length-prefixed string (copying out of data).
func String(data []byte) (string, []byte, error) {
	b, rest, err := Bytes(data)
	if err != nil {
		return "", nil, err
	}
	return string(b), rest, nil
}

// SliceLen consumes a uvarint element count and validates it against the
// remaining input: each element needs at least one byte, so a count beyond
// len(rest) is corruption. Use it before make()ing a decoded slice so a
// crafted length prefix cannot force a huge allocation.
func SliceLen(data []byte) (int, []byte, error) {
	n, rest, err := Uvarint(data)
	if err != nil {
		return 0, nil, err
	}
	if n > uint64(len(rest)) {
		return 0, nil, corrupt("slice length exceeds input")
	}
	return int(n), rest, nil
}

// Decoder steps through the fields of one encoding and keeps the first error,
// so that a decoder reads field after field and checks Err once.
type Decoder struct {
	Data []byte
	Err  error
}

// Read decodes the next field with dec, unless a field before it failed (it
// returns the zero value then).
func Read[T any](d *Decoder, dec func([]byte) (T, []byte, error)) (v T) {
	if d.Err == nil {
		v, d.Data, d.Err = dec(d.Data)
	}
	return v
}

// Step hands the rest of the data to fn, which decodes into a target of its
// own, unless a field before it failed.
func (d *Decoder) Step(fn func([]byte) ([]byte, error)) {
	if d.Err == nil {
		d.Data, d.Err = fn(d.Data)
	}
}

// --- proto-label interning ------------------------------------------------

// interned is the immutable label table readers load; a new label copies it.
var interned = snapshot(&map[string]string{})

// internBounds cap the process-global intern cache: protocol labels are a
// small static set of short strings per deployment, so anything past these
// bounds is garbage from a misbehaving peer — it still decodes (as an
// uncached copy) but must not grow memory forever.
const (
	maxInternLen     = 128
	maxInternEntries = 4096
)

// Intern returns the canonical string for b, allocating only the first time
// a label is seen. Protocol labels are a small static set per run, so the
// read path is a pointer load + map hit with no lock and no conversion
// allocation.
func Intern(b []byte) string {
	if s, ok := (*interned.Load())[string(b)]; ok {
		return s
	}
	if len(b) > maxInternLen {
		return string(b)
	}
	writeMu.Lock()
	defer writeMu.Unlock()
	cur := *interned.Load()
	if s, ok := cur[string(b)]; ok {
		return s
	}
	s := string(b)
	if len(cur) < maxInternEntries {
		next := maps.Clone(cur)
		next[s] = s
		interned.Store(&next)
	}
	return s
}

// --- values ---------------------------------------------------------------

// gobValue wraps a payload for the gob fallback: gob round-trips interface
// values only through a concrete wrapper, and the concrete payload type must
// be gob.Register'ed by the caller (the same contract the all-gob transport
// had).
type gobValue struct{ V any }

type encodeError struct{ err error }

// The scalar kinds are rows of the codec table like any message.
func init() {
	Register(KindBool, AppendBool, Bool)
	Register(KindInt, func(buf []byte, x int) []byte { return AppendVarint(buf, int64(x)) },
		func(data []byte) (int, []byte, error) { x, rest, err := Varint(data); return int(x), rest, err })
	Register(KindInt64, AppendVarint, Varint)
	Register(KindUint64, AppendUvarint, Uvarint)
	Register(KindFloat64, func(buf []byte, x float64) []byte { return binary.BigEndian.AppendUint64(buf, math.Float64bits(x)) },
		func(data []byte) (float64, []byte, error) {
			if len(data) < 8 {
				return 0, nil, corrupt("float64")
			}
			return math.Float64frombits(binary.BigEndian.Uint64(data)), data[8:], nil
		})
	Register(KindString, AppendString, String)
	Register(KindBytes, AppendBytes, func(data []byte) ([]byte, []byte, error) {
		b, rest, err := Bytes(data)
		return append([]byte(nil), b...), rest, err
	})
}

// AppendValue appends one tagged value: a Kind byte plus the kind-specific
// body. Unregistered types fall back to a gob blob; a payload even gob
// cannot encode (unregistered concrete type, channels, funcs) panics with
// an error AppendFrame translates back into an error return.
func AppendValue(buf []byte, v any) []byte {
	if v == nil {
		return append(buf, byte(KindNil))
	}
	if c := lookupType(reflect.TypeOf(v)); c != nil {
		buf = append(buf, byte(c.kind))
		return c.append(buf, v)
	}
	var bb bytes.Buffer
	if err := gob.NewEncoder(&bb).Encode(&gobValue{V: v}); err != nil {
		panic(encodeError{fmt.Errorf("wire: gob fallback for %T: %w", v, err)})
	}
	buf = append(buf, byte(KindGob))
	return AppendBytes(buf, bb.Bytes())
}

// EncodeValue returns v's AppendValue encoding in a buffer of its own, or the
// error of a value even gob cannot encode: how an edge encodes a payload.
func EncodeValue(v any) (b []byte, err error) {
	defer func() { caught(recover(), &err) }()
	return AppendValue(make([]byte, 0, 64), v), nil // one allocation up to 64 bytes
}

// caught stores in *err the gob failure AppendValue panicked with, if r is
// one, and reports whether it was; any other panic goes on.
func caught(r any, err *error) bool {
	if r == nil {
		return false
	}
	ee, ok := r.(encodeError)
	if !ok {
		panic(r)
	}
	*err = ee.err
	return true
}

// AppendTagged appends v as AppendValue does — its kind, then its body —
// through T's codec, without boxing v; a T without one goes through
// AppendValue.
func AppendTagged[T any](buf []byte, v T) []byte {
	if c := lookupType(reflect.TypeFor[T]()); c != nil {
		return c.enc.(func([]byte, T) []byte)(append(buf, byte(c.kind)), v)
	}
	return AppendValue(buf, v)
}

// DecodeTagged decodes data, one tagged value of T's kind and nothing after
// it, through T's codec.
func DecodeTagged[T any](data []byte) (v T, err error) {
	kind, dec := DecoderOf[T]()
	if dec == nil || len(data) == 0 || Kind(data[0]) != kind {
		return v, corrupt(fmt.Sprintf("not a tagged %v", reflect.TypeFor[T]()))
	}
	if v, data, err = dec(data[1:]); err == nil && len(data) > 0 {
		err = corrupt("bytes after a tagged value")
	}
	return v, err
}

// Tagged is one value's tagged encoding, carried unparsed: a consensus value
// is its batch's. It prints as the value it encodes, decoded for that alone,
// so a trace line reads as it did when values travelled decoded (bytes that
// do not decode print as nil).
type Tagged []byte

// Format implements fmt.Formatter.
func (t Tagged) Format(f fmt.State, verb rune) {
	v, _, _ := DecodeValue(t)
	fmt.Fprintf(f, fmt.FormatString(f, verb), v)
}

// DecodeValue consumes one tagged value and returns the remainder.
func DecodeValue(data []byte) (any, []byte, error) {
	if len(data) == 0 {
		return nil, nil, corrupt("missing value kind")
	}
	kind, data := Kind(data[0]), data[1:]
	switch kind {
	case KindNil:
		return nil, data, nil
	case KindGob:
		blob, rest, err := Bytes(data)
		if err != nil {
			return nil, nil, err
		}
		var gv gobValue
		if err := gob.NewDecoder(bytes.NewReader(blob)).Decode(&gv); err != nil {
			return nil, nil, fmt.Errorf("%w: gob blob: %v", ErrCorrupt, err)
		}
		return gv.V, rest, nil
	}
	if c := lookupKind(kind); c != nil {
		return c.decode(data)
	}
	return nil, nil, corrupt(fmt.Sprintf("unknown kind %d", kind))
}

// --- frames ---------------------------------------------------------------

// Frame is the decoded transport envelope.
type Frame struct {
	From  types.ProcessID
	Proto string
	TS    int64
	Body  any
}

// AppendFrame appends one length-prefixed frame to buf. A body of a
// registered static type T is encoded by its codec without being boxed into
// an interface. The returned error is non-nil only when the body cannot be
// encoded at all (gob fallback failure); the buffer is unchanged in that case.
func AppendFrame[T any](buf []byte, from types.ProcessID, proto string, ts int64, body T) (out []byte, err error) {
	start := len(buf)
	defer func() {
		if caught(recover(), &err) {
			out = buf[:start]
		}
	}()
	buf = appendSub(binary.AppendVarint(append(buf, 0, 0, 0, 0), int64(from)), proto, ts, body)
	n := len(buf) - start - 4
	if n > MaxFrame {
		// A frame no reader would accept (and, past 4 GiB, one whose
		// length prefix would wrap and desynchronise the stream) must be
		// rejected at the sender.
		return buf[:start], fmt.Errorf("wire: frame body of %d bytes exceeds MaxFrame (%d)", n, MaxFrame)
	}
	binary.BigEndian.PutUint32(buf[start:], uint32(n))
	return buf, nil
}

// AppendSub appends one message as an envelope carries it: its proto label,
// timestamp and tagged value, the sender left to the envelope (AppendPlain,
// or a batch's preamble). A body of a registered static type T is encoded by
// its codec without being boxed. On error, a body even gob cannot encode, buf
// is unchanged.
func AppendSub[T any](buf []byte, proto string, ts int64, body T) (out []byte, err error) {
	start := len(buf)
	defer func() {
		if caught(recover(), &err) {
			out = buf[:start]
		}
	}()
	return appendSub(buf, proto, ts, body), nil
}

func appendSub[T any](buf []byte, proto string, ts int64, body T) []byte {
	return AppendTagged(binary.AppendVarint(AppendString(buf, proto), ts), body)
}

// SubKind reports the kind of the value in sub, a message AppendSub encoded.
func SubKind(sub []byte) Kind {
	d := Decoder{Data: sub}
	Read(&d, Bytes)
	if Read(&d, Varint); d.Err != nil || len(d.Data) == 0 {
		return KindInvalid
	}
	return Kind(d.Data[0])
}

// AppendPlain appends sub, a message of from as AppendSub encoded it, as one
// plain frame: the bytes AppendFrame writes for the same message.
func AppendPlain(buf []byte, from types.ProcessID, sub []byte) []byte {
	start := len(buf)
	buf = append(binary.AppendVarint(append(buf, 0, 0, 0, 0), int64(from)), sub...)
	binary.BigEndian.PutUint32(buf[start:], uint32(len(buf)-start-4))
	return buf
}

// FrameValue splits one frame payload (the bytes after the length prefix)
// into its envelope, with no Body, and its value undecoded: a view of data
// that starts with the value's kind.
func FrameValue(data []byte) (Frame, []byte, error) {
	d := Decoder{Data: data}
	from, proto, ts := Read(&d, Varint), Read(&d, Bytes), Read(&d, Varint)
	if d.Err == nil && len(d.Data) == 0 {
		d.Err = corrupt("missing value kind")
	}
	if d.Err != nil {
		return Frame{}, nil, d.Err
	}
	return Frame{From: types.ProcessID(from), Proto: Intern(proto), TS: ts}, d.Data, nil
}
