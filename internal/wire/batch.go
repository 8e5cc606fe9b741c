// Batch envelopes: the WAN byte- and syscall-efficiency layer of the wire
// codec.
//
// A batch envelope packs the frames a transport writer takes in one cycle
// into a single outer frame: one 4-byte length header and one (from, proto,
// ts) preamble on the wire instead of one per message. Inside the envelope
// each sub-message carries only its own proto label, timestamp and tagged
// value (AppendSub) — the shared `from` is hoisted into the preamble. Above a
// size threshold the sub-message payload is deflated (compress/flate,
// BestSpeed) behind a strict decoded-size bound: the uncompressed length is
// declared up front, capped at MaxFrame, and the inflater reads exactly that
// many bytes or rejects the envelope, so a crafted frame can never expand
// past the bound (no decompression bombs).
//
// The envelope rides the existing stream framing: on the wire it is a
// regular frame whose proto is the reserved BatchProto label and whose value
// kind is KindBatch, so a reader that understands frames understands
// batches, and corrupt envelopes fail decode exactly like corrupt frames
// (drop the connection, peers redial). Batches never nest: a KindBatch value
// inside an envelope is corruption by definition.
//
// A sender encodes each message once, as a sub-message (AppendSub), and the
// transport's writers copy those bytes into envelopes (BatchWriter.Add): no
// link encodes. The transport opens an envelope (OpenEnvelope) and walks its
// frames (NextFrame) without decoding a value: the receiving process decodes
// each straight into its handler's type. The registry codec (*Batch) and
// DecodeFrameOrBatch decode every sub-message into an interface, for
// AppendValue/DecodeValue round trips and the fuzz oracle.
package wire

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"sync"

	"wanamcast/internal/types"
)

// BatchProto is the reserved proto label of batch envelope frames. Protocol
// layers must never register a handler under it; the transport consumes
// envelopes before protocol dispatch.
const BatchProto = "!b"

// MinCompress is the smallest sane compression threshold: one Ethernet MTU.
// Compressing payloads that already fit one packet burns CPU for no
// syscall or packet win, so configuration rejects thresholds below it.
const MinCompress = 1500

const batchFlagFlate = 0x01

// BatchMsg is one decoded sub-message of a batch envelope.
type BatchMsg struct {
	Proto string
	TS    int64
	Body  any
}

// Batch is a decoded batch envelope. Msgs storage is reused across decodes
// when the caller reuses the Batch.
type Batch struct {
	From  types.ProcessID
	Flate bool
	Msgs  []BatchMsg
}

func init() {
	Register[*Batch](KindBatch, appendBatchBody, decodeBatchBody)
}

// --- pooled helpers -------------------------------------------------------

// sliceWriter is an append-only io.Writer so the pooled flate.Writer can
// deflate into a reusable byte slice instead of a bytes.Buffer.
type sliceWriter struct{ b []byte }

func (w *sliceWriter) Write(p []byte) (int, error) {
	w.b = append(w.b, p...)
	return len(p), nil
}

var (
	swPool     = sync.Pool{New: func() any { return &sliceWriter{b: make([]byte, 0, 4096)} }}
	flateWPool = sync.Pool{New: func() any {
		w, err := flate.NewWriter(io.Discard, flate.BestSpeed)
		if err != nil {
			panic(err) // BestSpeed is a valid level; unreachable
		}
		return w
	}}
	flateRPool = sync.Pool{New: func() any { return flate.NewReader(bytes.NewReader(nil)) }}
	bytesRPool = sync.Pool{New: func() any { return bytes.NewReader(nil) }}
)

// deflateInto compresses src (as the concatenation of the given chunks) and
// appends the result to dst, reusing pooled flate state.
func deflateInto(dst []byte, chunks ...[]byte) ([]byte, error) {
	sw := swPool.Get().(*sliceWriter)
	sw.b = sw.b[:0]
	fw := flateWPool.Get().(*flate.Writer)
	fw.Reset(sw)
	var werr error
	for _, c := range chunks {
		if _, err := fw.Write(c); err != nil {
			werr = err
			break
		}
	}
	if err := fw.Close(); werr == nil {
		werr = err
	}
	flateWPool.Put(fw)
	if werr != nil {
		swPool.Put(sw)
		return dst, fmt.Errorf("wire: deflate: %w", werr)
	}
	dst = append(dst, sw.b...)
	swPool.Put(sw)
	return dst, nil
}

// inflateInto decompresses comp into (*scratch)[:rawLen], enforcing that the
// stream decodes to exactly rawLen bytes. rawLen has already been validated
// against MaxFrame, so scratch growth is bounded.
func inflateInto(comp []byte, rawLen int, scratch *[]byte) ([]byte, error) {
	if cap(*scratch) < rawLen {
		*scratch = make([]byte, rawLen)
	}
	buf := (*scratch)[:rawLen]
	br := bytesRPool.Get().(*bytes.Reader)
	br.Reset(comp)
	fr := flateRPool.Get().(io.ReadCloser)
	if err := fr.(flate.Resetter).Reset(br, nil); err != nil {
		flateRPool.Put(fr)
		bytesRPool.Put(br)
		return nil, corrupt("flate reset")
	}
	_, err := io.ReadFull(fr, buf)
	if err == nil {
		// The declared size must be exact: a stream holding more than
		// rawLen bytes is an attempt to smuggle data past the bound.
		var one [1]byte
		if n, rerr := fr.Read(one[:]); n != 0 || (rerr != nil && rerr != io.EOF) {
			err = errors.New("long stream")
		}
	}
	flateRPool.Put(fr)
	bytesRPool.Put(br)
	if err != nil {
		return nil, corrupt("flate payload does not match declared size")
	}
	return buf, nil
}

// --- registry codec (alloc path) ------------------------------------------

// appendBatchBody re-encodes a decoded Batch. Production senders use
// BatchWriter; this codec keeps *Batch a first-class value so generic round
// trips (fuzzing, tests) work. The body is deflated exactly when b.Flate is
// set, whatever the size, so that a decoded batch re-encodes as it came.
func appendBatchBody(buf []byte, b *Batch) []byte {
	var w BatchWriter
	for i := range b.Msgs {
		sub, err := AppendSub(w.sub, b.Msgs[i].Proto, b.Msgs[i].TS, b.Msgs[i].Body)
		if err != nil {
			panic(encodeError{err})
		}
		w.sub = sub
		w.count++
	}
	if !b.Flate {
		return w.appendRaw(buf)
	}
	buf, _, err := w.appendFlate(buf)
	if err != nil {
		panic(encodeError{err})
	}
	return buf
}

func decodeBatchBody(data []byte) (*Batch, []byte, error) {
	b := &Batch{}
	var scratch []byte
	rest, err := decodeBatchInto(b, data, &scratch)
	if err != nil {
		return nil, nil, err
	}
	return b, rest, nil
}

// batchFrames opens a batch value body (after the KindBatch tag): its frames,
// inflated into *inflate if compressed, and their count. rest follows a
// compressed body; an uncompressed one's end shows once its frames are walked.
func batchFrames(data []byte, inflate *[]byte) (flated bool, frames []byte, n int, rest []byte, err error) {
	if len(data) == 0 {
		return false, nil, 0, nil, corrupt("batch flags")
	}
	if data[0]&^byte(batchFlagFlate) != 0 {
		return false, nil, 0, nil, corrupt("unknown batch flags")
	}
	flated, frames = data[0]&batchFlagFlate != 0, data[1:]
	if flated {
		d := Decoder{Data: frames}
		if rawLen := Read(&d, Uvarint); d.Err == nil && rawLen > MaxFrame {
			d.Err = corrupt("batch decoded size exceeds MaxFrame")
		} else if comp := Read(&d, Bytes); d.Err == nil {
			frames, d.Err = inflateInto(comp, int(rawLen), inflate)
		}
		if d.Err != nil {
			return false, nil, 0, nil, d.Err
		}
		rest = d.Data
	}
	n, frames, err = SliceLen(frames)
	return flated, frames, n, rest, err
}

// NextFrame splits the next frame off an envelope's frames (OpenEnvelope):
// its proto label, timestamp, and a view of frames from its value on. A value
// has no length: only its decoder knows where the next frame begins.
func NextFrame(frames []byte) (proto string, ts int64, value []byte, err error) {
	d := Decoder{Data: frames}
	p, ts := Read(&d, Bytes), Read(&d, Varint)
	switch {
	case d.Err != nil:
		return "", 0, nil, d.Err
	case len(d.Data) == 0:
		return "", 0, nil, corrupt("batch sub-message value")
	case Kind(d.Data[0]) == KindBatch:
		return "", 0, nil, corrupt("nested batch envelope")
	}
	return Intern(p), ts, d.Data, nil
}

// decodeBatchInto fills b from a batch value body (the bytes after the
// KindBatch tag), reusing b.Msgs and *inflate. It returns the unconsumed
// remainder.
func decodeBatchInto(b *Batch, data []byte, inflate *[]byte) ([]byte, error) {
	var count int
	var raw, rest []byte
	var err error
	if b.Flate, raw, count, rest, err = batchFrames(data, inflate); err != nil {
		return nil, err
	}
	if cap(b.Msgs) < count {
		b.Msgs = make([]BatchMsg, count)
	} else {
		b.Msgs = b.Msgs[:count]
	}
	for i := range b.Msgs {
		proto, ts, value, err := NextFrame(raw)
		if err != nil {
			return nil, err
		}
		body, d, err := DecodeValue(value)
		if err != nil {
			return nil, err
		}
		b.Msgs[i] = BatchMsg{Proto: proto, TS: ts, Body: body}
		raw = d
	}
	if !b.Flate {
		return raw, nil
	}
	if len(raw) != 0 {
		return nil, corrupt("trailing bytes in compressed batch")
	}
	return rest, nil
}

// --- transport surfaces ---------------------------------------------------

// ReadFrameBytes reads one length-prefixed frame payload from r into
// *scratch (growing it as needed) and returns the payload bytes, which alias
// *scratch and are valid until the next call.
func ReadFrameBytes(r io.Reader, scratch *[]byte) ([]byte, error) {
	// The header is read through *scratch, not a local array: a local would
	// escape through the io.Reader interface and cost one heap allocation
	// per frame, which the zero-alloc receive pin forbids.
	if cap(*scratch) < 4 {
		*scratch = make([]byte, 4, 4096)
	}
	hdr := (*scratch)[:4]
	if _, err := io.ReadFull(r, hdr); err != nil {
		return nil, err
	}
	n := binary.BigEndian.Uint32(hdr)
	if n > MaxFrame {
		return nil, corrupt(fmt.Sprintf("frame length %d exceeds MaxFrame", n))
	}
	if uint32(cap(*scratch)) < n {
		*scratch = make([]byte, n)
	}
	buf := (*scratch)[:n]
	if _, err := io.ReadFull(r, buf); err != nil {
		return nil, err
	}
	return buf, nil
}

// DecodeFrameOrBatch decodes one frame payload (the bytes after the length
// prefix). A batch envelope is decoded into b, reusing its storage and
// *inflate as decompression scratch, and reported with isBatch=true (the
// returned Frame has no Body; b.From carries the sender too). A regular frame
// is returned directly with its value kind. It never panics on malformed
// input.
func DecodeFrameOrBatch(data []byte, b *Batch, inflate *[]byte) (f Frame, kind Kind, isBatch bool, err error) {
	f, value, err := FrameValue(data)
	if err != nil {
		return Frame{}, 0, false, err
	}
	var rest []byte
	if kind = Kind(value[0]); kind == KindBatch {
		rest, err = decodeBatchInto(b, value[1:], inflate)
		b.From = f.From
	} else {
		f.Body, rest, err = DecodeValue(value)
	}
	if err == nil && len(rest) != 0 {
		err = corrupt("trailing bytes after frame body")
	}
	if err != nil {
		return Frame{}, 0, false, err
	}
	return f, kind, kind == KindBatch, nil
}

// OpenEnvelope splits one frame payload (after the length prefix) into its
// sender and its n frames, undecoded, for NextFrame to walk: a plain frame is
// an envelope of one, and a compressed one is inflated into *inflate.
func OpenEnvelope(data []byte, inflate *[]byte) (from types.ProcessID, frames []byte, n int, err error) {
	f, value, err := FrameValue(data)
	if err != nil {
		return 0, nil, 0, err
	}
	if Kind(value[0]) != KindBatch {
		_, frames, _ = Varint(data) // past its sender, laid out as a batched frame
		return f.From, frames, 1, nil
	}
	_, frames, n, rest, err := batchFrames(value[1:], inflate)
	if err == nil && len(rest) != 0 {
		err = corrupt("trailing bytes after frame body")
	}
	return f.From, frames, n, err
}

// BatchWriter accumulates encoded sub-messages and emits one batch envelope
// frame. All storage is reused across Begin/Finish cycles, so a transport
// writer that owns one BatchWriter builds envelopes without allocating.
type BatchWriter struct {
	from  types.ProcessID
	sub   []byte
	comp  []byte // the deflated envelope, before it is appended
	count int
	cnt   [binary.MaxVarintLen64]byte // the count's uvarint; deflateInto's argument would move a local to the heap
}

// Begin resets the writer for a new envelope from the given sender.
func (w *BatchWriter) Begin(from types.ProcessID) {
	w.from = from
	w.sub = w.sub[:0]
	w.count = 0
}

// Len reports the encoded sub-message bytes accumulated since Begin.
func (w *BatchWriter) Len() int { return len(w.sub) }

// Add appends sub, one message as AppendSub encoded it, to the envelope.
func (w *BatchWriter) Add(sub []byte) {
	w.sub = append(w.sub, sub...)
	w.count++
}

// Finish appends the completed envelope to buf as one length-prefixed wire
// frame. If compressMin > 0 and the payload is at least that many bytes it
// is deflated — unless compression does not actually shrink it, in which
// case the raw form is kept. It returns the raw (pre-compression) payload
// size, the compressed payload size (0 when the envelope went out raw), and
// the total appended wire bytes, for compression-ratio accounting.
func (w *BatchWriter) Finish(buf []byte, compressMin int) (out []byte, rawLen, compLen, wireLen int, err error) {
	start := len(buf)
	buf = append(buf, 0, 0, 0, 0)
	buf = binary.AppendVarint(buf, int64(w.from))
	buf = AppendString(buf, BatchProto)
	buf = binary.AppendVarint(buf, 0)
	buf = append(buf, byte(KindBatch))
	rawLen = len(w.counted()) + len(w.sub)
	if body := len(buf); compressMin > 0 && rawLen >= compressMin {
		if buf, compLen, err = w.appendFlate(buf); err != nil {
			return buf[:start], 0, 0, 0, err
		}
		if compLen >= rawLen { // incompressible: the raw form is smaller
			buf, compLen = buf[:body], 0
		}
	}
	if compLen == 0 {
		buf = w.appendRaw(buf)
	}
	n := len(buf) - start - 4
	if n > MaxFrame {
		return buf[:start], 0, 0, 0, fmt.Errorf("wire: batch envelope of %d bytes exceeds MaxFrame (%d)", n, MaxFrame)
	}
	binary.BigEndian.PutUint32(buf[start:], uint32(n))
	return buf, rawLen, compLen, n + 4, nil
}

// counted returns the uvarint of the sub-message count.
func (w *BatchWriter) counted() []byte { return w.cnt[:binary.PutUvarint(w.cnt[:], uint64(w.count))] }

// appendRaw appends the batch value body, uncompressed: flags, count, frames.
func (w *BatchWriter) appendRaw(buf []byte) []byte {
	return append(append(append(buf, 0), w.counted()...), w.sub...)
}

// appendFlate appends the batch value body deflated: flags, the raw length,
// and the compressed bytes, length-prefixed. It returns their length.
func (w *BatchWriter) appendFlate(buf []byte) ([]byte, int, error) {
	cnt := w.counted()
	comp, err := deflateInto(w.comp[:0], cnt, w.sub)
	if err != nil {
		return buf, 0, err
	}
	w.comp = comp
	buf = AppendUvarint(append(buf, batchFlagFlate), uint64(len(cnt)+len(w.sub)))
	return AppendBytes(buf, comp), len(comp), nil
}
