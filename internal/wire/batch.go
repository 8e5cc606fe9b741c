// Batch envelopes: the WAN byte- and syscall-efficiency layer of the wire
// codec.
//
// A batch envelope packs every frame a transport writer coalesces in one
// flush window into a single outer frame: one 4-byte length header and one
// (from, proto, ts) preamble on the wire instead of one per message. Inside
// the envelope each sub-message carries only its own proto label, timestamp
// and tagged value — the shared `from` is hoisted into the preamble. Above a
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
// Two decode surfaces exist. The registry codec (decode to *Batch) keeps
// AppendValue/DecodeValue round trips and the fuzz oracle working. The
// transport uses DecodeFrameOrBatch + a caller-owned Batch and inflate
// scratch instead, which reuses all storage across envelopes — the steady
// state receive path allocates nothing for the envelope machinery.
package wire

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"reflect"
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

// BatchMsg is one decoded sub-message of a batch envelope. Kind and Size
// are decode/encode byproducts kept for byte accounting: Size is the
// sub-message's encoded length inside the envelope (proto + ts + value).
type BatchMsg struct {
	Proto string
	TS    int64
	Body  any
	Kind  Kind
	Size  int
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

// KindOf reports the Kind byte AppendValue would tag v with: KindNil, the
// registered codec's kind, or KindGob for the fallback.
func KindOf(v any) Kind {
	if v == nil {
		return KindNil
	}
	if c := lookupType(reflect.TypeOf(v)); c != nil {
		return c.kind
	}
	return KindGob
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
	scratchPool = sync.Pool{New: func() any { s := make([]byte, 0, 4096); return &s }}
	swPool      = sync.Pool{New: func() any { return &sliceWriter{b: make([]byte, 0, 4096)} }}
	flateWPool  = sync.Pool{New: func() any {
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
// trips (fuzzing, tests, WAL payloads) work.
func appendBatchBody(buf []byte, b *Batch) []byte {
	sp := scratchPool.Get().(*[]byte)
	raw := (*sp)[:0]
	defer func() {
		*sp = raw[:0]
		scratchPool.Put(sp)
	}()
	raw = AppendUvarint(raw, uint64(len(b.Msgs)))
	for i := range b.Msgs {
		m := &b.Msgs[i]
		if _, nested := m.Body.(*Batch); nested {
			panic(encodeError{errors.New("wire: batch envelopes do not nest")})
		}
		raw = AppendString(raw, m.Proto)
		raw = AppendVarint(raw, m.TS)
		raw = AppendValue(raw, m.Body)
	}
	if !b.Flate {
		buf = append(buf, 0)
		return append(buf, raw...)
	}
	buf = append(buf, batchFlagFlate)
	buf = AppendUvarint(buf, uint64(len(raw)))
	lenAt := len(buf)
	buf = AppendUvarint(buf, 0) // patched below; compressed length fits a re-encode
	compStart := len(buf)
	buf, err := deflateInto(buf, raw)
	if err != nil {
		panic(encodeError{err})
	}
	compLen := len(buf) - compStart
	// Patch the compressed-length prefix in place. A uvarint's width depends
	// on its value, so re-append with the real length if the placeholder
	// width was wrong.
	var tmp [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(tmp[:], uint64(compLen))
	if n == compStart-lenAt {
		copy(buf[lenAt:compStart], tmp[:n])
		return buf
	}
	comp := append([]byte(nil), buf[compStart:]...)
	buf = buf[:lenAt]
	buf = AppendUvarint(buf, uint64(compLen))
	return append(buf, comp...)
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

// decodeBatchInto fills b from a batch value body (the bytes after the
// KindBatch tag), reusing b.Msgs and *inflate. It returns the unconsumed
// remainder.
func decodeBatchInto(b *Batch, data []byte, inflate *[]byte) ([]byte, error) {
	if len(data) == 0 {
		return nil, corrupt("batch flags")
	}
	flags := data[0]
	data = data[1:]
	if flags&^byte(batchFlagFlate) != 0 {
		return nil, corrupt("unknown batch flags")
	}
	b.Flate = flags&batchFlagFlate != 0
	raw := data
	var rest []byte
	if b.Flate {
		rawLen, d, err := Uvarint(data)
		if err != nil {
			return nil, err
		}
		if rawLen > MaxFrame {
			return nil, corrupt("batch decoded size exceeds MaxFrame")
		}
		comp, d, err := Bytes(d)
		if err != nil {
			return nil, err
		}
		rest = d
		raw, err = inflateInto(comp, int(rawLen), inflate)
		if err != nil {
			return nil, err
		}
	}
	count, raw, err := SliceLen(raw)
	if err != nil {
		return nil, err
	}
	if cap(b.Msgs) < count {
		b.Msgs = make([]BatchMsg, count)
	} else {
		b.Msgs = b.Msgs[:count]
	}
	for i := 0; i < count; i++ {
		start := len(raw)
		proto, d, err := Bytes(raw)
		if err != nil {
			return nil, err
		}
		ts, d, err := Varint(d)
		if err != nil {
			return nil, err
		}
		if len(d) == 0 {
			return nil, corrupt("batch sub-message value")
		}
		k := Kind(d[0])
		if k == KindBatch {
			return nil, corrupt("nested batch envelope")
		}
		body, d, err := DecodeValue(d)
		if err != nil {
			return nil, err
		}
		b.Msgs[i] = BatchMsg{
			Proto: Intern(proto),
			TS:    ts,
			Body:  body,
			Kind:  k,
			Size:  start - len(d),
		}
		raw = d
	}
	if b.Flate {
		if len(raw) != 0 {
			return nil, corrupt("trailing bytes in compressed batch")
		}
		return rest, nil
	}
	return raw, nil
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

// BatchWriter accumulates sub-messages and emits one batch envelope frame.
// All storage is reused across Begin/Finish cycles, so a transport writer
// that owns one BatchWriter encodes envelopes without allocating.
type BatchWriter struct {
	from  types.ProcessID
	sub   []byte
	count int
	cnt   [binary.MaxVarintLen64]byte // the count's uvarint; deflateInto's argument would move a local to the heap
}

// Begin resets the writer for a new envelope from the given sender.
func (w *BatchWriter) Begin(from types.ProcessID) {
	w.from = from
	w.sub = w.sub[:0]
	w.count = 0
}

// Count reports how many sub-messages have been added since Begin.
func (w *BatchWriter) Count() int { return w.count }

// Len reports the encoded sub-message bytes accumulated since Begin.
func (w *BatchWriter) Len() int { return len(w.sub) }

// Add encodes one sub-message into the envelope and returns its encoded
// size. On encode failure (gob fallback rejection) the envelope is left as
// it was before the call.
func (w *BatchWriter) Add(proto string, ts int64, body any) (n int, err error) {
	start := len(w.sub)
	defer func() {
		if r := recover(); r != nil {
			ee, ok := r.(encodeError)
			if !ok {
				panic(r)
			}
			w.sub, n, err = w.sub[:start], 0, ee.err
		}
	}()
	if _, nested := body.(*Batch); nested {
		return 0, errors.New("wire: batch envelopes do not nest")
	}
	w.sub = AppendString(w.sub, proto)
	w.sub = AppendVarint(w.sub, ts)
	w.sub = AppendValue(w.sub, body)
	w.count++
	return len(w.sub) - start, nil
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
	cnt := w.cnt[:binary.PutUvarint(w.cnt[:], uint64(w.count))]
	rawLen = len(cnt) + len(w.sub)
	compressed := false
	if compressMin > 0 && rawLen >= compressMin {
		flagsAt := len(buf)
		buf = append(buf, batchFlagFlate)
		buf = AppendUvarint(buf, uint64(rawLen))
		lenAt := len(buf)
		buf = AppendUvarint(buf, uint64(rawLen)) // placeholder sized for the worst case
		compStart := len(buf)
		buf, err = deflateInto(buf, cnt, w.sub)
		if err != nil {
			return buf[:start], 0, 0, 0, err
		}
		compLen = len(buf) - compStart
		if compLen < rawLen {
			// Patch the compressed-length prefix. compLen < rawLen, so its
			// uvarint is never wider than the placeholder; when it is
			// narrower, shift the payload back over the gap.
			var tmp [binary.MaxVarintLen64]byte
			n := binary.PutUvarint(tmp[:], uint64(compLen))
			copy(buf[lenAt:], tmp[:n])
			if gap := compStart - lenAt - n; gap > 0 {
				copy(buf[lenAt+n:], buf[compStart:compStart+compLen])
				buf = buf[:lenAt+n+compLen]
			}
			compressed = true
		} else {
			// Incompressible payload: drop the compressed attempt and fall
			// through to the raw form.
			buf = buf[:flagsAt]
			compLen = 0
		}
	}
	if !compressed {
		buf = append(buf, 0)
		buf = append(buf, cnt...)
		buf = append(buf, w.sub...)
	}
	n := len(buf) - start - 4
	if n > MaxFrame {
		return buf[:start], 0, 0, 0, fmt.Errorf("wire: batch envelope of %d bytes exceeds MaxFrame (%d)", n, MaxFrame)
	}
	binary.BigEndian.PutUint32(buf[start:], uint32(n))
	return buf, rawLen, compLen, n + 4, nil
}
