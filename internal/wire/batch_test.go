package wire_test

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"wanamcast/internal/types"
	"wanamcast/internal/wire"
)

// buildBatch encodes one envelope holding the given bodies under proto "t"
// with ascending timestamps and returns the full wire frame plus the
// Finish accounting.
func buildBatch(t *testing.T, compressMin int, bodies ...any) (frame []byte, rawLen, compLen, wireLen int) {
	t.Helper()
	var bw wire.BatchWriter
	bw.Begin(7)
	for i, b := range bodies {
		add(t, &bw, "t", int64(i), b)
	}
	frame, rawLen, compLen, wireLen, err := bw.Finish(nil, compressMin)
	if err != nil {
		t.Fatalf("finish: %v", err)
	}
	return frame, rawLen, compLen, wireLen
}

// add encodes one message and adds it to bw, as a link's writer adds the
// messages its senders encoded.
func add(t testing.TB, bw *wire.BatchWriter, proto string, ts int64, body any) {
	t.Helper()
	sub, err := wire.AppendSub(nil, proto, ts, body)
	if err != nil {
		t.Fatalf("encode %#v: %v", body, err)
	}
	bw.Add(sub)
}

// msg is one frame of an envelope, its value decoded.
type msg struct {
	proto string
	ts    int64
	body  any
}

// walk reads one frame payload (the bytes after the length prefix) the way a
// lane does: it opens the envelope (a plain frame is an envelope of one),
// walks its frames and decodes each value, and refuses bytes after the last.
func walk(data []byte) (from types.ProcessID, msgs []msg, err error) {
	var inflate []byte
	from, frames, n, err := wire.OpenEnvelope(data, &inflate)
	for ; err == nil && n > 0; n-- {
		var m msg
		var value []byte
		if m.proto, m.ts, value, err = wire.NextFrame(frames); err == nil {
			m.body, frames, err = wire.DecodeValue(value)
			msgs = append(msgs, m)
		}
	}
	if err == nil && len(frames) != 0 {
		err = fmt.Errorf("%d bytes after the last frame", len(frames))
	}
	return from, msgs, err
}

// decodeBatch reads a wire frame through the transport's read path
// (ReadFrameBytes, then walk) and reports whether it was deflated.
func decodeBatch(t *testing.T, frame []byte) (from types.ProcessID, msgs []msg, flated bool) {
	t.Helper()
	var scratch []byte
	data, err := wire.ReadFrameBytes(bytes.NewReader(frame), &scratch)
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	f, value, err := wire.FrameValue(data)
	if err != nil || f.Proto != wire.BatchProto || wire.Kind(value[0]) != wire.KindBatch {
		t.Fatalf("frame %+v of kind %d (%v), want a batch", f, value[0], err)
	}
	if from, msgs, err = walk(data); err != nil {
		t.Fatalf("decode: %v", err)
	}
	return from, msgs, value[1] != 0 // the flags byte
}

// TestBatchEnvelopeRoundTrip: raw and compressed envelopes carry every
// sub-message through the transport decode surface intact, the shared
// sender rides the preamble, and the Finish accounting matches the bytes
// actually produced.
func TestBatchEnvelopeRoundTrip(t *testing.T) {
	bodies := []any{
		"hello", int64(-4), []byte{1, 2, 3}, nil, uint64(1) << 50,
		strings.Repeat("wan bandwidth ", 200), // compressible filler
	}
	for _, tc := range []struct {
		name        string
		compressMin int
		wantFlate   bool
	}{
		{"raw", 0, false},
		{"compressed", 1, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			frame, rawLen, compLen, wireLen := buildBatch(t, tc.compressMin, bodies...)
			from, msgs, flated := decodeBatch(t, frame)
			if wireLen != len(frame) {
				t.Fatalf("Finish reported %d wire bytes, produced %d", wireLen, len(frame))
			}
			if from != 7 {
				t.Fatalf("From = %v, want 7", from)
			}
			if flated != tc.wantFlate {
				t.Fatalf("deflated = %v, want %v", flated, tc.wantFlate)
			}
			if tc.wantFlate {
				if compLen <= 0 || compLen >= rawLen {
					t.Fatalf("compLen = %d for rawLen %d: compression did not pay", compLen, rawLen)
				}
			} else if compLen != 0 {
				t.Fatalf("raw envelope reported compLen %d", compLen)
			}
			if len(msgs) != len(bodies) {
				t.Fatalf("decoded %d sub-messages, want %d", len(msgs), len(bodies))
			}
			for i, m := range msgs {
				if m.proto != "t" || m.ts != int64(i) {
					t.Fatalf("msg %d envelope: %+v", i, m)
				}
				if !reflect.DeepEqual(m.body, bodies[i]) {
					t.Fatalf("msg %d body:\n got %#v\nwant %#v", i, m.body, bodies[i])
				}
			}
		})
	}
}

// TestBatchIsNoValue: an envelope is read only as a frame, never as a value.
func TestBatchIsNoValue(t *testing.T) {
	frame, _, _, _ := buildBatch(t, 0, "x")
	_, value, err := wire.FrameValue(frame[4:])
	if err != nil {
		t.Fatal(err)
	}
	if v, _, err := wire.DecodeValue(value); err == nil {
		t.Fatalf("a KindBatch value decoded: %#v", v)
	}
}

// TestBatchIncompressibleFallsBackToRaw: when deflate cannot shrink the
// payload (random bytes), Finish keeps the raw form — the envelope never
// pays for compression that does not pay for itself.
func TestBatchIncompressibleFallsBackToRaw(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	noise := make([]byte, 8192)
	rng.Read(noise)
	frame, rawLen, compLen, _ := buildBatch(t, 1, noise)
	if compLen != 0 {
		t.Fatalf("incompressible payload reported compLen %d (rawLen %d)", compLen, rawLen)
	}
	_, msgs, flated := decodeBatch(t, frame)
	if flated {
		t.Fatal("incompressible envelope went out compressed")
	}
	if !bytes.Equal(msgs[0].body.([]byte), noise) {
		t.Fatal("payload corrupted by the raw fallback")
	}
}

// TestBatchWriterReuse: one BatchWriter reused across Begin/Finish cycles
// produces byte-identical envelopes to a fresh writer each time — no state
// leaks between envelopes.
func TestBatchWriterReuse(t *testing.T) {
	var reused wire.BatchWriter
	for cycle := 0; cycle < 3; cycle++ {
		bodies := []any{"a", int64(cycle), []byte{byte(cycle)}}
		reused.Begin(9)
		var fresh wire.BatchWriter
		fresh.Begin(9)
		for i, b := range bodies {
			add(t, &reused, "p", int64(i), b)
			add(t, &fresh, "p", int64(i), b)
		}
		got, _, _, _, err := reused.Finish(nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		want, _, _, _, err := fresh.Finish(nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("cycle %d: reused writer diverged:\n got %x\nwant %x", cycle, got, want)
		}
	}
}

// TestBatchWriterZeroAllocs pins the send side of an envelope: with the
// writer's and the caller's buffers warm, encoding the messages (AppendSub),
// Begin, Add and Finish allocate nothing, whether the envelope goes out raw
// or deflated.
func TestBatchWriterZeroAllocs(t *testing.T) {
	body := strings.Repeat("wan bandwidth ", 40)
	for _, tc := range []struct {
		name        string
		compressMin int
		compressed  bool
	}{{"raw", 0, false}, {"compressed", 64, true}} {
		t.Run(tc.name, func(t *testing.T) {
			if tc.compressed && raceEnabled {
				t.Skip("deflate state comes from a sync.Pool, which drops items under the race detector")
			}
			var bw wire.BatchWriter
			var buf, sub []byte
			envelope := func() {
				bw.Begin(3)
				for i := 0; i < 8; i++ {
					var err error
					if sub, err = wire.AppendSub(sub[:0], "t", int64(i), body); err != nil {
						t.Fatal(err)
					}
					bw.Add(sub)
				}
				out, _, compLen, _, err := bw.Finish(buf[:0], tc.compressMin)
				if err != nil {
					t.Fatal(err)
				}
				if (compLen > 0) != tc.compressed {
					t.Fatalf("compressed payload of %d bytes, want compressed=%v", compLen, tc.compressed)
				}
				buf = out
			}
			for i := 0; i < 8; i++ {
				envelope()
			}
			if n := testing.AllocsPerRun(100, envelope); n != 0 {
				t.Fatalf("a %s envelope made %.1f allocations, want 0", tc.name, n)
			}
		})
	}
}

// TestBatchRejectsNesting: a batch inside an envelope is corruption by
// definition. The walk refuses a frame whose value is one.
func TestBatchRejectsNesting(t *testing.T) {
	inner, _, _, _ := buildBatch(t, 0, "x")
	_, value, err := wire.FrameValue(inner[4:])
	if err != nil {
		t.Fatal(err)
	}
	var bw wire.BatchWriter
	bw.Begin(7)
	bw.Add(append(wire.AppendVarint(wire.AppendString(nil, "p"), 0), value...))
	frame, _, _, _, err := bw.Finish(nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := walk(frame[4:]); err == nil {
		t.Fatal("walked a batch nested in a batch")
	}
}

// TestBatchDecodeRejectsCorruption: malformed envelopes — unknown flags,
// oversized declared sizes (decompression bombs), truncations at every
// byte, mismatched flate streams, trailing garbage — error without
// panicking.
func TestBatchDecodeRejectsCorruption(t *testing.T) {
	frame, _, _, _ := buildBatch(t, 1, strings.Repeat("x", 4096))
	body := frame[4:]

	reject := func(name string, data []byte) {
		t.Helper()
		if _, _, err := walk(data); err == nil {
			t.Errorf("%s: accepted corrupt envelope", name)
		}
	}

	for cut := 0; cut < len(body); cut++ {
		// Truncations must never panic; most must error. A cut inside the
		// preamble can accidentally parse as a non-batch frame, so only the
		// error-free full decode is checked for equality elsewhere.
		walk(body[:cut])
	}

	corrupt := append([]byte(nil), body...)
	// The flags byte sits right after the KindBatch tag; flip an unknown bit.
	kindAt := bytes.IndexByte(corrupt, byte(wire.KindBatch))
	if kindAt < 0 || kindAt+1 >= len(corrupt) {
		t.Fatal("cannot locate envelope flags")
	}
	corrupt[kindAt+1] |= 0x80
	reject("unknown flags", corrupt)

	// A declared raw size beyond MaxFrame is a decompression bomb.
	bomb := append([]byte(nil), body[:kindAt+2]...)
	bomb = wire.AppendUvarint(bomb, wire.MaxFrame+1)
	bomb = append(bomb, body[kindAt+2:]...)
	reject("bomb", bomb)

	// Garbage after a valid envelope must not be silently swallowed.
	reject("trailing", append(append([]byte(nil), body...), 0xAB))

	// A flate stream shorter than its declared size must be rejected.
	short := append([]byte(nil), body...)
	short = short[:len(short)-4]
	reject("short stream", short)
}
