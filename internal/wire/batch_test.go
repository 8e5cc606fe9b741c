package wire_test

import (
	"bytes"
	"math/rand"
	"reflect"
	"strings"
	"testing"

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

// decodeBatch runs a wire frame through the transport's streaming decode
// surface (ReadFrameBytes + DecodeFrameOrBatch) into b.
func decodeBatch(t *testing.T, frame []byte, b *wire.Batch) {
	t.Helper()
	var scratch, inflate []byte
	data, err := wire.ReadFrameBytes(bytes.NewReader(frame), &scratch)
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	_, kind, isBatch, err := wire.DecodeFrameOrBatch(data, b, &inflate)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if !isBatch || kind != wire.KindBatch {
		t.Fatalf("decoded as kind %d isBatch=%v, want a batch", kind, isBatch)
	}
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
			var b wire.Batch
			decodeBatch(t, frame, &b)
			if wireLen != len(frame) {
				t.Fatalf("Finish reported %d wire bytes, produced %d", wireLen, len(frame))
			}
			if b.From != 7 {
				t.Fatalf("From = %v, want 7", b.From)
			}
			if b.Flate != tc.wantFlate {
				t.Fatalf("Flate = %v, want %v", b.Flate, tc.wantFlate)
			}
			if tc.wantFlate {
				if compLen <= 0 || compLen >= rawLen {
					t.Fatalf("compLen = %d for rawLen %d: compression did not pay", compLen, rawLen)
				}
			} else if compLen != 0 {
				t.Fatalf("raw envelope reported compLen %d", compLen)
			}
			if len(b.Msgs) != len(bodies) {
				t.Fatalf("decoded %d sub-messages, want %d", len(b.Msgs), len(bodies))
			}
			for i, m := range b.Msgs {
				if m.Proto != "t" || m.TS != int64(i) {
					t.Fatalf("msg %d envelope: %+v", i, m)
				}
				if !reflect.DeepEqual(m.Body, bodies[i]) {
					t.Fatalf("msg %d body:\n got %#v\nwant %#v", i, m.Body, bodies[i])
				}
			}
		})
	}
}

// TestBatchRegistryRoundTrip: *Batch is a first-class wire value, so the
// generic AppendValue/DecodeValue path (and with it the fuzz oracle and any
// WAL payload) round-trips envelopes too, in both forms.
func TestBatchRegistryRoundTrip(t *testing.T) {
	for _, flate := range []bool{false, true} {
		in := &wire.Batch{From: 3, Flate: flate, Msgs: []wire.BatchMsg{
			{Proto: "a", TS: 1, Body: "x"},
			{Proto: "b", TS: -2, Body: []byte{5}},
		}}
		buf := wire.AppendValue(nil, in)
		got, rest, err := wire.DecodeValue(buf)
		if err != nil {
			t.Fatalf("flate=%v: decode: %v", flate, err)
		}
		if len(rest) != 0 {
			t.Fatalf("flate=%v: %d trailing bytes", flate, len(rest))
		}
		out := got.(*wire.Batch)
		if out.From != 0 {
			// The value codec carries no preamble; From rides the frame.
			t.Fatalf("value round trip invented From %v", out.From)
		}
		if out.Flate != flate || len(out.Msgs) != len(in.Msgs) {
			t.Fatalf("flate=%v: got %+v", flate, out)
		}
		for i := range in.Msgs {
			if out.Msgs[i].Proto != in.Msgs[i].Proto || out.Msgs[i].TS != in.Msgs[i].TS ||
				!reflect.DeepEqual(out.Msgs[i].Body, in.Msgs[i].Body) {
				t.Fatalf("flate=%v msg %d: got %+v want %+v", flate, i, out.Msgs[i], in.Msgs[i])
			}
		}
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
	var b wire.Batch
	decodeBatch(t, frame, &b)
	if b.Flate {
		t.Fatal("incompressible envelope went out compressed")
	}
	if !bytes.Equal(b.Msgs[0].Body.([]byte), noise) {
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

// TestBatchRejectsNesting: a batch body inside an envelope is corruption by
// definition — a sender refuses to encode one as a message, statically typed
// or boxed, and leaves its buffer as it was.
func TestBatchRejectsNesting(t *testing.T) {
	buf := []byte("kept")
	if out, err := wire.AppendSub(buf, "p", 0, &wire.Batch{}); err == nil || string(out) != "kept" {
		t.Fatalf("encoded a nested batch: %q, %v", out, err)
	}
	if out, err := wire.AppendSub(buf, "p", 0, any(&wire.Batch{})); err == nil || string(out) != "kept" {
		t.Fatalf("encoded a boxed nested batch: %q, %v", out, err)
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
		var b wire.Batch
		var inflate []byte
		if _, _, _, err := wire.DecodeFrameOrBatch(data, &b, &inflate); err == nil {
			t.Errorf("%s: accepted corrupt envelope", name)
		}
	}

	for cut := 0; cut < len(body); cut++ {
		var b wire.Batch
		var inflate []byte
		// Truncations must never panic; most must error. A cut inside the
		// preamble can accidentally parse as a non-batch frame, so only the
		// error-free full decode is checked for equality elsewhere.
		wire.DecodeFrameOrBatch(body[:cut], &b, &inflate)
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
