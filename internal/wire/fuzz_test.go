package wire_test

import (
	"bytes"
	"sort"
	"testing"

	"wanamcast/internal/wire"
)

// FuzzWireRoundTrip feeds arbitrary bytes to the envelope decoder: it must
// never panic, and whatever it accepts must reach an encode/decode fixed
// point — two consecutive re-encodes produce identical bytes. The oracle
// compares encoded bytes rather than decoded values: reflect.DeepEqual
// would falsely reject valid inputs whose decoded form is not
// reflexively equal (a NaN float64 payload). The seed corpus is one valid
// frame per registered message type plus the scalar payload kinds, so the
// fuzzer starts from every codec path.
func FuzzWireRoundTrip(f *testing.F) {
	for _, v := range roundTripValues() {
		frame, err := wire.AppendFrame(nil, 2, "a1.cons", 11, v)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(frame[4:]) // DecodeFrame takes the bytes after the length prefix
	}
	f.Add([]byte{})
	f.Add([]byte{0x00})
	// Batch-envelope seeds: every registered type packed into one envelope,
	// once raw and once deflated, so the fuzzer starts from both batch
	// decode paths (sorted iteration keeps the corpus deterministic).
	vals := roundTripValues()
	names := make([]string, 0, len(vals))
	for name := range vals {
		names = append(names, name)
	}
	sort.Strings(names)
	var bw wire.BatchWriter
	for _, compressMin := range []int{0, 1} {
		bw.Begin(2)
		for _, name := range names {
			add(f, &bw, "a1.cons", 11, vals[name])
		}
		frame, _, _, _, err := bw.Finish(nil, compressMin)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(append([]byte(nil), frame[4:]...))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		decoded, err := wire.DecodeFrame(data)
		if err != nil {
			return // rejected input is fine; panics are not
		}
		reenc, err := wire.AppendFrame(nil, decoded.From, decoded.Proto, decoded.TS, decoded.Body)
		if err != nil {
			t.Fatalf("decoded frame failed to re-encode: %v", err)
		}
		again, err := wire.DecodeFrame(reenc[4:])
		if err != nil {
			t.Fatalf("re-encoded frame failed to decode: %v", err)
		}
		reenc2, err := wire.AppendFrame(nil, again.From, again.Proto, again.TS, again.Body)
		if err != nil {
			t.Fatalf("twice-decoded frame failed to re-encode: %v", err)
		}
		if !bytes.Equal(reenc, reenc2) {
			t.Fatalf("round trip diverged:\n first %x\nsecond %x", reenc, reenc2)
		}
	})
}
