package wire_test

import (
	"bytes"
	"sort"
	"testing"

	"wanamcast/internal/types"
	"wanamcast/internal/wire"
)

// FuzzWireRoundTrip feeds arbitrary bytes to the transport's read path (walk:
// OpenEnvelope, NextFrame, DecodeValue): it must never panic, and whatever it
// accepts must reach an encode/decode fixed point through the send path — each
// message encoded once (AppendSub), a lone one as a plain frame (AppendPlain),
// more in an envelope (BatchWriter), raw and deflated — so that two
// consecutive re-encodes produce identical bytes. The oracle compares encoded
// bytes rather than decoded values: reflect.DeepEqual would falsely reject
// valid inputs whose decoded form is not reflexively equal (a NaN float64
// payload). The seed corpus is one valid frame per registered message type
// plus the scalar payload kinds, so the fuzzer starts from every codec path.
func FuzzWireRoundTrip(f *testing.F) {
	for _, v := range roundTripValues() {
		frame, err := wire.AppendFrame(nil, 2, "a1.cons", 11, v)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(frame[4:]) // walk takes the bytes after the length prefix
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
		from, msgs, err := walk(data)
		if err != nil {
			return // rejected input is fine; panics are not
		}
		for _, compressMin := range []int{0, 1} {
			reenc := reencode(t, from, msgs, compressMin)
			from2, again, err := walk(reenc[4:])
			if err != nil {
				t.Fatalf("re-encoded frame failed to decode: %v", err)
			}
			if reenc2 := reencode(t, from2, again, compressMin); !bytes.Equal(reenc, reenc2) {
				t.Fatalf("round trip diverged:\n first %x\nsecond %x", reenc, reenc2)
			}
		}
	})
}

// reencode encodes msgs as a sender and its link's writer do: each once with
// AppendSub, a lone one at compressMin 0 as a plain frame, otherwise all in
// one envelope, deflated from compressMin bytes up (0: never).
func reencode(t *testing.T, from types.ProcessID, msgs []msg, compressMin int) []byte {
	var bw wire.BatchWriter
	bw.Begin(from)
	var sub []byte
	for _, m := range msgs {
		var err error
		if sub, err = wire.AppendSub(sub[:0], m.proto, m.ts, m.body); err != nil {
			t.Fatalf("decoded frame failed to re-encode: %v", err)
		}
		if len(msgs) == 1 && compressMin == 0 {
			return wire.AppendPlain(nil, from, sub)
		}
		bw.Add(sub)
	}
	frame, _, _, _, err := bw.Finish(nil, compressMin)
	if err != nil {
		t.Fatalf("decoded frames failed to re-encode: %v", err)
	}
	return frame
}
