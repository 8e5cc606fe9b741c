package wire_test

// Codec micro-benchmarks: the wire codec versus the gob baseline on the
// transport's representative hot-path frames. Run:
//
//	go test ./internal/wire -bench=. -benchmem
//
// The headline numbers (allocs/op especially) are recorded in
// EXPERIMENTS.md; the acceptance bar is ≥3× fewer allocations per message
// than gob, which TestWireAllocsBeatGob pins.
import (
	"bytes"
	"encoding/gob"
	"io"
	"testing"

	"wanamcast/internal/abcast"
	"wanamcast/internal/amcast"
	"wanamcast/internal/types"
	"wanamcast/internal/wire"
)

// benchFrame is a gob envelope identical to the transport's legacy frame.
type benchFrame struct {
	From  types.ProcessID
	Proto string
	TS    int64
	Body  any
}

// benchTSMsg and benchBundle return pre-boxed bodies: the transport's
// writer receives bodies as `any` (boxed once at protocol-send time, on
// both the simulated and live paths), so boxing is not part of the codec's
// per-frame cost.
func benchTSMsg() any {
	return amcast.TSMsg{Desc: amcast.Descriptor{
		ID:      types.MessageID{Origin: 4, Seq: 12345},
		Dest:    types.NewGroupSet(0, 2),
		Payload: wire.AppendValue(nil, "a-representative-payload"),
		TS:      99,
		Stage:   amcast.Stage1,
	}}
}

func benchBundle() any {
	set := make([]abcast.Record, 16)
	for i := range set {
		set[i] = abcast.Record{ID: types.MessageID{Origin: types.ProcessID(i % 6), Seq: uint64(i + 1)}, Payload: wire.AppendValue(nil, i)}
	}
	return abcast.BundleMsg{Round: 7, Set: set}
}

func init() {
	gob.Register(amcast.TSMsg{})
	gob.Register(abcast.BundleMsg{})
	gob.Register(types.MessageID{})
	gob.Register(types.GroupSet{})
}

func benchWireEncode(b *testing.B, body any) {
	var buf []byte
	var err error
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		buf, err = wire.AppendFrame(buf[:0], 4, "a1", 17, body)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.SetBytes(int64(len(buf)))
}

func benchGobEncode(b *testing.B, body any) {
	// Persistent encoder into a discarding writer: the transport reuses
	// one encoder per connection, so type descriptors are amortised here
	// exactly as they are on the live path.
	enc := gob.NewEncoder(io.Discard)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := enc.Encode(benchFrame{From: 4, Proto: "a1", TS: 17, Body: body}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEncodeTSMsgWire(b *testing.B)  { benchWireEncode(b, benchTSMsg()) }
func BenchmarkEncodeTSMsgGob(b *testing.B)   { benchGobEncode(b, benchTSMsg()) }
func BenchmarkEncodeBundleWire(b *testing.B) { benchWireEncode(b, benchBundle()) }
func BenchmarkEncodeBundleGob(b *testing.B)  { benchGobEncode(b, benchBundle()) }

func benchWireDecode(b *testing.B, body any) {
	frame, err := wire.AppendFrame(nil, 4, "a1", 17, body)
	if err != nil {
		b.Fatal(err)
	}
	payload := frame[4:]
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := decodeFrame(payload); err != nil {
			b.Fatal(err)
		}
	}
}

// decodeFrame reads one plain frame payload as a lane reads a frame no typed
// handler takes: it opens the envelope, splits the frame off and decodes its
// value, boxed (DecodeValue).
func decodeFrame(payload []byte) error {
	_, frames, _, err := wire.OpenEnvelope(payload, nil) // a plain frame inflates nothing
	if err == nil {
		var value []byte
		if _, _, value, err = wire.NextFrame(frames); err == nil {
			_, _, err = wire.DecodeValue(value)
		}
	}
	return err
}

func benchGobDecode(b *testing.B, body any) {
	// Pre-encode a run of frames and re-wind the stream as needed: a gob
	// decoder is bound to its stream, so re-creation on rewind is part of
	// the measured (amortised) cost, as it is on reconnect.
	const run = 1024
	var bb bytes.Buffer
	enc := gob.NewEncoder(&bb)
	for i := 0; i < run; i++ {
		if err := enc.Encode(benchFrame{From: 4, Proto: "a1", TS: 17, Body: body}); err != nil {
			b.Fatal(err)
		}
	}
	stream := bb.Bytes()
	r := bytes.NewReader(stream)
	dec := gob.NewDecoder(r)
	left := run
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if left == 0 {
			r.Reset(stream)
			dec = gob.NewDecoder(r)
			left = run
		}
		var f benchFrame
		if err := dec.Decode(&f); err != nil {
			b.Fatal(err)
		}
		left--
	}
}

func BenchmarkDecodeTSMsgWire(b *testing.B)  { benchWireDecode(b, benchTSMsg()) }
func BenchmarkDecodeTSMsgGob(b *testing.B)   { benchGobDecode(b, benchTSMsg()) }
func BenchmarkDecodeBundleWire(b *testing.B) { benchWireDecode(b, benchBundle()) }
func BenchmarkDecodeBundleGob(b *testing.B)  { benchGobDecode(b, benchBundle()) }

// TestWireAllocsBeatGob pins the acceptance bar in a plain test: on the
// batched hot-path frame (a 16-record bundle, the shape MaxBatch=64 ships)
// the wire codec must allocate at least 3× less than gob on both the
// encode and the decode path. Measured on this hardware: encode 0 vs 1
// allocs/frame, decode 2 vs 41 allocs/frame.
func TestWireAllocsBeatGob(t *testing.T) {
	body := benchBundle()

	var buf []byte
	wireEnc := testing.AllocsPerRun(200, func() {
		var err error
		buf, err = wire.AppendFrame(buf[:0], 4, "a1", 17, body)
		if err != nil {
			t.Fatal(err)
		}
	})
	enc := gob.NewEncoder(io.Discard)
	gobEnc := testing.AllocsPerRun(200, func() {
		if err := enc.Encode(benchFrame{From: 4, Proto: "a1", TS: 17, Body: body}); err != nil {
			t.Fatal(err)
		}
	})
	if gobEnc == 0 || gobEnc < 3*wireEnc {
		t.Fatalf("encode allocs: wire %.1f vs gob %.1f — want ≥3× fewer", wireEnc, gobEnc)
	}
	t.Logf("encode allocs/op: wire %.1f, gob %.1f", wireEnc, gobEnc)

	frame, err := wire.AppendFrame(nil, 4, "a1", 17, body)
	if err != nil {
		t.Fatal(err)
	}
	payload := frame[4:]
	wireDec := testing.AllocsPerRun(200, func() {
		if err := decodeFrame(payload); err != nil {
			t.Fatal(err)
		}
	})
	var bb bytes.Buffer
	genc := gob.NewEncoder(&bb)
	for i := 0; i < 500; i++ {
		if err := genc.Encode(benchFrame{From: 4, Proto: "a1", TS: 17, Body: body}); err != nil {
			t.Fatal(err)
		}
	}
	dec := gob.NewDecoder(bytes.NewReader(bb.Bytes()))
	gobDec := testing.AllocsPerRun(200, func() {
		var f benchFrame
		if err := dec.Decode(&f); err != nil {
			t.Fatal(err)
		}
	})
	if gobDec < 3*wireDec {
		t.Fatalf("decode allocs: wire %.1f vs gob %.1f — want ≥3× fewer", wireDec, gobDec)
	}
	t.Logf("decode allocs/op: wire %.1f, gob %.1f", wireDec, gobDec)
}
