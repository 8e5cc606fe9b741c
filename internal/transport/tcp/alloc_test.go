package tcp

import (
	"bytes"
	"testing"

	"wanamcast/internal/wire"
)

// TestReceiveEnvelopeZeroAllocs pins the acceptance bar for the receive
// path: reading a batch envelope off a connection and decoding every
// sub-message allocates nothing once the buffers and pools are warm. The
// pieces under test are exactly what readLoop uses — ReadFrameBytes into a
// reused scratch, DecodeFrameOrBatch into a reused Batch, and pooled
// pointer bodies released after processing, the way heartbeatFD.Receive
// releases them at the end of lane processing.
func TestReceiveEnvelopeZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; the pin holds without it")
	}
	var bw wire.BatchWriter
	bw.Begin(3)
	for i := 0; i < 16; i++ {
		if _, err := bw.Add(fdProto, int64(i), &heartbeatMsg{Beat: int64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	frame, _, _, _, err := bw.Finish(nil, 0)
	if err != nil {
		t.Fatal(err)
	}

	r := bytes.NewReader(frame)
	var scratch, inflate []byte
	var bat wire.Batch
	recv := func() {
		r.Reset(frame)
		data, err := wire.ReadFrameBytes(r, &scratch)
		if err != nil {
			t.Fatal(err)
		}
		_, kind, isBatch, err := wire.DecodeFrameOrBatch(data, &bat, &inflate)
		if err != nil {
			t.Fatal(err)
		}
		if !isBatch || kind != wire.KindBatch || len(bat.Msgs) != 16 {
			t.Fatalf("decoded kind=%d isBatch=%v msgs=%d", kind, isBatch, len(bat.Msgs))
		}
		for i := range bat.Msgs {
			m, ok := bat.Msgs[i].Body.(*heartbeatMsg)
			if !ok || m.Beat != int64(i) {
				t.Fatalf("msg %d: %#v", i, bat.Msgs[i].Body)
			}
			hbPool.Put(m)
		}
	}
	// Warm the scratch buffers, the Msgs storage, the proto intern table,
	// and the heartbeat pool.
	for i := 0; i < 64; i++ {
		recv()
	}
	if allocs := testing.AllocsPerRun(200, recv); allocs != 0 {
		t.Fatalf("envelope receive allocates %.1f objects/envelope, want 0", allocs)
	}
}

func BenchmarkReceiveEnvelope(b *testing.B) {
	var bw wire.BatchWriter
	bw.Begin(3)
	for i := 0; i < 16; i++ {
		bw.Add(fdProto, int64(i), &heartbeatMsg{Beat: int64(i)})
	}
	frame, _, _, _, _ := bw.Finish(nil, 0)
	r := bytes.NewReader(frame)
	var scratch, inflate []byte
	var bat wire.Batch
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		r.Reset(frame)
		data, _ := wire.ReadFrameBytes(r, &scratch)
		wire.DecodeFrameOrBatch(data, &bat, &inflate)
		for i := range bat.Msgs {
			hbPool.Put(bat.Msgs[i].Body.(*heartbeatMsg))
		}
	}
}
