package tcp

import (
	"bytes"
	"testing"

	"wanamcast/internal/amcast"
	"wanamcast/internal/config"
	"wanamcast/internal/consensus"
	"wanamcast/internal/metrics"
	"wanamcast/internal/node"
	"wanamcast/internal/rmcast"
	"wanamcast/internal/types"
	"wanamcast/internal/wire"
)

// typedSink counts the frames of three protocol kinds it is handed.
type typedSink struct{ n int }

func (s *typedSink) Proto() string { return "sink" }
func (s *typedSink) Start()        {}
func (s *typedSink) Handlers() []node.Handler {
	return []node.Handler{
		node.On(func(s *typedSink, _ types.ProcessID, _ consensus.AcceptedMsg) { s.n++ }),
		node.On(func(s *typedSink, _ types.ProcessID, _ amcast.TSMsg) { s.n++ }),
		node.On(func(s *typedSink, _ types.ProcessID, _ rmcast.DataMsg) { s.n++ }),
	}
}

// envelopeOf packs bodies, under proto, into one batch envelope from p1.
func envelopeOf[T any](t testing.TB, proto string, bodies ...T) []byte {
	var bw wire.BatchWriter
	bw.Begin(1)
	for i, b := range bodies {
		bw.Add(sub(t, proto, int64(i), b))
	}
	frame, _, _, _, err := bw.Finish(nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	return frame
}

// sub encodes one message as its sender does.
func sub[T any](t testing.TB, proto string, ts int64, body T) []byte {
	b, err := wire.AppendSub(nil, proto, ts, body)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// receiver is an unstarted runtime whose p0 hosts a typedSink, and a way to
// run one envelope through its receive path by hand: read and opened as the
// read loop does, posted to p0's lane, and walked there. rec may be nil.
func receiver(t testing.TB, rec *metrics.Collector) (*typedSink, func(frame []byte)) {
	rt := New(Config{Topo: types.NewTopology(2, 3), Recorder: rec, Config: config.Config{BasePort: 22300}})
	sink := &typedSink{}
	rt.Proc(0).Register(sink)
	ln, src, r := rt.laneOf[0], &inConn{}, bytes.NewReader(nil)
	return sink, func(frame []byte) {
		r.Reset(frame)
		from, env, err := rt.read(r, ln, src)
		if err != nil {
			t.Fatal(err)
		}
		rt.dispatch(from, 0, env) // p1 shares p0's group: no link delay
		ev, ok := ln.in.TryPop()
		if !ok {
			t.Fatal("the envelope was not posted to the lane")
		}
		ln.exec(ev)
		if src.dead.Load() {
			t.Fatal("a frame failed on the lane")
		}
	}
}

// TestReceiveEnvelopeZeroAllocs pins what the receive path costs once its
// buffers are warm: an envelope is read into a buffer the destination lane
// lends, posted to the lane as one event, and walked there, each frame
// decoded straight into its handler's type. The envelope machinery allocates
// nothing, and a frame only what its value keeps: nothing for 16 heartbeats
// or 16 AcceptedMsg, one payload copy for a TSMsg or a DataMsg. (Before the
// lane decoded them, a decoded body was boxed into an interface on the
// reader: 16 for the Accepteds, 2 for a TSMsg.)
func TestReceiveEnvelopeZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; the pin holds without it")
	}
	beats := make([]heartbeatMsg, 16)
	accepteds := make([]consensus.AcceptedMsg, 16)
	for i := range beats {
		beats[i] = heartbeatMsg{Beat: int64(i)}
		accepteds[i] = consensus.AcceptedMsg{Instance: uint64(i + 1), Ballot: 3}
	}
	desc := amcast.Descriptor{ID: types.MessageID{Origin: 1, Seq: 9}, Dest: types.NewGroupSet(0, 1), TS: 4, Payload: []byte("payload")}
	data := rmcast.Message{ID: desc.ID, Dest: desc.Dest, Payload: desc.Payload}
	for _, c := range []struct {
		name   string
		frame  []byte
		frames int
		want   float64
	}{
		{"16 heartbeats", envelopeOf(t, fdProto, beats...), 0, 0},
		{"16 AcceptedMsg", envelopeOf(t, "sink", accepteds...), 16, 0},
		{"a TSMsg", envelopeOf(t, "sink", amcast.TSMsg{Desc: desc}), 1, 1},
		{"a DataMsg", envelopeOf(t, "sink", rmcast.DataMsg{M: data}), 1, 1},
	} {
		sink, recv := receiver(t, nil)
		for i := 0; i < 64; i++ { // warm the lent buffers, the intern table and fd's lastSeen
			recv(c.frame)
		}
		if sink.n != 64*c.frames {
			t.Fatalf("%s: the sink handled %d frames of %d", c.name, sink.n, 64*c.frames)
		}
		if allocs := testing.AllocsPerRun(200, func() { recv(c.frame) }); allocs != c.want {
			t.Errorf("%s: an envelope costs %.1f allocations, want %.0f", c.name, allocs, c.want)
		}
	}
}

// TestLaneCountsEveryFrame: the lane counts each frame it walks under its
// value's kind, and the frames' sizes add up to the envelope's raw payload
// less the count in front of them.
func TestLaneCountsEveryFrame(t *testing.T) {
	accepteds := make([]consensus.AcceptedMsg, 16)
	for i := range accepteds {
		accepteds[i] = consensus.AcceptedMsg{Instance: uint64(i + 1), Ballot: 3}
	}
	var bw wire.BatchWriter
	bw.Begin(1)
	for i, m := range accepteds {
		bw.Add(sub(t, "sink", int64(i), m))
	}
	desc := amcast.Descriptor{ID: types.MessageID{Origin: 1, Seq: 9}, Dest: types.NewGroupSet(0, 1), Payload: []byte("payload")}
	bw.Add(sub(t, "sink", 16, amcast.TSMsg{Desc: desc}))
	frame, rawLen, _, _, err := bw.Finish(nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	col := &metrics.Collector{}
	_, recv := receiver(t, col)
	recv(frame)
	w := col.Snapshot().Wire
	if w.FramesIn != 17 || len(w.ByKindIn) != 2 {
		t.Fatalf("counted %d frames of kinds %v, want 17 of 2 kinds", w.FramesIn, w.ByKindIn)
	}
	if sum := w.ByKindIn[byte(wire.KindConsensusAccepted)] + w.ByKindIn[byte(wire.KindAMcastTS)]; sum != uint64(rawLen-1) {
		t.Fatalf("frame sizes add up to %d, want the raw payload %d less its one-byte count", sum, rawLen)
	}
}

func BenchmarkReceiveEnvelope(b *testing.B) {
	accepteds := make([]consensus.AcceptedMsg, 16)
	for i := range accepteds {
		accepteds[i] = consensus.AcceptedMsg{Instance: uint64(i + 1), Ballot: 3}
	}
	frame := envelopeOf(b, "sink", accepteds...)
	_, recv := receiver(b, nil)
	b.ReportAllocs()
	for b.Loop() {
		recv(frame)
	}
}
