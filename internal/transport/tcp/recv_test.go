package tcp

import (
	"encoding/binary"
	"errors"
	"net"
	"os"
	"testing"
	"time"

	"wanamcast/internal/amcast"
	"wanamcast/internal/config"
	"wanamcast/internal/rmcast"
	"wanamcast/internal/types"
	"wanamcast/internal/wire"
)

// rmServer starts a runtime hosting only p0 of one group of two, with a
// reliable multicast under the label "rm", and returns its deliveries. The
// test plays p1 over connections of its own.
func rmServer(t *testing.T, port int) <-chan types.MessageID {
	t.Helper()
	got := make(chan types.MessageID, 16)
	rt := New(Config{Topo: types.NewTopology(1, 2), Local: []types.ProcessID{0}, Config: config.Config{BasePort: port}})
	rt.Proc(0).Register(rmcast.New(rmcast.Config{API: rt.Proc(0), Mode: rmcast.ModeDirect, ProtoLabel: "rm",
		OnDeliver: func(m rmcast.Message) { got <- m.ID }}))
	if err := rt.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Stop)
	return got
}

// dataFrame is a frame of p1 under proto carrying body, or an rmcast
// DataMsg of cast seq to group 0 when body is nil.
func dataFrame(t *testing.T, proto string, seq uint64, body any) []byte {
	if body == nil {
		body = rmcast.DataMsg{M: rmcast.Message{ID: types.MessageID{Origin: 1, Seq: seq}, Dest: types.NewGroupSet(0), Payload: []byte("x")}}
	}
	frame, err := wire.AppendFrame(nil, 1, proto, 0, body)
	if err != nil {
		t.Fatal(err)
	}
	return frame
}

// send dials p0 at port and writes frame.
func send(t *testing.T, port int, frame []byte) net.Conn {
	t.Helper()
	conn, err := net.Dial("tcp", (&net.TCPAddr{IP: net.IPv4(127, 0, 0, 1), Port: port}).String())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	if _, err := conn.Write(frame); err != nil {
		t.Fatal(err)
	}
	return conn
}

// awaitClose fails unless the runtime closes conn within five seconds.
func awaitClose(t *testing.T, what string, conn net.Conn) {
	t.Helper()
	_ = conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	var one [1]byte
	if _, err := conn.Read(one[:]); err == nil || errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("%s: the connection stayed open (read: %v)", what, err)
	}
}

// await fails unless the deliveries are exactly want, in order.
func await(t *testing.T, what string, got <-chan types.MessageID, want ...uint64) {
	t.Helper()
	for _, seq := range want {
		select {
		case id := <-got:
			if id.Seq != seq {
				t.Fatalf("%s: delivered cast %d, want %d", what, id.Seq, seq)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("%s: cast %d was never delivered", what, seq)
		}
	}
}

// TestForeignFramesCostTheConnection: a frame no handler takes — a
// registered kind under a label whose protocol does not accept it, or a label
// nobody registered — costs the connection it came on, never the process
// (which used to panic on both), and the peer's next connection is served.
func TestForeignFramesCostTheConnection(t *testing.T) {
	const port = 22400
	got := rmServer(t, port)
	desc := amcast.Descriptor{ID: types.MessageID{Origin: 1, Seq: 1}, Dest: types.NewGroupSet(0), Payload: []byte("x")}
	for i, c := range []struct {
		what  string
		frame []byte
	}{
		{"a (TS, m) under rmcast's label", dataFrame(t, "rm", 0, amcast.TSMsg{Desc: desc})},
		{"a DataMsg under an unknown label", dataFrame(t, "nobody", 0, nil)},
	} {
		awaitClose(t, c.what, send(t, port, c.frame))
		seq := uint64(10 + i)
		send(t, port, dataFrame(t, "rm", seq, nil))
		await(t, c.what+", then a redial", got, seq)
	}
}

// TestFrameFailingMidEnvelope: the lane walks an envelope frame by frame, so
// when its third frame fails to decode, the two before it have been delivered
// (before the lane decoded frames, the read loop dropped the whole envelope)
// and the connection closes without a panic. The peer redials and its
// traffic resumes.
func TestFrameFailingMidEnvelope(t *testing.T) {
	const port = 22500
	got := rmServer(t, port)
	sub := func(seq uint64) []byte { // a DataMsg as an envelope packs it: the frame past its sender
		_, rest, _ := wire.Varint(dataFrame(t, "rm", seq, nil)[4:])
		return rest
	}
	bad := append(wire.AppendVarint(wire.AppendString(nil, "rm"), 0), byte(wire.KindRMcastData), 0xFF) // a truncated cast ID
	body := wire.AppendString(wire.AppendVarint(nil, 1), wire.BatchProto)
	body = append(wire.AppendVarint(body, 0), byte(wire.KindBatch), 0, 3)
	body = append(append(append(body, sub(1)...), sub(2)...), bad...)
	conn := send(t, port, append(binary.BigEndian.AppendUint32(nil, uint32(len(body))), body...))
	await(t, "the frames before the bad one", got, 1, 2)
	awaitClose(t, "a frame that fails to decode", conn)
	send(t, port, dataFrame(t, "rm", 3, nil))
	await(t, "a redial", got, 3)
}

// TestMisroutedCastIsDropped: a well-formed rmcast DataMsg for a group the
// receiver is not in decodes fine, so it reaches rmcast, which drops it: not
// R-Delivered, and no panic (it used to call it a wiring bug and crash the
// process). Later traffic on the same connection is delivered.
func TestMisroutedCastIsDropped(t *testing.T) {
	const port = 22770
	got := rmServer(t, port)
	misrouted := rmcast.DataMsg{M: rmcast.Message{ID: types.MessageID{Origin: 1, Seq: 1}, Dest: types.NewGroupSet(1), Payload: []byte("x")}}
	conn := send(t, port, dataFrame(t, "rm", 0, misrouted))
	if _, err := conn.Write(dataFrame(t, "rm", 2, nil)); err != nil {
		t.Fatal(err)
	}
	await(t, "the cast after a misrouted one", got, 2)
}
