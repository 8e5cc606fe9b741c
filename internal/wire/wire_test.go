package wire_test

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"io"
	"maps"
	"reflect"
	"strings"
	"testing"

	"wanamcast/internal/abcast"
	"wanamcast/internal/amcast"
	"wanamcast/internal/baseline"
	"wanamcast/internal/consensus"
	"wanamcast/internal/rmcast"
	"wanamcast/internal/svc"
	"wanamcast/internal/types"
	"wanamcast/internal/wire"
)

// gobPayload is an unregistered-with-wire struct that exercises the tagged
// gob fallback path.
type gobPayload struct {
	Name string
	N    int
}

func init() { gob.Register(gobPayload{}) }

// payload is a cast value as the core carries it: its edge encoding.
func payload(v any) []byte { return wire.AppendValue(nil, v) }

// roundTripValues is the full table of registered message types plus every
// scalar payload kind; TestValueRoundTrip and FuzzWireRoundTrip's seed
// corpus both walk it.
func roundTripValues() map[string]any {
	msg := rmcast.Message{
		ID:      types.MessageID{Origin: 3, Seq: 41},
		Dest:    types.NewGroupSet(0, 2),
		Payload: payload("payload"),
	}
	descs := []amcast.Descriptor{
		{ID: types.MessageID{Origin: 1, Seq: 7}, Dest: types.NewGroupSet(1), Payload: payload(99), TS: 12, Stage: amcast.Stage2},
		{ID: types.MessageID{Origin: 2, Seq: 8}, Dest: types.NewGroupSet(0, 1), Payload: nil, TS: 13, Stage: amcast.Stage0},
	}
	recs := []abcast.Record{
		{ID: types.MessageID{Origin: 0, Seq: 1}, Payload: payload("a")},
		{ID: types.MessageID{Origin: 5, Seq: 2}, Payload: payload(uint64(7))},
	}
	vals := commandCarriers()
	maps.Copy(vals, map[string]any{
		"nil":     nil,
		"bool":    true,
		"int":     -42,
		"int64":   int64(-1 << 40),
		"uint64":  uint64(1) << 60,
		"float64": 3.25,
		"string":  "hello",
		"bytes":   []byte{1, 2, 3},
		"gob-fallback": gobPayload{
			Name: "fallback",
			N:    7,
		},
		"consensus.ForwardMsg":  consensus.ForwardMsg{Instance: 4, Value: wire.AppendTagged(nil, descs)},
		"consensus.PrepareMsg":  consensus.PrepareMsg{Instance: 5, Ballot: 9},
		"consensus.PromiseMsg":  consensus.PromiseMsg{Instance: 5, Ballot: 9, VBallot: -1, VValue: nil},
		"consensus.AcceptMsg":   consensus.AcceptMsg{Instance: 6, Ballot: 3, Value: wire.AppendTagged(nil, recs)},
		"consensus.AcceptedMsg": consensus.AcceptedMsg{Instance: 6, Ballot: 3},
		"consensus.DecideMsg":   consensus.DecideMsg{Instance: 7, Ballot: -1, Value: wire.AppendTagged(nil, descs)},
		"consensus.DecideByRef": consensus.DecideMsg{Instance: 7, Ballot: 3},
		"rmcast.Message":        msg,
		"rmcast.DataMsg":        rmcast.DataMsg{M: msg},
		"amcast.TSMsg":          amcast.TSMsg{Desc: descs[0]},
		"amcast.Descriptors":    descs,
		"abcast.BundleMsg":      abcast.BundleMsg{Round: 19, Set: recs},
		"abcast.EmptyBundle":    abcast.BundleMsg{Round: 20},
		"abcast.Records":        recs,
		"baseline.SkeenData":    baseline.SkeenData{M: msg},
		"baseline.SkeenProp":    baseline.SkeenProp{ID: msg.ID, TS: 77},
		"svc.ReadReq": svc.ReadReq{Session: 9, Seq: 4, Group: 2, Mode: 1,
			MinWatermark: 88, Op: []byte{2, 1}},
		"svc.ReadResp": svc.ReadResp{Session: 9, Seq: 4, OK: true,
			Result: []byte{1, 0, 3}, Watermark: 91},
	})
	return vals
}

// command is the service command of commandCarriers with the given seq.
func command(seq uint64) svc.Command {
	return svc.Command{Session: 1 << 20, Seq: seq, Op: svc.EncodePut(map[string]string{"g1/k": "v"})}
}

// commandCarriers are the A1 values that carry service commands 1–4: a batch
// (with one gob payload besides), a (TS, m) and a pull.
func commandCarriers() map[string]any {
	dest := types.NewGroupSet(0, 1)
	return map[string]any{
		"amcast.CommandBatch": []amcast.Descriptor{
			{ID: types.MessageID{Origin: 2, Seq: 30}, Dest: dest, Payload: payload(command(1)), TS: 1 << 40},
			{ID: types.MessageID{Origin: 2, Seq: 31}, Dest: dest, Payload: payload(gobPayload{Name: "g", N: 1}), TS: 1<<40 + 3},
			{ID: types.MessageID{Origin: 5, Seq: 9}, Dest: types.NewGroupSet(1), Payload: payload(command(2)), TS: 1<<40 + 9},
		},
		"amcast.CommandTSMsg": amcast.TSMsg{Desc: amcast.Descriptor{ID: types.MessageID{Origin: 1, Seq: 4}, Dest: dest,
			Payload: payload(command(3)), TS: 1 << 41, Stage: amcast.Stage1}},
		"amcast.CommandPullMsg": amcast.PullMsg{Desc: amcast.Descriptor{ID: types.MessageID{Origin: 3, Seq: 5}, Dest: dest,
			Payload: payload(command(4)), TS: 1<<41 + 1, Stage: amcast.Stage1}},
	}
}

// TestPayloadLengthMustFitTheFrame: the core never parses a payload, but it
// frames one, and a frame whose payload is cut short, or whose payload length
// runs past the input, fails to decode — it never panics and never yields a
// payload that reads past its frame.
func TestPayloadLengthMustFitTheFrame(t *testing.T) {
	p := payload(command(1))
	for name, v := range map[string]any{
		"rmcast.DataMsg": rmcast.DataMsg{M: rmcast.Message{ID: types.MessageID{Origin: 1, Seq: 2}, Dest: types.NewGroupSet(0), Payload: p}},
		"amcast.TSMsg":   amcast.TSMsg{Desc: amcast.Descriptor{ID: types.MessageID{Origin: 1, Seq: 2}, Dest: types.NewGroupSet(0, 1), Payload: p, Stage: amcast.Stage1}},
		"amcast.Batch": []amcast.Descriptor{{ID: types.MessageID{Origin: 1, Seq: 2}, Dest: types.NewGroupSet(0), Payload: p},
			{ID: types.MessageID{Origin: 1, Seq: 3}, Dest: types.NewGroupSet(0), Payload: p}},
		"abcast.BundleMsg": abcast.BundleMsg{Round: 3, Set: []abcast.Record{{ID: types.MessageID{Origin: 1, Seq: 2}, Payload: p}}},
	} {
		frame, err := wire.AppendFrame(nil, 1, "a1", 0, v)
		if err != nil {
			t.Fatal(err)
		}
		body := frame[4:]
		at := bytes.LastIndex(body, p) // the last payload ends the frame
		for cut := at; cut < len(body); cut++ {
			if _, _, err := walk(body[:cut]); err == nil {
				t.Errorf("%s: a frame cut at %d of %d decoded", name, cut, len(body))
			}
		}
		long := bytes.Clone(body)
		long[at-1]++ // the last payload's one-byte length prefix
		if _, _, err := walk(long); err == nil {
			t.Errorf("%s: a payload length past the frame decoded", name)
		}
	}
}

func TestValueRoundTrip(t *testing.T) {
	for name, v := range roundTripValues() {
		t.Run(name, func(t *testing.T) {
			buf := wire.AppendValue(nil, v)
			got, rest, err := wire.DecodeValue(buf)
			if err != nil {
				t.Fatalf("decode: %v", err)
			}
			if len(rest) != 0 {
				t.Fatalf("decode left %d trailing bytes", len(rest))
			}
			if !reflect.DeepEqual(got, v) {
				t.Fatalf("round trip:\n got %#v\nwant %#v", got, v)
			}
		})
	}
}

func TestFrameRoundTrip(t *testing.T) {
	for name, v := range roundTripValues() {
		t.Run(name, func(t *testing.T) {
			buf, err := wire.AppendFrame(nil, 3, "a1.cons", -17, v)
			if err != nil {
				t.Fatalf("encode: %v", err)
			}
			var scratch []byte
			f, err := readFrame(bytes.NewReader(buf), &scratch)
			if err != nil {
				t.Fatalf("read: %v", err)
			}
			if f.From != 3 || f.Proto != "a1.cons" || f.TS != -17 {
				t.Fatalf("envelope mismatch: %+v", f)
			}
			if !reflect.DeepEqual(f.Body, v) {
				t.Fatalf("body mismatch:\n got %#v\nwant %#v", f.Body, v)
			}
		})
	}
}

// TestFramesShareOneBuffer pins the transport's buffer-reuse contract:
// consecutive frames encoded into one buffer and streamed through one
// reader with one scratch buffer must decode independently (decoded bodies
// own their memory).
func TestFramesShareOneBuffer(t *testing.T) {
	var stream []byte
	var err error
	stream, err = wire.AppendFrame(stream, 0, "t", 1, "first")
	if err != nil {
		t.Fatal(err)
	}
	stream, err = wire.AppendFrame(stream, 1, "t", 2, []byte{9, 9})
	if err != nil {
		t.Fatal(err)
	}
	r := bytes.NewReader(stream)
	var scratch []byte
	f1, err := readFrame(r, &scratch)
	if err != nil {
		t.Fatal(err)
	}
	f2, err := readFrame(r, &scratch)
	if err != nil {
		t.Fatal(err)
	}
	if f1.Body != "first" || !reflect.DeepEqual(f2.Body, []byte{9, 9}) {
		t.Fatalf("stream decode: %+v %+v", f1, f2)
	}
}

func TestDecodeFrameRejectsCorruption(t *testing.T) {
	good, err := wire.AppendFrame(nil, 1, "p", 0, "x")
	if err != nil {
		t.Fatal(err)
	}
	body := good[4:] // strip length prefix
	cases := map[string][]byte{
		"empty":        {},
		"truncated":    body[:len(body)-2],
		"trailing":     append(append([]byte(nil), body...), 0xFF),
		"unknown-kind": {0x02, 0x01, 'p', 0x00, 0xEE},
		"huge-slice": func() []byte {
			// A KindABcastRecords value claiming 2^40 records.
			b := []byte{0x02, 0x01, 'p', 0x00, byte(wire.KindABcastRecords)}
			return wire.AppendUvarint(b, 1<<40)
		}(),
	}
	for name, data := range cases {
		if _, _, err := walk(data); err == nil {
			t.Errorf("%s: decode accepted corrupt input", name)
		}
	}
}

func TestReadFrameRejectsOversizedLength(t *testing.T) {
	hdr := []byte{0xFF, 0xFF, 0xFF, 0xFF}
	var scratch []byte
	if _, err := readFrame(bytes.NewReader(hdr), &scratch); err == nil {
		t.Fatal("oversized length prefix accepted")
	}
}

// TestUnencodableBodyErrors: a payload even gob rejects must surface as an
// AppendFrame error, not a panic, and must leave the buffer unchanged.
func TestUnencodableBodyErrors(t *testing.T) {
	buf := []byte{1, 2, 3}
	out, err := wire.AppendFrame(buf, 0, "p", 0, make(chan int))
	if err == nil {
		t.Fatal("channel payload encoded")
	}
	if !strings.Contains(err.Error(), "gob") {
		t.Fatalf("unexpected error: %v", err)
	}
	if !bytes.Equal(out, buf) {
		t.Fatalf("buffer modified on failed encode: %v", out)
	}
}

// TestAppendFrameRejectsOversizedBody: a frame no reader would accept is
// rejected at the sender (the transport drops it and keeps the
// connection), instead of being written and livelocking the link.
func TestAppendFrameRejectsOversizedBody(t *testing.T) {
	huge := make([]byte, wire.MaxFrame+16)
	out, err := wire.AppendFrame(nil, 0, "p", 0, huge)
	if err == nil {
		t.Fatal("oversized body encoded")
	}
	if len(out) != 0 {
		t.Fatalf("buffer not reset on oversize: %d bytes", len(out))
	}
}

func TestInternReturnsCanonical(t *testing.T) {
	a := wire.Intern([]byte("a1.cons"))
	b := wire.Intern([]byte("a1.cons"))
	if a != b {
		t.Fatal("intern returned different strings")
	}
}

// readFrame reads one plain frame from r as a transport reader does: its
// bytes into *scratch, then walk.
func readFrame(r io.Reader, scratch *[]byte) (wire.Frame, error) {
	buf, err := wire.ReadFrameBytes(r, scratch)
	if err != nil {
		return wire.Frame{}, err
	}
	from, msgs, err := walk(buf)
	if err == nil && len(msgs) != 1 {
		err = fmt.Errorf("%d frames, want 1", len(msgs))
	}
	if err != nil {
		return wire.Frame{}, err
	}
	return wire.Frame{From: from, Proto: msgs[0].proto, TS: msgs[0].ts, Body: msgs[0].body}, nil
}
