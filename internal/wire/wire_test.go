package wire_test

import (
	"bytes"
	"encoding/gob"
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

// roundTripValues is the full table of registered message types plus every
// scalar payload kind; TestValueRoundTrip and FuzzWireRoundTrip's seed
// corpus both walk it.
func roundTripValues() map[string]any {
	msg := rmcast.Message{
		ID:      types.MessageID{Origin: 3, Seq: 41},
		Dest:    types.NewGroupSet(0, 2),
		Payload: "payload",
	}
	descs := []amcast.Descriptor{
		{ID: types.MessageID{Origin: 1, Seq: 7}, Dest: types.NewGroupSet(1), Payload: 99, TS: 12, Stage: amcast.Stage2},
		{ID: types.MessageID{Origin: 2, Seq: 8}, Dest: types.NewGroupSet(0, 1), Payload: nil, TS: 13, Stage: amcast.Stage0},
	}
	recs := []abcast.Record{
		{ID: types.MessageID{Origin: 0, Seq: 1}, Payload: "a"},
		{ID: types.MessageID{Origin: 5, Seq: 2}, Payload: uint64(7)},
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
		"consensus.ForwardMsg":  consensus.ForwardMsg{Instance: 4, Value: descs},
		"consensus.PrepareMsg":  consensus.PrepareMsg{Instance: 5, Ballot: 9},
		"consensus.PromiseMsg":  consensus.PromiseMsg{Instance: 5, Ballot: 9, VBallot: -1, VValue: nil},
		"consensus.AcceptMsg":   consensus.AcceptMsg{Instance: 6, Ballot: 3, Value: recs},
		"consensus.AcceptedMsg": consensus.AcceptedMsg{Instance: 6, Ballot: 3},
		"consensus.DecideMsg":   consensus.DecideMsg{Instance: 7, Ballot: -1, Value: descs},
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
		"svc.CertReq": svc.CertReq{Session: 9, Seq: 12},
		"svc.CertShare": svc.CertShare{Session: 9, Seq: 12, OK: true,
			ID: types.MessageID{Origin: 4, Seq: 7}, Group: 1, Order: 33,
			Hash: []byte("hhhh"), Proc: 5, MAC: []byte("mmmm")},
	})
	return vals
}

// command is the service command of commandCarriers with the given seq.
func command(seq uint64) svc.Command {
	return svc.Command{Session: 1 << 20, Seq: seq, Op: svc.EncodePut(map[string]string{"g1/k": "v"})}
}

// commandCarriers are the A1 values that carry service commands 1–4, which
// A1 keeps encoded on receipt: a batch (with one gob payload, which it
// decodes), a (TS, m) and a pull.
func commandCarriers() map[string]any {
	dest := types.NewGroupSet(0, 1)
	return map[string]any{
		"amcast.CommandBatch": []amcast.Descriptor{
			{ID: types.MessageID{Origin: 2, Seq: 30}, Dest: dest, Payload: command(1), TS: 1 << 40},
			{ID: types.MessageID{Origin: 2, Seq: 31}, Dest: dest, Payload: gobPayload{Name: "g", N: 1}, TS: 1<<40 + 3},
			{ID: types.MessageID{Origin: 5, Seq: 9}, Dest: types.NewGroupSet(1), Payload: command(2), TS: 1<<40 + 9},
		},
		"amcast.CommandTSMsg": amcast.TSMsg{Desc: amcast.Descriptor{ID: types.MessageID{Origin: 1, Seq: 4}, Dest: dest,
			Payload: command(3), TS: 1 << 41, Stage: amcast.Stage1}},
		"amcast.CommandPullMsg": amcast.PullMsg{Desc: amcast.Descriptor{ID: types.MessageID{Origin: 3, Seq: 5}, Dest: dest,
			Payload: command(4), TS: 1<<41 + 1, Stage: amcast.Stage1}},
	}
}

// settled returns a decoded body in the form its sender built it: a bundle
// off the wire keeps its record set encoded until asked (abcast.Records), a
// descriptor its payload (amcast.Descriptor.Value).
func settled(t *testing.T, v any) any {
	desc := func(d amcast.Descriptor) amcast.Descriptor {
		return amcast.Descriptor{ID: d.ID, Dest: d.Dest, Payload: d.Value(), TS: d.TS, Stage: d.Stage}
	}
	switch m := v.(type) {
	case abcast.BundleMsg:
		set, err := m.Records()
		if err != nil {
			t.Fatalf("bundle records: %v", err)
		}
		return abcast.BundleMsg{Round: m.Round, Set: set}
	case []amcast.Descriptor:
		ds := make([]amcast.Descriptor, len(m))
		for i, d := range m {
			ds[i] = desc(d)
		}
		return ds
	case amcast.TSMsg:
		return amcast.TSMsg{Desc: desc(m.Desc)}
	case amcast.PullMsg:
		return amcast.PullMsg{Desc: desc(m.Desc)}
	}
	return v
}

// TestCorruptCommandRejectedOnReceipt truncates each value of
// commandCarriers inside one of its commands, or sets one of the command's
// bytes to 0x00 or 0xFF, at every byte. The frame decode must fail exactly
// where it failed when A1 decoded every payload on receipt — the masks were
// recorded then, one character per mutation ('x' failed), a space between
// commands — and a frame it accepts holds payloads that decode.
func TestCorruptCommandRejectedOnReceipt(t *testing.T) {
	const one = "xxxxx.xx.x.xx.xxxxx..x..x..x..x..x..x..x..x.."
	want := map[string]string{
		"amcast.CommandBatch":   one + " " + one,
		"amcast.CommandTSMsg":   one,
		"amcast.CommandPullMsg": one,
	}
	for name, v := range commandCarriers() {
		frame, err := wire.AppendFrame(nil, 1, "a1", 0, v)
		if err != nil {
			t.Fatal(err)
		}
		body := frame[4:]
		var mask []byte
		for seq := uint64(1); seq <= 4; seq++ {
			enc := wire.AppendValue(nil, command(seq))
			at := bytes.Index(body, enc)
			if at < 0 {
				continue
			}
			for i := at; i < at+len(enc); i++ {
				for _, corrupt := range []func() []byte{
					func() []byte { return bytes.Clone(body[:i]) },
					func() []byte { b := bytes.Clone(body); b[i] = 0; return b },
					func() []byte { b := bytes.Clone(body); b[i] = 0xFF; return b },
				} {
					f, err := wire.DecodeFrame(corrupt())
					if err != nil {
						mask = append(mask, 'x')
						continue
					}
					mask = append(mask, '.')
					settled(t, f.Body) // Value panics on a payload that does not decode
				}
			}
			mask = append(mask, ' ')
		}
		if got := string(bytes.TrimSpace(mask)); got != want[name] {
			t.Errorf("%s: rejection mask\n got %q\nwant %q", name, got, want[name])
		}
	}
	// A gob blob is only measured by SkipValue, so A1 decodes it on receipt:
	// a garbled one, its length intact, still fails the frame.
	frame, err := wire.AppendFrame(nil, 1, "a1", 0, commandCarriers()["amcast.CommandBatch"])
	if err != nil {
		t.Fatal(err)
	}
	blob := wire.AppendValue(nil, gobPayload{Name: "g", N: 1})
	at := bytes.Index(frame, blob)
	for i := at + len(blob)/2; i < at+len(blob); i++ {
		frame[i] = 0xFF
	}
	if _, err := wire.DecodeFrame(frame[4:]); err == nil {
		t.Error("a batch with a garbled gob payload decoded")
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
			if got = settled(t, got); !reflect.DeepEqual(got, v) {
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
			f, err := wire.ReadFrame(bytes.NewReader(buf), &scratch)
			if err != nil {
				t.Fatalf("read: %v", err)
			}
			if f.From != 3 || f.Proto != "a1.cons" || f.TS != -17 {
				t.Fatalf("envelope mismatch: %+v", f)
			}
			if f.Body = settled(t, f.Body); !reflect.DeepEqual(f.Body, v) {
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
	f1, err := wire.ReadFrame(r, &scratch)
	if err != nil {
		t.Fatal(err)
	}
	f2, err := wire.ReadFrame(r, &scratch)
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
		if _, err := wire.DecodeFrame(data); err == nil {
			t.Errorf("%s: decode accepted corrupt input", name)
		}
	}
}

func TestReadFrameRejectsOversizedLength(t *testing.T) {
	hdr := []byte{0xFF, 0xFF, 0xFF, 0xFF}
	var scratch []byte
	if _, err := wire.ReadFrame(bytes.NewReader(hdr), &scratch); err == nil {
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
