package amcast

// The payload path: the ordering core carries a payload as the bytes its
// caster's edge encoded, copies them out of a receive buffer once per message
// or batch, and never parses them. These tests pin what that buys
// (allocations that do not grow with a batch), what it must not break (a
// reused receive buffer, byte-identical re-encoding, WAL replay).

import (
	"bytes"
	"fmt"
	"net"
	"path/filepath"
	"testing"
	"time"

	"wanamcast/internal/abcast"
	"wanamcast/internal/config"
	"wanamcast/internal/node"
	"wanamcast/internal/rmcast"
	"wanamcast/internal/statesync"
	"wanamcast/internal/storage"
	"wanamcast/internal/svc"
	"wanamcast/internal/transport/tcp"
	"wanamcast/internal/types"
	"wanamcast/internal/wire"
)

// commandBatch returns n s0 descriptors carrying service commands, as a
// proposer's fill builds them.
func commandBatch(n int, dest types.GroupSet) []Descriptor {
	ds := make([]Descriptor, n)
	for i := range ds {
		op := svc.EncodePut(map[string]string{fmt.Sprintf("g0/k%d", i): fmt.Sprintf("value-%d", i)})
		ds[i] = Descriptor{ID: types.MessageID{Origin: 4, Seq: uint64(i + 1)}, Dest: dest,
			Payload: wire.AppendValue(nil, svc.Command{Session: 9, Seq: uint64(i + 1), Op: op}), TS: uint64(1_000_000 + i)}
	}
	return ds
}

// records returns the A2 records of ds.
func records(ds []Descriptor) []abcast.Record {
	rs := make([]abcast.Record, len(ds))
	for i, d := range ds {
		rs[i] = abcast.Record{ID: d.ID, Payload: d.Payload}
	}
	return rs
}

// TestBatchDecodeAllocsIndependentOfSize: a batch decodes in a constant
// number of allocations — the slice, one copy of its payloads, the
// interface — however many commands it carries; a (TS, m) in its copy and
// its interface; a destination set seen before in none.
func TestBatchDecodeAllocsIndependentOfSize(t *testing.T) {
	dest := types.NewGroupSet(0, 1)
	allocs := func(v any) float64 {
		enc := wire.AppendValue(nil, v)
		if _, _, err := wire.DecodeValue(enc); err != nil {
			t.Fatal(err)
		}
		return testing.AllocsPerRun(200, func() { _, _, _ = wire.DecodeValue(enc) })
	}
	for name, batch := range map[string]func(n int) any{
		"a1 batch":   func(n int) any { return commandBatch(n, dest) },
		"a2 records": func(n int) any { return records(commandBatch(n, dest)) },
	} {
		one, eight := allocs(batch(1)), allocs(batch(8))
		if one != eight || eight > 3 {
			t.Errorf("%s decode: %.1f allocs for 1 command, %.1f for 8; want the same, at most 3", name, one, eight)
		}
		t.Logf("%s of 1 and of 8: %.0f allocs", name, one)
	}
	if got := allocs(TSMsg{Desc: commandBatch(1, dest)[0]}); got > 2 {
		t.Errorf("TSMsg decode: %.1f allocs, want at most 2", got)
	}
}

// TestPayloadsOutliveTheReceiveBuffer: the live runtime decodes every frame
// out of a receive buffer it then reuses. Every value that carries payloads
// must own them, or the next frame rewrites them: each is decoded, its buffer
// scribbled over, and re-encoded to the bytes it came in. The same holds on
// the live receive path itself, where a lane decodes each frame straight into
// its handler out of a buffer its read loop lent, which later envelopes
// overwrite. A WAL record is decoded the same way from a replayed segment, and
// a disk store's replay gives back the records appended.
func TestPayloadsOutliveTheReceiveBuffer(t *testing.T) {
	ds := commandBatch(8, types.NewGroupSet(0, 1))
	rs := records(ds)
	a1 := statesync.Resp[DeliverRec, SyncTail]{Base: 3, Next: 5,
		Recs: []DeliverRec{{ID: ds[0].ID, Dest: ds[0].Dest, TS: 7, Payload: ds[0].Payload}, {ID: ds[1].ID, Dest: ds[1].Dest, TS: 9, Payload: ds[1].Payload}},
		Tail: &SyncTail{Applied: 4, K: 11, Pending: ds[2:5]}}
	a2 := statesync.Resp[abcast.RoundSet, abcast.SyncTail]{Base: 1, Next: 3,
		Recs: []abcast.RoundSet{{Round: 1, Set: rs[:2]}, {Round: 2, Set: rs[2:3]}},
		Tail: &abcast.SyncTail{Barrier: 4, Bundles: []abcast.GroupBundle{{Round: 3, Group: 1, Set: rs[3:6]}}}}
	vals := map[string]any{
		"rmcast.DataMsg":   rmcast.DataMsg{M: rmcast.Message{ID: ds[0].ID, Dest: ds[0].Dest, Payload: ds[0].Payload}},
		"a1 batch":         ds,
		"a1 (TS, m)":       TSMsg{Desc: ds[3]},
		"a1 pull":          PullMsg{Desc: ds[5]},
		"a2 bundle":        abcast.BundleMsg{Round: 6, Set: rs},
		"a2 records":       rs,
		"a1 state answer":  a1,
		"a2 state answer":  a2,
		"wal batch record": storage.Record{Kind: storage.KindAccept, Proto: "a1.cons", Inst: 1, Value: string(wire.AppendTagged(nil, ds))},
		"wal admit record": storage.Record{Kind: storage.KindAdmit, Proto: "a1", ID: ds[6].ID, Dest: ds[6].Dest, Payload: ds[6].Payload},
	}
	for name, v := range vals {
		var buf, want []byte
		var got any
		var err error
		if rec, ok := v.(storage.Record); ok {
			buf = rec.AppendTo(nil)
			want = bytes.Clone(buf)
			got, _, err = storage.DecodeRecord(buf)
		} else {
			buf = wire.AppendValue(nil, v)
			want = bytes.Clone(buf)
			got, _, err = wire.DecodeValue(buf)
		}
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for i := range buf {
			buf[i] = 0xAA
		}
		var again []byte
		if rec, ok := got.(storage.Record); ok {
			again = rec.AppendTo(nil)
		} else {
			again = wire.AppendValue(nil, got)
		}
		if !bytes.Equal(again, want) {
			t.Errorf("%s: a payload did not outlive its receive buffer:\n got %x\nwant %x", name, again, want)
		}
	}
	for name, got := range lentAndOverwritten(t, vals) {
		if again, want := wire.AppendValue(nil, got), wire.AppendValue(nil, vals[name]); !bytes.Equal(again, want) {
			t.Errorf("%s: a payload did not outlive its lent envelope:\n got %x\nwant %x", name, again, want)
		}
	}

	disk, err := storage.OpenDisk(filepath.Join(t.TempDir(), "wal"), storage.DiskOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer disk.Close()
	wal := []storage.Record{
		{Kind: storage.KindAdmit, Proto: "a1", ID: ds[0].ID, Dest: ds[0].Dest, Payload: ds[0].Payload},
		{Kind: storage.KindTSProp, Proto: "a1", Aux: 1, Value: string(wire.AppendTagged(nil, TSMsg{Desc: ds[1]}))},
		{Kind: storage.KindDecide, Proto: "a1.cons", Inst: 2, Value: string(wire.AppendTagged(nil, ds))},
		{Kind: storage.KindDeliver, Proto: "a1", Inst: 7, ID: ds[2].ID, Dest: ds[2].Dest, Payload: ds[2].Payload},
		{Kind: storage.KindBundle, Proto: "a2", Inst: 3, Aux: 1, Value: string(wire.AppendTagged(nil, rs))},
		{Kind: storage.KindRound, Proto: "a2", Inst: 4, Value: string(wire.AppendTagged(nil, rs[:3]))},
	}
	for _, rec := range wal {
		if err := disk.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	storage.NewLog(disk).Commit()
	var replayed []storage.Record
	if err := disk.Replay(0, func(rec storage.Record) error { replayed = append(replayed, rec); return nil }); err != nil {
		t.Fatal(err)
	}
	if len(replayed) != len(wal) {
		t.Fatalf("disk replay gave %d records, want %d", len(replayed), len(wal))
	}
	for i, rec := range replayed {
		if got, want := rec.AppendTo(nil), wal[i].AppendTo(nil); !bytes.Equal(got, want) {
			t.Errorf("disk replay record %d (kind %d):\n got %x\nwant %x", i, rec.Kind, got, want)
		}
	}
}

// keeper hands every value it receives to kept, as its handler decoded it.
type keeper struct{ kept chan any }

func keep[T any]() node.Handler {
	return node.On(func(k keeper, _ types.ProcessID, m T) { k.kept <- m })
}

func (k keeper) Proto() string { return "keep" }
func (k keeper) Start()        {}
func (k keeper) Handlers() []node.Handler {
	return []node.Handler{keep[rmcast.DataMsg](), keep[[]Descriptor](), keep[TSMsg](),
		keep[PullMsg](), keep[abcast.BundleMsg](), keep[[]abcast.Record](),
		keep[statesync.Resp[DeliverRec, SyncTail]](), keep[statesync.Resp[abcast.RoundSet, abcast.SyncTail]](),
		keep[[]byte]()}
}

// lentAndOverwritten sends each value but the WAL records to a live
// runtime's keeper as a frame of its own, followed by two filler frames twice
// its size, and returns what the keeper's handlers decoded. A read loop lends
// each envelope's buffer to the lane and takes it back for a later one, and it
// reads one envelope ahead: by the time the second filler has run, the
// value's buffer has been overwritten.
func lentAndOverwritten(t *testing.T, vals map[string]any) map[string]any {
	const port = 22600
	rt := tcp.New(tcp.Config{Topo: types.NewTopology(1, 2), Config: config.Config{BasePort: port, Local: []types.ProcessID{0}}})
	kept := make(chan any)
	rt.Proc(0).Register(keeper{kept})
	if err := rt.Start(); err != nil {
		t.Fatal(err)
	}
	defer rt.Stop()
	conn, err := net.Dial("tcp", fmt.Sprintf("127.0.0.1:%d", port))
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	roundTrip := func(v any) any {
		frame, err := wire.AppendFrame(nil, 1, "keep", 0, v)
		if err == nil {
			_, err = conn.Write(frame)
		}
		if err != nil {
			t.Fatal(err)
		}
		select {
		case got := <-kept:
			return got
		case <-time.After(5 * time.Second):
			t.Fatalf("a %T frame was never handled", v)
			return nil
		}
	}
	out := make(map[string]any)
	for name, v := range vals {
		if _, wal := v.(storage.Record); !wal {
			out[name] = roundTrip(v)
			filler := bytes.Repeat([]byte{0xAA}, 2*len(wire.AppendValue(nil, v)))
			roundTrip(filler)
			roundTrip(filler)
		}
	}
	return out
}

// rawValues is one encoded batch, (TS, m) and pull, each carrying commands.
func rawValues() map[string]any {
	ds := commandBatch(8, types.NewGroupSet(0, 1))
	return map[string]any{"batch": ds, "ts": TSMsg{Desc: ds[3]}, "pull": PullMsg{Desc: ds[5]}}
}

// TestRawReencodesByteIdentically: a value decoded and re-encoded — a
// leader's Accept of a forwarded batch, a catch-up Decide, a WAL record —
// reproduces the bytes it came in.
func TestRawReencodesByteIdentically(t *testing.T) {
	for name, v := range rawValues() {
		frame, err := wire.AppendFrame(nil, 2, "a1", 5, v)
		if err != nil {
			t.Fatal(err)
		}
		f, value, err := wire.FrameValue(frame[4:])
		var body any
		if err == nil {
			body, _, err = wire.DecodeValue(value)
		}
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		again, err := wire.AppendFrame(nil, f.From, f.Proto, f.TS, body)
		if err != nil || !bytes.Equal(again, frame) {
			t.Errorf("%s: re-encoded %x (err %v), want %x", name, again, err, frame)
		}
	}
}

// TestRawBatchReplaysFromTheWAL: an acceptor logs the batch it accepted and
// then the decision, both as they came off the wire: the bytes its proposer
// encoded. Replayed from a memory store and from a disk store, the decision
// delivers the commands that were cast.
func TestRawBatchReplaysFromTheWAL(t *testing.T) {
	topo := types.NewTopology(1, 3)
	want := commandBatch(4, types.NewGroupSet(0))
	accepted := string(wire.AppendTagged(nil, want)) // the value as its proposer encoded it
	for name, open := range map[string]func() storage.Store{
		"mem": func() storage.Store { return storage.NewMem() },
		"disk": func() storage.Store {
			d, err := storage.OpenDisk(filepath.Join(t.TempDir(), "wal"), storage.DiskOptions{})
			if err != nil {
				t.Fatal(err)
			}
			return d
		},
	} {
		store := open()
		for _, rec := range []storage.Record{
			{Kind: storage.KindAccept, Proto: "a1.cons", Inst: 1, Value: accepted},
			{Kind: storage.KindDecide, Proto: "a1.cons", Inst: 1, Value: accepted},
		} {
			if err := store.Append(rec); err != nil {
				t.Fatal(err)
			}
		}
		storage.NewLog(store).Commit()
		a, delivered := replayLog(t, topo, 0, store, rigOpts{}, everyRecord)
		if len(delivered) != len(want) {
			t.Fatalf("%s: replay delivered %v, want %d messages", name, delivered, len(want))
		}
		for i, dr := range a.Archive() {
			if dr.ID != want[i].ID || !bytes.Equal(dr.Payload, want[i].Payload) {
				t.Errorf("%s: delivery %d is %v %x, want %v %x", name, i, dr.ID, dr.Payload, want[i].ID, want[i].Payload)
			}
		}
		_ = store.Close()
	}
}
