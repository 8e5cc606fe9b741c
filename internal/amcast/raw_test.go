package amcast

// The raw payload path: a descriptor decoded off the wire keeps a payload it
// could check without building it in its encoding, every payload of a batch
// slicing one copy of the batch's bytes. These tests pin what that buys
// (allocations that do not grow with the batch), what it must not break
// (a reused receive buffer, byte-identical re-encoding, WAL replay), and
// that a payload still decodes where A1 needs one.

import (
	"bytes"
	"fmt"
	"path/filepath"
	"reflect"
	"testing"

	"wanamcast/internal/storage"
	"wanamcast/internal/svc"
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
			Payload: svc.Command{Session: 9, Seq: uint64(i + 1), Op: op}, TS: uint64(1_000_000 + i)}
	}
	return ds
}

// descsOf returns the descriptors a decoded value carries.
func descsOf(t *testing.T, v any) []Descriptor {
	t.Helper()
	switch m := v.(type) {
	case []Descriptor:
		return m
	case TSMsg:
		return []Descriptor{m.Desc}
	case PullMsg:
		return []Descriptor{m.Desc}
	}
	t.Fatalf("unexpected value %T", v)
	return nil
}

// rawValues is one encoded batch, (TS, m) and pull, each carrying commands.
func rawValues() (want []Descriptor, vals map[string]any) {
	want = commandBatch(8, types.NewGroupSet(0, 1))
	return want, map[string]any{"batch": want, "ts": TSMsg{Desc: want[3]}, "pull": PullMsg{Desc: want[5]}}
}

// TestRawDecodeAllocs: a batch decodes in a constant number of allocations —
// the slice, one copy of its bytes, the interface — however many commands
// it carries; a (TS, m) in its copy and its interface; a destination set
// seen before in none.
func TestRawDecodeAllocs(t *testing.T) {
	dest := types.NewGroupSet(0, 1)
	allocs := func(v any) float64 {
		enc := wire.AppendValue(nil, v)
		if _, _, err := wire.DecodeValue(enc); err != nil {
			t.Fatal(err)
		}
		return testing.AllocsPerRun(200, func() { _, _, _ = wire.DecodeValue(enc) })
	}
	one, eight := allocs(commandBatch(1, dest)), allocs(commandBatch(8, dest))
	if one != eight || eight > 4 {
		t.Errorf("batch decode: %.1f allocs for 1 command, %.1f for 8; want the same, at most 4", one, eight)
	}
	if got := allocs(TSMsg{Desc: commandBatch(1, dest)[0]}); got > 2 {
		t.Errorf("TSMsg decode: %.1f allocs, want at most 2", got)
	}
	t.Logf("batch of 1 and of 8: %.0f allocs; TSMsg: %.0f", one, allocs(TSMsg{Desc: commandBatch(1, dest)[0]}))
}

// TestRawPayloadsOutliveTheReceiveBuffer: the transport's read loop decodes
// every frame out of one scratch buffer it then overwrites. A payload kept
// encoded must own its bytes, or the next frame rewrites it.
func TestRawPayloadsOutliveTheReceiveBuffer(t *testing.T) {
	want, vals := rawValues()
	for name, v := range vals {
		buf := wire.AppendValue(nil, v)
		got, _, err := wire.DecodeValue(buf)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for i := range buf {
			buf[i] = 0xAA
		}
		for _, d := range descsOf(t, got) {
			if d.raw == nil {
				t.Fatalf("%s: %v decoded its command on receipt", name, d.ID)
			}
			if p := d.Value(); !reflect.DeepEqual(p, want[d.ID.Seq-1].Payload) {
				t.Errorf("%s: %v payload %#v, want %#v", name, d.ID, p, want[d.ID.Seq-1].Payload)
			}
		}
	}
}

// TestRawReencodesByteIdentically: a value decoded and re-encoded without a
// payload read — a leader's Accept of a forwarded batch, a catch-up Decide,
// a WAL record — reproduces the bytes it came in.
func TestRawReencodesByteIdentically(t *testing.T) {
	_, vals := rawValues()
	for name, v := range vals {
		frame, err := wire.AppendFrame(nil, 2, "a1", 5, v)
		if err != nil {
			t.Fatal(err)
		}
		f, err := wire.DecodeFrame(frame[4:])
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		again, err := wire.AppendFrame(nil, f.From, f.Proto, f.TS, f.Body)
		if err != nil || !bytes.Equal(again, frame) {
			t.Errorf("%s: re-encoded %x (err %v), want %x", name, again, err, frame)
		}
	}
}

// TestRawBatchReplaysFromTheWAL: an acceptor logs the batch it accepted and
// then the decision, both as they came off the wire. Replayed from a memory
// store (the values as logged) and from a disk store (re-encoded verbatim,
// decoded again), the decision delivers the commands that were cast.
func TestRawBatchReplaysFromTheWAL(t *testing.T) {
	topo := types.NewTopology(1, 3)
	want := commandBatch(4, types.NewGroupSet(0))
	got, _, err := wire.DecodeValue(wire.AppendValue(nil, want))
	if err != nil {
		t.Fatal(err)
	}
	accepted := got.([]Descriptor)
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
		if err := store.Commit(); err != nil {
			t.Fatal(err)
		}
		a, delivered := replayLog(t, topo, 0, store, rigOpts{}, everyRecord)
		if len(delivered) != len(want) {
			t.Fatalf("%s: replay delivered %v, want %d messages", name, delivered, len(want))
		}
		for i, dr := range a.Archive() {
			if dr.ID != want[i].ID || !reflect.DeepEqual(dr.Payload, want[i].Payload) {
				t.Errorf("%s: delivery %d is %v %#v, want %v %#v", name, i, dr.ID, dr.Payload, want[i].ID, want[i].Payload)
			}
		}
		_ = store.Close()
	}
}
