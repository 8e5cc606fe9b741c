package storage

import (
	"encoding/binary"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"wanamcast/internal/types"
	"wanamcast/internal/wire"
)

func testRecords() []Record {
	return []Record{
		{Kind: KindPromise, Proto: "a1.cons", Inst: 3, Ballot: 7},
		{Kind: KindAccept, Proto: "a1.cons", Inst: 3, Ballot: 7, Value: "batch"},
		{Kind: KindDecide, Proto: "a2.cons", Inst: 9, Value: string(wire.AppendTagged(nil, int64(42)))},
		{Kind: KindTSProp, Proto: "a1", Inst: 12, Aux: 2,
			ID: types.MessageID{Origin: 4, Seq: 9}, Dest: types.NewGroupSet(0, 2)},
		{Kind: KindDeliver, Proto: "a1", Inst: 5,
			ID: types.MessageID{Origin: 1, Seq: 2}, Dest: types.NewGroupSet(1), Payload: []byte{1, 2, 3}},
		{Kind: KindRound, Proto: "a2", Inst: 4},
	}
}

func TestRecordRoundTrip(t *testing.T) {
	for _, rec := range testRecords() {
		buf := rec.AppendTo(nil)
		got, rest, err := DecodeRecord(buf)
		if err != nil {
			t.Fatalf("decode %+v: %v", rec, err)
		}
		if len(rest) != 0 {
			t.Fatalf("decode %+v left %d bytes", rec, len(rest))
		}
		if !reflect.DeepEqual(got, rec) {
			t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", got, rec)
		}
	}
}

func TestDiskAppendReplay(t *testing.T) {
	dir := t.TempDir()
	d, err := OpenDisk(dir, DiskOptions{})
	if err != nil {
		t.Fatal(err)
	}
	want := testRecords()
	for _, rec := range want {
		if err := d.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := barrier(d); err != nil {
		t.Fatal(err)
	}
	var got []Record
	if err := d.Replay(0, func(rec Record) error { got = append(got, rec); return nil }); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("replay mismatch:\n got %+v\nwant %+v", got, want)
	}
	// Partial replay honors the start index.
	got = nil
	if err := d.Replay(4, func(rec Record) error { got = append(got, rec); return nil }); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want[4:]) {
		t.Fatalf("partial replay mismatch: got %+v", got)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestDiskReopenContinues(t *testing.T) {
	dir := t.TempDir()
	d, err := OpenDisk(dir, DiskOptions{})
	if err != nil {
		t.Fatal(err)
	}
	recs := testRecords()
	for _, rec := range recs[:3] {
		if err := d.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	d2, err := OpenDisk(dir, DiskOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	for _, rec := range recs[3:] {
		if err := d2.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := barrier(d2); err != nil {
		t.Fatal(err)
	}
	var got []Record
	if err := d2.Replay(0, func(rec Record) error { got = append(got, rec); return nil }); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, recs) {
		t.Fatalf("reopen replay mismatch:\n got %+v\nwant %+v", got, recs)
	}
}

func TestDiskTornTailTruncated(t *testing.T) {
	recs := testRecords()
	for _, c := range []struct {
		name    string
		corrupt func(raw []byte) []byte
		kept    int // the records before the damage
	}{
		{"chopped tail", func(raw []byte) []byte { return raw[:len(raw)-5] }, len(recs) - 1},
		{"bad CRC mid-segment", func(raw []byte) []byte {
			off := len(segMagic)
			for range 3 {
				off += frameHeader + int(binary.LittleEndian.Uint32(raw[off:]))
			}
			raw[off+4] ^= 0xff // the fourth frame's CRC
			return raw
		}, 3},
	} {
		t.Run(c.name, func(t *testing.T) {
			dir := t.TempDir()
			d, err := OpenDisk(dir, DiskOptions{})
			if err != nil {
				t.Fatal(err)
			}
			for _, rec := range recs {
				if err := d.Append(rec); err != nil {
					t.Fatal(err)
				}
			}
			if err := d.Close(); err != nil {
				t.Fatal(err)
			}
			// Corrupt the single segment.
			segs, err := filepath.Glob(filepath.Join(dir, "wal-*.log"))
			if err != nil || len(segs) == 0 {
				t.Fatalf("no segments: %v", err)
			}
			raw, err := os.ReadFile(segs[len(segs)-1])
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(segs[len(segs)-1], c.corrupt(raw), 0o644); err != nil {
				t.Fatal(err)
			}
			d2, err := OpenDisk(dir, DiskOptions{})
			if err != nil {
				t.Fatal(err)
			}
			defer d2.Close()
			// The damaged record and all after it are gone; a fresh append
			// continues past the tear and replays after it.
			extra := Record{Kind: KindDecide, Proto: "x", Inst: 99}
			if err := d2.Append(extra); err != nil {
				t.Fatal(err)
			}
			if err := barrier(d2); err != nil {
				t.Fatal(err)
			}
			var got []Record
			if err := d2.Replay(0, func(rec Record) error { got = append(got, rec); return nil }); err != nil {
				t.Fatal(err)
			}
			want := append(append([]Record(nil), recs[:c.kept]...), extra)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("post-tear replay mismatch:\n got %+v\nwant %+v", got, want)
			}
		})
	}
}

func TestDiskSnapshotPrunesAndLoads(t *testing.T) {
	dir := t.TempDir()
	d, err := OpenDisk(dir, DiskOptions{SegmentSize: 64}) // rotate aggressively
	if err != nil {
		t.Fatal(err)
	}
	recs := testRecords()
	for _, rec := range recs {
		if err := d.Append(rec); err != nil {
			t.Fatal(err)
		}
		if err := barrier(d); err != nil {
			t.Fatal(err)
		}
	}
	blob := []byte("snapshot-state")
	if err := d.SaveSnapshot(blob); err != nil {
		t.Fatal(err)
	}
	// Everything before the snapshot must be pruned to (at most) one
	// trailing segment; replay from the snapshot index yields nothing.
	snap, from, err := d.Load()
	if err != nil {
		t.Fatal(err)
	}
	if string(snap) != string(blob) {
		t.Fatalf("snapshot payload mismatch: %q", snap)
	}
	if from != uint64(len(recs)) {
		t.Fatalf("replayFrom = %d, want %d", from, len(recs))
	}
	var got []Record
	if err := d.Replay(from, func(rec Record) error { got = append(got, rec); return nil }); err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Fatalf("replay after snapshot returned %d records", len(got))
	}
	// Records after the snapshot replay normally, across a reopen.
	extra := Record{Kind: KindPromise, Proto: "y", Inst: 1, Ballot: 2}
	if err := d.Append(extra); err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	d2, err := OpenDisk(dir, DiskOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	snap, from, err = d2.Load()
	if err != nil || string(snap) != string(blob) {
		t.Fatalf("reopened load: %q, %v", snap, err)
	}
	got = nil
	if err := d2.Replay(from, func(rec Record) error { got = append(got, rec); return nil }); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, []Record{extra}) {
		t.Fatalf("post-snapshot replay mismatch: %+v", got)
	}
}

func TestMemStore(t *testing.T) {
	m := NewMem()
	recs := testRecords()
	for _, rec := range recs[:4] {
		if err := m.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := m.SaveSnapshot([]byte("s")); err != nil {
		t.Fatal(err)
	}
	for _, rec := range recs[4:] {
		if err := m.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	snap, from, err := m.Load()
	if err != nil || string(snap) != "s" || from != 4 {
		t.Fatalf("load: %q %d %v", snap, from, err)
	}
	var got []Record
	if err := m.Replay(from, func(rec Record) error { got = append(got, rec); return nil }); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, recs[4:]) {
		t.Fatalf("mem replay mismatch: %+v", got)
	}
}

func TestNilLogIsInert(t *testing.T) {
	var l *Log
	l.Append(Record{Kind: KindDecide, Proto: "x"})
	l.Commit()
	if NewLog(nil) != nil {
		t.Fatal("NewLog(nil) should be nil")
	}
}

func TestSections(t *testing.T) {
	var buf []byte
	buf = AppendSection(buf, "a1", []byte("alpha"))
	buf = AppendSection(buf, "a2", nil)
	buf = AppendSection(buf, "svc", []byte{1, 2})
	secs, err := Sections(buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(secs) != 3 || secs[0].Name != "a1" || string(secs[0].Data) != "alpha" ||
		secs[1].Name != "a2" || len(secs[1].Data) != 0 ||
		secs[2].Name != "svc" || len(secs[2].Data) != 2 {
		t.Fatalf("sections mismatch: %+v", secs)
	}
	if _, err := Sections([]byte{250, 250}); err == nil {
		t.Fatal("corrupt sections must error")
	}
}
