package storage

import (
	"encoding/binary"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// FuzzWALReplay feeds arbitrary bytes to the segment replay path as if a
// crash had left them on disk. The invariants: replay never panics, never
// errors on torn/corrupt input (it stops instead), and every record it
// does yield is well-formed — it re-encodes to exactly the body the frame
// carried, so replayed state can never be something the appenders could
// not have written (the property the §2.2 checkers rely on after a
// restart).
func FuzzWALReplay(f *testing.F) {
	// Seeds: an intact segment, a torn one, and raw noise.
	var intact []byte
	intact = append(intact, segMagic...)
	for _, rec := range testRecords() {
		body := rec.AppendTo(nil)
		var hdr [frameHeader]byte
		binary.LittleEndian.PutUint32(hdr[0:], uint32(len(body)))
		binary.LittleEndian.PutUint32(hdr[4:], crc32.Checksum(body, crcTable))
		intact = append(intact, hdr[:]...)
		intact = append(intact, body...)
	}
	f.Add(intact)
	f.Add(intact[:len(intact)-3])
	f.Add([]byte("garbage that is not a segment at all"))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		path := filepath.Join(dir, segName(0))
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		var got []Record
		stopped, err := replaySegment(path, 0, 0, func(rec Record) error {
			got = append(got, rec)
			return nil
		})
		_ = stopped
		if err != nil {
			t.Fatalf("replay errored on fuzzed input: %v", err)
		}
		for _, rec := range got {
			if rec.Kind == KindInvalid {
				t.Fatalf("replay yielded an invalid record: %+v", rec)
			}
			// Round-trip: a yielded record must re-encode and re-decode to
			// itself — no half-parsed state can leak out of the log.
			buf := rec.AppendTo(nil)
			back, rest, derr := DecodeRecord(buf)
			if derr != nil || len(rest) != 0 {
				t.Fatalf("yielded record does not round-trip: %+v (%v)", rec, derr)
			}
			if !recordsEquivalent(back, rec) {
				t.Fatalf("yielded record re-decodes differently:\n got %+v\nwant %+v", back, rec)
			}
		}
		// Reopening the directory over the fuzzed segment must also be
		// safe: the torn tail is truncated and appends continue.
		d, err := OpenDisk(dir, DiskOptions{NoFsync: true})
		if err != nil {
			t.Fatalf("reopen over fuzzed segment: %v", err)
		}
		if err := d.Append(Record{Kind: KindDecide, Proto: "f", Inst: 1}); err != nil {
			t.Fatal(err)
		}
		if err := d.Close(); err != nil {
			t.Fatal(err)
		}
	})
}

// recordsEquivalent compares records after one decode cycle, by their
// encodings where DeepEqual differs.
func recordsEquivalent(a, b Record) bool {
	if reflect.DeepEqual(a, b) {
		return true
	}
	return string(a.AppendTo(nil)) == string(b.AppendTo(nil))
}
