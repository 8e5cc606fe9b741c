package storage

import (
	"testing"

	"wanamcast/internal/types"
)

// walRecord builds the hot-path record shape: an acceptor vote carrying a
// whole ordering batch as its value (the per-batch durability unit).
func walRecord(value string) Record {
	return Record{
		Kind:   KindAccept,
		Proto:  "a1.cons",
		Inst:   12345,
		Ballot: 3,
		ID:     types.MessageID{Origin: 4, Seq: 77},
		Dest:   types.NewGroupSet(0, 1),
		Value:  value,
	}
}

// TestWALAppendZeroAllocs pins the acceptance bar: appending a WAL record
// (including its CRC framing) allocates nothing once the store's buffers
// are warm — the same guarantee TestWireAllocsBeatGob pins for the
// network encode path, which the log path reuses.
func TestWALAppendZeroAllocs(t *testing.T) {
	d, err := OpenDisk(t.TempDir(), DiskOptions{NoFsync: true, SegmentSize: 1 << 30})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	rec := walRecord("payload-string")
	// Warm the scratch and write buffers past what the measured runs will
	// need, so buffer growth cannot masquerade as per-record allocation.
	for i := 0; i < 512; i++ {
		if err := d.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := Barrier(d); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(200, func() {
		if err := d.Append(rec); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("WAL append allocates %.1f objects/record, want 0", allocs)
	}
}

func BenchmarkWALAppend(b *testing.B) {
	for _, cfg := range []struct {
		name    string
		noFsync bool
		commit  bool
	}{
		{"append-only", true, false},
		{"commit-nofsync", true, true},
		{"commit-fsync", false, true},
	} {
		b.Run(cfg.name, func(b *testing.B) {
			d, err := OpenDisk(b.TempDir(), DiskOptions{NoFsync: cfg.noFsync})
			if err != nil {
				b.Fatal(err)
			}
			defer d.Close()
			rec := walRecord("payload-string")
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := d.Append(rec); err != nil {
					b.Fatal(err)
				}
				if cfg.commit {
					if err := Barrier(d); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}
