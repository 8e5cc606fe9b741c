package amcast

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"
	"time"

	"wanamcast/internal/network"
	"wanamcast/internal/node"
	"wanamcast/internal/statesync"
	"wanamcast/internal/storage"
	"wanamcast/internal/types"
	"wanamcast/internal/wire"
)

// TestSnapshotRoundTrip pins the recovery encoding: an endpoint's
// snapshot, restored into a fresh endpoint, re-encodes byte-identically —
// every map is serialised in a canonical order and nothing is lost.
func TestSnapshotRoundTrip(t *testing.T) {
	r := newRig(t, rigOpts{groups: 2, per: 3, maxBatch: 4, pipeline: 2})
	// A mix of delivered and still-pending messages: run the clock only
	// partway so PENDING, tsProps, and the archive are all non-trivial.
	r.cast(0, 0, 1)
	r.cast(3, 0, 1)
	r.cast(1, 0)
	r.rt.RunUntil(150 * time.Millisecond)
	r.cast(4, 0, 1)
	r.rt.RunUntil(180 * time.Millisecond)

	for _, p := range []types.ProcessID{0, 3} {
		snap := r.eps[p].AppendSnapshot(nil)

		topo := types.NewTopology(2, 3)
		rt2 := node.NewRuntime(topo, network.Model{IntraGroup: time.Millisecond, InterGroup: 100 * time.Millisecond}, 1, nil)
		shadow := New(Config{
			Host:      rt2.Proc(p),
			Detector:  rt2.Oracle(),
			MaxBatch:  4,
			Pipeline:  2,
			OnDeliver: func(types.MessageID, []byte) {},
		})
		if err := shadow.RestoreSnapshot(snap); err != nil {
			t.Fatalf("restore %v: %v", p, err)
		}
		if got := shadow.AppendSnapshot(nil); !bytes.Equal(got, snap) {
			t.Fatalf("%v: snapshot does not round-trip (%d vs %d bytes)", p, len(got), len(snap))
		}
		if shadow.K() != r.eps[p].K() {
			t.Fatalf("%v: clock %d != %d after restore", p, shadow.K(), r.eps[p].K())
		}
		if shadow.Delivered() != r.eps[p].Delivered() {
			t.Fatalf("%v: delivered %d != %d after restore", p, shadow.Delivered(), r.eps[p].Delivered())
		}
		if len(shadow.pending) != len(r.eps[p].pending) {
			t.Fatalf("%v: pending %d != %d after restore", p, len(shadow.pending), len(r.eps[p].pending))
		}
	}
}

// TestDurableBytesPinned pins, by hash, what a data dir holds and what the
// wire carries, so that code moved between packages cannot change a byte of
// either: a data dir written before the move must still recover. It runs
// TestSnapshotRoundTrip's casts and hashes every process's snapshot at that
// test's instant, casts on to the end, and hashes p1's WAL (admissions, (TS,
// m) receipts, consensus records), every frame the run carried and every
// final snapshot. A state-transfer answer carrying p0's archive is hashed as
// a frame, and applied to a fresh endpoint whose WAL — the adopted
// deliveries — is hashed too.
func TestDurableBytesPinned(t *testing.T) {
	const victim = types.ProcessID(1)
	store := storage.NewMem()
	frames := sha256.New()
	r := newRig(t, rigOpts{groups: 2, per: 3, maxBatch: 4, pipeline: 2, store: store, logged: victim,
		tap: func(to, from types.ProcessID, body any, deliver func()) {
			frames.Write(wire.AppendValue(fmt.Appendf(nil, "%d>%d ", from, to), body))
			deliver()
		}})
	snapshots := func() string {
		h := sha256.New()
		for _, ep := range r.eps {
			h.Write(ep.AppendSnapshot(nil))
		}
		return hex.EncodeToString(h.Sum(nil))
	}
	r.cast(0, 0, 1)
	r.cast(3, 0, 1)
	r.cast(1, 0)
	r.rt.RunUntil(150 * time.Millisecond)
	r.cast(4, 0, 1)
	r.rt.RunUntil(180 * time.Millisecond)
	mid := snapshots()
	for i := 0; i < 12; i++ {
		from, dest := types.ProcessID(i%6), []types.GroupID{types.GroupID(i % 2)}
		if i%3 != 0 {
			dest = []types.GroupID{0, 1}
		}
		r.rt.Scheduler().At(200*time.Millisecond+time.Duration(i)*40*time.Millisecond, func() { r.cast(from, dest...) })
	}
	r.rt.Run()
	r.verify(t)

	arch := r.eps[0].Archive()
	resp := statesync.Resp[DeliverRec, SyncTail]{Recs: arch, Next: uint64(len(arch))}
	frames.Write(wire.AppendValue(nil, resp))
	rt2 := node.NewRuntime(r.topo, network.Model{IntraGroup: time.Millisecond, InterGroup: 100 * time.Millisecond}, 1, nil)
	adopted := storage.NewMem()
	fresh := New(Config{Host: rt2.Proc(victim), Detector: rt2.Oracle(), Log: storage.NewLog(adopted)})
	fresh.StartSync()
	node.Deliver(rt2.Proc(victim), 0, fresh.Proto(), resp, 0)
	if len(arch) != 14 || fresh.Delivered() != 14 {
		t.Fatalf("p0 archived %d deliveries, the fresh endpoint adopted %d; want 14", len(arch), fresh.Delivered())
	}
	walHash := func(s *storage.Mem) string {
		h := sha256.New()
		if err := s.Replay(0, func(rec storage.Record) error { h.Write(rec.AppendTo(nil)); return nil }); err != nil {
			t.Fatal(err)
		}
		return hex.EncodeToString(h.Sum(nil))
	}
	got := [5]string{mid, snapshots(), walHash(store), walHash(adopted), hex.EncodeToString(frames.Sum(nil))}
	// Re-pinned when payloads became bytes: each payload gained a uvarint
	// length prefix, and a WAL record carries its payload in a slot of its
	// own before the value (one 0 byte where it has none). With those two
	// undone — a payload appended bare, an empty one as the nil kind, a
	// record's payload in the value's place — the bytes hash to the previous
	// pins, the old hash on the left:
	//	3749e601… → 8e2d3ab7…, fda9fb46… → 9aed98e4…, f12b1106… → 4daa26c6…,
	//	8fad98e5… → f91ef188…, b2ea41f3… → fff9668a….
	// The frames re-pinned when a consensus value became its batch's bytes:
	// a Forward, Promise, Accept or by-value Decide carries it behind a
	// uvarint length. With the length undone — the value appended bare, an
	// empty one as the nil kind — they hash to the previous pin again:
	// fff9668a… → ea1e0cd5…. The snapshots re-pinned when the process became
	// the one issuer of cast IDs: the section lost the endpoint's cast count,
	// a uvarint after admitSeq. With the process's count written back into
	// that slot they hash to the previous pins: 8e2d3ab7… → 33abd202…,
	// 9aed98e4… → f4c1948e….
	want := [5]string{
		"33abd202b720b1f1e5859e69d9d76a03aad0ae62eeebd38ef4bd83fe06041d7b",
		"f4c1948e381d72e7d67e57df07648c15682cae23c816f5445b59657d7bd56ffd",
		"4daa26c6bbd63f6634f0bb6ecdf95089fc92ffcebca9d6fca00f7cac46a2d106",
		"f91ef188ab7121678b4bd5c4f4acabf9d5a0fc1172a101f7be0fb9766df3816d",
		"ea1e0cd52e3f8a08b9bd381973dc2d841a9b4d5743b48d82db8a7b013a2456ae",
	}
	for i, what := range []string{"snapshots at 180 ms", "final snapshots", "p1's WAL", "the adopting WAL", "frames"} {
		if got[i] != want[i] {
			t.Errorf("%s: hash %s, want %s", what, got[i], want[i])
		}
	}
}
