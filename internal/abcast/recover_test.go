package abcast

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"
	"time"

	"wanamcast/internal/check"
	"wanamcast/internal/network"
	"wanamcast/internal/node"
	"wanamcast/internal/statesync"
	"wanamcast/internal/storage"
	"wanamcast/internal/types"
	"wanamcast/internal/wire"
)

// TestSnapshotRoundTrip pins the recovery encoding: an endpoint's
// snapshot, restored into a fresh endpoint, re-encodes byte-identically.
func TestSnapshotRoundTrip(t *testing.T) {
	r := newRig(t, 2, 3, 1)
	// Completed rounds in the archive plus in-flight state: run the clock
	// only partway through a second burst.
	r.cast(0)
	r.cast(3)
	r.rt.RunUntil(250 * time.Millisecond)
	r.cast(1)
	r.cast(4)
	r.rt.RunUntil(300 * time.Millisecond)

	for _, p := range []types.ProcessID{0, 3} {
		snap := r.eps[p].AppendSnapshot(nil)

		topo := types.NewTopology(2, 3)
		rt2 := node.NewRuntime(topo, network.Model{IntraGroup: time.Millisecond, InterGroup: 100 * time.Millisecond}, 1, nil)
		shadow := New(Config{
			Host:      rt2.Proc(p),
			Detector:  rt2.Oracle(),
			OnDeliver: func(mid types.MessageID, payload []byte) {},
		})
		if err := shadow.RestoreSnapshot(snap); err != nil {
			t.Fatalf("restore %v: %v", p, err)
		}
		if got := shadow.AppendSnapshot(nil); !bytes.Equal(got, snap) {
			t.Fatalf("%v: snapshot does not round-trip (%d vs %d bytes)", p, len(got), len(snap))
		}
		if shadow.Round() != r.eps[p].Round() {
			t.Fatalf("%v: round %d != %d after restore", p, shadow.Round(), r.eps[p].Round())
		}
		if shadow.barrier != r.eps[p].barrier {
			t.Fatalf("%v: barrier %d != %d after restore", p, shadow.barrier, r.eps[p].barrier)
		}
	}
}

// TestRecoveredEndpointIsGated is the A2 twin of the gate assertion in
// amcast's TestReplayMatchesPreCrashDeliveries: with group peers present, an
// endpoint that has finished local recovery completes no round until its
// state transfer confirms the group's prefix (EndRecovery shuts the gate,
// the transfer's finish lifts it).
func TestRecoveredEndpointIsGated(t *testing.T) {
	topo := types.NewTopology(2, 3)
	rt := node.NewRuntime(topo, network.Model{IntraGroup: time.Millisecond, InterGroup: 100 * time.Millisecond}, 1, nil)
	ep := New(Config{Host: rt.Proc(1), Detector: rt.Oracle()})
	if ep.Syncing() {
		t.Fatal("a fresh endpoint is gated")
	}
	rt.Proc(1).SetRecovering(true)
	ep.Recover()
	ep.EndRecovery()
	rt.Proc(1).SetRecovering(false)
	if !ep.Syncing() {
		t.Fatal("recovered endpoint not round-gated before state transfer")
	}
}

// TestDurableBytesPinned is amcast's test of the same name for A2, at the
// paper's Pipeline 1: every process's snapshot at TestSnapshotRoundTrip's
// instant and at the end, p1's WAL (consensus records, remote bundles), every
// frame the run carried, and a state-transfer answer carrying p0's rounds —
// as a frame, and as the WAL of a fresh endpoint that adopts them.
func TestDurableBytesPinned(t *testing.T) {
	const victim = types.ProcessID(1)
	topo := types.NewTopology(2, 3)
	rt := node.NewRuntime(topo, network.Model{IntraGroup: time.Millisecond, InterGroup: 100 * time.Millisecond}, 1, nil)
	checker, store, frames := check.New(topo), storage.NewMem(), sha256.New()
	var rounds []RoundSet // p0's, rebuilt from its deliveries
	eps := make([]*Bcast, topo.N())
	for _, id := range topo.AllProcesses() {
		var lg *storage.Log
		if id == victim {
			lg = storage.NewLog(store)
		}
		eps[id] = New(Config{
			Host:     rt.Proc(id),
			Detector: rt.Oracle(),
			Log:      lg,
			OnDeliver: func(mid types.MessageID, payload []byte) {
				checker.RecordDeliver(id, mid)
				if id != 0 {
					return
				}
				for k := eps[0].Round(); uint64(len(rounds)) < k; {
					rounds = append(rounds, RoundSet{Round: uint64(len(rounds)) + 1})
				}
				rs := &rounds[len(rounds)-1]
				rs.Set = append(rs.Set, Record{ID: mid, Payload: payload})
			},
		})
	}
	rt.Hook = func(from, to types.ProcessID, _ string, body any, _ int64, deliver func()) {
		frames.Write(wire.AppendValue(fmt.Appendf(nil, "%d>%d ", from, to), body))
		deliver()
	}
	rt.Start()
	cast := func(from types.ProcessID) {
		checker.RecordCast(eps[from].ABCast(wire.AppendValue(nil, "payload")), topo.AllGroups())
	}
	snapshots := func() string {
		h := sha256.New()
		for _, ep := range eps {
			h.Write(ep.AppendSnapshot(nil))
		}
		return hex.EncodeToString(h.Sum(nil))
	}
	cast(0)
	cast(3)
	rt.RunUntil(250 * time.Millisecond)
	cast(1)
	cast(4)
	rt.RunUntil(300 * time.Millisecond)
	mid := snapshots()
	for i := 0; i < 12; i++ {
		from := types.ProcessID(i % 6)
		rt.Scheduler().At(320*time.Millisecond+time.Duration(i)*40*time.Millisecond, func() { cast(from) })
	}
	rt.Run()
	if v := checker.Check(func(types.ProcessID) bool { return true }, func(types.MessageID) bool { return true }); len(v) != 0 {
		t.Fatalf("property violations:\n%v", v)
	}

	for k := eps[0].Round(); uint64(len(rounds)) < k-1; {
		rounds = append(rounds, RoundSet{Round: uint64(len(rounds)) + 1})
	}
	resp := statesync.Resp[RoundSet, SyncTail]{Base: 1, Recs: rounds, Next: eps[0].Round()}
	frames.Write(wire.AppendValue(nil, resp))
	rt2 := node.NewRuntime(topo, network.Model{IntraGroup: time.Millisecond, InterGroup: 100 * time.Millisecond}, 1, nil)
	adopted := storage.NewMem()
	fresh := New(Config{Host: rt2.Proc(victim), Detector: rt2.Oracle(), Log: storage.NewLog(adopted)})
	fresh.StartSync()
	node.Deliver(rt2.Proc(victim), 0, fresh.Proto(), resp, 0)
	if fresh.Round() != eps[0].Round() || len(checker.Sequence(0)) != 16 {
		t.Fatalf("the fresh endpoint adopted up to round %d, p0 reached %d after %d deliveries (want 16)",
			fresh.Round(), eps[0].Round(), len(checker.Sequence(0)))
	}
	walHash := func(s *storage.Mem) string {
		h := sha256.New()
		if err := s.Replay(0, func(rec storage.Record) error { h.Write(rec.AppendTo(nil)); return nil }); err != nil {
			t.Fatal(err)
		}
		return hex.EncodeToString(h.Sum(nil))
	}
	got := [5]string{mid, snapshots(), walHash(store), walHash(adopted), hex.EncodeToString(frames.Sum(nil))}
	// Re-pinned when payloads became bytes, as amcast's pin was and for the
	// same two reasons (a payload's length prefix, a WAL record's payload
	// slot); with them undone the bytes hash to the previous pins, old → new:
	//	6166f554… → 87c1c971…, 53e1fbe7… → 417167f9…, 3528ae5f… → 5500dc64…,
	//	30263d6f… → 11d5e6e6…, b119fcc3… → 0d2d27dd….
	// The frames re-pinned when a consensus value became its batch's bytes,
	// as amcast's were (a value's length prefix); with it undone they hash to
	// the previous pin: 0d2d27dd… → 09ed6960…. The snapshots re-pinned when the
	// process became the one issuer of cast IDs, as amcast's did (the cast
	// count, a uvarint after the barrier, left the section); with the
	// process's count written back into that slot they hash to the previous
	// pins: 87c1c971… → ee922a7b…, 417167f9… → 751362e3….
	want := [5]string{
		"ee922a7be8b0874cabb72d4f9c22061acb9b8331b77f1ac91a171cbe1d059a57",
		"751362e3d625a38fa309502b1922c5338107fa1038ad4bab1b3be96e01337a4d",
		"5500dc642982353d6a3d949b29ee68a9cbe6fa94cad49e8690088e020cdb6ab0",
		"11d5e6e6303d20551a34d8966132fa0cd96f99931571ed6b38b0df7221feeffd",
		"09ed6960f399fd1449f5c46a30e5ed40dff09ab77026bf484a0fde93976c3d66",
	}
	for i, what := range []string{"snapshots at 300 ms", "final snapshots", "p1's WAL", "the adopting WAL", "frames"} {
		if got[i] != want[i] {
			t.Errorf("%s: hash %s, want %s", what, got[i], want[i])
		}
	}
}
