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
			OnDeliver: func(mid types.MessageID, payload any) {},
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

// tapReg registers a process's protocols behind a function that sees every
// message they receive, before they do.
type tapReg struct {
	node.Registrar
	tap func(to, from types.ProcessID, body any)
}

func (h tapReg) Register(p node.Protocol) { h.Registrar.Register(tapped{p, h}) }

type tapped struct {
	node.Protocol
	h tapReg
}

func (t tapped) Receive(from types.ProcessID, body any) {
	t.h.tap(t.h.Self(), from, body)
	t.Protocol.Receive(from, body)
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
			Host: tapReg{rt.Proc(id), func(to, from types.ProcessID, body any) {
				frames.Write(wire.AppendValue(fmt.Appendf(nil, "%d>%d ", from, to), body))
			}},
			Detector: rt.Oracle(),
			Log:      lg,
			OnDeliver: func(mid types.MessageID, payload any) {
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
	rt.Start()
	cast := func(from types.ProcessID) {
		checker.RecordCast(eps[from].ABCast("payload"), topo.AllGroups())
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
	fresh.Receive(0, resp)
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
	want := [5]string{
		"6166f55491d4ddd5c93c8c52a9969d3383ff8da24455af4cc27e671c2e12b446",
		"53e1fbe73c968fbf005b99964ca2e2df97b7222478d254bef3ebba021fecfdc9",
		"3528ae5fa1413502e558bbf75962b324d9fec7840501a8c2c4dc553045d21b87",
		"30263d6f33387c46898a8bec6ea590f2d19c604909edf9ea921cf64fddc03352",
		"b119fcc3b47bc9dc076cb42d650f1c01d3e522eb9e444451a15f5b1c2618ef84",
	}
	for i, what := range []string{"snapshots at 300 ms", "final snapshots", "p1's WAL", "the adopting WAL", "frames"} {
		if got[i] != want[i] {
			t.Errorf("%s: hash %s, want %s", what, got[i], want[i])
		}
	}
}
