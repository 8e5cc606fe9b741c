package abcast

import (
	"bytes"
	"testing"
	"time"

	"wanamcast/internal/network"
	"wanamcast/internal/node"
	"wanamcast/internal/types"
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
		if shadow.Barrier() != r.eps[p].Barrier() {
			t.Fatalf("%v: barrier %d != %d after restore", p, shadow.Barrier(), r.eps[p].Barrier())
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
