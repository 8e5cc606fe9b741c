package tcp

import (
	"testing"
	"time"

	"wanamcast/internal/fd"
	"wanamcast/internal/metrics"
	"wanamcast/internal/node"
	"wanamcast/internal/types"
)

// stepEnv is a node.Env whose clock moves only when the test sets it: it
// drops every send and timer, so a detector on it runs exactly the calls
// the test makes, at the instants it chooses.
type stepEnv struct{ now time.Duration }

func (e *stepEnv) Now() time.Duration                                                  { return e.now }
func (*stepEnv) Micros(types.ProcessID) uint64                                         { return 0 }
func (*stepEnv) Transmit(types.ProcessID, []types.ProcessID, string, node.Slot, int64) {}
func (*stepEnv) Later(*node.Proc, time.Duration, func())                               {}
func (*stepEnv) Recorder() *metrics.Collector                                          { return nil }
func (*stepEnv) Tracef(string, ...any)                                                 {}
func (*stepEnv) TraceOn() bool                                                         { return false }

// stepFD is process self's heartbeat detector in one group of three on a
// stepEnv, started at 1 s, with leases of an hour: none lapses in a test.
func stepFD(self types.ProcessID, obs *metrics.Collector, lease *fd.Lease) (*heartbeatFD, *stepEnv) {
	env := &stepEnv{now: time.Second}
	h := newHeartbeatFD(node.NewProc(self, types.NewTopology(1, 3), env), 10*time.Millisecond, 50*time.Millisecond,
		obs, lease, time.Hour, time.Millisecond)
	h.Start()
	return h, env
}

// TestSilentPeersSuspectedInOneCheck: p0 and p1 fall silent together, so
// p2's one check past SuspectAfter suspects both and its subscribers hear
// one leader change, straight to p2 — not one through p1.
func TestSilentPeersSuspectedInOneCheck(t *testing.T) {
	col := &metrics.Collector{}
	h, env := stepFD(2, col, nil)
	var leaders []types.ProcessID
	h.Subscribe(func(_ types.GroupID, l types.ProcessID) { leaders = append(leaders, l) })
	env.now += 50 * time.Millisecond
	h.checkSuspicions()
	if len(leaders) != 1 || leaders[0] != 2 {
		t.Fatalf("subscribers heard leaders %v, want [p2]", leaders)
	}
	if !h.Suspected(0) || !h.Suspected(1) || h.Leader(0) != 2 {
		t.Fatalf("suspected p0 %v, p1 %v, leader %v; want both, p2", h.Suspected(0), h.Suspected(1), h.Leader(0))
	}
	if st := col.Snapshot(); st.Suspicions != 2 || st.LeaderChanges != 1 {
		t.Fatalf("observer counted %d suspicions and %d leader changes, want 2 and 1", st.Suspicions, st.LeaderChanges)
	}
}

// TestDemotionRevokesLeaseAtOnce: p1, leading while p0 is suspected, holds a
// lease of an hour on its own grant and p2's. The Unsuspect of p0 that makes
// p0 lead again revokes p1's lease within that call and clears its grants;
// no clock moves, so no grant or lease has aged out.
func TestDemotionRevokesLeaseAtOnce(t *testing.T) {
	lease := new(fd.Lease)
	h, env := stepFD(1, nil, lease)
	h.Suspect(0)
	h.tick() // p1 leads: it grants itself
	h.acceptGrant(2, int64(env.now))
	if !lease.Valid() {
		t.Fatal("p1 holds no lease on a majority of grants")
	}
	h.Unsuspect(0)
	if h.Leader(0) != 0 {
		t.Fatalf("leader %v after trust in p0 is restored, want p0", h.Leader(0))
	}
	if lease.Valid() || len(h.grants) != 0 {
		t.Fatalf("demoted p1: lease valid %v, %d grants kept; want revoked and none", lease.Valid(), len(h.grants))
	}
}
