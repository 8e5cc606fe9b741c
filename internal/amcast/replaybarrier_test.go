package amcast

import (
	"slices"
	"testing"
	"time"

	"wanamcast/internal/network"
	"wanamcast/internal/node"
	"wanamcast/internal/storage"
	"wanamcast/internal/types"
)

// TestReplayMatchesPreCrashDeliveries pins the recovery-order invariant:
// replaying a crashed endpoint's log must re-deliver EXACTLY the pre-crash
// delivery sequence — no more, no fewer, same order — and so must replaying
// the log's decisions alone (the oracle of oracle_test.go).
//
// The test was born under the paper's line 4, where PENDING s0 entries
// gated the ADeliveryTest: a message admitted only via reliable multicast
// (no consensus record yet) vanished from a replayed PENDING, its barrier
// vanished with it, and replay over-delivered an s3 message ahead of the
// group's order (found by the chaos suite's partition-recovery scenario).
// That is why admissions are WAL-logged. Under the decision-sequence rule
// an s0 entry gates nothing — members hold different ones — and the same
// construction now pins exactly that: the victim delivers the multi-group
// message PAST the rmcast-only one, on both replays too, and the admission
// survives the full replay as what it is, something to propose.
//
// The construction forces the state deterministically at the victim p2
// (group g0 = {0,1,2}) via per-pair link delays:
//
//   - m_a = m(5,1), cast by p5 to {g0,g1}: its s2 decision applies at the
//     victim at ~106ms (g0 and g1 both propose 0);
//   - m_b = m(4,1), cast by p4 to {g0} ONLY (single-group: no (TS, m)
//     traffic ever mentions it): the link p4→p2 is fast (1ms), so the
//     victim admits it at ~2ms with provisional ts=0 — while p4→{p0,p1} is
//     slow (300ms) and the victim's own consensus traffic toward the
//     leader p0 is slow (200ms), so NO consensus instance includes m_b
//     before ~205ms: the rmcast admission is the only trace of it in the
//     victim's log.
//
// At the crash (150ms) the victim has delivered m_a and holds m_b at s0.
func TestReplayMatchesPreCrashDeliveries(t *testing.T) {
	const (
		victim = types.ProcessID(2)
		leader = types.ProcessID(0)
	)
	topo := types.NewTopology(2, 3)
	store := storage.NewMem()
	rt := node.NewRuntime(topo, network.Model{IntraGroup: time.Millisecond, InterGroup: 100 * time.Millisecond}, 1, nil)
	// m_b reaches the victim at once and the rest of g0 very late; the
	// victim's forwards and votes crawl.
	rt.Fabric().SetDelay(4, victim, time.Millisecond)
	rt.Fabric().SetDelay(4, 0, 300*time.Millisecond)
	rt.Fabric().SetDelay(4, 1, 300*time.Millisecond)
	rt.Fabric().SetDelay(victim, leader, 200*time.Millisecond)
	var deliveries []types.MessageID
	eps := make([]*Mcast, topo.N())
	for _, id := range topo.AllProcesses() {
		id := id
		var lg *storage.Log
		if id == victim {
			lg = storage.NewLog(store)
		}
		eps[id] = New(Config{
			Host:     rt.Proc(id),
			Detector: rt.Oracle(),
			Log:      lg,
			OnDeliver: func(mid types.MessageID, _ []byte) {
				if id == victim {
					deliveries = append(deliveries, mid)
				}
			},
		})
	}
	rt.Start()
	rt.Scheduler().At(0, func() { eps[5].AMCast([]byte("m_a"), types.NewGroupSet(0, 1)) })
	rt.Scheduler().At(time.Millisecond, func() { eps[4].AMCast([]byte("m_b"), types.NewGroupSet(0)) })
	rt.CrashAt(victim, 150*time.Millisecond)
	rt.RunUntil(400 * time.Millisecond)

	// Sanity-check the construction: at the crash the victim must have
	// delivered m_a past the rmcast-only m_b (smaller (ts, id), stage s0).
	mA, mB := types.MessageID{Origin: 5, Seq: 1}, types.MessageID{Origin: 4, Seq: 1}
	if len(deliveries) != 1 || deliveries[0] != mA {
		t.Fatalf("construction broke: victim delivered %v before the crash, want [m_a]", deliveries)
	}
	if p := eps[victim].pending[mB]; p == nil || p.stage != Stage0 || len(eps[victim].pending) != 1 {
		t.Fatalf("construction broke: victim crashed with %d pending, m_b = %+v (want m_b@s0 alone)",
			len(eps[victim].pending), p)
	}

	// Replay the victim's WAL into a fresh incarnation (no snapshot was
	// ever taken, so the log is the whole history): everything, then the
	// decisions alone.
	o := rigOpts{}
	shadow, replayed := replayLog(t, topo, victim, store, o, everyRecord)
	if !slices.Equal(replayed, deliveries) {
		t.Fatalf("replay delivered %v, the pre-crash endpoint %v", replayed, deliveries)
	}
	if p := shadow.pending[mB]; p == nil || p.stage != Stage0 || len(shadow.pending) != 1 {
		t.Fatalf("replayed PENDING has %d entries, m_b = %+v (want the rmcast-only m_b@s0 alone)",
			len(shadow.pending), p)
	}
	if shadow.Delivered() != 1 {
		t.Fatalf("replayed delivered counter = %d, want 1", shadow.Delivered())
	}
	// And the gate: with group peers present, a recovered endpoint must
	// stay delivery-gated until its state transfer confirms the group
	// prefix (EndRecovery shuts it, the transfer's finish lifts it).
	if !shadow.Syncing() {
		t.Fatal("recovered endpoint not delivery-gated before state transfer")
	}
	bare, replayed := replayLog(t, topo, victim, store, o, decisionsOnly)
	if !slices.Equal(replayed, deliveries) || len(bare.pending) != 0 {
		t.Fatalf("decisions alone delivered %v with %d pending, want %v and none",
			replayed, len(bare.pending), deliveries)
	}
}
