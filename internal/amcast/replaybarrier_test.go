package amcast

import (
	"testing"
	"time"

	"wanamcast/internal/network"
	"wanamcast/internal/node"
	"wanamcast/internal/rmcast"
	"wanamcast/internal/storage"
	"wanamcast/internal/types"
)

// TestReplayMatchesPreCrashDeliveries pins the recovery-order invariant
// behind the KindAdmit WAL record: replaying a crashed endpoint's log must
// re-deliver EXACTLY the pre-crash delivery sequence — no more, no fewer,
// same order.
//
// Before admissions were logged, a message admitted only via reliable
// multicast (stage s0, no consensus record yet) vanished from the
// replayed PENDING set; the ADeliveryTest barrier it provided vanished
// with it, and replay over-delivered an s3 message ahead of the group's
// order. The restarted replica then skipped the message forever (the
// state transfer saw it as already delivered) and its delivery sequence
// diverged from the group's — found by the chaos suite's
// partition-recovery scenario under client load.
//
// The construction forces the hazardous state deterministically at the
// victim p2 (group g0 = {0,1,2}) via per-pair link delays:
//
//   - m_a = m(5,1), cast by p5 to {g0,g1}: reaches s3/ts=0 at the victim
//     at ~104ms (g0 and g1 both propose 0, so s2 is skipped);
//   - m_b = m(4,1), cast by p4 to {g0} ONLY (single-group: no (TS, m)
//     traffic ever mentions it, so no TSProp record can re-admit it): the
//     link p4→p2 is fast (1ms), so the victim admits it at ~2ms with
//     provisional ts=0 — while p4→{p0,p1} is slow (300ms) and the
//     victim's own consensus traffic toward the leader p0 is slow
//     (200ms), so NO consensus instance includes m_b before ~205ms: the
//     rmcast admission is the only trace of it in the victim's log.
//
// From ~104ms to ~205ms the victim holds m_a@s3/ts=0 blocked by the
// rmcast-only m_b@s0/ts=0 (m(4,1) < m(5,1) breaks the timestamp tie), and
// delivers nothing. A crash at 150ms must therefore replay into zero
// deliveries; a replay that loses the admission delivers m_a — out of the
// group's order, which delivers m_b first.
func TestReplayMatchesPreCrashDeliveries(t *testing.T) {
	const (
		victim = types.ProcessID(2)
		leader = types.ProcessID(0)
	)
	topo := types.NewTopology(2, 3)
	store := storage.NewMem()
	model := network.Model{
		IntraGroup: time.Millisecond,
		InterGroup: 100 * time.Millisecond,
		PairDelay: func(from, to types.ProcessID) (time.Duration, bool) {
			switch {
			case from == 4 && to == victim:
				return time.Millisecond, true // m_b reaches the victim at once
			case from == 4 && (to == 0 || to == 1):
				return 300 * time.Millisecond, true // ...and the rest of g0 very late
			case from == victim && to == leader:
				return 200 * time.Millisecond, true // victim's forwards/votes crawl
			}
			return 0, false
		},
	}
	rt := node.NewRuntime(topo, model, 1, nil)
	var deliveries []types.MessageID
	eps := make([]*Mcast, topo.N())
	for _, id := range topo.AllProcesses() {
		id := id
		var lg *storage.Log
		if id == victim {
			lg = storage.NewLog(store)
		}
		eps[id] = New(Config{
			Host:       rt.Proc(id),
			Detector:   rt.Oracle(),
			SkipStages: true,
			Log:        lg,
			OnDeliver: func(m rmcast.Message) {
				if id == victim {
					deliveries = append(deliveries, m.ID)
				}
			},
		})
	}
	rt.Start()
	rt.Scheduler().At(0, func() { eps[5].AMCast("m_a", types.NewGroupSet(0, 1)) })
	rt.Scheduler().At(time.Millisecond, func() { eps[4].AMCast("m_b", types.NewGroupSet(0)) })
	rt.CrashAt(victim, 150*time.Millisecond)
	rt.RunUntil(400 * time.Millisecond)

	// Sanity-check the construction: at the crash the victim must have
	// been holding m_a at s3 behind the rmcast-only m_b, delivering
	// neither.
	if len(deliveries) != 0 {
		t.Fatalf("construction broke: victim delivered %v before the crash", deliveries)
	}
	if n := eps[victim].PendingCount(); n != 2 {
		t.Fatalf("construction broke: victim crashed with %d pending (want m_a@s3 + m_b@s0)", n)
	}

	// Replay the victim's WAL into a fresh incarnation and record what it
	// re-delivers (no snapshot was ever taken, so the log is the whole
	// history).
	rt2 := node.NewRuntime(topo, network.Model{IntraGroup: time.Millisecond, InterGroup: 100 * time.Millisecond}, 1, nil)
	var replayed []types.MessageID
	shadow := New(Config{
		Host:       rt2.Proc(victim),
		Detector:   rt2.Oracle(),
		SkipStages: true,
		Log:        storage.NewLog(storage.NewMem()), // replay must not re-log into the source
		OnDeliver:  func(m rmcast.Message) { replayed = append(replayed, m.ID) },
	})
	rt2.Proc(victim).SetRecovering(true)
	_, from, err := store.Load()
	if err != nil {
		t.Fatal(err)
	}
	shadow.Recover()
	err = store.Replay(from, func(rec storage.Record) error {
		if rec.Proto == shadow.Proto() || rec.Proto == shadow.EngineLabel() {
			return shadow.ReplayRecord(rec)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	shadow.EndRecovery()

	if len(replayed) != 0 {
		t.Fatalf("replay over-delivered %v: the pre-crash endpoint had delivered nothing "+
			"(the rmcast-only admission's barrier was lost)", replayed)
	}
	if shadow.PendingCount() != 2 {
		t.Fatalf("replayed PENDING has %d entries, want 2 (m_a@s3 and the rmcast-only m_b@s0)",
			shadow.PendingCount())
	}
	if shadow.Delivered() != 0 {
		t.Fatalf("replayed delivered counter = %d, want 0", shadow.Delivered())
	}
	// And the gate: with group peers present, a recovered endpoint must
	// stay delivery-gated until its state transfer confirms the group
	// prefix (EndRecovery shuts it, the transfer's finish lifts it).
	if !shadow.Syncing() {
		t.Fatal("recovered endpoint not delivery-gated before state transfer")
	}
}
