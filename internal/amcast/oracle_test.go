package amcast

// The decision-log oracle: A-delivery in a group is a pure function of the
// group's decision sequence. A live member's WAL holds, besides the
// decisions, everything that reached it as a message — admissions, (TS, m)
// receipts. Feeding a fresh endpoint ONLY the decisions must reproduce the
// live member's delivery sequence exactly; anything less means the
// delivery rule read something a message receipt wrote.
//
// Two traps the first cut of the rule fell into are caught here:
//
//   - checkStage1 adopts the maximum proposal when the last (TS, m)
//     arrives. Had the delivery test read it, a member holding that (TS, m)
//     would unblock a later-timestamped s3 message one decision earlier
//     than a member without it (the oracle's endpoint never has it), and a
//     single-group message ordered in between would land on different sides.
//   - s0 entries (admitted, unproposed) exist at some members only (the
//     oracle's endpoint never has one): they must gate nothing.

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"time"

	"wanamcast/internal/network"
	"wanamcast/internal/node"
	"wanamcast/internal/node/clocktest"
	"wanamcast/internal/storage"
	"wanamcast/internal/types"
)

// replayLog feeds the records of store that keep admits into a fresh
// endpoint for process p, in recovery mode, and returns the endpoint and
// what it A-Delivered.
func replayLog(t *testing.T, topo *types.Topology, p types.ProcessID, store storage.Store,
	o rigOpts, keep func(a *Mcast, rec storage.Record) bool) (*Mcast, []types.MessageID) {
	t.Helper()
	rt := node.NewRuntime(topo, network.Model{IntraGroup: time.Millisecond, InterGroup: 100 * time.Millisecond}, 1, nil)
	var delivered []types.MessageID
	shadow := New(Config{
		Host:      rt.Proc(p),
		Detector:  rt.Oracle(),
		MaxBatch:  o.maxBatch,
		Pipeline:  o.pipeline,
		Log:       storage.NewLog(storage.NewMem()), // replay must not re-log into the source
		OnDeliver: func(mid types.MessageID, _ []byte) { delivered = append(delivered, mid) },
	})
	rt.Proc(p).SetRecovering(true)
	_, from, err := store.Load()
	if err != nil {
		t.Fatal(err)
	}
	shadow.Recover()
	err = store.Replay(from, func(rec storage.Record) error {
		if (rec.Proto == shadow.Proto() || rec.Proto == shadow.EngineLabel()) && keep(shadow, rec) {
			return shadow.ReplayRecord(rec)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	shadow.EndRecovery()
	return shadow, delivered
}

// decisionsOnly keeps the ordering engine's records: no admission, no
// (TS, m) receipt.
func decisionsOnly(a *Mcast, rec storage.Record) bool { return rec.Proto == a.EngineLabel() }

func everyRecord(*Mcast, storage.Record) bool { return true }

// It runs under the true clock and under every lying one: the hints a
// decision carries are part of the decision, whatever clock wrote them.
func TestDeliveryIsAFunctionOfDecisions(t *testing.T) {
	clocks := append([]clocktest.Clock{{Name: "true"}}, clocktest.Lying...)
	for i := 0; i < 12*len(clocks); i++ {
		seed, clock := int64(i%12), clocks[i/12]
		t.Run(fmt.Sprintf("clock=%s/seed=%d", clock.Name, seed), func(t *testing.T) {
			store := storage.NewMem()
			o := rigOpts{groups: 3, per: 3, seed: seed,
				pipeline: 1 + 3*int(seed%2), maxBatch: 8 * int(seed%3),
				jitter: 60 * time.Millisecond, store: store, logged: 0, clock: clock}
			r := newRig(t, o)
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < 60; i++ {
				from := types.ProcessID(rng.Intn(9))
				// The §1 mix, biased so that g0 — the group under the
				// oracle — is busy: 60 % one group, 30 % two, 10 % three.
				dest := []types.GroupID{0}
				switch x := rng.Intn(10); {
				case x >= 9:
					dest = []types.GroupID{0, 1, 2}
				case x >= 6:
					dest = []types.GroupID{0, types.GroupID(1 + rng.Intn(2))}
				case x >= 4:
					dest = []types.GroupID{types.GroupID(1 + rng.Intn(2))}
				}
				at := time.Duration(rng.Intn(400)) * time.Millisecond
				r.rt.Scheduler().At(at, func() { r.cast(from, dest...) })
			}
			r.rt.Run()
			r.verify(t)

			live := r.checker.Sequence(0)
			if len(live) < 30 {
				t.Fatalf("member 0 delivered only %d messages: the load missed g0", len(live))
			}
			for _, q := range r.topo.Members(0)[1:] {
				if !slices.Equal(r.checker.Sequence(q), live) {
					t.Fatalf("members 0 and %v of g0 delivered different sequences:\n%v\n%v", q, live, r.checker.Sequence(q))
				}
			}
			// Multi-group messages are delivered in final-timestamp order.
			var last DeliverRec
			for _, dr := range r.eps[0].Archive() {
				if dr.Dest.Size() < 2 {
					continue
				}
				if dr.TS < last.TS || (dr.TS == last.TS && !last.ID.Less(dr.ID)) {
					t.Fatalf("multi-group %v (ts %d) delivered after %v (ts %d)", dr.ID, dr.TS, last.ID, last.TS)
				}
				last = dr
			}

			shadow, replayed := replayLog(t, r.topo, 0, store, o, decisionsOnly)
			if !slices.Equal(replayed, live) {
				t.Fatalf("decisions alone do not reproduce member 0's deliveries:\nlive   %v\nreplay %v", live, replayed)
			}
			if n := len(shadow.pending); n != 0 {
				t.Fatalf("decisions-only endpoint still has %d pending", n)
			}
			if shadow.K() != r.eps[0].K() {
				t.Fatalf("decisions-only clock %d, live %d", shadow.K(), r.eps[0].K())
			}
		})
	}
}

// TestSingleGroupCastDoesNotWaitForMultiGroupTimestamp is the convoy
// regression, in virtual time: a single-group cast made while a multi-group
// message addressed to the same group sits in s1 — its final timestamp one
// inter-group delay (100 ms) away — is A-Delivered within a few intra-group
// delays (1 ms). Under the paper's line 4 it queued behind the multi-group
// message's timestamp and took more than 90 ms.
func TestSingleGroupCastDoesNotWaitForMultiGroupTimestamp(t *testing.T) {
	r := newRig(t, rigOpts{groups: 2, per: 3})
	multi := r.cast(0, 0, 1)
	var single types.MessageID
	r.rt.Scheduler().At(10*time.Millisecond, func() {
		if p := r.eps[0].pending[multi]; p == nil || p.stage != Stage1 {
			t.Errorf("construction broke: multi-group message not in s1 at 10 ms (%+v)", p)
		}
		single = r.cast(1, 0)
	})
	r.rt.Run()
	r.verify(t)
	wall, ok := r.col.WallLatency(single)
	if !ok || wall > 5*time.Millisecond {
		t.Fatalf("single-group cast took %v (ok=%v) behind a multi-group message in s1, want <= 5ms", wall, ok)
	}
	if deg, _ := r.col.LatencyDegree(multi); deg != 2 {
		t.Fatalf("multi-group message: latency degree %d, want 2", deg)
	}
	seq := r.checker.Sequence(0)
	if len(seq) != 2 || seq[0] != single || seq[1] != multi {
		t.Fatalf("g0 delivered %v, want the single-group message first", seq)
	}
}
