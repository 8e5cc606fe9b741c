package amcast

import (
	"slices"
	"testing"

	"wanamcast/internal/node"
	"wanamcast/internal/statesync"
	"wanamcast/internal/types"
)

// TestGatedDecisionsDeliverInReleaseOrder pins what happens to decisions
// applied while a state transfer holds delivery back: what they release is
// held — a single-group message is NOT delivered in its decision — and when
// the gate lifts it is A-Delivered in exactly the order an ungated member
// delivered it, minus what the transfer itself delivered meanwhile.
func TestGatedDecisionsDeliverInReleaseOrder(t *testing.T) {
	r := newRig(t, rigOpts{groups: 2, per: 3})
	a := r.eps[0]
	both, local := types.NewGroupSet(0, 1), types.NewGroupSet(0)
	multi := types.MessageID{Origin: 3, Seq: 1}
	s1, s2 := types.MessageID{Origin: 1, Seq: 1}, types.MessageID{Origin: 2, Seq: 1}
	for id, dest := range map[types.MessageID]types.GroupSet{multi: both, s1: local, s2: local} {
		r.checker.RecordCast(id, dest)
	}

	a.EndRecovery() // shuts the gate, as the end of a restart's replay does
	a.processDecision(1, []Descriptor{{ID: s1, Dest: local}, {ID: multi, Dest: both}})
	a.processDecision(2, []Descriptor{{ID: s2, Dest: local}, {ID: multi, TS: 5, Stage: Stage2}})
	if got := r.checker.Sequence(0); len(got) != 0 {
		t.Fatalf("delivered %v behind a shut gate", got)
	}
	if len(a.pending) != 3 {
		t.Fatalf("%d pending behind the gate, want all 3", len(a.pending))
	}

	// The transfer delivers s1 (the group's first delivery) and brings the
	// process level: the tail adopts nothing new and the gate lifts.
	a.StartSync()
	node.Deliver(r.rt.Proc(0), 1, a.Proto(), statesync.Resp[DeliverRec, SyncTail]{
		Recs: []DeliverRec{{ID: s1, Dest: local, TS: 1}}, Next: 1, Tail: &SyncTail{},
	}, 0)
	if a.Syncing() {
		t.Fatal("gate still shut after a tail-carrying answer")
	}
	want := []types.MessageID{s1, s2, multi}
	if got := r.checker.Sequence(0); !slices.Equal(got, want) {
		t.Fatalf("delivered %v, want %v (s1 by the transfer, then the held s2 and multi in release order)", got, want)
	}
	if len(a.pending) != 0 || a.Delivered() != 3 {
		t.Fatalf("pending %d delivered %d, want 0 and 3", len(a.pending), a.Delivered())
	}
}
