package consensus

// DecideMsg by reference: the leader announces the chosen BALLOT, and an
// acceptor learns the value it accepted in that ballot. These tests pin the
// two ways that can go wrong.

import (
	"testing"

	"wanamcast/internal/types"
)

// TestDecideByRefFetchesWhenAcceptWasDropped: an acceptor that never saw the
// AcceptMsg (here: dropped on the link p0→p2, as a full send queue would)
// holds no value for the announced ballot and must fetch it with LearnMsg.
func TestDecideByRefFetchesWhenAcceptWasDropped(t *testing.T) {
	dropped, fetches := 0, 0
	r := newTappedRig(t, 3, func(i int, from types.ProcessID, body any) bool {
		switch body.(type) {
		case AcceptMsg:
			if i == 2 {
				dropped++
				return false
			}
		case LearnMsg:
			if i == 0 && from == 2 {
				fetches++
			}
		case DecideMsg:
			if m := body.(DecideMsg); i == 1 && (m.Ballot < 0 || m.Value != nil) {
				t.Errorf("the announcement to a voter carried a value: %+v", m)
			}
		}
		return true
	})
	r.cons[0].Propose(1, "v")
	r.rt.Run()
	for i := 0; i < 3; i++ {
		if v, ok := r.decs[i][1]; !ok || v != "v" {
			t.Fatalf("p%d decided %v (ok=%v), want v", i, v, ok)
		}
	}
	if dropped != 1 || fetches != 1 {
		t.Fatalf("dropped %d AcceptMsgs at p2, p0 saw %d LearnMsgs from it; want 1 and 1", dropped, fetches)
	}
}

// TestDecideByRefIgnoresStaleAcceptedValue: an acceptor whose vote is for a
// LOWER ballot than the announced one holds a value that may have lost — it
// must not learn it, and must ask instead.
func TestDecideByRefIgnoresStaleAcceptedValue(t *testing.T) {
	asked := 0
	r := newTappedRig(t, 3, func(i int, from types.ProcessID, body any) bool {
		if _, ok := body.(LearnMsg); ok && i == 1 && from == 2 {
			asked++
		}
		return true
	})
	p2 := r.cons[2]
	p2.onAccept(0, AcceptMsg{Instance: 1, Ballot: 0, Value: "stale"})
	p2.onDecide(1, DecideMsg{Instance: 1, Ballot: 1}) // ballot 1 was chosen elsewhere
	r.rt.Run()
	if v, ok := r.decs[2][1]; ok {
		t.Fatalf("p2 learned %v from a ballot it did not vote in", v)
	}
	if asked != 1 {
		t.Fatalf("p2 sent %d LearnMsgs to the announcer, want 1", asked)
	}
	// A higher vote is no better: only the announced ballot's value is known
	// to be the decision without a Paxos argument, so that is all we allow.
	p2.onAccept(1, AcceptMsg{Instance: 1, Ballot: 4, Value: "later"})
	p2.onDecide(1, DecideMsg{Instance: 1, Ballot: 1})
	r.rt.Run()
	if v, ok := r.decs[2][1]; ok {
		t.Fatalf("p2 learned %v from a ballot other than the announced one", v)
	}
	p2.onDecide(1, DecideMsg{Instance: 1, Ballot: -1, Value: "chosen"})
	if v := r.decs[2][1]; v != "chosen" {
		t.Fatalf("p2 decided %v from the value-carrying answer, want chosen", v)
	}
}
