package consensus

// A ballot-0 leader sends its Accept once per (instance, ballot): every member
// forwards its proposal, and the ForwardMsgs after the first change nothing.
// What a full send queue takes is resent on a retry tick — the leader's own,
// or a member's, which reaches the leader as that member's second ForwardMsg.

import (
	"testing"
	"time"

	"wanamcast/internal/types"
)

// msgCount is how many phase-2 messages the group's members received.
type msgCount struct{ accepts, accepteds, decides int }

// countingRig counts what arrives past drop (nil drops nothing).
func countingRig(t *testing.T, d int, drop func(i int, from types.ProcessID, body any) bool) (*rig, *msgCount) {
	n := new(msgCount)
	return newTappedRig(t, d, func(i int, from types.ProcessID, body any) bool {
		if drop != nil && drop(i, from, body) {
			return false
		}
		switch body.(type) {
		case AcceptMsg:
			n.accepts++
		case AcceptedMsg:
			n.accepteds++
		case DecideMsg:
			n.decides++
		}
		return true
	}), n
}

// TestBallotZeroAcceptsOnce: all d members propose, so the leader gets d−1
// ForwardMsgs with phase 2 open since its own proposal. They draw no Accept
// and no Accepted: d of each per instance, not d² (and no catch-up DecideMsg
// for Accepts that come in after the decision — d announcements, no more).
func TestBallotZeroAcceptsOnce(t *testing.T) {
	for _, d := range []int{3, 5} {
		r, n := countingRig(t, d, nil)
		const instances = 4
		for k := uint64(1); k <= instances; k++ {
			for i, c := range r.cons {
				c.Propose(k, i)
			}
		}
		r.rt.Run()
		for i := range r.cons {
			if len(r.decs[i]) != instances {
				t.Fatalf("d=%d: p%d decided %d of %d instances", d, i, len(r.decs[i]), instances)
			}
		}
		if want := instances * d; n.accepts != want || n.accepteds != want || n.decides != want {
			t.Errorf("d=%d: %d Accepts, %d Accepteds, %d Decides over %d instances, want %d of each (one broadcast per ballot)",
				d, n.accepts, n.accepteds, n.decides, instances, want)
		}
		// A second and a third ForwardMsg into an open phase 2, head on: the
		// leader of a fresh instance with no quorum yet stays silent.
		lead := r.cons[0]
		lead.onForward(1, ForwardMsg{Instance: 9, Value: "a"})
		before := *n
		lead.onForward(2, ForwardMsg{Instance: 9, Value: "b"})
		if d > 3 {
			lead.onForward(3, ForwardMsg{Instance: 9, Value: "c"})
		}
		r.rt.RunUntil(r.rt.Scheduler().Now() + time.Millisecond) // what the first one's Accept is owed, nothing else
		if n.accepts != before.accepts+d {
			t.Errorf("d=%d: later ForwardMsgs in phase 2 drew %d Accepts beyond the first broadcast", d, n.accepts-before.accepts-d)
		}
		r.rt.Run()
	}
}

// TestLostAcceptRecoveredByTick: the one Accept broadcast is lost at every
// acceptor but the leader. With the leader holding a proposal of its own, its
// retry tick resends the Accept; with only a member's forwarded proposal, that
// member's tick re-forwards and the leader, seeing it twice, resends. Either
// way the instance decides one retry period late, at every member.
func TestLostAcceptRecoveredByTick(t *testing.T) {
	for _, proposer := range []int{0, 2} {
		lost := 0
		r, n := countingRig(t, 3, func(i int, _ types.ProcessID, body any) bool {
			if _, ok := body.(AcceptMsg); ok && i != 0 && lost < 2 {
				lost++
				return true
			}
			return false
		})
		r.cons[proposer].Propose(1, "v")
		r.rt.RunUntil(30 * time.Millisecond)
		if lost != 2 || len(r.decs[0]) != 0 {
			t.Fatalf("proposer p%d: %d Accepts lost, p0 decided %v before any retry: the loss was not exercised", proposer, lost, r.decs[0])
		}
		r.rt.Run()
		for i := range r.cons {
			if v, ok := r.decs[i][1]; !ok || v != "v" {
				t.Fatalf("proposer p%d: p%d decided %v (ok=%v) after the Accept was lost, want v", proposer, i, v, ok)
			}
		}
		if n.accepts != 1+3 {
			t.Errorf("proposer p%d: %d Accepts got through, want the leader's own copy of the first broadcast and one full retransmission", proposer, n.accepts)
		}
	}
}
