package abcast

import (
	"testing"
	"time"

	"wanamcast/internal/fd"
	"wanamcast/internal/types"
)

// deliveredEverywhere fails unless every correct process A-Delivered every
// cast.
func (r *rig) deliveredEverywhere(t *testing.T, ids []types.MessageID) {
	t.Helper()
	for _, p := range r.topo.AllProcesses() {
		if r.crashed[p] {
			continue
		}
		got := make(map[types.MessageID]bool)
		for _, id := range r.checker.Sequence(p) {
			got[id] = true
		}
		for _, id := range ids {
			if !got[id] {
				t.Fatalf("p%d never delivered %v (it delivered %d of %d casts)", p, id, len(got), len(ids))
			}
		}
	}
}

// TestSenderSetIsLeaderAndSuccessor: with Pipeline > 1 two members of a
// group ship its bundles, not all d; Pipeline 1 keeps the paper's line 15.
func TestSenderSetIsLeaderAndSuccessor(t *testing.T) {
	for _, tc := range []struct {
		pipeline int
		want     []bool // by rank in a group of 5
	}{
		{1, []bool{true, true, true, true, true}},
		{4, []bool{true, true, false, false, false}},
	} {
		r := newRigPipe(t, 2, 5, tc.pipeline)
		for rank, p := range r.topo.Members(1) {
			if got := r.eps[p].Sends(); got != tc.want[rank] {
				t.Errorf("Pipeline %d: rank %d ships = %v, want %v", tc.pipeline, rank, got, tc.want[rank])
			}
		}
		// The leader's successor wraps around the ranks.
		last := r.topo.Members(1)[4]
		for _, p := range r.topo.Members(1)[:4] {
			r.rt.Suspect(p)
		}
		if first := r.topo.Members(1)[0]; tc.pipeline > 1 && (!r.eps[last].Sends() || !r.eps[first].Sends()) {
			t.Errorf("Pipeline %d: with rank 4 leading, ranks 4 and 0 must ship", tc.pipeline)
		}
	}
}

// TestBothSendersCrashBetweenDecideAndShip: groups of 5, Pipeline 4. The
// leader and its successor of group 0 — the whole sender set — decide rounds
// whose bundle copies never leave them (their links out of the group are
// severed, then both crash: f = 2 < d/2). The rest of the group learned those
// rounds; once Ω moves, the new senders re-ship them, and every correct
// process still delivers everything.
func TestBothSendersCrashBetweenDecideAndShip(t *testing.T) {
	r := newRigPipe(t, 3, 5, 4)
	const cutAt, crashAt = 1500 * time.Millisecond, 1560 * time.Millisecond
	g0 := r.topo.Members(0)
	r.rt.Scheduler().At(cutAt, func() {
		for _, p := range g0[:2] {
			for _, q := range r.topo.AllProcesses() {
				if !r.topo.SameGroup(p, q) {
					r.rt.Fabric().Sever(p, q)
				}
			}
		}
	})
	r.crash(g0[0], crashAt)
	r.crash(g0[1], crashAt)
	var unshipped uint64
	r.rt.Scheduler().At(crashAt, func() { unshipped = r.eps[g0[0]].opened - r.eps[g0[2]].k + 1 })
	ids := r.stream(40, 4*time.Second, r.topo.AllProcesses()[2:])
	r.rt.Scheduler().MaxSteps = 50_000_000
	r.rt.Run()
	if unshipped == 0 {
		t.Fatal("the senders crashed with nothing decided and unshipped: the run does not exercise the re-ship")
	}
	r.verify(t)
	r.deliveredEverywhere(t, *ids)
	// Every receiver is within the new senders' window: the re-ship, not the
	// pull, completes the rounds.
	if st := r.col.Snapshot(); st.BundlePullsServed+st.BundlePullsUnserved != 0 {
		t.Errorf("%d pulls: the re-ship did not reach every receiver", st.BundlePullsServed+st.BundlePullsUnserved)
	}
	t.Logf("%d rounds were open in group 0 when its senders crashed; %d casts delivered at all %d correct processes",
		unshipped, len(*ids), r.topo.N()-2)
}

// TestLaggingReceiverPullsTheRoundsNobodyReships: groups of 5, Pipeline 4.
// The links from group 0's two senders to one member q of group 1 are
// severed, so q alone misses group 0's bundles while its group peers take
// theirs and run more than Pipeline rounds ahead of it; then both senders
// crash. The new senders re-ship only the window of their own round, which
// lies past q's: q completes the rounds before it only by asking group 0
// for them (the pull), and every correct process delivers every cast.
func TestLaggingReceiverPullsTheRoundsNobodyReships(t *testing.T) {
	const pipeline = 4
	r := newRigPipe(t, 3, 5, pipeline)
	const cutAt, crashAt = 1500 * time.Millisecond, 1800 * time.Millisecond
	g0, q, peer := r.topo.Members(0), r.topo.Members(1)[3], r.topo.Members(1)[0]
	r.rt.Scheduler().At(cutAt, func() {
		r.rt.Fabric().Sever(g0[0], q)
		r.rt.Fabric().Sever(g0[1], q)
	})
	r.crash(g0[0], crashAt)
	r.crash(g0[1], crashAt)
	var lag uint64
	r.rt.Scheduler().At(crashAt, func() { lag = r.eps[peer].k - r.eps[q].k })
	ids := r.stream(40, 4*time.Second, r.topo.AllProcesses()[2:])
	r.rt.Scheduler().MaxSteps = 50_000_000
	r.rt.Run()
	if lag <= pipeline {
		t.Fatalf("q lagged its group by %d rounds when the senders crashed, want more than %d: the re-ship alone would do", lag, pipeline)
	}
	r.verify(t)
	r.deliveredEverywhere(t, *ids)
	st := r.col.Snapshot()
	if st.BundlePullsServed == 0 {
		t.Errorf("no pull was served (%d unserved)", st.BundlePullsUnserved)
	}
	t.Logf("q was %d rounds behind its group; %d pulls served, %d unserved", lag, st.BundlePullsServed, st.BundlePullsUnserved)
}

// TestLeaderFlapLosesNoBundle: a false suspicion demotes group 0's leader at
// its peers one after the other and is taken back in another order, so for a
// while the members' Ω views — and with them their ideas of the sender set —
// disagree. Whatever each one's view, some member ships every bundle, and
// each view change re-ships the window: nothing is lost, §2.2 holds.
func TestLeaderFlapLosesNoBundle(t *testing.T) {
	topo := types.NewTopology(3, 3)
	views := make([]*fd.Oracle, topo.N())
	for p := range views {
		views[p] = fd.NewOracle(topo)
	}
	r := newRigViews(t, 3, 3, 4, views)
	at := func(d time.Duration, fn func()) { r.rt.Scheduler().At(d, fn) }
	for flap := time.Duration(0); flap < 3; flap++ {
		base := time.Second + flap*700*time.Millisecond
		at(base, func() { views[2].Suspect(0) })
		at(base+40*time.Millisecond, func() { views[1].Suspect(0) })
		at(base+90*time.Millisecond, func() { views[1].Unsuspect(0) })
		at(base+250*time.Millisecond, func() { views[2].Unsuspect(0) })
	}
	ids := r.stream(40, 4*time.Second, topo.AllProcesses())
	r.rt.Scheduler().MaxSteps = 50_000_000
	r.rt.Run()
	r.verify(t)
	r.deliveredEverywhere(t, *ids)
	st := r.col.Snapshot()
	if st.BundleCopiesSent == 0 || st.BundleRepeatsDropped == 0 {
		t.Errorf("bundle accounting is dead: %d copies sent, %d dropped as repeats", st.BundleCopiesSent, st.BundleRepeatsDropped)
	}
}
