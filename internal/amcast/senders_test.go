package amcast

// With Pipeline > 1 one member of a group — its leader, in that member's own
// Ω view when the s0 decision applies — sends the group's (TS, m); a member
// that Ω makes the sender re-ships, and a receiver that waited long enough
// pulls. These are the schedules in which a lone sender is exposed, each by
// name, each under the true clock and the seven lying ones, each ending with
// check.Check, every cast delivered at every correct addressee, and the
// decision-log oracle (oracle_test.go) at one member that kept its WAL.

import (
	"slices"
	"testing"
	"time"

	"wanamcast/internal/consensus"
	"wanamcast/internal/fd"
	"wanamcast/internal/node/clocktest"
	"wanamcast/internal/scenario"
	"wanamcast/internal/storage"
	"wanamcast/internal/types"
)

// pullPeriod is how long an entry waits in s1 before its first pull, the tick
// it may have to wait for included.
const pullPeriod = (pullAfter + 1) * consensus.DefaultRetry

// underEveryClock runs schedule under the true clock and each lying one, on a
// Pipeline 4 rig whose process `logged` keeps its WAL.
func underEveryClock(t *testing.T, groups int, logged types.ProcessID, schedule func(t *testing.T, o rigOpts)) {
	for _, clock := range append([]clocktest.Clock{{Name: "true"}}, clocktest.Lying...) {
		t.Run("clock="+clock.Name, func(t *testing.T) {
			schedule(t, rigOpts{groups: groups, per: 3, skip: true, pipeline: 4,
				clock: clock, store: storage.NewMem(), logged: logged})
		})
	}
}

// finish drains the run and applies the three checks every schedule ends on.
func (r *rig) finish(t *testing.T, o rigOpts, casts map[types.MessageID]types.GroupSet) {
	t.Helper()
	r.rt.Scheduler().MaxSteps = 20_000_000
	r.rt.Run()
	r.verify(t)
	for id, dest := range casts {
		for _, p := range r.topo.ProcessesIn(dest) {
			if !r.crashed[p] && !slices.Contains(r.checker.Sequence(p), id) {
				t.Fatalf("%v never delivered at correct addressee p%d", id, p)
			}
		}
	}
	live := r.checker.Sequence(o.logged)
	if _, replayed := replayLog(t, r.topo, o.logged, o.store, o, decisionsOnly); !slices.Equal(replayed, live) {
		t.Fatalf("decisions alone do not reproduce p%d's deliveries:\nlive   %v\nreplay %v", o.logged, live, replayed)
	}
}

// deliveredAt reports whether every correct member of g has delivered id.
func (r *rig) deliveredAt(g types.GroupID, id types.MessageID) bool {
	for _, p := range r.topo.Members(g) {
		if !r.crashed[p] && !slices.Contains(r.checker.Sequence(p), id) {
			return false
		}
	}
	return true
}

// Schedule (i), leader-crashes-deciding: g0's leader crashes in the very step
// in which it applies m's s0 decision — the DecideMsg of that step is out,
// the (TS, m) is not. Nobody in g0 has sent; the member Ω elects re-ships.
func TestLeaderCrashesInItsDecidingStep(t *testing.T) {
	underEveryClock(t, 2, 1, func(t *testing.T, o rigOpts) {
		var r *rig
		var m types.MessageID
		o.tap = func(to, from types.ProcessID, body any, deliver func()) {
			if _, ts := body.(TSMsg); ts && from == 0 {
				return // p0 died before this left it
			}
			deliver()
			if p := r.eps[0].pending[m]; to == 0 && !r.crashed[0] && p != nil && p.stage >= Stage1 {
				r.crashed[0] = true
				r.rt.Crash(0)
			}
		}
		r = newRig(t, o)
		m = r.cast(3, 0, 1)
		r.finish(t, o, map[types.MessageID]types.GroupSet{m: types.NewGroupSet(0, 1)})
		if st := r.col.Snapshot(); !r.crashed[0] || st.TSReshipped == 0 {
			t.Fatalf("p0 crashed: %v, proposals re-shipped: %d — the new leader's re-ship was not exercised", r.crashed[0], st.TSReshipped)
		}
	})
}

// Schedule (ii), leader-reaches-h-not-f: three groups; g0's leader gets its
// (TS, m) out to g1 and not to g2, lives until g0 has A-Delivered m, then
// crashes. The leader Ω elects holds no undelivered entry and re-ships
// nothing: g2 completes m by pulling g0's final timestamp off a survivor's
// delivery archive — asking past the crashed member first.
func TestDeliveredProposalIsPulledFromTheArchive(t *testing.T) {
	underEveryClock(t, 3, 1, func(t *testing.T, o rigOpts) {
		var r *rig
		o.tap = func(to, from types.ProcessID, body any, deliver func()) {
			if _, ts := body.(TSMsg); ts && from == 0 && r.topo.GroupOf(to) == 2 {
				return
			}
			deliver()
		}
		r = newRig(t, o)
		all := types.NewGroupSet(0, 1, 2)
		m := r.cast(3, 0, 1, 2)
		r.rt.Scheduler().At(260*time.Millisecond, func() {
			if !r.deliveredAt(0, m) || r.deliveredAt(2, m) {
				t.Errorf("construction broke: at 260 ms g0 delivered m: %v, g2: %v, want true and false", r.deliveredAt(0, m), r.deliveredAt(2, m))
			}
		})
		r.crash(0, 260*time.Millisecond)
		r.finish(t, o, map[types.MessageID]types.GroupSet{m: all})
		if st := r.col.Snapshot(); st.TSReshipped != 0 || st.TSPullsServed == 0 {
			t.Fatalf("%d proposals re-shipped, %d pulls served: want g2 to complete by pull alone", st.TSReshipped, st.TSPullsServed)
		}
	})
}

// Schedule (iii), nobody-believes-it-leads: p0 drives m's s0 instance in g0
// and, between its Accept and the quorum, comes to believe p1 leads, while p1
// and p2 go on believing in p0. The decision applies at three members none of
// which is the leader in its own view, and no view changes for a second: g1
// completes m by pull alone. (g0 cannot order its s2 item until a member
// leads again; the views heal at 1 s.)
func TestNoMemberBelievesItLeads(t *testing.T) {
	underEveryClock(t, 2, 4, func(t *testing.T, o rigOpts) {
		topo := types.NewTopology(2, 3)
		o.views = make([]*fd.Oracle, topo.N())
		for p := range o.views {
			o.views[p] = fd.NewOracle(topo)
		}
		r := newRig(t, o)
		m := r.cast(3, 0, 1)
		at := r.rt.Scheduler().At
		at(101*time.Millisecond, func() { o.views[0].Suspect(0) })
		at(pullPeriod+200*time.Millisecond+10*time.Millisecond, func() {
			st := r.col.Snapshot()
			if !r.deliveredAt(1, m) || r.deliveredAt(0, m) || st.TSReshipped != 0 || st.TSPullsServed != 3 {
				t.Errorf("one pull period and a round trip after the cast: g1 delivered m: %v, g0: %v, %d re-shipped, %d pulls served; want true, false, 0, 3",
					r.deliveredAt(1, m), r.deliveredAt(0, m), st.TSReshipped, st.TSPullsServed)
			}
		})
		at(time.Second, func() { o.views[0].Unsuspect(0) })
		r.finish(t, o, map[types.MessageID]types.GroupSet{m: types.NewGroupSet(0, 1)})
	})
}

// Schedule (iv), only-copy-dropped: nobody crashes and Ω never moves, but the
// one copy of g0's (TS, m) to each member of g1 finds a full send queue. No
// re-ship will ever come; every member of g1 pulls, and is answered with the
// final timestamp.
func TestOnlyCopyDroppedByFullQueue(t *testing.T) {
	underEveryClock(t, 2, 4, func(t *testing.T, o rigOpts) {
		dropped := 0
		o.tap = func(to, from types.ProcessID, body any, deliver func()) {
			if _, ts := body.(TSMsg); ts && from == 0 && dropped < 3 {
				dropped++
				return
			}
			deliver()
		}
		r := newRig(t, o)
		m := r.cast(3, 0, 1)
		r.finish(t, o, map[types.MessageID]types.GroupSet{m: types.NewGroupSet(0, 1)})
		st := r.col.Snapshot()
		if dropped != 3 || st.TSReshipped != 0 || st.TSPullsServed != 3 {
			t.Fatalf("%d copies dropped, %d re-shipped, %d pulls served; want 3, 0, 3", dropped, st.TSReshipped, st.TSPullsServed)
		}
		if wall, _ := r.col.WallLatency(m); wall > pullPeriod+200*time.Millisecond+10*time.Millisecond {
			t.Fatalf("m took %v, want one pull period and a round trip", wall)
		}
		// g0 had delivered m by the time it was asked, so what g1 — the
		// caster's group — got is m's final timestamp: its own led proposal,
		// perhaps, and no measure of g0's clock.
		for _, q := range r.topo.Members(1) {
			if r.eps[q].leads[0] != nil {
				t.Fatalf("p%d took a lead sample from a final timestamp", q)
			}
		}
	})
}

// Schedule (v), leader-flap: the chaos suite's scenario — g0's leader falsely
// suspected and trusted again three times — under a stream of casts to both
// groups. Whichever member a decision finds leading, every flap re-ships, and
// no cast waits longer than one pull period past what a flap-free run takes.
func TestLeaderFlapExposesNoLoneSender(t *testing.T) {
	underEveryClock(t, 2, 1, func(t *testing.T, o rigOpts) {
		r := newRig(t, o)
		sc, ok := scenario.ByName(r.topo, scenario.SuiteConfig{Unit: 300 * time.Millisecond}, "leader-flap")
		if !ok {
			t.Fatal("scenario leader-flap is gone")
		}
		scenario.Apply(scenario.SimFuncs(r.rt), sc)
		casts := make(map[types.MessageID]types.GroupSet)
		dest := types.NewGroupSet(0, 1)
		for i := 0; i < 120; i++ {
			from := types.ProcessID(i % 6)
			r.rt.Scheduler().At(time.Duration(i)*10*time.Millisecond, func() { casts[r.cast(from, 0, 1)] = dest })
		}
		r.finish(t, o, casts)
		st := r.col.Snapshot()
		if st.LeaderChanges != 6 || st.TSReshipped == 0 {
			t.Fatalf("%d leader changes, %d proposals re-shipped: the flap was not exercised", st.LeaderChanges, st.TSReshipped)
		}
		for id := range casts {
			if wall, _ := r.col.WallLatency(id); wall > 200*time.Millisecond+pullPeriod {
				t.Errorf("%v took %v through the flap, want at most 2Δ plus one pull period (%v)", id, wall, pullPeriod)
			}
		}
		t.Logf("%d casts, max wall %v, %d re-shipped, %d pulls served", len(casts), st.MaxWallLatency, st.TSReshipped, st.TSPullsServed)
	})
}

// TestOneSenderKeepsDegreeTwo: who carries (TS, m) does not enter the latency
// degree. The group's sender has R-Delivered m (clock >= that of the cast, + 1
// if m crossed groups), so its one multicast is stamped at most 2 and every
// addressee delivers at clock 2 — whether the caster leads its group, follows
// in it, or sits outside the destination set. Theorem 4.1's pin needs
// Pipeline <= 1 no more than the ordering does.
func TestOneSenderKeepsDegreeTwo(t *testing.T) {
	for _, caster := range []types.ProcessID{0, 1, 5, 7} {
		r := newRig(t, rigOpts{groups: 3, per: 3, skip: true, pipeline: 4})
		id := r.cast(caster, 0, 1)
		r.rt.Run()
		r.verify(t)
		if deg, ok := r.col.LatencyDegree(id); !ok || deg != 2 {
			t.Errorf("cast from p%d: latency degree %d (ok=%v), want 2", caster, deg, ok)
		}
		if st := r.col.Snapshot(); st.TSPullsServed+st.TSPullsUnserved+st.TSReshipped != 0 {
			t.Errorf("cast from p%d: a failure-free cast drew %d pulls and %d re-ships", caster, st.TSPullsServed+st.TSPullsUnserved, st.TSReshipped)
		}
	}
}
