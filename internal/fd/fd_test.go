package fd

import (
	"slices"
	"testing"

	"wanamcast/internal/types"
)

func TestInitialLeaders(t *testing.T) {
	topo := types.NewTopology(3, 3)
	o := NewOracle(topo)
	for g := 0; g < 3; g++ {
		want := types.ProcessID(g * 3)
		if got := o.Leader(types.GroupID(g)); got != want {
			t.Errorf("Leader(g%d) = %v, want %v", g, got, want)
		}
	}
}

func TestSuspectAdvancesLeader(t *testing.T) {
	topo := types.NewTopology(2, 3)
	o := NewOracle(topo)
	o.Suspect(0)
	if got := o.Leader(0); got != 1 {
		t.Errorf("after suspecting p0, leader = %v, want p1", got)
	}
	if got := o.Leader(1); got != 3 {
		t.Errorf("other group's leader changed to %v", got)
	}
	o.Suspect(1)
	if got := o.Leader(0); got != 2 {
		t.Errorf("after suspecting p1, leader = %v, want p2", got)
	}
}

func TestSuspectNonLeaderKeepsLeader(t *testing.T) {
	topo := types.NewTopology(1, 3)
	o := NewOracle(topo)
	fired := 0
	o.Subscribe(func(types.GroupID, types.ProcessID) { fired++ })
	o.Suspect(2)
	if o.Leader(0) != 0 {
		t.Error("suspecting a non-leader changed the leader")
	}
	if fired != 0 {
		t.Error("subscriber fired without a leader change")
	}
}

func TestSubscribeNotifiesInOrder(t *testing.T) {
	topo := types.NewTopology(1, 3)
	o := NewOracle(topo)
	var order []int
	o.Subscribe(func(g types.GroupID, l types.ProcessID) { order = append(order, 1) })
	o.Subscribe(func(g types.GroupID, l types.ProcessID) { order = append(order, 2) })
	o.Suspect(0)
	if len(order) != 2 || order[0] != 1 || order[1] != 2 {
		t.Errorf("subscriber order = %v", order)
	}
}

func TestSubscribePayload(t *testing.T) {
	topo := types.NewTopology(2, 2)
	o := NewOracle(topo)
	var gotG types.GroupID = -1
	var gotL types.ProcessID = -1
	o.Subscribe(func(g types.GroupID, l types.ProcessID) { gotG, gotL = g, l })
	o.Suspect(2) // leader of group 1
	if gotG != 1 || gotL != 3 {
		t.Errorf("notification (%v,%v), want (g1,p3)", gotG, gotL)
	}
}

func TestSuspectIdempotent(t *testing.T) {
	topo := types.NewTopology(1, 2)
	o := NewOracle(topo)
	fired := 0
	o.Subscribe(func(types.GroupID, types.ProcessID) { fired++ })
	o.Suspect(0)
	o.Suspect(0)
	if fired != 1 {
		t.Errorf("duplicate suspicion fired %d notifications", fired)
	}
	if !o.Suspected(0) || o.Suspected(1) {
		t.Error("Suspected() wrong")
	}
}

// TestUnsuspectRestoresLeader: trust restoration re-elects the original
// leader and re-notifies subscribers — the non-monotone Ω behavior the
// chaos layer depends on.
func TestUnsuspectRestoresLeader(t *testing.T) {
	topo := types.NewTopology(1, 3)
	o := NewOracle(topo)
	var leaders []types.ProcessID
	o.Subscribe(func(_ types.GroupID, l types.ProcessID) { leaders = append(leaders, l) })
	o.Suspect(0)
	if o.Leader(0) != 1 {
		t.Fatalf("after suspicion leader = %v, want p1", o.Leader(0))
	}
	o.Unsuspect(0)
	if o.Leader(0) != 0 {
		t.Fatalf("after trust restoration leader = %v, want p0", o.Leader(0))
	}
	if o.Suspected(0) {
		t.Fatal("p0 still suspected after Unsuspect")
	}
	want := []types.ProcessID{1, 0}
	if len(leaders) != 2 || leaders[0] != want[0] || leaders[1] != want[1] {
		t.Fatalf("leader notifications = %v, want %v", leaders, want)
	}
}

func TestUnsuspectIdempotent(t *testing.T) {
	topo := types.NewTopology(1, 2)
	o := NewOracle(topo)
	fired := 0
	o.Subscribe(func(types.GroupID, types.ProcessID) { fired++ })
	o.Unsuspect(0) // never suspected: no-op
	o.Suspect(0)
	o.Unsuspect(0)
	o.Unsuspect(0)
	if fired != 2 {
		t.Errorf("fired %d notifications, want 2 (demote + restore)", fired)
	}
}

// TestUnsuspectNonLeaderSilent: restoring trust in a process that was not
// blocking the leadership does not re-notify.
func TestUnsuspectNonLeaderSilent(t *testing.T) {
	topo := types.NewTopology(1, 3)
	o := NewOracle(topo)
	fired := 0
	o.Subscribe(func(types.GroupID, types.ProcessID) { fired++ })
	o.Suspect(2)
	o.Unsuspect(2)
	if fired != 0 {
		t.Errorf("non-leader flap fired %d notifications", fired)
	}
}

type obsLog struct {
	events []string
}

func (l *obsLog) OnSuspect(g types.GroupID, p types.ProcessID) {
	l.events = append(l.events, "suspect")
}
func (l *obsLog) OnTrustRestored(g types.GroupID, p types.ProcessID) {
	l.events = append(l.events, "trust")
}
func (l *obsLog) OnLeaderChange(g types.GroupID, p types.ProcessID) {
	l.events = append(l.events, "leader")
}

// TestObserverEvents: the metrics observer sees every suspicion, trust
// restoration, and leader change.
func TestObserverEvents(t *testing.T) {
	topo := types.NewTopology(1, 3)
	o := NewOracle(topo)
	log := &obsLog{}
	o.Observer = log
	o.Suspect(0)   // suspect + leader
	o.Suspect(0)   // no-op
	o.Unsuspect(0) // trust + leader
	o.Suspect(2)   // suspect only (non-leader)
	want := []string{"suspect", "leader", "trust", "leader", "suspect"}
	if len(log.events) != len(want) {
		t.Fatalf("observer events = %v, want %v", log.events, want)
	}
	for i := range want {
		if log.events[i] != want[i] {
			t.Fatalf("observer events = %v, want %v", log.events, want)
		}
	}
}

// TestSuspectSeveralNotifiesOnce: suspecting p0 and p1 of one group in one
// call moves its leader straight to p2 — one leader change, to subscribers
// and observer alike — while the observer sees both suspicions.
func TestSuspectSeveralNotifiesOnce(t *testing.T) {
	o := NewOracle(types.NewTopology(2, 3))
	log := &obsLog{}
	o.Observer = log
	var leaders []types.ProcessID
	o.Subscribe(func(_ types.GroupID, l types.ProcessID) { leaders = append(leaders, l) })
	o.Suspect(0, 1)
	if len(leaders) != 1 || leaders[0] != 2 || o.Leader(0) != 2 || o.Leader(1) != 3 {
		t.Fatalf("leader notifications %v, leaders (%v, %v); want [p2], (p2, p3)", leaders, o.Leader(0), o.Leader(1))
	}
	want := []string{"suspect", "suspect", "leader"}
	if !slices.Equal(log.events, want) {
		t.Fatalf("observer events = %v, want %v", log.events, want)
	}
}

func TestAllSuspectedFallsBackToLowest(t *testing.T) {
	topo := types.NewTopology(1, 2)
	o := NewOracle(topo)
	o.Suspect(0)
	o.Suspect(1)
	if got := o.Leader(0); got != 0 {
		t.Errorf("all-suspected leader = %v, want p0 fallback", got)
	}
}

// TestIrregularTopologyLeaders: on groups of 1, 4 and 2 members (p0 | p1–p4 |
// p5–p6), a group's leader is its lowest-ranked unsuspected member through a
// run of suspicions and trust restorations, and no other group's moves.
func TestIrregularTopologyLeaders(t *testing.T) {
	o := NewOracle(types.NewIrregularTopology([]int{1, 4, 2}))
	leaders := func() [3]types.ProcessID { return [3]types.ProcessID{o.Leader(0), o.Leader(1), o.Leader(2)} }
	for _, step := range []struct {
		suspect bool
		p       types.ProcessID
		want    [3]types.ProcessID
	}{
		{true, 1, [3]types.ProcessID{0, 2, 5}},
		{true, 3, [3]types.ProcessID{0, 2, 5}},
		{true, 2, [3]types.ProcessID{0, 4, 5}},
		{true, 6, [3]types.ProcessID{0, 4, 5}},
		{true, 5, [3]types.ProcessID{0, 4, 5}}, // every member suspected: the lowest ID
		{false, 6, [3]types.ProcessID{0, 4, 6}},
		{false, 3, [3]types.ProcessID{0, 3, 6}},
		{true, 0, [3]types.ProcessID{0, 3, 6}}, // a group of one keeps its only member
		{false, 1, [3]types.ProcessID{0, 1, 6}},
		{true, 4, [3]types.ProcessID{0, 1, 6}},
		{false, 5, [3]types.ProcessID{0, 1, 5}},
	} {
		if step.suspect {
			o.Suspect(step.p)
		} else {
			o.Unsuspect(step.p)
		}
		if got := leaders(); got != step.want {
			t.Fatalf("after suspect=%v p%d: leaders %v, want %v", step.suspect, step.p, got, step.want)
		}
	}
}
