// Package fd provides the leader oracle (Ω) each group relies on to solve
// consensus. The paper assumes consensus is solvable within every group
// (§2.1); Ω is the weakest failure detector for that, and Oracle below is
// the one Ω type: protocols in this repository take an *Oracle.
//
// Ω is allowed arbitrary mistakes for arbitrary finite prefixes of a run:
// it may falsely suspect a correct process (demoting a leader) and later
// restore trust in it (re-electing it). The oracle is therefore NOT
// monotone — suspicion is a revocable judgement, and every leader change,
// in either direction, re-notifies subscribers. Only eventual accuracy is
// promised: eventually the same correct process leads forever at every
// correct process, which is all the consensus layer needs for liveness
// (safety never depends on Ω).
//
// Two runtimes call Suspect and Unsuspect. The simulated runtime holds one
// oracle for the whole system and drives it from its crash and isolation
// hooks (made imperfect by a configurable suspicion delay, and made wrong
// on demand by chaos scenarios forcing false suspicions). The live runtime
// gives every process an oracle of its own, driven by that process's
// heartbeat detector in internal/transport/tcp, which suspects a silent
// peer and restores trust whenever its heartbeats resume.
package fd

import (
	"wanamcast/internal/types"
)

// Observer receives failure-detector lifecycle events for metrics: new
// suspicions, trust restorations (a suspicion revoked), and leader
// changes. *metrics.Collector is the one production implementation (it locks
// itself, and a nil one discards); the interface stays so that the oracle's
// tests can substitute a log.
type Observer interface {
	OnSuspect(g types.GroupID, p types.ProcessID)
	OnTrustRestored(g types.GroupID, p types.ProcessID)
	OnLeaderChange(g types.GroupID, leader types.ProcessID)
}

// Oracle is Ω: the leader of a group is its lowest-ID member not currently
// suspected. Its runtime calls Suspect when a process falls silent — on the
// simulator, when a crashed process's suspicion delay elapses or a
// partition cuts it off from its whole group; live, when its heartbeats
// stop — and Unsuspect when trust is restored. Chaos scenarios call both
// directly to inject false suspicions and leader flaps. The zero value is
// not usable; construct with NewOracle.
type Oracle struct {
	topo      *types.Topology
	suspected map[types.ProcessID]bool
	leaders   []types.ProcessID // indexed by GroupID
	subs      []func(types.GroupID, types.ProcessID)

	// Observer, when non-nil, receives suspicion/trust/leader events. Set
	// it before the run starts.
	Observer Observer
}

// NewOracle returns an oracle for topo with no process suspected.
func NewOracle(topo *types.Topology) *Oracle {
	o := &Oracle{
		topo:      topo,
		suspected: make(map[types.ProcessID]bool),
		leaders:   make([]types.ProcessID, topo.NumGroups()),
	}
	for g := 0; g < topo.NumGroups(); g++ {
		o.leaders[g] = o.computeLeader(types.GroupID(g))
	}
	return o
}

// Leader returns the current leader of group g.
func (o *Oracle) Leader(g types.GroupID) types.ProcessID { return o.leaders[g] }

// Subscribe registers fn to run whenever the leader of any group changes —
// including a change BACK to a previously demoted leader after trust is
// restored. Subscribers run in registration order.
func (o *Oracle) Subscribe(fn func(types.GroupID, types.ProcessID)) {
	o.subs = append(o.subs, fn)
}

// Suspect marks every process in ps as suspected, then notifies
// subscribers once per group whose leader that changed. Suspecting an
// already-suspected process is a no-op.
func (o *Oracle) Suspect(ps ...types.ProcessID) {
	for _, p := range ps {
		if o.suspected[p] {
			continue
		}
		o.suspected[p] = true
		if o.Observer != nil {
			o.Observer.OnSuspect(o.topo.GroupOf(p), p)
		}
	}
	for _, p := range ps {
		o.recomputeLeader(o.topo.GroupOf(p))
	}
}

// Unsuspect revokes the suspicion of p — trust restored (Ω is allowed
// mistakes, and this is how it takes one back). If that changes p's
// group's leader (typically re-electing p itself), subscribers are
// re-notified. Unsuspecting an unsuspected process is a no-op.
//
// The runtimes never Unsuspect a crashed process: a crash-stop is
// permanent, only partition- or scenario-induced suspicions are revocable.
// The oracle itself does not know why p was suspected, so that guard lives
// with the callers.
func (o *Oracle) Unsuspect(p types.ProcessID) {
	if !o.suspected[p] {
		return
	}
	delete(o.suspected, p)
	g := o.topo.GroupOf(p)
	if o.Observer != nil {
		o.Observer.OnTrustRestored(g, p)
	}
	o.recomputeLeader(g)
}

// Suspected reports whether p is currently suspected.
func (o *Oracle) Suspected(p types.ProcessID) bool { return o.suspected[p] }

// recomputeLeader refreshes g's leader after a suspicion change, notifying
// the observer and then the subscribers if it moved. A second call for the
// same change finds the leader already moved and does nothing.
func (o *Oracle) recomputeLeader(g types.GroupID) {
	newLeader := o.computeLeader(g)
	if newLeader == o.leaders[g] {
		return
	}
	o.leaders[g] = newLeader
	if o.Observer != nil {
		o.Observer.OnLeaderChange(g, newLeader)
	}
	for _, fn := range o.subs {
		fn(g, newLeader)
	}
}

// computeLeader returns g's lowest-ranked unsuspected member: Members is
// ascending.
func (o *Oracle) computeLeader(g types.GroupID) types.ProcessID {
	members := o.topo.Members(g)
	for _, p := range members {
		if !o.suspected[p] {
			return p
		}
	}
	// Every member suspected: the paper assumes at least one correct
	// process per group, so this means suspicion outran reality; keep the
	// lowest ID so Leader always returns *some* member.
	return members[0]
}
