package tcp

import (
	"slices"
	"sort"
	"time"

	"wanamcast/internal/fd"
	"wanamcast/internal/metrics"
	"wanamcast/internal/node"
	"wanamcast/internal/types"
)

// heartbeatMsg is the failure detector's intra-group beat. Beat is the
// sender's clock (api.Now() nanos) at send time; when leader leases are
// enabled it doubles as the lease timestamp a follower countersigns.
type heartbeatMsg struct {
	Beat int64
}

// leaseGrantMsg is a follower's lease vote: by echoing beat b back to the
// leader, the follower promises not to grant any OTHER candidate a lease
// until (local receipt time of b) + LeaseDuration + MaxClockSkew. The
// leader that collects a majority of grants for beat b (counting its own)
// holds the lease until b + LeaseDuration − MaxClockSkew on its own clock.
//
// Safety is clock-OFFSET-free: a grant's promise window starts at the
// follower's receipt of the beat, which is physically no earlier than the
// leader's send, so promise end ≥ claim end + 2×MaxClockSkew in real time
// regardless of how the two clocks are offset — only clock RATE drift over
// one lease window must stay under MaxClockSkew. Any majority a successor
// assembles intersects the holder's majority in a replica whose promise
// still fences, so two valid leases never overlap.
type leaseGrantMsg struct {
	Beat int64
}

// heartbeatFD drives one process's Ω (the embedded fd.Oracle, which holds
// the suspicion set, the leader and the subscribers) from heartbeats:
// every process beats to its group peers, and a peer silent for
// SuspectAfter is suspected. Silence is judged when it reaches
// SuspectAfter, by a check armed for that moment (tick), not at the
// observer's next beat: a crash is then noticed SuspectAfter after the
// victim's last beat arrived, and how long an outage lasts depends on where
// in the victim's beat period the crash fell, not also on where in the
// observer's. Suspicion is revocable: the moment a suspect's beat arrives
// again — after a partition heals, or after a chaos scenario's forced false
// suspicion — trust is restored and the oracle re-notifies its subscribers.
// Ω's eventual accuracy holds as long as the loopback eventually delivers
// beats within the timeout — adequate for the localhost deployments this
// runtime targets, and exactly the trust-restoring behavior partitions
// need: one transient outage demotes a leader only until its heartbeats
// resume. On top of Ω it runs the leader-lease grant protocol, and its
// first subscription revokes the lease the moment its own view stops
// leading.
type heartbeatFD struct {
	*fd.Oracle
	api          *node.Proc
	every        time.Duration
	suspectAfter time.Duration

	group    []types.ProcessID // the group's members, ascending
	peers    []types.ProcessID // group minus self: every beat's addressees
	lastSeen map[types.ProcessID]time.Duration
	checkFn  func() // checkSuspicions, bound once
	tickFn   func() // tick, bound once

	// Leader-lease state (inert when leaseDur == 0). lease is owned by the
	// Runtime and outlives detector restarts; grants holds, per group
	// member, the newest beat that member countersigned for us (leader
	// side); promiseEnd holds, per candidate, the local time until which we
	// have promised that candidate our vote (follower side — the fence).
	lease      *fd.Lease
	leaseDur   time.Duration
	skew       time.Duration
	grants     map[types.ProcessID]int64
	promiseEnd map[types.ProcessID]time.Duration
}

var _ node.Protocol = (*heartbeatFD)(nil)

func newHeartbeatFD(api *node.Proc, every, suspectAfter time.Duration, obs *metrics.Collector, lease *fd.Lease, leaseDur, skew time.Duration) *heartbeatFD {
	h := &heartbeatFD{
		Oracle:       fd.NewOracle(api.Topo()),
		api:          api,
		every:        every,
		suspectAfter: suspectAfter,
		group:        api.Topo().Members(api.Group()),
		lastSeen:     make(map[types.ProcessID]time.Duration),
		lease:        lease,
		leaseDur:     leaseDur,
		skew:         skew,
		grants:       make(map[types.ProcessID]int64),
		promiseEnd:   make(map[types.ProcessID]time.Duration),
	}
	h.Oracle.Observer = obs
	h.peers = slices.DeleteFunc(slices.Clone(h.group), func(q types.ProcessID) bool { return q == api.Self() })
	h.checkFn, h.tickFn = h.checkSuspicions, h.tick
	// Registered before any protocol subscribes, so it runs first.
	h.Subscribe(func(g types.GroupID, leader types.ProcessID) {
		if g == api.Group() && leader != api.Self() && lease != nil {
			// Conservative revocation: the moment our own view stops
			// leading — a suspicion of us propagating, or us suspecting a
			// lower rank back to life — we stop serving lease reads,
			// without waiting for the grants to age out. (A partitioned
			// holder never runs this; the wall-clock window in the grant
			// protocol fences it instead.)
			lease.Revoke()
			clear(h.grants)
		}
	})
	return h
}

// Proto implements node.Protocol.
func (h *heartbeatFD) Proto() string { return "fd" }

// Start implements node.Protocol: it launches the beat/check cycle.
func (h *heartbeatFD) Start() {
	now := h.api.Now()
	for _, q := range h.peers {
		h.lastSeen[q] = now
	}
	h.tick()
}

func (h *heartbeatFD) tick() {
	self := h.api.Self()
	now := h.api.Now()
	node.Multicast(h.api, h.peers, fdProto, heartbeatMsg{Beat: int64(now)})
	if h.leaseDur > 0 && h.Leader(h.api.Group()) == self && h.canGrantTo(self, now) {
		// Self-grant through the same fencing path followers use: our own
		// vote counts toward the majority only while no other candidate
		// holds our promise.
		h.promiseEnd[self] = now + h.leaseDur + h.skew
		h.grants[self] = int64(now)
		h.recomputeLease(now)
	}
	h.checkSuspicions()
	// A peer whose silence will reach SuspectAfter before the next beat is
	// judged at that moment, not up to a period later. In a healthy group
	// every peer was heard within the last period and nothing is armed.
	for _, q := range h.peers {
		if h.Suspected(q) {
			continue
		}
		if wait := h.lastSeen[q] + h.suspectAfter - now; wait < h.every {
			h.api.After(wait, h.checkFn)
		}
	}
	h.api.After(h.every, h.tickFn)
}

// Handlers implements node.Protocol. A frame from a suspected peer restores
// trust (Unsuspect): crash-stop processes never beat again, so Ω was wrong.
func (h *heartbeatFD) Handlers() []node.Handler { return fdHandlers }

var fdHandlers = []node.Handler{
	node.On(func(h *heartbeatFD, from types.ProcessID, m heartbeatMsg) {
		h.Unsuspect(from)
		h.maybeGrant(from, m.Beat)
	}),
	node.On(func(h *heartbeatFD, from types.ProcessID, m leaseGrantMsg) {
		h.Unsuspect(from)
		h.acceptGrant(from, m.Beat)
	}),
}

// maybeGrant is the follower side of the lease protocol: countersign the
// beat of the replica we currently believe leads — unless an earlier
// promise to a DIFFERENT candidate still fences us, or leases are off.
func (h *heartbeatFD) maybeGrant(from types.ProcessID, beat int64) {
	if from != h.Leader(h.api.Group()) || h.leaseDur == 0 {
		return
	}
	now := h.api.Now()
	if !h.canGrantTo(from, now) {
		return
	}
	h.promiseEnd[from] = now + h.leaseDur + h.skew
	node.Send(h.api, from, fdProto, leaseGrantMsg{Beat: beat})
}

// canGrantTo reports whether every outstanding promise to a candidate
// other than to has expired. Promises are honored in local time even
// across suspicion changes: that persistence IS the fence that keeps an
// old holder's lease and a successor's from overlapping.
func (h *heartbeatFD) canGrantTo(to types.ProcessID, now time.Duration) bool {
	for q, end := range h.promiseEnd {
		if q != to && now < end {
			return false
		}
	}
	return true
}

// acceptGrant is the leader side: record the follower's newest vote and
// extend the published lease if a majority of the group (including self)
// still countersigns a recent enough beat.
func (h *heartbeatFD) acceptGrant(from types.ProcessID, beat int64) {
	if h.Leader(h.api.Group()) != h.api.Self() || h.leaseDur == 0 {
		return // demoted since the beat went out (grants were cleared), or leases are off
	}
	now := h.api.Now()
	if beat > int64(now) || beat <= h.grants[from] {
		return // from the future (not our beat) or stale
	}
	h.grants[from] = beat
	h.recomputeLease(now)
}

// recomputeLease extends the lease to (majority-th newest granted beat)
// + LeaseDuration − MaxClockSkew if at least a majority of grants are
// still inside their window. Expiry is passive: when grants age out the
// published deadline simply passes.
func (h *heartbeatFD) recomputeLease(now time.Duration) {
	if h.lease == nil {
		return
	}
	valid := make([]time.Duration, 0, len(h.group))
	for _, q := range h.group {
		b, ok := h.grants[q]
		if ok && time.Duration(b)+h.leaseDur-h.skew > now {
			valid = append(valid, time.Duration(b))
		}
	}
	maj := len(h.group)/2 + 1
	if len(valid) < maj {
		return
	}
	sort.Slice(valid, func(i, j int) bool { return valid[i] > valid[j] })
	untilRel := valid[maj-1] + h.leaseDur - h.skew
	// Translate the api-relative deadline to the wall clock the lease
	// publishes (read dispatch checks against time.Now()).
	h.lease.Extend(time.Now().Add(untilRel - now))
}

// Unsuspect restores trust in q (a beat from it, or a scenario ending a
// forced suspicion without waiting for the next beat). It also refreshes
// q's lastSeen so the next suspicion check does not immediately re-suspect
// a peer whose beats are still in flight.
func (h *heartbeatFD) Unsuspect(q types.ProcessID) {
	h.lastSeen[q] = h.api.Now()
	h.Oracle.Unsuspect(q)
}

// checkSuspicions suspects, in one Oracle.Suspect, every peer silent for
// SuspectAfter: two found together notify the subscribers once.
func (h *heartbeatFD) checkSuspicions() {
	now := h.api.Now()
	var silent []types.ProcessID
	for _, q := range h.peers {
		if !h.Suspected(q) && now-h.lastSeen[q] >= h.suspectAfter {
			silent = append(silent, q)
		}
	}
	h.Suspect(silent...)
}
