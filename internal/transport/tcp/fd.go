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

// heartbeatFD is the live Ω: every process beats to its group peers; a
// peer silent for SuspectAfter is suspected; the leader is the lowest
// unsuspected member. Silence is judged when it reaches SuspectAfter, by a
// check armed for that moment (tick), not at the observer's next beat: a
// crash is then noticed SuspectAfter after the victim's last beat arrived,
// and how long an outage lasts depends on where in the victim's beat period
// the crash fell, not also on where in the observer's. Suspicion is
// revocable: the moment a suspect's beat arrives again — after a partition
// heals, or after a chaos scenario's forced false suspicion — trust is
// restored, the leader is recomputed, and subscribers are re-notified. Ω's
// eventual accuracy holds as long as the loopback eventually delivers beats
// within the timeout — adequate for the localhost deployments this runtime
// targets, and exactly the trust-restoring behavior partitions need: one
// transient outage demotes a leader only until its heartbeats resume.
type heartbeatFD struct {
	api          *node.Proc
	obs          *metrics.Collector // nil discards
	every        time.Duration
	suspectAfter time.Duration

	group     []types.ProcessID
	peers     []types.ProcessID // group minus self: every beat's addressees
	lastSeen  map[types.ProcessID]time.Duration
	suspected map[types.ProcessID]bool
	leader    types.ProcessID
	subs      []func(types.GroupID, types.ProcessID)
	checkFn   func() // checkSuspicions, bound once
	tickFn    func() // tick, bound once

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

var _ fd.Detector = (*heartbeatFD)(nil)
var _ node.Protocol = (*heartbeatFD)(nil)

func newHeartbeatFD(api *node.Proc, every, suspectAfter time.Duration, obs *metrics.Collector, lease *fd.Lease, leaseDur, skew time.Duration) *heartbeatFD {
	h := &heartbeatFD{
		api:          api,
		obs:          obs,
		every:        every,
		suspectAfter: suspectAfter,
		lastSeen:     make(map[types.ProcessID]time.Duration),
		suspected:    make(map[types.ProcessID]bool),
		lease:        lease,
		leaseDur:     leaseDur,
		skew:         skew,
		grants:       make(map[types.ProcessID]int64),
		promiseEnd:   make(map[types.ProcessID]time.Duration),
	}
	h.group = append(h.group, api.Topo().Members(api.Group())...)
	sort.Slice(h.group, func(i, j int) bool { return h.group[i] < h.group[j] })
	h.peers = slices.DeleteFunc(slices.Clone(h.group), func(q types.ProcessID) bool { return q == api.Self() })
	h.leader = h.group[0]
	h.checkFn, h.tickFn = h.checkSuspicions, h.tick
	return h
}

// Proto implements node.Protocol.
func (h *heartbeatFD) Proto() string { return "fd" }

// Start implements node.Protocol: it launches the beat/check cycle.
func (h *heartbeatFD) Start() {
	now := h.api.Now()
	for _, q := range h.group {
		h.lastSeen[q] = now
	}
	h.tick()
}

func (h *heartbeatFD) tick() {
	self := h.api.Self()
	now := h.api.Now()
	node.Multicast(h.api, h.peers, fdProto, heartbeatMsg{Beat: int64(now)})
	if h.leaseDur > 0 && h.leader == self && h.canGrantTo(self, now) {
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
	for _, q := range h.group {
		if q == self || h.suspected[q] {
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
	if from != h.leader || h.leaseDur == 0 {
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
	if h.leader != h.api.Self() || h.leaseDur == 0 {
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

// Suspect forces a (false) suspicion of q, as a chaos scenario does to flap
// a leader: q is treated exactly like a timed-out peer, so the leader is
// recomputed and subscribers notified — and trust restores itself the
// moment q's next heartbeat lands. Run it on the owning process's loop.
// Suspecting self or an already-suspected peer is a no-op.
func (h *heartbeatFD) Suspect(q types.ProcessID) {
	if q == h.api.Self() || h.suspected[q] {
		return
	}
	h.suspected[q] = true
	h.obs.OnSuspect(h.api.Group(), q)
	h.recomputeLeader()
}

// Unsuspect explicitly restores trust in q (scenarios use it to end a
// forced suspicion without waiting for the next beat). It also refreshes
// q's lastSeen so the next suspicion check does not immediately re-suspect
// a peer whose beats are still in flight.
func (h *heartbeatFD) Unsuspect(q types.ProcessID) {
	h.lastSeen[q] = h.api.Now()
	if h.suspected[q] {
		h.restore(q)
	}
}

// restore revokes q's suspicion and recomputes the leadership.
func (h *heartbeatFD) restore(q types.ProcessID) {
	delete(h.suspected, q)
	h.obs.OnTrustRestored(h.api.Group(), q)
	h.recomputeLeader()
}

func (h *heartbeatFD) checkSuspicions() {
	now := h.api.Now()
	changed := false
	for _, q := range h.group {
		if q == h.api.Self() || h.suspected[q] {
			continue
		}
		if now-h.lastSeen[q] >= h.suspectAfter {
			h.suspected[q] = true
			h.obs.OnSuspect(h.api.Group(), q)
			changed = true
		}
	}
	if changed {
		h.recomputeLeader()
	}
}

func (h *heartbeatFD) recomputeLeader() {
	leader := h.group[0]
	for _, q := range h.group {
		if !h.suspected[q] {
			leader = q
			break
		}
	}
	if leader == h.leader {
		return
	}
	h.leader = leader
	if leader != h.api.Self() && h.lease != nil {
		// Conservative revocation: the moment our own view stops leading —
		// a suspicion of us propagating, or us suspecting a lower rank back
		// to life — we stop serving lease reads, without waiting for the
		// grants to age out. (A partitioned holder never runs this; the
		// wall-clock window in the grant protocol fences it instead.)
		h.lease.Revoke()
		clear(h.grants)
	}
	h.obs.OnLeaderChange(h.api.Group(), leader)
	for _, fn := range h.subs {
		fn(h.api.Group(), leader)
	}
}

// Leader implements fd.Detector. Only the local group's view is
// maintained; protocols in this repository never ask about other groups.
func (h *heartbeatFD) Leader(g types.GroupID) types.ProcessID {
	if g != h.api.Group() {
		return h.api.Topo().Members(g)[0]
	}
	return h.leader
}

// Subscribe implements fd.Detector.
func (h *heartbeatFD) Subscribe(fn func(types.GroupID, types.ProcessID)) {
	h.subs = append(h.subs, fn)
}
