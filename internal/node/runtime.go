package node

import (
	"encoding/binary"
	"reflect"
	"time"

	"wanamcast/internal/fd"
	"wanamcast/internal/metrics"
	"wanamcast/internal/network"
	"wanamcast/internal/sim"
	"wanamcast/internal/types"
	"wanamcast/internal/wire"
)

// Runtime is the simulated whole-system runtime: it owns the scheduler, the
// network fabric, one Proc per process, the failure-detector oracle, and the
// run's metrics collector. It implements Env.
//
// The fabric makes the simulated network partitionable at runtime: a
// message sent over a severed link is withheld (parked in the runtime, not
// lost — quasi-reliable channels, §2.1) and released when the link heals,
// so a partition-then-heal is exactly an arbitrary-but-finite delay and
// every such run is admissible. Severing every intra-group link out of a
// process simulates its heartbeats ceasing: after SuspicionDelay the Ω
// oracle suspects it, and healing restores trust (Unsuspect), re-electing
// any demoted leader. All fabric mutations must happen on the scheduler's
// goroutine (schedule them as events, or make them before Run).
type Runtime struct {
	sched  *sim.Scheduler
	topo   *types.Topology
	fabric *network.Fabric
	rec    *metrics.Collector // nil discards
	oracle *fd.Oracle
	procs  []*Proc

	// Skew, when non-nil, gives every process a physical clock of its own —
	// offset, drifting, frozen, jumping: what p reads when the true clock
	// (virtual µs) reads now. Nothing may depend on that clock for safety.
	Skew func(now uint64, p types.ProcessID) uint64

	// Hook, when non-nil, is handed each copy for a receiver that has not
	// crashed in place of its step, for a test: m is the value, boxed, and
	// deliver runs the step — now, later, or never (the copy is lost). The
	// copy's slot is freed either way.
	Hook Hook

	held         map[network.Link][]heldMsg // parked sends of severed links
	isoSuspected map[types.ProcessID]bool   // suspected due to isolation, not crash

	// Bandwidth modeling state, touched only when the fabric is
	// bandwidth-capped (Fabric.BandwidthOn). Each capped link is a FIFO
	// transmission queue: a message occupies the link for its transmit
	// time and queues behind earlier traffic, so sized messages convert
	// directly into latency. bwScratch is the reusable buffer a send is
	// encoded into once, as a live sender encodes it, to size it; bwNextFree
	// is each link's earliest free instant. An uncapped run never touches
	// any of this — its event stream is byte-identical to one without the
	// machinery.
	bwNextFree map[network.Link]time.Duration
	bwScratch  []byte

	// SuspicionDelay is how long after a crash (or a full intra-group
	// isolation) the Ω oracle starts suspecting the process. It models
	// failure-detection lag.
	SuspicionDelay time.Duration

	// Trace, if non-nil, receives debug trace lines.
	Trace func(format string, args ...any)

	started bool
}

// Hook is the type of Runtime.Hook.
type Hook func(from, to types.ProcessID, proto string, m any, sendTS int64, deliver func())

// heldMsg is one send parked on a severed link until it heals.
type heldMsg struct {
	proto  string
	slot   Slot
	sendTS int64
}

var _ Env = (*Runtime)(nil)

// NewRuntime builds a simulated system over topo with the given network
// model and RNG seed. rec may be nil to discard metrics; it also receives
// the oracle's suspicion, trust, and leader-change events.
func NewRuntime(topo *types.Topology, model network.Model, seed int64, rec *metrics.Collector) *Runtime {
	rt := &Runtime{
		sched:          sim.New(seed),
		topo:           topo,
		fabric:         network.NewFabric(topo, model),
		rec:            rec,
		oracle:         fd.NewOracle(topo),
		held:           make(map[network.Link][]heldMsg),
		isoSuspected:   make(map[types.ProcessID]bool),
		SuspicionDelay: 20 * time.Millisecond,
	}
	rt.oracle.Observer = rec
	rt.procs = make([]*Proc, topo.N())
	pools := make(map[reflect.Type]any) // every send and delivery runs on the scheduler's goroutine
	for _, id := range topo.AllProcesses() {
		rt.procs[id] = NewProc(id, topo, rt)
		rt.procs[id].pools = pools
	}
	rt.sched.OnDeliver(rt.execDeliver)
	rt.fabric.OnTransition(rt.onLinkTransition)
	return rt
}

// execDeliver executes one delivery event: it runs the copy's typed step
// at the receiver, or hands the copy to Hook. This is the single delivery
// handler the scheduler invokes for every network arrival — no closure per
// send.
func (rt *Runtime) execDeliver(from, to int32, proto string, body any, sendTS int64) {
	s, p := body.(Slot), rt.procs[to]
	if rt.Hook == nil || p.crashed {
		s.Deliver(p, types.ProcessID(from), proto, sendTS)
		return
	}
	s.intercept(rt.Hook, p, types.ProcessID(from), proto, sendTS)
}

func (c *cell[T]) intercept(h Hook, p *Proc, from types.ProcessID, proto string, sendTS int64) {
	m := c.take()
	h(from, p.id, proto, m, sendTS, func() { Deliver(p, from, proto, m, sendTS) })
}

// Proc returns the process with the given ID.
func (rt *Runtime) Proc(id types.ProcessID) *Proc { return rt.procs[id] }

// Topo returns the system topology.
func (rt *Runtime) Topo() *types.Topology { return rt.topo }

// Oracle returns the simulation's Ω oracle.
func (rt *Runtime) Oracle() *fd.Oracle { return rt.oracle }

// Fabric returns the mutable link fabric: the chaos control surface of the
// simulated network. Mutate it only from the scheduler goroutine.
func (rt *Runtime) Fabric() *network.Fabric { return rt.fabric }

// Scheduler returns the underlying discrete-event scheduler.
func (rt *Runtime) Scheduler() *sim.Scheduler { return rt.sched }

// Start invokes Start on every protocol of every process, in process order.
// It must be called exactly once, after all protocols are registered.
func (rt *Runtime) Start() {
	if rt.started {
		panic("node: Runtime.Start called twice")
	}
	rt.started = true
	for _, p := range rt.procs {
		p.StartAll()
	}
}

// Run drains the event queue and returns the number of events executed.
func (rt *Runtime) Run() uint64 { return rt.sched.Run() }

// RunUntil executes events up to the virtual-time deadline.
func (rt *Runtime) RunUntil(deadline time.Duration) uint64 { return rt.sched.RunUntil(deadline) }

// Now implements Env.
func (rt *Runtime) Now() time.Duration { return rt.sched.Now() }

// Micros implements Env: virtual time, so that a run stays a function of
// its seed — as Skew, when set, bends it for process p.
func (rt *Runtime) Micros(p types.ProcessID) uint64 {
	now := uint64(rt.sched.Now() / time.Microsecond)
	if rt.Skew != nil {
		return rt.Skew(now, p)
	}
	return now
}

// Recorder implements Env.
func (rt *Runtime) Recorder() *metrics.Collector { return rt.rec }

// TraceOn implements Env.
func (rt *Runtime) TraceOn() bool { return rt.Trace != nil }

// Tracef implements Env.
func (rt *Runtime) Tracef(format string, args ...any) {
	if rt.Trace != nil {
		rt.Trace(format, args...)
	}
}

// Transmit implements Env: for each receiver in list order it accounts the
// send, applies the network delay, and delivers unless the receiver has
// crashed by arrival time. Self-sends take the intra-group delay but are
// not counted as network messages. A send over a severed link is parked
// until the link heals — the message is in the network, arbitrarily
// delayed, never lost.
//
// The hot path of a simulated run, allocation-free in steady state: one
// fabric Route call per receiver, trace formatting only with a Trace hook,
// and one scheduler entry per run of consecutive process IDs with equal
// delay and priority class. Routing, tracing and counting stay per
// receiver — the rng draws, SEND/HOLD lines and Stats of one send each —
// so a held send, a jittered delay or a bandwidth queue ends a run.
func (rt *Runtime) Transmit(from types.ProcessID, tos []types.ProcessID, proto string, s Slot, sendTS int64) {
	var (
		first    types.ProcessID
		n        int // receivers first..first+n-1 wait to be scheduled
		runDelay time.Duration
		runPrio  int
		sub      = rt.sized(proto, s, sendTS)
	)
	for _, to := range tos {
		if from != to {
			rt.rec.OnSend(proto, from, to, !rt.topo.SameGroup(from, to), rt.sched.Now())
		}
		delay, severed := rt.fabric.Route(from, to, rt.sched.Rand())
		if severed {
			if rt.Trace != nil {
				rt.Tracef("HOLD %v->%v %s ts=%d (link severed)", from, to, proto, sendTS)
			}
			l := network.Link{From: from, To: to}
			rt.held[l] = append(rt.held[l], heldMsg{proto: proto, slot: s, sendTS: sendTS})
			continue
		}
		if rt.Trace != nil {
			rt.Tracef("SEND %v->%v %s ts=%d %+v", from, to, proto, sendTS, s.Value())
		}
		delay, prio := rt.arrival(from, to, delay, sub)
		if n > 0 && to == first+types.ProcessID(n) && delay == runDelay && prio == runPrio {
			n++
			continue
		}
		if n > 0 {
			rt.sched.DeliverAfter(runDelay, runPrio, int32(from), int32(first), int32(first)+int32(n)-1, proto, s, sendTS)
		}
		first, n, runDelay, runPrio = to, 1, delay, prio
	}
	if n > 0 {
		rt.sched.DeliverAfter(runDelay, runPrio, int32(from), int32(first), int32(first)+int32(n)-1, proto, s, sendTS)
	}
}

// sized returns s's value encoded once as a live sender encodes it
// (wire.AppendSub, a view of bwScratch) on a bandwidth-modeled run, and nil on
// any other or for a value that cannot be encoded (a test's gob rejection:
// nothing sized, nothing owed).
func (rt *Runtime) sized(proto string, s Slot, sendTS int64) []byte {
	if !rt.fabric.BandwidthOn() {
		return nil
	}
	sub, err := wire.AppendSub(rt.bwScratch[:0], proto, sendTS, s.Value())
	if err != nil {
		return nil
	}
	rt.bwScratch = sub[:0]
	return sub
}

// bwDelay sizes one copy of sub as the plain frame the live wire carries to
// one receiver (length prefix, sender, sub) and returns its transmission +
// queueing delay on the (possibly capped) link, counting the bytes in the
// wire metrics.
func (rt *Runtime) bwDelay(from, to types.ProcessID, sub []byte) time.Duration {
	var v [binary.MaxVarintLen64]byte
	n := 4 + binary.PutVarint(v[:], int64(from)) + len(sub)
	rt.rec.OnWireSend(byte(wire.SubKind(sub)), n)
	rt.rec.OnWireFlush(n, 0, 0)
	rate := rt.fabric.Bandwidth(from, to)
	if rate <= 0 {
		return 0
	}
	l := network.Link{From: from, To: to}
	now := rt.sched.Now()
	start := now
	if rt.bwNextFree == nil {
		rt.bwNextFree = make(map[network.Link]time.Duration)
	} else if nf := rt.bwNextFree[l]; nf > start {
		start = nf
	}
	finish := start + network.TransmitTime(rate, n)
	rt.bwNextFree[l] = finish
	return finish - now
}

// arrival adds the bandwidth queue to the delay of one copy of sub (sized)
// on an unsevered link and picks its priority class: at equal instants,
// local events precede WAN arrivals.
func (rt *Runtime) arrival(from, to types.ProcessID, delay time.Duration, sub []byte) (time.Duration, int) {
	if from != to && sub != nil {
		delay += rt.bwDelay(from, to, sub)
	}
	if rt.topo.SameGroup(from, to) {
		return delay, 0
	}
	return delay, 1
}

// onLinkTransition reacts to fabric sever/heal events: healing a link
// releases its parked messages (in send order, at the link's current
// delay) and restores trust in a process whose isolation caused a
// suspicion; severing the last intra-group link out of a process starts
// its suspicion clock, modeling heartbeats going dark.
func (rt *Runtime) onLinkTransition(l network.Link, severed bool) {
	if severed {
		if rt.intraGroupPeer(l) && rt.isolated(l.From) && !rt.procs[l.From].Crashed() {
			p := l.From
			rt.Tracef("ISOLATED %v at %v", p, rt.sched.Now())
			rt.sched.After(rt.SuspicionDelay, func() {
				if rt.isolated(p) && !rt.procs[p].Crashed() && !rt.oracle.Suspected(p) {
					rt.isoSuspected[p] = true
					rt.oracle.Suspect(p)
				}
			})
		}
		return
	}
	// Healed: release parked messages.
	if msgs := rt.held[l]; len(msgs) > 0 {
		delete(rt.held, l)
		rt.Tracef("RELEASE %d held msgs %v->%v at %v", len(msgs), l.From, l.To, rt.sched.Now())
		for _, m := range msgs {
			d := rt.fabric.Delay(l.From, l.To, rt.sched.Rand())
			delay, prio := rt.arrival(l.From, l.To, d, rt.sized(m.proto, m.slot, m.sendTS))
			rt.sched.DeliverAfter(delay, prio, int32(l.From), int32(l.To), int32(l.To), m.proto, m.slot, m.sendTS)
		}
	}
	// Trust restored: simulated heartbeats resume the moment any
	// intra-group link out of the process heals.
	if rt.intraGroupPeer(l) && rt.isoSuspected[l.From] && !rt.procs[l.From].Crashed() {
		delete(rt.isoSuspected, l.From)
		rt.oracle.Unsuspect(l.From)
	}
}

// intraGroupPeer reports whether l connects two distinct members of one
// group — the links simulated heartbeats ride on.
func (rt *Runtime) intraGroupPeer(l network.Link) bool {
	return l.From != l.To && rt.topo.SameGroup(l.From, l.To)
}

// isolated reports whether every intra-group link out of p is severed: no
// simulated heartbeat of p reaches any group peer.
func (rt *Runtime) isolated(p types.ProcessID) bool {
	for _, q := range rt.topo.Members(rt.topo.GroupOf(p)) {
		if q != p && !rt.fabric.Severed(p, q) {
			return false
		}
	}
	return true
}

// Later implements Env. Timer callbacks whose owning process has crashed
// by fire time are dropped: a dead node must not keep driving consensus
// rounds. The drop rides the scheduler's typed timer event — no wrapper
// closure per timer.
func (rt *Runtime) Later(owner *Proc, d time.Duration, fn func()) {
	rt.sched.TimerAfter(d, owner, fn)
}

// Crash crashes process id now: it stops sending and receiving immediately,
// and the Ω oracle suspects it after SuspicionDelay.
func (rt *Runtime) Crash(id types.ProcessID) {
	p := rt.procs[id]
	if p.Crashed() {
		return
	}
	p.Crash()
	delete(rt.isoSuspected, id) // a crash suspicion is permanent
	rt.Tracef("CRASH %v at %v", id, rt.sched.Now())
	rt.sched.After(rt.SuspicionDelay, func() { rt.oracle.Suspect(id) })
}

// CrashAt schedules a crash of id at virtual time at.
func (rt *Runtime) CrashAt(id types.ProcessID, at time.Duration) {
	rt.sched.At(at, func() { rt.Crash(id) })
}

// Suspect injects a (possibly false) suspicion of id into the Ω oracle —
// the chaos scenarios' leader-flap lever.
func (rt *Runtime) Suspect(id types.ProcessID) { rt.oracle.Suspect(id) }

// Unsuspect restores trust in id unless it has crashed (a crash-stop is
// permanent; only mistaken suspicions are revocable).
func (rt *Runtime) Unsuspect(id types.ProcessID) {
	if rt.procs[id].Crashed() {
		return
	}
	delete(rt.isoSuspected, id)
	rt.oracle.Unsuspect(id)
}
