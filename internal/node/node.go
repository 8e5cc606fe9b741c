// Package node hosts the per-process protocol runtime shared by the
// simulated and the live transports.
//
// Every protocol in this repository (consensus, reliable multicast, the
// paper's A1 and A2, and all baselines) is written as an event-driven state
// machine against the API interface: it reacts to Start, incoming messages,
// and timers, and emits point-to-point sends. The runtime guarantees the
// paper's "each line is executed atomically" semantics by executing all
// events of a process sequentially, and it maintains the modified Lamport
// clock of §2.3 (ticking only on inter-group sends) used to measure latency
// degrees.
package node

import (
	"fmt"
	"time"

	"wanamcast/internal/metrics"
	"wanamcast/internal/trace"
	"wanamcast/internal/types"
)

// Protocol is an event-driven protocol instance bound to one process.
type Protocol interface {
	// Proto returns the wire label that routes messages to this protocol.
	// It must be unique among the protocols registered on a process.
	Proto() string
	// Start runs once when the system starts, before any message delivery.
	Start()
	// Receive handles a message from another process (or from self).
	Receive(from types.ProcessID, body any)
}

// API is the environment a protocol sees. It is implemented by *Proc.
type API interface {
	// Self returns the identity of the hosting process.
	Self() types.ProcessID
	// Group returns group(Self()).
	Group() types.GroupID
	// Topo returns the immutable system topology.
	Topo() *types.Topology
	// Send transmits body to process to under the given protocol label.
	// Sending to self is delivered locally without touching the network
	// (and without counting as a message). Sends from a crashed process
	// are dropped.
	Send(to types.ProcessID, proto string, body any)
	// Multicast transmits body to every process in tos as ONE logical
	// send event: the §2.3 clock ticks once if any destination lies
	// outside the sender's group, and every copy carries that single
	// timestamp. This mirrors the paper's "send m to {q | ...}"
	// statements, whose proofs treat the fan-out as one event (e.g.
	// Theorem 4.1: all (TS, m) copies share one timestamp). Message
	// accounting still counts every copy individually.
	Multicast(tos []types.ProcessID, proto string, body any)
	// After schedules fn on this process after delay d. The callback does
	// not run if the process has crashed by then.
	After(d time.Duration, fn func())
	// Now returns the current (virtual or wall) time of the run.
	Now() time.Duration
	// Micros reads the process's physical clock in µs: virtual time on the
	// simulator, Unix time on a live runtime — comparable across the
	// processes of a cluster up to their clocks' skew, which Now (time since
	// this runtime started) is not. Nothing may depend on it for safety.
	Micros() uint64
	// Clock returns the process's current modified Lamport clock (§2.3).
	Clock() int64
	// Crashed reports whether the hosting process has crashed.
	Crashed() bool
	// RecordCast reports an A-XCast event for metrics; the event is local,
	// so its timestamp is the current clock.
	RecordCast(id types.MessageID)
	// RecordDeliver reports an A-Deliver event for metrics.
	RecordDeliver(id types.MessageID)
	// Metrics returns the run's collector, for the protocols' own counters
	// (consensus instances, batch sizes, A2 rounds and bundles). It is nil
	// while the process replays its log — every recording method of a nil
	// collector discards — so callers bump it without a check.
	Metrics() *metrics.Collector
	// Tracef emits a debug trace line when tracing is enabled.
	Tracef(format string, args ...any)
	// TraceOn reports whether Tracef lines go anywhere. Call sites that run
	// per message check it first: building Tracef's args boxes every operand.
	TraceOn() bool
	// Trace records a lifecycle span for message id at the given stage
	// when a tracer is attached (see internal/trace). aux carries the
	// stage-specific payload: the Lamport clock at cast/deliver, a
	// duration in nanoseconds for barrier stages, a consensus instance
	// for propose/learn. Costs one nil check when no tracer is attached.
	Trace(st trace.Stage, id types.MessageID, aux int64)
	// Tracing reports whether lifecycle spans are being recorded, so call
	// sites can skip clock reads and other span bookkeeping when off.
	Tracing() bool
}

// Registrar is the registration surface protocol constructors use to attach
// themselves (and their sub-protocols) to a process. *Proc implements it.
type Registrar interface {
	API
	// Register attaches a protocol to the process's dispatch table.
	Register(proto Protocol)
}

// Env is the transport/scheduling backend a Proc runs on. The simulated
// runtime (this package) and the live TCP runtime implement it.
type Env interface {
	Now() time.Duration
	// Micros is the clock behind API.Micros, as process p reads it.
	Micros(p types.ProcessID) uint64
	// Transmit delivers body, stamped sendTS, to every process in tos in
	// list order: one call per send event. from has already updated its
	// clock; the env applies network delay, accounting and crash filtering
	// per receiver, and keeps no reference to tos. The simulator schedules
	// each run of consecutive IDs sharing an arrival instant and priority
	// class as one entry (internal/sim); the live runtime queues a frame
	// per receiver.
	Transmit(from types.ProcessID, tos []types.ProcessID, proto string, body any, sendTS int64)
	// Later schedules fn on process owner after d. The env MUST drop the
	// callback if the owner crashed by fire time — Proc.After relies on
	// it (it no longer wraps fn in a re-checking closure).
	Later(owner *Proc, d time.Duration, fn func())
	// Recorder returns the run's measurement sink; nil discards.
	Recorder() *metrics.Collector
	Tracef(format string, args ...any)
	// TraceOn reports whether a Tracef sink is attached.
	TraceOn() bool
}

// Proc is one process: a Lamport clock, a crash flag, and a protocol
// registry. Construct with NewProc.
type Proc struct {
	id         types.ProcessID
	group      types.GroupID
	topo       *types.Topology
	env        Env
	clock      int64
	crashed    bool
	recovering bool
	protos     map[string]Protocol
	order      []string           // registration order, for deterministic Start
	one        [1]types.ProcessID // Send's destination list: Transmit retains none

	tracer *trace.Tracer // nil = lifecycle tracing off
	lane   int           // tracer ring the process records into
}

var _ API = (*Proc)(nil)

// NewProc creates a process bound to env.
func NewProc(id types.ProcessID, topo *types.Topology, env Env) *Proc {
	return &Proc{
		id:     id,
		group:  topo.GroupOf(id),
		topo:   topo,
		env:    env,
		protos: make(map[string]Protocol),
	}
}

// Register adds a protocol to the process. It panics on a duplicate label:
// that is a wiring bug, not a runtime condition.
func (p *Proc) Register(proto Protocol) {
	name := proto.Proto()
	if _, dup := p.protos[name]; dup {
		panic(fmt.Sprintf("node: duplicate protocol %q on %v", name, p.id))
	}
	p.protos[name] = proto
	p.order = append(p.order, name)
}

// StartAll runs Start on every registered protocol in registration order.
func (p *Proc) StartAll() {
	for _, name := range p.order {
		p.protos[name].Start()
	}
}

// Self implements API.
func (p *Proc) Self() types.ProcessID { return p.id }

// Group implements API.
func (p *Proc) Group() types.GroupID { return p.group }

// Topo implements API.
func (p *Proc) Topo() *types.Topology { return p.topo }

// Now implements API.
func (p *Proc) Now() time.Duration { return p.env.Now() }

// Micros implements API.
func (p *Proc) Micros() uint64 { return p.env.Micros(p.id) }

// Clock implements API.
func (p *Proc) Clock() int64 { return p.clock }

// Crashed implements API.
func (p *Proc) Crashed() bool { return p.crashed }

// Crash marks the process as crashed: it stops sending, receiving, and
// running timers. Crash-stop (§2.1): there is no recovery of THIS Proc —
// the live runtime recovers a process by building a fresh Proc and
// replaying its durable state into it (see internal/transport/tcp).
func (p *Proc) Crash() { p.crashed = true }

// SetRecovering toggles replay mode: while recovering, the process sends
// nothing and records no metrics — log replay must reconstruct state
// silently, not re-broadcast the past. Timers still arm (they fire after
// recovery and re-drive liveness), and local hand-offs still run.
func (p *Proc) SetRecovering(r bool) { p.recovering = r }

// Recovering reports whether the process is replaying durable state.
func (p *Proc) Recovering() bool { return p.recovering }

// Send implements API. It applies the §2.3 clock rule for send events:
// inter-group sends tick the clock; intra-group sends do not.
func (p *Proc) Send(to types.ProcessID, proto string, body any) {
	p.one[0] = to
	p.Multicast(p.one[:], proto, body)
}

// Multicast implements API.
func (p *Proc) Multicast(tos []types.ProcessID, proto string, body any) {
	if p.crashed || p.recovering || len(tos) == 0 {
		return
	}
	interGroup := false
	for _, q := range tos {
		if q != p.id && p.topo.GroupOf(q) != p.group {
			interGroup = true
			break
		}
	}
	ts := p.clock
	if interGroup {
		ts = p.clock + 1
		p.clock = ts
	}
	// Self-sends also go through Transmit: the env delivers them with the
	// intra-group delay (keeping group members symmetric) but does not
	// count them as network messages.
	p.env.Transmit(p.id, tos, proto, body, ts)
}

// After implements API. The crashed-owner drop is the env's job (both
// runtimes check at fire time), so no wrapper closure is allocated here.
func (p *Proc) After(d time.Duration, fn func()) {
	p.env.Later(p, d, fn)
}

// RecordCast implements API. With a tracer attached it also opens the
// message's span chain: a StageCast event carrying the caster's clock,
// which the trace-based latency-degree measurements pair with the
// StageDeliver clocks.
func (p *Proc) RecordCast(id types.MessageID) {
	if p.recovering {
		return
	}
	p.env.Recorder().OnCast(id, p.clock, p.env.Now())
	if p.tracer != nil {
		p.tracer.Record(p.lane, trace.StageCast, id, p.id, p.clock)
	}
}

// RecordDeliver implements API. With a tracer attached it also records
// the StageDeliver span with the deliverer's clock.
func (p *Proc) RecordDeliver(id types.MessageID) {
	if p.recovering {
		return
	}
	p.env.Recorder().OnDeliver(id, p.id, p.clock, p.env.Now())
	if p.tracer != nil {
		p.tracer.Record(p.lane, trace.StageDeliver, id, p.id, p.clock)
	}
}

// Metrics implements API.
func (p *Proc) Metrics() *metrics.Collector {
	if p.recovering {
		return nil
	}
	return p.env.Recorder()
}

// SetTracer attaches the lifecycle tracer; lane selects the per-lane
// span ring this process records into (the live runtime passes the
// process's event-loop lane, the simulator passes its accounting lane).
func (p *Proc) SetTracer(t *trace.Tracer, lane int) {
	p.tracer = t
	p.lane = lane
}

// Trace implements API. Recovering processes record nothing: replaying a
// WAL must not re-trace the past.
func (p *Proc) Trace(st trace.Stage, id types.MessageID, aux int64) {
	if p.tracer == nil || p.recovering {
		return
	}
	p.tracer.Record(p.lane, st, id, p.id, aux)
}

// Tracing implements API.
func (p *Proc) Tracing() bool {
	return p.tracer.Enabled() && !p.recovering
}

// TraceOn implements API.
func (p *Proc) TraceOn() bool { return p.env.TraceOn() }

// Tracef implements API.
func (p *Proc) Tracef(format string, args ...any) {
	if !p.env.TraceOn() {
		return
	}
	p.env.Tracef("%v t=%v lc=%d "+format, append([]any{p.id, p.env.Now(), p.clock}, args...)...)
}

// Deliver hands an incoming network message to the process: it applies the
// receive clock rule and dispatches to the protocol. Envs call it at
// delivery time.
func (p *Proc) Deliver(from types.ProcessID, proto string, body any, sendTS int64) {
	if p.crashed {
		return
	}
	if sendTS > p.clock {
		p.clock = sendTS
	}
	handler, ok := p.protos[proto]
	if !ok {
		// A message for an unregistered protocol is a wiring bug.
		panic(fmt.Sprintf("node: %v received message for unknown protocol %q", p.id, proto))
	}
	handler.Receive(from, body)
}
