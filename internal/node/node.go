// Package node hosts the per-process protocol runtime shared by the
// simulated and the live transports.
//
// Every protocol in this repository (consensus, reliable multicast, the
// paper's A1 and A2, and all baselines) is an event-driven state machine
// that holds the *Proc it runs on: it reacts to Start, incoming messages,
// and timers, and emits sends through Send and Multicast. The Proc
// guarantees the paper's "each line is executed atomically" semantics by
// executing all events of a process sequentially, and it maintains the
// modified Lamport clock of §2.3 (ticking only on inter-group sends) used to
// measure latency degrees. What differs between the simulator and the live
// runtime lies behind Env.
//
// A message reaches its handler along one path, the typed step Deliver[T]:
// the handler of the type T it was sent as (On) runs on the value, never
// boxed. The simulator runs the step for every copy, from the Slot its send
// carries; the live runtime runs it for a self-send from its Slot, and for a
// frame off the wire after decoding it into a T (DeliverValue). A test
// interposes on the simulator's deliveries through Runtime.Hook alone.
package node

import (
	"fmt"
	"reflect"
	"sync"
	"time"

	"wanamcast/internal/metrics"
	"wanamcast/internal/trace"
	"wanamcast/internal/types"
	"wanamcast/internal/wire"
)

// Replica is an application hosted on a process, such as the service
// layer's Server: it receives the process's A-Deliveries, replayed ones
// included, and its state is one snapshot section of the process.
type Replica interface {
	Deliver(id types.MessageID, payload []byte)
	SaveSnapshot() ([]byte, error)
	RestoreSnapshot(data []byte) error
}

// Protocol is an event-driven protocol instance bound to one process.
type Protocol interface {
	// Proto returns the wire label that routes messages to this protocol.
	// It must be unique among the protocols registered on a process.
	Proto() string
	// Start runs once when the system starts, before any message delivery.
	Start()
	// Handlers returns the protocol's dispatch table, one handler per type of
	// message it accepts (On): one table per protocol type, shared by its
	// instances, since a handler receives its instance as p.
	Handlers() []Handler
}

// A Handler runs a protocol's step for the messages of one type T: it gets
// the value sent, unboxed, from a Slot (the simulator's copies, a live
// runtime's self-sends), or decodes it off a live receive buffer straight
// into a local of T (DeliverValue).
type Handler struct {
	step any // func(Protocol, types.ProcessID, T), found by its type (Deliver)
	// decode runs the step for value if it holds a T — it reports whether —
	// decoding it, unless p has crashed, and returns the bytes after it.
	decode func(p *Proc, r Protocol, from types.ProcessID, value []byte, sendTS int64) (rest []byte, ok bool, err error)
}

// On makes fn, typically a method expression of the protocol type P, the
// handler of the messages of type T. T is the type a message is sent as:
// an interface type matches no send, so On panics for one.
func On[P Protocol, T any](fn func(p P, from types.ProcessID, m T)) Handler {
	if t := reflect.TypeFor[T](); t.Kind() == reflect.Interface {
		panic(fmt.Sprintf("node: a %v handler of interface type %v: a message reaches the handler of its sent type", reflect.TypeFor[P](), t))
	}
	step := func(p Protocol, from types.ProcessID, m T) { fn(p.(P), from, m) }
	// Looked up on first use: a package's tables precede its codecs' init.
	codec := sync.OnceValues(wire.DecoderOf[T])
	return Handler{step: step, decode: func(p *Proc, r Protocol, from types.ProcessID, value []byte, sendTS int64) ([]byte, bool, error) {
		k, dec := codec()
		if dec == nil || byte(k) != value[0] {
			return nil, false, nil
		}
		m, rest, err := dec(value[1:])
		if err == nil && !p.crashed {
			p.clock = max(p.clock, sendTS)
			step(r, from, m)
		}
		return rest, true, err
	}}
}

// Env is the transport/scheduling backend a Proc runs on. The simulated
// runtime (this package) and the live TCP runtime implement it.
type Env interface {
	Now() time.Duration
	// Micros is the clock behind Proc.Micros, as process p reads it.
	Micros(p types.ProcessID) uint64
	// Transmit delivers s's value, stamped sendTS, to every process in tos
	// in list order: one call per send event, and one s.Deliver per copy,
	// crashed receivers' included. from has already updated its clock; the
	// env applies network delay, accounting and crash filtering per
	// receiver, and keeps no reference to tos. The simulator schedules each
	// run of consecutive IDs sharing an arrival instant and priority class as
	// one entry (internal/sim); a Proc hands a WireEnv only its self-sends
	// here, which the env posts to the sender's own loop.
	Transmit(from types.ProcessID, tos []types.ProcessID, proto string, s Slot, sendTS int64)
	// Later schedules fn on process owner after d. The env MUST drop the
	// callback if the owner crashed by fire time: Proc.After relies on it.
	Later(owner *Proc, d time.Duration, fn func())
	// Recorder returns the run's measurement sink; nil discards.
	Recorder() *metrics.Collector
	Tracef(format string, args ...any)
	// TraceOn reports whether a Tracef sink is attached.
	TraceOn() bool
}

// WireEnv is an Env that takes a message already encoded: the live runtime.
type WireEnv interface {
	Env
	// TransmitEncoded is Transmit of sub, one message as wire.AppendSub
	// encoded it, to every process in tos but from. It copies sub for the
	// caller to reuse — unless sub holds OwnLen bytes or more: then the
	// receivers share sub, which the caller never writes again.
	TransmitEncoded(from types.ProcessID, tos []types.ProcessID, proto string, sub []byte)
}

// OwnLen is the size from which a WireEnv keeps an encoded message.
const OwnLen = 16 << 10

// Proc is one process: a Lamport clock, a crash flag, a protocol registry,
// and the one issuer of its cast IDs (NewCast). Construct with NewProc.
type Proc struct {
	id         types.ProcessID
	group      types.GroupID
	topo       *types.Topology
	env        Env
	clock      int64
	crashed    bool
	recovering bool
	lastCast   uint64               // the Seq of the last cast ID NewCast issued
	handlers   map[string]route     // by proto label
	order      []Protocol           // registration order, for deterministic Start
	one        [1]types.ProcessID   // Send's destination list: Transmit retains none
	wire       WireEnv              // env, when it takes encoded messages
	enc        []byte               // the encode buffer of a WireEnv's sends
	pools      map[reflect.Type]any // a *cellPool[T] per type sent through Transmit; the simulator's Procs share one

	tracer *trace.Tracer // nil = lifecycle tracing off
	lane   int           // tracer ring the process records into
}

// route is one registered protocol and its handlers.
type route struct {
	p  Protocol
	hs []Handler
}

// NewProc creates a process bound to env.
func NewProc(id types.ProcessID, topo *types.Topology, env Env) *Proc {
	w, _ := env.(WireEnv)
	return &Proc{
		id:       id,
		group:    topo.GroupOf(id),
		topo:     topo,
		env:      env,
		wire:     w,
		handlers: make(map[string]route),
	}
}

// Register adds a protocol to the process. It panics on a duplicate label:
// that is a wiring bug, not a runtime condition.
func (p *Proc) Register(proto Protocol) {
	name := proto.Proto()
	if _, dup := p.handlers[name]; dup {
		panic(fmt.Sprintf("node: duplicate protocol %q on %v", name, p.id))
	}
	p.handlers[name] = route{proto, proto.Handlers()}
	p.order = append(p.order, proto)
}

// StartAll runs Start on every registered protocol in registration order.
func (p *Proc) StartAll() {
	for _, proto := range p.order {
		proto.Start()
	}
}

// Self returns the identity of the process.
func (p *Proc) Self() types.ProcessID { return p.id }

// Group returns group(Self()).
func (p *Proc) Group() types.GroupID { return p.group }

// Topo returns the immutable system topology.
func (p *Proc) Topo() *types.Topology { return p.topo }

// Now returns the current (virtual or wall) time of the run.
func (p *Proc) Now() time.Duration { return p.env.Now() }

// Micros reads the process's physical clock in µs: virtual time on the
// simulator, Unix time on a live runtime — comparable across the processes
// of a cluster up to their clocks' skew, which Now (time since this runtime
// started) is not. Nothing may depend on it for safety.
func (p *Proc) Micros() uint64 { return p.env.Micros(p.id) }

// Clock returns the process's current modified Lamport clock (§2.3).
func (p *Proc) Clock() int64 { return p.clock }

// Crashed reports whether the process has crashed.
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

// Send transmits m to process to under the given protocol label: on a live
// runtime it is encoded once, from T, and not boxed. Sending to self is
// delivered locally without touching the network (and without counting as a
// message). Sends from a crashed or recovering process are dropped.
func Send[T any](p *Proc, to types.ProcessID, proto string, m T) {
	p.one[0] = to
	Multicast(p, p.one[:], proto, m)
}

// Multicast transmits m to every process in tos as ONE logical send event:
// the §2.3 clock ticks once if any destination lies outside the sender's
// group, and every copy carries that single timestamp. This mirrors the
// paper's "send m to {q | ...}" statements, whose proofs treat the fan-out
// as one event (e.g. Theorem 4.1: all (TS, m) copies share one timestamp).
// Message accounting still counts every copy individually. On a live runtime
// m is encoded once, from T, for all of tos, and a copy to self rides a Slot;
// the simulator carries every copy in one Slot. Nothing is boxed.
func Multicast[T any](p *Proc, tos []types.ProcessID, proto string, m T) {
	if p.crashed || p.recovering || len(tos) == 0 {
		return
	}
	ts, self := p.clock, false
	for _, q := range tos {
		self = self || q == p.id
		if q != p.id && p.topo.GroupOf(q) != p.group {
			ts = p.clock + 1
		}
	}
	p.clock = ts
	// Self-sends also go through Transmit: the env delivers them with the
	// intra-group delay (keeping group members symmetric) but does not
	// count them as network messages.
	if p.wire == nil {
		p.env.Transmit(p.id, tos, proto, slotOf(p, m, len(tos)), ts)
		return
	}
	if self {
		p.one[0] = p.id // tos is p.one only if it holds just p.id
		if p.env.Transmit(p.id, p.one[:], proto, slotOf(p, m, 1), ts); len(tos) == 1 {
			return
		}
	}
	sub, err := wire.AppendSub(p.enc[:0], proto, ts, m)
	if err != nil {
		p.Tracef("encode error %s: %v", proto, err)
		return
	}
	if p.enc = sub[:0]; len(sub) >= OwnLen {
		p.enc = nil // the env keeps sub
	}
	p.wire.TransmitEncoded(p.id, tos, proto, sub)
}

// After schedules fn on this process after delay d. The callback does not
// run if the process has crashed by then: that drop is the env's job (both
// runtimes check at fire time), so no wrapper closure is allocated here.
func (p *Proc) After(d time.Duration, fn func()) {
	p.env.Later(p, d, fn)
}

// NewCast issues the ID of an A-XCast by this process: its Seq is
// incarnation<<CountBits | n, n counting the incarnation's casts from 1, so
// no two casts of the process share an ID, whichever protocol makes them. It
// records the cast for metrics at the current clock (the event is local)
// and, with a tracer attached, opens the message's span chain: a StageCast
// event carrying the caster's clock, which the trace-based latency-degree
// measurements pair with the StageDeliver clocks.
func (p *Proc) NewCast() types.MessageID {
	if p.lastCast++; p.lastCast&(1<<CountBits-1) == 0 {
		panic(fmt.Sprintf("node: %v cast 2^%d messages in one incarnation; a restart casts under the next", p.id, CountBits))
	}
	id := types.MessageID{Origin: p.id, Seq: p.lastCast}
	if !p.recovering {
		p.env.Recorder().OnCast(id, p.clock, p.env.Now())
	}
	p.Trace(trace.StageCast, id, p.clock)
	return id
}

// CountBits is the width of n in a cast ID; the incarnation takes the rest.
const CountBits = 40

// SetIncarnation makes the casts to come those of incarnation i, which the
// process's host has made durable; a volatile process stays at 0.
func (p *Proc) SetIncarnation(i uint64) { p.lastCast = i << CountBits }

// RecordDeliver reports an A-Deliver event for metrics. With a tracer
// attached it also records the StageDeliver span with the deliverer's clock.
func (p *Proc) RecordDeliver(id types.MessageID) {
	if p.recovering {
		return
	}
	p.env.Recorder().OnDeliver(id, p.id, p.clock, p.env.Now())
	if p.tracer != nil {
		p.tracer.Record(p.lane, trace.StageDeliver, id, p.id, p.clock)
	}
}

// Metrics returns the run's collector, for the protocols' own counters
// (consensus instances, batch sizes, A2 rounds and bundles). It is nil while
// the process replays its log — every recording method of a nil collector
// discards — so callers bump it without a check.
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

// Trace records a lifecycle span for message id at the given stage when a
// tracer is attached (see internal/trace). aux carries the stage-specific
// payload: the Lamport clock at cast/deliver, a duration in nanoseconds for
// barrier stages, a consensus instance for propose/learn. Recovering
// processes record nothing: replaying a WAL must not re-trace the past.
func (p *Proc) Trace(st trace.Stage, id types.MessageID, aux int64) {
	if p.tracer == nil || p.recovering {
		return
	}
	p.tracer.Record(p.lane, st, id, p.id, aux)
}

// Tracing reports whether lifecycle spans are being recorded, so call sites
// can skip clock reads and other span bookkeeping when off.
func (p *Proc) Tracing() bool {
	return p.tracer.Enabled() && !p.recovering
}

// TraceOn reports whether Tracef lines go anywhere. Call sites that run per
// message check it first: building Tracef's args boxes every operand.
func (p *Proc) TraceOn() bool { return p.env.TraceOn() }

// Tracef emits a debug trace line when tracing is enabled.
func (p *Proc) Tracef(format string, args ...any) {
	if !p.env.TraceOn() {
		return
	}
	p.env.Tracef("%v t=%v lc=%d "+format, append([]any{p.id, p.env.Now(), p.clock}, args...)...)
}

// Deliver is the typed step of one copy of m, sent by from under proto and
// stamped sendTS: unless p has crashed, it applies the receive clock rule and
// runs proto's handler of T. Both runtimes run it, through a Slot; a test
// calls it to hand p a message. No such handler is a wiring bug: panic.
func Deliver[T any](p *Proc, from types.ProcessID, proto string, m T, sendTS int64) {
	r := p.handlers[proto]
	for _, h := range r.hs {
		if step, ok := h.step.(func(Protocol, types.ProcessID, T)); ok {
			if !p.crashed {
				p.clock = max(p.clock, sendTS)
				step(r.p, from, m)
			}
			return
		}
	}
	panic(fmt.Sprintf("node: %v has no %q handler for %v", p.id, proto, reflect.TypeFor[T]()))
}

// DeliverValue is Deliver for a value still encoded, as a live runtime reads
// it: proto's handler of the value's kind decodes it into a local of its type
// and, unless p has crashed, runs. It returns the bytes after the value. A
// value no handler takes or that fails to decode came from a broken peer: an
// error, never a panic.
func (p *Proc) DeliverValue(from types.ProcessID, proto string, value []byte, sendTS int64) ([]byte, error) {
	r := p.handlers[proto]
	for _, h := range r.hs {
		if rest, ok, err := h.decode(p, r.p, from, value, sendTS); ok {
			return rest, err
		}
	}
	return nil, fmt.Errorf("node: %v has no %q handler for kind %d", p.id, proto, value[0])
}

// A Slot holds one sent value, unboxed, for the copies of its send still to
// be delivered; the last one frees it to the pool it came from. Only
// Multicast makes one, and a pool is touched only by the goroutine that runs
// both a send and its copies' delivery: the simulator's, or on a live
// runtime the sender's own loop, to which its self-sends are posted.
type Slot interface {
	// Deliver runs the typed step (Deliver) of one copy at p.
	Deliver(p *Proc, from types.ProcessID, proto string, sendTS int64)
	// Value returns the value, boxed: for a trace line or a sized encode.
	Value() any
	// intercept hands one copy to the simulator's Hook instead.
	intercept(h Hook, p *Proc, from types.ProcessID, proto string, sendTS int64)
}

// cell is the Slot of a value of type T, with one reference per copy still
// to be delivered; a pool carves cells from chunks.
type cell[T any] struct {
	v    T
	refs int
	pool *cellPool[T]
}

type cellPool[T any] struct {
	chunk []cell[T]
	free  []*cell[T]
}

// slotOf returns a slot of m for refs copies, from p's pool of T's slots.
func slotOf[T any](p *Proc, m T, refs int) *cell[T] {
	t := reflect.TypeFor[T]()
	pl, _ := p.pools[t].(*cellPool[T])
	if pl == nil {
		if p.pools == nil {
			p.pools = make(map[reflect.Type]any)
		}
		pl = new(cellPool[T])
		p.pools[t] = pl
	}
	var c *cell[T]
	if n := len(pl.free); n > 0 {
		c, pl.free = pl.free[n-1], pl.free[:n-1]
	} else {
		if len(pl.chunk) == 0 {
			pl.chunk = make([]cell[T], 64)
		}
		c, pl.chunk = &pl.chunk[0], pl.chunk[1:]
		c.pool = pl
	}
	c.v, c.refs = m, refs
	return c
}

// take returns the value for one copy, freeing the cell after the last.
func (c *cell[T]) take() T {
	m := c.v
	if c.refs--; c.refs == 0 {
		var zero T
		c.v = zero
		c.pool.free = append(c.pool.free, c)
	}
	return m
}

func (c *cell[T]) Deliver(p *Proc, from types.ProcessID, proto string, sendTS int64) {
	Deliver(p, from, proto, c.take(), sendTS)
}

func (c *cell[T]) Value() any { return c.v }
