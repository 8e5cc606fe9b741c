// Package tcp is the live runtime: it runs the same protocol state
// machines as the simulator over real TCP connections on localhost, with
// an injected one-way WAN delay for inter-group links and a heartbeat
// failure detector in place of the simulation oracle.
//
// Every process is confined to exactly one ordering lane: incoming
// frames, timers, and local hand-offs are funneled through the lane's
// lock-free inbox ring and executed by the lane goroutine, so protocol
// code keeps the paper's "each line executes atomically" semantics
// without internal locking. Processes shard across Config.Lanes lane
// goroutines by group (lane = group mod Lanes; by default one lane per
// group), so a replica hosting many groups can pin its parallelism — the
// paper's genuine multicast coordinates groups only through messages,
// which cross lanes as ordinary inbox events. The
// receive path lends each envelope it reads, its frames undecoded, to the
// destination process's lane as one inbox event (no closure, no global
// inbox hop). The lane decodes each frame straight into the handler its
// protocol registered for the frame's kind (node.Handler), in a local of the
// message's type, so that no frame body is boxed, and gives the buffer back
// after the last frame. A frame no handler takes, or one that fails to
// decode, costs its connection, never the process.
//
// Lane back-pressure is explicit: the inbox ring (inboxSize) is
// bounded and lock-free, but when it fills, events PARK in an unbounded
// overflow list — they are never dropped and never block the producer.
// The inbox carries consensus replies, timer callbacks, and delivery
// events, none of which have a retransmission to fall back on; the only
// place this transport drops is the per-connection SEND queue, whose
// drops are protocol-retry-safe (rmcast data and consensus rounds both
// retransmit toward live peers).
//
// The transport is asynchronous and buffered. A send is encoded once, on the
// sender's process loop (node.Multicast, TransmitEncoded), and its bytes
// copied into each receiver connection's bounded pending buffer; a writer
// goroutine per (from, to) pair swaps that buffer out when woken, dials, and
// writes it in batch envelopes with one syscall. No value is boxed, no link
// encodes, and nothing allocates in steady state. A dead or wedged peer never
// stalls a process loop: dials happen off-loop with a timeout, writes block
// only the writer goroutine, and a frame for a full buffer is dropped —
// quasi-reliable links guarantee nothing to crashed processes, and the
// protocols' retry timers recover any frame dropped toward a live one.
//
// The wire format is the zero-allocation internal/wire codec. Every
// protocol message has a registered codec there, and an application payload
// rides as the bytes its cast's edge encoded (wire.AppendValue, whose gob
// fallback needs a payload type without a codec gob-registered).
package tcp

import (
	"bufio"
	"fmt"
	"io"
	"net"
	"os"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"wanamcast/internal/config"
	"wanamcast/internal/fd"
	"wanamcast/internal/metrics"
	"wanamcast/internal/network"
	"wanamcast/internal/node"
	"wanamcast/internal/ring"
	"wanamcast/internal/trace"
	"wanamcast/internal/types"
	"wanamcast/internal/wire"
)

func init() {
	wire.Register(wire.KindHeartbeat,
		func(buf []byte, m heartbeatMsg) []byte { return wire.AppendVarint(buf, m.Beat) },
		func(data []byte) (heartbeatMsg, []byte, error) {
			b, rest, err := wire.Varint(data)
			return heartbeatMsg{b}, rest, err
		})
	wire.Register(wire.KindLeaseGrant,
		func(buf []byte, m leaseGrantMsg) []byte { return wire.AppendVarint(buf, m.Beat) },
		func(data []byte) (leaseGrantMsg, []byte, error) {
			b, rest, err := wire.Varint(data)
			return leaseGrantMsg{b}, rest, err
		})
}

// Config configures a live runtime. By default it hosts every process of
// topo in one OS process (each on its own localhost TCP port); set
// Config.Local to host only a subset and run the rest of Π in other OS
// processes (see cmd/wannode) — the wire protocol is identical either way.
type Config struct {
	// Config holds the knobs (ports, delays, detector, lanes, hosted
	// processes, …). Topo, not its Groups and PerGroup, is the authority on
	// the shape.
	config.Config
	Topo *types.Topology
	// Recorder receives measurement events from every runtime goroutine
	// (it locks itself). Nil discards.
	Recorder *metrics.Collector
	// Trace, when non-nil, receives debug trace lines (Tracef). It may be
	// called from any runtime goroutine; the runtime serialises calls.
	// When nil and WANAMCAST_TCP_DEBUG is set, traces go to stderr.
	Trace func(format string, args ...any)
	// Tracer, when non-nil, is the structured lifecycle tracer: every
	// hosted Proc records its protocol spans into it, and received frames
	// get a StageLaneDeq queue-delay span, whose ID the Tracef debug line
	// of the frame (Trace / WANAMCAST_TCP_DEBUG) names to join /spans.
	Tracer *trace.Tracer
}

// Runtime is the live counterpart of node.Runtime.
type Runtime struct {
	cfg    Config
	topo   *types.Topology
	rec    *metrics.Collector // cfg.Recorder; nil discards
	fabric *network.Fabric
	start  time.Time

	tracer *trace.Tracer // nil-safe; nil means lifecycle tracing is off

	procs  []*node.Proc
	lanes  []*lane // every lane goroutine, in creation order
	laneOf []*lane // indexed by ProcessID; nil for processes not hosted here
	fds    []*heartbeatFD
	leases []*fd.Lease // indexed by ProcessID; outlive detector restarts
	local  []types.ProcessID
	// The transport's only drops, counted per sending process: frames
	// refused by a full send queue (a paced link's too) and partition hold.
	queueDrops, holdDrops []atomic.Uint64

	listeners []net.Listener
	connMu    sync.Mutex
	links     map[connKey]*link
	open      []net.Conn // every live socket, inbound and outbound; closed by Stop

	traceMu sync.Mutex
	trace   func(format string, args ...any)

	stopOnce sync.Once
	done     chan struct{}
	wg       sync.WaitGroup
}

type connKey struct {
	from, to types.ProcessID
}

var _ node.Env = (*Runtime)(nil)

// New builds (but does not start) a live runtime.
func New(cfg Config) *Runtime {
	if cfg.Topo == nil {
		panic("tcp: Config.Topo is required")
	}
	cfg.Groups = cfg.Topo.NumGroups() // the lane default derives from it
	cfg.Config = cfg.Config.WithDefaults()
	tracef := cfg.Trace
	if tracef == nil && os.Getenv("WANAMCAST_TCP_DEBUG") != "" {
		tracef = func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, "DEBUG "+format+"\n", args...)
		}
	}
	fabric := network.NewFabric(cfg.Topo, network.Model{
		IntraGroup: cfg.LANDelay,
		InterGroup: cfg.WANDelay,
		Bandwidth:  cfg.Bandwidth,
	})
	rt := &Runtime{
		cfg:    cfg,
		topo:   cfg.Topo,
		rec:    cfg.Recorder,
		fabric: fabric,
		links:  make(map[connKey]*link),
		trace:  tracef,
		tracer: cfg.Tracer,
		done:   make(chan struct{}),
		start:  time.Now(), // before Start: recovery reads the clock too
	}
	// Writer goroutines block on their queues; a fabric transition must
	// wake the affected link so a sever kills its connection immediately
	// (not at the next frame) and a heal flushes the parked frames even if
	// nothing new is being sent.
	fabric.OnTransition(func(l network.Link, severed bool) {
		rt.connMu.Lock()
		lk := rt.links[connKey{l.From, l.To}]
		rt.connMu.Unlock()
		if lk != nil {
			lk.signal()
		}
	})
	n := cfg.Topo.N()
	rt.procs = make([]*node.Proc, n)
	rt.laneOf = make([]*lane, n)
	rt.fds = make([]*heartbeatFD, n)
	rt.leases = make([]*fd.Lease, n)
	rt.queueDrops, rt.holdDrops = make([]atomic.Uint64, n), make([]atomic.Uint64, n)
	local := cfg.Local
	if local == nil {
		local = cfg.Topo.AllProcesses()
	}
	rt.local = local
	// Lane layout: lane index group(p) mod Lanes — every member of a group
	// a runtime hosts shares that group's lane, and groups spread
	// round-robin across the N goroutines. A lane starts only once a hosted
	// group maps to it.
	byIdx := make(map[int]*lane)
	for _, id := range local {
		idx := int(cfg.Topo.GroupOf(id)) % cfg.Lanes
		ln := byIdx[idx]
		if ln == nil {
			ln = rt.newLane()
			byIdx[idx] = ln
		}
		rt.laneOf[id] = ln
		rt.leases[id] = new(fd.Lease)
		rt.procs[id], rt.fds[id] = rt.incarnate(id)
	}
	return rt
}

// incarnate builds one incarnation of process id on its lane: a fresh Proc
// with the lifecycle tracer, and a fresh heartbeat detector over id's lease,
// registered before any protocol.
func (rt *Runtime) incarnate(id types.ProcessID) (*node.Proc, *heartbeatFD) {
	proc := node.NewProc(id, rt.topo, rt)
	proc.SetTracer(rt.tracer, rt.laneOf[id].idx)
	hfd := newHeartbeatFD(proc, rt.cfg.HeartbeatEvery, rt.cfg.SuspectAfter, rt.rec,
		rt.leases[id], rt.cfg.LeaseDuration, rt.cfg.MaxClockSkew)
	proc.Register(hfd)
	return proc, hfd
}

func (rt *Runtime) newLane() *lane {
	ln := &lane{
		rt:   rt,
		idx:  len(rt.lanes),
		in:   ring.NewMPSC[laneEvent](inboxSize),
		wake: make(chan struct{}, 1),
		free: make(chan *envelope, freeEnvelopes),
	}
	ln.dlTimer = time.AfterFunc(time.Hour, ln.releaseDue)
	ln.dlTimer.Stop() // armed by the first delayed frame
	rt.lanes = append(rt.lanes, ln)
	return ln
}

// Drops snapshots the frames dropped so far on a full send queue and on a
// full partition hold, indexed by sending process.
func (rt *Runtime) Drops() (queue, hold []uint64) {
	for i := range rt.queueDrops {
		queue, hold = append(queue, rt.queueDrops[i].Load()), append(hold, rt.holdDrops[i].Load())
	}
	return queue, hold
}

// ReleaseLateness sums the lanes' delay-line lateness histograms: how long
// after its injected link delay had passed each received frame (not timer)
// was handed to its lane. The timer that releases the line is the Go
// runtime's, so on an idle-ish process the emulated WAN is a fraction of a
// millisecond longer than configured, and every latency measured above it
// includes that.
func (rt *Runtime) ReleaseLateness() metrics.Hist {
	var h metrics.Hist
	for _, ln := range rt.lanes {
		ln.dlMu.Lock()
		h.Add(ln.dlLate)
		ln.dlMu.Unlock()
	}
	return h
}

// LaneDepths snapshots each lane's pending-event count (posted but not
// yet executed) — the telemetry plane's queue-depth gauge. Safe from any
// goroutine; values are instantaneous, not a consistent cut.
func (rt *Runtime) LaneDepths() []int {
	out := make([]int, len(rt.lanes))
	for i, ln := range rt.lanes {
		out[i] = int(ln.depth.Load())
	}
	return out
}

// Proc returns process id's node for protocol registration (before Start).
// It panics for processes not hosted by this runtime.
func (rt *Runtime) Proc(id types.ProcessID) *node.Proc {
	if rt.procs[id] == nil {
		panic(fmt.Sprintf("tcp: process %v is not hosted by this runtime", id))
	}
	return rt.procs[id]
}

// Local lists the processes this runtime hosts.
func (rt *Runtime) Local() []types.ProcessID { return rt.local }

// Detector returns process id's failure detector.
func (rt *Runtime) Detector(id types.ProcessID) *heartbeatFD { return rt.fds[id] }

// Lease returns process id's leader lease. The object is stable across
// Restart (the service layer holds it for the lifetime of the deployment);
// with Config.LeaseDuration == 0 it simply never becomes valid.
func (rt *Runtime) Lease(id types.ProcessID) *fd.Lease { return rt.leases[id] }

// Fabric returns the runtime's link fabric — the chaos control surface.
// It is safe to mutate from any goroutine while the runtime runs.
func (rt *Runtime) Fabric() *network.Fabric { return rt.fabric }

// Start opens the listeners, launches the event loops, and runs every
// protocol's Start on its own loop. Starting a stopped runtime fails:
// Stop is a one-way door (otherwise the startup barrier below would wait
// forever on loops that exit immediately).
func (rt *Runtime) Start() error {
	for _, id := range rt.local {
		addr := rt.addr(id)
		ln, err := net.Listen("tcp", addr)
		if err != nil {
			rt.Stop()
			return fmt.Errorf("tcp: listen %s: %w", addr, err)
		}
		if !rt.trackListener(ln) {
			return fmt.Errorf("tcp: runtime already stopped")
		}
		rt.wg.Add(1)
		go rt.acceptLoop(id, ln)
	}
	for _, ln := range rt.lanes {
		rt.wg.Add(1)
		go ln.loop()
	}
	var startWG sync.WaitGroup
	for _, id := range rt.local {
		id := id
		startWG.Add(1)
		rt.enqueue(id, func() {
			rt.procs[id].StartAll()
			startWG.Done()
		})
	}
	startWG.Wait()
	return nil
}

// Stop terminates the runtime: loops stop, sockets close. Stop is
// idempotent and safe to call concurrently (every caller blocks until
// shutdown completes) or concurrently with Start — listeners are handed
// over under connMu, so a racing Start either loses (its listener closes
// immediately and Start errors) or finishes before the close sweep.
func (rt *Runtime) Stop() {
	rt.stopOnce.Do(func() {
		// done is closed under connMu so link() cannot wg.Add a new writer
		// after the shutdown decision (its done-check holds the same lock),
		// and every socket is closed so writer goroutines stuck in a write
		// to a wedged peer unblock — wg.Wait() below cannot hang.
		rt.connMu.Lock()
		close(rt.done)
		for _, c := range rt.open {
			_ = c.Close()
		}
		lns := rt.listeners
		rt.listeners = nil
		rt.connMu.Unlock()
		for _, ln := range lns {
			_ = ln.Close()
		}
	})
	rt.wg.Wait()
}

// trackListener registers a listener for closure by Stop. It reports false
// — closing the listener immediately — when the runtime has already
// stopped, so a Start racing a Stop cannot leak a live socket.
func (rt *Runtime) trackListener(ln net.Listener) bool {
	rt.connMu.Lock()
	defer rt.connMu.Unlock()
	select {
	case <-rt.done:
		_ = ln.Close()
		return false
	default:
	}
	rt.listeners = append(rt.listeners, ln)
	return true
}

// Run executes fn on process id's event loop and waits for it — the only
// safe way for external code to touch protocol state.
func (rt *Runtime) Run(id types.ProcessID, fn func()) {
	var wg sync.WaitGroup
	wg.Add(1)
	rt.enqueue(id, func() {
		fn()
		wg.Done()
	})
	wg.Wait()
}

// Async schedules fn on process id's event loop without waiting for it.
// Use for work that must run between protocol events (snapshots) from code
// that may itself be running on that loop.
func (rt *Runtime) Async(id types.ProcessID, fn func()) {
	rt.enqueue(id, fn)
}

// Crash crash-stops process id: its loop ignores everything from now on.
func (rt *Runtime) Crash(id types.ProcessID) {
	rt.Run(id, func() { rt.procs[id].Crash() })
}

// Restart replaces crashed process id with a fresh incarnation. It runs
// entirely as ONE event on id's loop, so no frame or timer can interleave
// with the rebuild: rebuild receives the fresh Proc (already carrying a
// fresh failure detector, in recovering mode — sends suppressed) and must
// register the new protocol endpoints and replay their durable state.
// Afterwards the new incarnation is swapped in, recovering mode ends, and
// every protocol's Start runs. Timers, delivery closures, and sockets of
// the old incarnation keep pointing at the old (crashed, inert) Proc;
// outbound links are reused. When rebuild fails, its error is returned and
// nothing is swapped in: the half-restored incarnation is crashed (the
// timers its replay armed die with it) and the old one stays in place, so
// the process answers nobody from partial state and can be restarted again.
func (rt *Runtime) Restart(id types.ProcessID, rebuild func(proc *node.Proc, det *fd.Oracle) error) error {
	var err error
	rt.Run(id, func() {
		old := rt.procs[id]
		if old == nil {
			err = fmt.Errorf("tcp: process %v is not hosted by this runtime", id)
			return
		}
		if !old.Crashed() {
			err = fmt.Errorf("tcp: process %v is not crashed", id)
			return
		}
		// The lease object persists across incarnations (svc servers hold
		// the pointer), but the new incarnation starts fenced: it re-earns
		// a majority of fresh grants before serving lease reads again.
		rt.leases[id].Revoke()
		proc, hfd := rt.incarnate(id)
		proc.SetRecovering(true)
		if err = rebuild(proc, hfd.Oracle); err != nil {
			proc.Crash()
			return
		}
		rt.procs[id] = proc
		rt.fds[id] = hfd
		proc.SetRecovering(false)
		proc.StartAll()
	})
	return err
}

func (rt *Runtime) addr(id types.ProcessID) string {
	return fmt.Sprintf("127.0.0.1:%d", rt.cfg.BasePort+int(id))
}

func (rt *Runtime) enqueue(id types.ProcessID, fn func()) {
	rt.laneOf[id].post(laneEvent{fn: fn, to: id})
}

// laneEvent is one unit of lane work: a received envelope (env), a self-send
// (proto, ts, slot), or a timer or Run/Async hand-off (fn, with a timer's
// owner); none costs a closure or a box. While lifecycle tracing is enabled an
// envelope carries the time it was read, so the lane can attribute queueing
// delay to each of its frames (at == 0: untimed).
type laneEvent struct {
	fn    func()
	owner *node.Proc // a timer's owner; nil for every other event
	from  types.ProcessID
	to    types.ProcessID
	proto string
	ts    int64
	slot  node.Slot
	env   *envelope
	at    int64 // read time, ns; 0 = untimed
}

// envelope is one envelope read off a connection, its frames undecoded, lent
// by the read loop to the lane, which gives it back after the last frame has
// run: decoders copy what a value keeps, so no delivered message pins it.
type envelope struct {
	buf, raw []byte // as read; inflated, when compressed
	frames   []byte // the frames to walk: a view of buf or raw
	n        int
	src      *inConn
}

// inConn is one inbound connection, which the lane closes if a frame fails.
type inConn struct {
	conn net.Conn
	dead atomic.Bool // a frame failed: the connection's later frames drop too
}

// lane is one ordering goroutine: a bounded MPSC inbox ring fed by read
// loops, timers, and other lanes, drained by a single loop that executes
// events in post order (per producer). A full ring parks events in the
// overflow list — see the package doc's back-pressure contract.
type lane struct {
	rt   *Runtime
	idx  int // position in rt.lanes; the tracer's lane number
	in   *ring.MPSC[laneEvent]
	wake chan struct{}  // capacity 1; coalesced wake-up signal
	free chan *envelope // envelopes walked, for the read loops to lend again

	ovMu sync.Mutex
	ov   []laneEvent
	ovOn atomic.Bool

	depth atomic.Int64 // posted-but-unexecuted events; the telemetry gauge

	// The delay line: received frames waiting out their injected link
	// delay and timers waiting out theirs, in ascending due order (equal
	// dues in arrival order), released by one timer armed for the head.
	dlMu    sync.Mutex
	dlQ     []delayedEvent
	dlTimer *time.Timer
	dlLate  metrics.Hist // how long after its due each frame was released
}

type delayedEvent struct {
	due time.Time
	ev  laneEvent
}

// delay queues ev for posting at due. A frame never overtakes an earlier
// frame of its own link — every protocol here assumes FIFO links — even when
// the fabric shortens the link's delay between the two. Timers (fn set) keep
// only their due order.
func (ln *lane) delay(ev laneEvent, due time.Time) {
	ln.dlMu.Lock()
	defer ln.dlMu.Unlock()
	i := len(ln.dlQ)
	for ; i > 0 && ln.dlQ[i-1].due.After(due); i-- {
		if q := &ln.dlQ[i-1]; ev.fn == nil && q.ev.fn == nil && q.ev.from == ev.from && q.ev.to == ev.to {
			due = q.due
			break
		}
	}
	ln.dlQ = slices.Insert(ln.dlQ, i, delayedEvent{due, ev})
	if i == 0 {
		ln.dlTimer.Reset(time.Until(due))
	}
}

// releaseDue posts every event whose delay has passed. It posts under dlMu:
// a later firing must not overtake this one.
func (ln *lane) releaseDue() {
	ln.dlMu.Lock()
	defer ln.dlMu.Unlock()
	n, now := 0, time.Now()
	for ; n < len(ln.dlQ) && !ln.dlQ[n].due.After(now); n++ {
		if ln.dlQ[n].ev.fn == nil {
			ln.dlLate.Observe(now.Sub(ln.dlQ[n].due))
		}
		ln.post(ln.dlQ[n].ev)
	}
	// Delete keeps the backing array and clears the vacated tail, so the
	// line is reused and pins no delivered bodies.
	if ln.dlQ = slices.Delete(ln.dlQ, 0, n); len(ln.dlQ) > 0 {
		ln.dlTimer.Reset(time.Until(ln.dlQ[0].due))
	}
}

// post hands an event to the lane. It never blocks and never drops:
// ring first; once the ring is full (or an overflow is already pending,
// which keeps per-producer FIFO) the event parks in the overflow list.
// Posts racing Stop are inert — the lane drains what it can and exits.
func (ln *lane) post(ev laneEvent) {
	ln.depth.Add(1)
	if ln.ovOn.Load() || !ln.in.TryPush(ev) {
		ln.ovMu.Lock()
		ln.ovOn.Store(true)
		ln.ov = append(ln.ov, ev)
		ln.ovMu.Unlock()
	}
	select {
	case ln.wake <- struct{}{}:
	default: // a wake is already pending
	}
}

func (ln *lane) loop() {
	rt := ln.rt
	defer rt.wg.Done()
	for {
		n := 0
		for {
			ev, ok := ln.in.TryPop()
			if !ok {
				break
			}
			ln.exec(ev)
			n++
		}
		if ln.ovOn.Load() {
			ln.ovMu.Lock()
			batch := ln.ov
			ln.ov = nil
			if len(batch) == 0 {
				ln.ovOn.Store(false) // overflow drained: ring carries new posts again
			}
			ln.ovMu.Unlock()
			for _, ev := range batch {
				ln.exec(ev)
			}
			n += len(batch)
		}
		if n > 0 {
			continue // more may have arrived while we executed
		}
		select {
		case <-ln.wake:
		case <-rt.done:
			return
		}
	}
}

// exec runs one lane event on the lane goroutine. rt.procs[id] is only
// read and written on id's lane after Start (Restart swaps it via Run),
// so the slot needs no synchronisation here; nor does a timer owner's crash
// flag.
func (ln *lane) exec(ev laneEvent) {
	rt := ln.rt
	ln.depth.Add(-1)
	if ev.fn != nil {
		if ev.owner == nil || !ev.owner.Crashed() {
			ev.fn()
		}
		return
	}
	if ev.env != nil {
		ln.walk(ev)
		return
	}
	ev.slot.Deliver(rt.procs[ev.to], ev.from, ev.proto, ev.ts) // a self-send
}

// walk runs an envelope's frames in order, each with its own wire count and
// StageLaneDeq span (Aux: time since read). A frame that fails costs the
// connection and the frames after it, never the process: the peer redials.
func (ln *lane) walk(ev laneEvent) {
	env := ev.env
	if !env.src.dead.Load() {
		if err := ln.deliver(ev); err != nil {
			ln.rt.Tracef("decode error at %v: %v", ev.to, err)
			env.src.dead.Store(true)
			_ = env.src.conn.Close()
		}
	}
	if cap(env.buf)+cap(env.raw) <= keepEnvelope {
		select {
		case ln.free <- env:
		default: // enough envelopes spare
		}
	}
}

// deliver runs the frames of ev's envelope until one fails.
func (ln *lane) deliver(ev laneEvent) error {
	rt, p, frames := ln.rt, ln.rt.procs[ev.to], ev.env.frames
	for range ev.env.n {
		proto, ts, value, err := wire.NextFrame(frames)
		if err != nil {
			return err
		}
		var span uint64
		if ev.at != 0 {
			span = rt.tracer.NextSpan()
			rt.tracer.RecordSpan(span, ln.idx, trace.StageLaneDeq, types.MessageID{}, ev.to, time.Now().UnixNano()-ev.at)
		}
		// The nil check comes first: building the variadic args boxes every
		// operand. A span (0: untimed) joins the line against /spans.
		if rt.trace != nil && proto != fdProto {
			body, _, _ := wire.DecodeValue(value)
			rt.Tracef("%v recv span=%d %v->%v %s %+v", rt.Now().Round(time.Millisecond), span, ev.from, ev.to, proto, body)
		}
		rest, err := p.DeliverValue(ev.from, proto, value, ts)
		if err != nil {
			return err
		}
		rt.rec.OnWireRecv(value[0], len(frames)-len(rest))
		frames = rest
	}
	if len(frames) != 0 {
		return fmt.Errorf("%d bytes after the last frame", len(frames))
	}
	return nil
}

// track registers a socket for closure by Stop; sockets opened after Stop
// are closed immediately.
func (rt *Runtime) track(c net.Conn) {
	rt.connMu.Lock()
	defer rt.connMu.Unlock()
	select {
	case <-rt.done:
		_ = c.Close()
	default:
	}
	rt.open = append(rt.open, c)
}

// untrack forgets a socket its owner has closed, so flapping peers do not
// accumulate dead entries in rt.open across reconnects.
func (rt *Runtime) untrack(c net.Conn) {
	rt.connMu.Lock()
	defer rt.connMu.Unlock()
	for i, x := range rt.open {
		if x == c {
			rt.open[i] = rt.open[len(rt.open)-1]
			rt.open[len(rt.open)-1] = nil
			rt.open = rt.open[:len(rt.open)-1]
			return
		}
	}
}

func (rt *Runtime) acceptLoop(id types.ProcessID, ln net.Listener) {
	defer rt.wg.Done()
	for {
		conn, err := ln.Accept()
		if err != nil {
			return // listener closed
		}
		rt.track(conn)
		rt.wg.Add(1)
		go rt.readLoop(id, conn)
	}
}

func (rt *Runtime) readLoop(to types.ProcessID, conn net.Conn) {
	defer rt.wg.Done()
	defer func() {
		_ = conn.Close()
		rt.untrack(conn)
	}()
	ln, src := rt.laneOf[to], &inConn{conn: conn}
	br := bufio.NewReaderSize(conn, 64<<10)
	for !src.dead.Load() {
		from, env, err := rt.read(br, ln, src)
		if err != nil {
			rt.Tracef("decode error at %v: %v", to, err)
			return // connection closed or corrupt; peers redial
		}
		rt.dispatch(from, to, env)
	}
}

// read reads one envelope of src off r into one ln lends and opens it: no
// value is decoded, so only the lane, decoding them, finds where frames end.
func (rt *Runtime) read(r io.Reader, ln *lane, src *inConn) (types.ProcessID, *envelope, error) {
	var env *envelope
	select {
	case env = <-ln.free:
	default:
		env = new(envelope)
	}
	env.src = src
	data, err := wire.ReadFrameBytes(r, &env.buf)
	var from types.ProcessID
	if err == nil {
		rt.rec.Add(metrics.WireBytesIn, len(data)+4)
		from, env.frames, env.n, err = wire.OpenEnvelope(data, &env.raw)
	}
	if err == nil && (from < 0 || int(from) >= rt.topo.N()) {
		// A corrupt varint or another Π: lookups in dispatch would panic,
		// and a malformed frame must cost a connection, never the process.
		err = fmt.Errorf("sender %d outside topology", int(from))
	}
	return from, env, err
}

// dispatch applies the injected link delay (the fabric's current view of
// it, so delay spikes take effect mid-run) and hands the envelope to the
// receiver's lane. Envelopes of a link severed after they were written still
// deliver: they are in flight, and in-flight traffic draining during a
// partition is just delay — the sender stopped writing at the sever.
func (rt *Runtime) dispatch(from, to types.ProcessID, env *envelope) {
	// The live base model has no jitter, so the delay draws nothing from an
	// rng and read loops share the fabric lock-free.
	delay := rt.fabric.Delay(from, to, nil)
	ev := laneEvent{from: from, to: to, env: env}
	if rt.tracer.Enabled() {
		ev.at = time.Now().UnixNano()
	}
	if delay > 0 {
		rt.laneOf[to].delay(ev, time.Now().Add(delay))
	} else {
		rt.laneOf[to].post(ev)
	}
}

// Now implements node.Env: wall time since New.
func (rt *Runtime) Now() time.Duration { return time.Since(rt.start) }

// Micros implements node.Env: Unix time, which processes hosted by different
// runtimes share up to their clocks' skew (Now counts from this runtime's
// start).
func (rt *Runtime) Micros(types.ProcessID) uint64 { return uint64(time.Now().UnixMicro()) }

// Recorder implements node.Env.
func (rt *Runtime) Recorder() *metrics.Collector { return rt.rec }

// TraceOn implements node.Env.
func (rt *Runtime) TraceOn() bool { return rt.trace != nil }

// Tracef implements node.Env: trace lines go to Config.Trace (or stderr
// under WANAMCAST_TCP_DEBUG), serialised across the runtime's goroutines,
// so live tracing composes with protocol Tracef calls exactly like the
// simulator's.
func (rt *Runtime) Tracef(format string, args ...any) {
	if rt.trace == nil {
		return
	}
	rt.traceMu.Lock()
	defer rt.traceMu.Unlock()
	rt.trace(format, args...)
}

// Later implements node.Env, from any goroutine. The timer is a lane event
// carrying fn and its owner, posted at once for d ≤ 0 and otherwise queued
// on the lane's delay line: arming and firing allocate nothing. The lane
// drops it if the owner has crashed by then (a restarted process is a new
// owner), matching node.Runtime.Later: a dead node must not keep driving
// consensus rounds.
func (rt *Runtime) Later(owner *node.Proc, d time.Duration, fn func()) {
	ln, ev := rt.laneOf[owner.Self()], laneEvent{fn: fn, owner: owner, to: owner.Self()}
	if d <= 0 {
		ln.post(ev)
		return
	}
	ln.delay(ev, time.Now().Add(d))
}

// Transmit implements node.Env. A Proc hands a node.WireEnv only its
// self-sends (its remote copies go out encoded, TransmitEncoded): each is
// posted with its slot to the sender's own lane, the one that sent it.
func (rt *Runtime) Transmit(from types.ProcessID, tos []types.ProcessID, proto string, s node.Slot, sendTS int64) {
	for _, to := range tos {
		rt.laneOf[to].post(laneEvent{from: from, to: to, proto: proto, ts: sendTS, slot: s})
	}
}

// TransmitEncoded implements node.WireEnv. It runs on the sender's loop and
// never blocks: it adds sub to the pending frames of each remote receiver's
// link, a copy (or sub itself, from node.OwnLen bytes), or drops it there if
// the link already holds its bound.
func (rt *Runtime) TransmitEncoded(from types.ProcessID, tos []types.ProcessID, proto string, sub []byte) {
	for _, to := range tos {
		if to == from {
			continue
		}
		l := rt.link(from, to)
		if l == nil {
			return // runtime stopped
		}
		if !l.queue(sub, proto == fdProto) {
			rt.queueDrops[from].Add(1)
			rt.Tracef("send queue full: drop %v->%v %s", from, to, proto)
			continue
		}
		// Record only frames actually handed to a writer: counting drops as
		// sends would skew message statistics in exactly the overload
		// regime the queue bound exists for.
		rt.rec.OnSend(proto, from, to, !rt.topo.SameGroup(from, to), rt.Now())
	}
}

// link returns (creating on first use) the outbound connection state for
// the (from, to) pair, or nil if the runtime has stopped.
func (rt *Runtime) link(from, to types.ProcessID) *link {
	rt.connMu.Lock()
	defer rt.connMu.Unlock()
	key := connKey{from, to}
	if l, ok := rt.links[key]; ok {
		return l
	}
	select {
	case <-rt.done:
		return nil
	default:
	}
	l := &link{
		rt:   rt,
		from: from,
		to:   to,
		wake: make(chan struct{}, 1),
	}
	rt.links[key] = l
	rt.wg.Add(1)
	go l.writeLoop()
	return l
}

// fdProto is the failure detector's proto label. fd frames get transport
// privileges: they are queued apart from the protocols' (a protocol backlog
// never drops or delays them), never folded into batch envelopes, never
// compressed, and exempt from bandwidth pacing — a saturated or compressed
// link must keep carrying the liveness signals, or congestion would
// masquerade as crashes.
const fdProto = "fd"

// The transport's sizes and periods. No workload varies them, so they are
// constants, not knobs.
const (
	// inboxSize bounds each lane's lock-free inbox ring. A full ring PARKS
	// further events in an unbounded overflow list: inbox events (consensus
	// replies, timers, deliveries) are never dropped, unlike a send queue's
	// frames, whose loss is retry-safe.
	inboxSize = 4096
	// sendQueue bounds the protocol frames each connection has pending, and
	// those a severed link holds. A full queue drops frames instead of
	// blocking a process loop; protocol retry timers recover drops toward
	// live peers. fdQueue bounds its pending fd frames.
	sendQueue = 4096
	fdQueue   = 16
	// dialTimeout bounds each connect attempt, and a service connection's
	// writes unless its listener or dialler sets another bound. Dials run on
	// writer goroutines, never on process loops. After a failed dial the
	// link backs off before trying again, dropping frames meanwhile: for
	// dialBackoff after the first failure, twice as long after each next one
	// up to dialTimeout, and from dialBackoff again once a dial connects.
	dialTimeout = time.Second
	dialBackoff = 10 * time.Millisecond
	// A lane keeps walked envelopes to lend again: 256 covers what lan-sat
	// and wan-mix hold queued or delayed at once; none above keepEnvelope,
	// which also bounds the pending buffers a link keeps.
	freeEnvelopes = 256
	keepEnvelope  = 64 << 10
)

// maxEnvelopeFrames caps the frames of one batch envelope.
const maxEnvelopeFrames = 512

// paceChunkBytes caps one write burst on a bandwidth-capped link, so that the
// peer receives at the modeled rate: a whole cycle — potentially megabytes —
// handed to the kernel at once would land hundreds of frames on its lane at
// once, and its heartbeat processing would queue behind them past SuspectAfter.
const paceChunkBytes = 128 << 10

// link owns one outbound TCP connection and its pending frames, which senders
// add under mu (fd frames apart) and its writer swaps for the ones it wrote
// last, woken when they were empty. While the fabric severs the link, the
// writer kills the connection, refuses to dial, and holds the protocol
// frames until the link heals — the heal wakes it through wake.
type link struct {
	rt       *Runtime
	from, to types.ProcessID
	wake     chan struct{} // capacity 1: frames queued, or a fabric transition

	mu      sync.Mutex
	out, fd frames // pending since the writer's last swap

	// Writer-goroutine state, reused across cycles.
	bat      wire.BatchWriter
	buf      []byte    // the envelope or plain frame being written
	nextFree time.Time // bandwidth pacing: when the written bytes have drained
}

// frames holds messages in order, as wire.AppendSub encoded them: each a
// copy in b, back to back, or one of node.OwnLen bytes or more, kept whole.
type frames struct {
	b    []byte
	subs [][]byte
}

func (f *frames) add(sub []byte) {
	if len(sub) < node.OwnLen {
		at := len(f.b)
		f.b = append(f.b, sub...)
		sub = f.b[at:]
	}
	f.subs = append(f.subs, sub)
}

// reset empties f, keeping its storage unless it grew past keepEnvelope.
func (f *frames) reset() {
	clear(f.subs)
	if cap(f.b) > keepEnvelope {
		*f = frames{}
	}
	f.b, f.subs = f.b[:0], f.subs[:0]
}

// queue appends sub to the link's pending frames, fd's or the protocols',
// unless they hold their bound already, waking the writer if they were
// empty.
func (l *link) queue(sub []byte, fd bool) bool {
	l.mu.Lock()
	q, bound := &l.out, sendQueue
	if fd {
		q, bound = &l.fd, fdQueue
	}
	ok := len(q.subs) < bound
	if ok {
		q.add(sub)
	}
	first := len(q.subs) == 1
	l.mu.Unlock()
	if ok && first {
		l.signal()
	}
	return ok
}

func (l *link) signal() {
	select {
	case l.wake <- struct{}{}:
	default: // a wake is already pending
	}
}

func (l *link) writeLoop() {
	rt := l.rt
	defer rt.wg.Done()
	var (
		conn     net.Conn
		bw       *bufio.Writer
		nextDial time.Time
		backoff  = dialBackoff // after the next failed dial
		out, fd  frames        // what the last swap took
		held     frames        // protocol frames parked while the fabric severs the link
	)
	// teardown closes the connection after a write error. It does NOT arm
	// the dial backoff: a transient error on an established connection
	// (peer restarted its listener, one RST) should redial immediately —
	// blacking the link out for a backoff would drop heartbeats long
	// enough to falsely suspect a live peer. Only failed dials back off.
	teardown := func() {
		if conn != nil {
			_ = conn.Close()
			rt.untrack(conn)
		}
		conn, bw = nil, nil
	}
	defer teardown()
	for {
		select {
		case <-l.wake:
		case <-rt.done:
			return
		}
		l.mu.Lock()
		l.out, out = out, l.out
		l.fd, fd = fd, l.fd
		l.mu.Unlock()
		switch {
		case rt.fabric.Severed(l.from, l.to):
			// Partition: kill the connection, refuse to dial, and park the
			// protocol frames, up to sendQueue (protocol retries recover the
			// rest) — the stand-in for the TCP retransmit buffer that carries
			// unacked data across a real partition, so the link stays a
			// quasi-reliable (arbitrarily slow) channel. Heartbeats are not
			// parked: the peer must suspect us until the link heals.
			teardown()
			for i := range out.subs {
				if len(held.subs) == sendQueue {
					rt.holdDrops[l.from].Add(uint64(len(out.subs) - i))
					rt.Tracef("partition hold full: drop %d frames %v->%v", len(out.subs)-i, l.from, l.to)
					break
				}
				held.add(out.subs[i])
			}
		case len(held.subs)+len(out.subs)+len(fd.subs) == 0:
		case conn == nil && time.Now().Before(nextDial):
			held.reset() // peer presumed dead: drop until the backoff expires
		default:
			if conn == nil {
				c, err := net.DialTimeout("tcp", rt.addr(l.to), dialTimeout)
				if err != nil {
					rt.Tracef("dial error %v->%v: %v", l.from, l.to, err)
					nextDial = time.Now().Add(backoff)
					backoff = min(2*backoff, dialTimeout)
					held.reset() // unreachable peer: quasi-reliable links lose nothing between correct processes
					break
				}
				conn, backoff = c, dialBackoff
				rt.track(conn)
				bw = bufio.NewWriterSize(conn, 64<<10)
			}
			if err := l.flush(bw, &held, &out, &fd); err != nil {
				rt.Tracef("write error %v->%v: %v", l.from, l.to, err)
				teardown()
			}
		}
		out.reset()
		fd.reset()
		// A wake pace took may have been for protocol frames still pending.
		l.mu.Lock()
		more := len(l.out.subs)+len(l.fd.subs) > 0
		l.mu.Unlock()
		if more {
			l.signal()
		}
	}
}

// flush writes a cycle's frames, the fd frames first, then the held protocol
// frames and out's, in order, in envelopes, and flushes them: in one burst,
// or on a bandwidth-capped link in paceChunkBytes chunks with the
// transmission debt paid between them, the burst draining through the
// modeled pipe. Held frames are written or lost.
func (l *link) flush(bw *bufio.Writer, held, out, fd *frames) error {
	defer held.reset()
	if err := l.writeFD(bw, fd); err != nil {
		return err
	}
	subs := out.subs
	if len(held.subs) > 0 {
		for _, sub := range out.subs {
			held.add(sub)
		}
		subs = held.subs
	}
	rate := l.rt.fabric.Bandwidth(l.from, l.to)
	for len(subs) > 0 {
		n, payBytes, err := l.writeEnvelope(bw, subs, rate > 0)
		if err != nil {
			return err
		}
		if subs = subs[n:]; payBytes == 0 || rate <= 0 {
			continue
		}
		if err := bw.Flush(); err != nil {
			return err
		}
		if now := time.Now(); l.nextFree.Before(now) {
			l.nextFree = now
		}
		l.nextFree = l.nextFree.Add(network.TransmitTime(rate, payBytes))
		if err := l.pace(bw, fd); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// writeEnvelope writes the first n of subs, as many as one envelope takes (up
// to maxEnvelopeFrames; when paced, until paceChunkBytes), and returns n and
// the bytes written. The envelope is a batch, deflated from wire.MinCompress
// on, unless it is one frame below that: that goes out plain, where the batch
// preamble costs more than it saves.
func (l *link) writeEnvelope(bw *bufio.Writer, subs [][]byte, paced bool) (n, payBytes int, err error) {
	rt := l.rt
	l.bat.Begin(l.from)
	for ; n < len(subs) && n < maxEnvelopeFrames && (!paced || l.bat.Len() < paceChunkBytes); n++ {
		l.bat.Add(subs[n])
	}
	if n == 1 && l.bat.Len() < wire.MinCompress {
		payBytes, err = l.writePlain(bw, subs[0])
		return n, payBytes, err
	}
	for _, sub := range subs[:n] {
		rt.rec.OnWireSend(byte(wire.SubKind(sub)), len(sub))
	}
	b, rawLen, compLen, wireLen, err := l.bat.Finish(l.buf[:0], wire.MinCompress)
	if err != nil {
		rt.Tracef("encode error %v->%v batch: %v", l.from, l.to, err)
		return n, 0, nil
	}
	l.buf = b
	rt.rec.OnWireFlush(wireLen, rawLen, compLen)
	_, err = bw.Write(b)
	return n, wireLen, err
}

// writeFD writes fd's frames and empties it. fd frames go out at once, each
// plain, and owe no bandwidth debt (see fdProto).
func (l *link) writeFD(bw *bufio.Writer, fd *frames) error {
	defer fd.reset()
	for _, sub := range fd.subs {
		if _, err := l.writePlain(bw, sub); err != nil {
			return err
		}
	}
	return nil
}

// writePlain writes sub as one plain frame, counts it, and returns its size.
func (l *link) writePlain(bw *bufio.Writer, sub []byte) (int, error) {
	rt := l.rt
	l.buf = wire.AppendPlain(l.buf[:0], l.from, sub)
	rt.rec.OnWireSend(byte(wire.SubKind(sub)), len(l.buf))
	rt.rec.OnWireFlush(len(l.buf), 0, 0)
	_, err := bw.Write(l.buf)
	return len(l.buf), err
}

// pace blocks until the link's transmission-debt clock (nextFree) passes:
// after a burst of n bytes on a link capped at rate bytes/s the writer
// takes no further protocol frames for TransmitTime(rate, n) — the written
// bytes draining through the modeled pipe; they wait in the link's queue,
// bounded by sendQueue. fd frames are exempt: each wake swaps them out and
// writes and flushes them during the wait, so a saturated link keeps
// carrying heartbeats and congestion cannot masquerade as a crash.
func (l *link) pace(bw *bufio.Writer, fd *frames) error {
	rt := l.rt
	for {
		d := time.Until(l.nextFree)
		if d <= 0 {
			return nil
		}
		t := time.NewTimer(d)
		select {
		case <-l.wake:
			t.Stop()
			if rt.fabric.Severed(l.from, l.to) {
				// A sever must kill the connection now: hand control back
				// to the main loop with the wake re-armed so it sees the
				// transition. Remaining debt stays on nextFree.
				l.signal()
				return nil
			}
			l.mu.Lock()
			l.fd, *fd = *fd, l.fd
			l.mu.Unlock()
			if err := l.writeFD(bw, fd); err != nil {
				return err
			}
			if err := bw.Flush(); err != nil {
				return err
			}
		case <-rt.done:
			t.Stop()
			return nil
		case <-t.C:
			return nil
		}
	}
}
