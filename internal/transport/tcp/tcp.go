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
// receive path demultiplexes decoded frames straight into the
// destination process's lane ring (no intermediate closure, no global
// inbox hop), and the decoded wire body is handed to the protocol
// as-is — zero-copy from the codec to the deliver hook.
//
// Lane back-pressure is explicit: the inbox ring (Config.InboxSize) is
// bounded and lock-free, but when it fills, events PARK in an unbounded
// overflow list — they are never dropped and never block the producer.
// The inbox carries consensus replies, timer callbacks, and delivery
// events, none of which have a retransmission to fall back on; the only
// place this transport drops is the per-connection SEND queue, whose
// drops are protocol-retry-safe (rmcast data and consensus rounds both
// retransmit toward live peers).
//
// The transport is asynchronous and buffered. Transmit runs on the
// sender's process loop and does nothing but enqueue one frame per
// receiver onto a bounded per-connection send queue; a writer goroutine
// per (from, to) pair dials, encodes, and writes. The writer coalesces every
// frame it can take within FlushEvery into one buffered write, so many
// frames share a syscall, and it reuses one encode buffer, so the
// steady-state encode path allocates nothing. A dead or wedged peer
// therefore never stalls a process loop: dials happen off-loop with a
// timeout, writes block only the writer goroutine, and when a queue fills
// the frame is dropped — quasi-reliable links guarantee nothing to crashed
// processes, and the protocols' retry timers recover any frame dropped
// toward a live one.
//
// The wire format is the zero-allocation internal/wire codec. Every
// protocol message has a registered codec there; only application payloads
// of non-basic types ride its gob fallback, so gob-register those before
// Start.
package tcp

import (
	"bufio"
	"fmt"
	"math/rand"
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

// The failure detector's messages are the highest-frequency frames a quiet
// deployment receives, so their decoded bodies come from free-lists: the
// codec draws a pooled pointer, the detector releases it after processing
// (fd.go), and the steady-state heartbeat receive path allocates nothing —
// a pointer in an interface needs no box, unlike the old value bodies.
var (
	hbPool = sync.Pool{New: func() any { return new(heartbeatMsg) }}
	lgPool = sync.Pool{New: func() any { return new(leaseGrantMsg) }}
)

func init() {
	wire.Register(wire.KindHeartbeat,
		func(buf []byte, m *heartbeatMsg) []byte { return wire.AppendVarint(buf, m.Beat) },
		func(data []byte) (*heartbeatMsg, []byte, error) {
			b, rest, err := wire.Varint(data)
			if err != nil {
				return nil, rest, err
			}
			m := hbPool.Get().(*heartbeatMsg)
			m.Beat = b
			return m, rest, nil
		})
	wire.Register(wire.KindLeaseGrant,
		func(buf []byte, m *leaseGrantMsg) []byte { return wire.AppendVarint(buf, m.Beat) },
		func(data []byte) (*leaseGrantMsg, []byte, error) {
			b, rest, err := wire.Varint(data)
			if err != nil {
				return nil, rest, err
			}
			m := lgPool.Get().(*leaseGrantMsg)
			m.Beat = b
			return m, rest, nil
		})
}

// Config configures a live runtime. By default it hosts every process of
// topo in one OS process (each on its own localhost TCP port); set Local
// to host only a subset and run the rest of Π in other OS processes (see
// cmd/wannode) — the wire protocol is identical either way.
type Config struct {
	// Config holds the knobs (ports, delays, detector, lanes, queues, …).
	// Topo, not its Groups and PerGroup, is the authority on the shape.
	config.Config
	Topo *types.Topology
	// Local lists the processes this runtime hosts. Nil means all of Π.
	Local []types.ProcessID
	// Fabric, when non-nil, is the mutable link table chaos scenarios
	// drive: a severed (from, to) link kills the outbound connection,
	// rejects dials, and parks outbound frames (heartbeats excepted) until
	// the link heals — the transport-level analogue of TCP retransmission
	// carrying data across a partition, so partitions stay admissible
	// quasi-reliable runs. Per-link delay overrides replace the static
	// WANDelay/LANDelay injection, and the fabric's base model's cap
	// replaces Bandwidth. When nil, a private fabric is built from
	// WANDelay/LANDelay/Bandwidth; Fabric() exposes it either way. All
	// hosted processes consult the same fabric, which assumes one Runtime
	// per deployment or an external fabric shared between them. An injected
	// fabric's BASE model must have zero Jitter (per-link jitter overrides
	// are fine): base jitter would need the shared rng on the lock-free
	// receive fast path.
	Fabric *network.Fabric
	// Recorder receives measurement events from every runtime goroutine
	// (it locks itself). Nil discards.
	Recorder *metrics.Collector
	// Trace, when non-nil, receives debug trace lines (Tracef). It may be
	// called from any runtime goroutine; the runtime serialises calls.
	// When nil and WANAMCAST_TCP_DEBUG is set, traces go to stderr.
	Trace func(format string, args ...any)
	// Tracer, when non-nil, is the structured lifecycle tracer: every
	// hosted Proc records its protocol spans into it, received frames get
	// a span ID and a StageLaneDeq queue-delay span, and the Tracef debug
	// path (Trace / WANAMCAST_TCP_DEBUG) switches from %+v body dumps to
	// compact span-ID lines that join against /spans output.
	Tracer *trace.Tracer
}

// Runtime is the live counterpart of node.Runtime.
type Runtime struct {
	cfg         Config
	topo        *types.Topology
	rec         *metrics.Collector // cfg.Recorder; nil discards
	compressMin int                // resolved Config.CompressMin; 0 = compression off
	fabric      *network.Fabric
	base        network.Model // the fabric's base, for the override-free fast path
	start       time.Time

	rngMu sync.Mutex
	jrng  *rand.Rand // feeds fabric jitter overrides; dispatch goroutines share it

	tracer *trace.Tracer // nil-safe; nil means lifecycle tracing is off

	procs  []*node.Proc
	lanes  []*lane // every lane goroutine, in creation order
	laneOf []*lane // indexed by ProcessID; nil for processes not hosted here
	fds    []*heartbeatFD
	leases []*fd.Lease // indexed by ProcessID; outlive detector restarts
	local  []types.ProcessID
	// The transport's only drops, counted per sending process: frames
	// refused by a full send queue, and by a full partition or pacing hold.
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
	compressMin := cfg.CompressMin
	switch {
	case compressMin == 0:
		compressMin = wire.MinCompress
	case compressMin < 0:
		compressMin = 0 // compression off
	}
	tracef := cfg.Trace
	if tracef == nil && os.Getenv("WANAMCAST_TCP_DEBUG") != "" {
		tracef = func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, "DEBUG "+format+"\n", args...)
		}
	}
	fabric := cfg.Fabric
	if fabric == nil {
		fabric = network.NewFabric(cfg.Topo, network.Model{
			IntraGroup: cfg.LANDelay,
			InterGroup: cfg.WANDelay,
			Bandwidth:  cfg.Bandwidth,
		})
	}
	rt := &Runtime{
		cfg:         cfg,
		topo:        cfg.Topo,
		rec:         cfg.Recorder,
		compressMin: compressMin,
		fabric:      fabric,
		base:        fabric.Base(),
		jrng:        rand.New(rand.NewSource(time.Now().UnixNano())),
		links:       make(map[connKey]*link),
		trace:       tracef,
		tracer:      cfg.Tracer,
		done:        make(chan struct{}),
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
			select {
			case lk.wake <- struct{}{}:
			default: // a wake is already pending
			}
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
		rt.procs[id] = node.NewProc(id, cfg.Topo, rt)
		rt.procs[id].SetTracer(cfg.Tracer, ln.idx)
		rt.leases[id] = new(fd.Lease)
		rt.fds[id] = newHeartbeatFD(rt.procs[id], cfg.HeartbeatEvery, cfg.SuspectAfter, rt.rec,
			rt.leases[id], cfg.LeaseDuration, cfg.MaxClockSkew)
		rt.procs[id].Register(rt.fds[id])
	}
	return rt
}

func (rt *Runtime) newLane() *lane {
	ln := &lane{
		rt:   rt,
		idx:  len(rt.lanes),
		in:   ring.NewMPSC[laneEvent](rt.cfg.InboxSize),
		wake: make(chan struct{}, 1),
	}
	ln.dlTimer = time.AfterFunc(time.Hour, ln.releaseDue)
	ln.dlTimer.Stop() // armed by the first delayed frame
	rt.lanes = append(rt.lanes, ln)
	return ln
}

// LaneCount returns how many lane goroutines this runtime runs.
func (rt *Runtime) LaneCount() int { return len(rt.lanes) }

// Drops snapshots the frames dropped so far on a full send queue and on a
// full partition or pacing hold, indexed by sending process.
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

// SameLane reports whether two hosted processes share a lane (tests).
func (rt *Runtime) SameLane(p, q types.ProcessID) bool {
	return rt.laneOf[p] != nil && rt.laneOf[p] == rt.laneOf[q]
}

// Proc returns process id's node for protocol registration (before Start).
// It panics for processes not hosted by this runtime.
func (rt *Runtime) Proc(id types.ProcessID) *node.Proc {
	if rt.procs[id] == nil {
		panic(fmt.Sprintf("tcp: process %v is not hosted by this runtime", id))
	}
	return rt.procs[id]
}

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
	rt.start = time.Now()
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
func (rt *Runtime) Restart(id types.ProcessID, rebuild func(proc *node.Proc, det fd.Detector) error) error {
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
		proc := node.NewProc(id, rt.topo, rt)
		proc.SetTracer(rt.tracer, rt.laneOf[id].idx)
		// The lease object persists across incarnations (svc servers hold
		// the pointer), but the new incarnation starts fenced: it re-earns
		// a majority of fresh grants before serving lease reads again.
		rt.leases[id].Revoke()
		hfd := newHeartbeatFD(proc, rt.cfg.HeartbeatEvery, rt.cfg.SuspectAfter, rt.rec,
			rt.leases[id], rt.cfg.LeaseDuration, rt.cfg.MaxClockSkew)
		proc.Register(hfd)
		proc.SetRecovering(true)
		if err = rebuild(proc, hfd); err != nil {
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

// laneEvent is one unit of lane work. The receive path posts deliveries
// as plain field sets (fn == nil) so the hot path allocates no closure;
// timers (with their owner) and Run/Async hand-offs carry an explicit fn.
// While lifecycle tracing is enabled, received frames also carry their span
// ID and enqueue timestamp so the lane can attribute queueing delay (at ==
// 0 means untimed — tracing was off when the frame arrived).
type laneEvent struct {
	fn    func()
	owner *node.Proc // a timer's owner; nil for every other event
	from  types.ProcessID
	to    types.ProcessID
	proto string
	ts    int64
	body  any
	span  uint64
	at    int64 // enqueue time, ns; 0 = untimed
}

// lane is one ordering goroutine: a bounded MPSC inbox ring fed by read
// loops, timers, and other lanes, drained by a single loop that executes
// events in post order (per producer). A full ring parks events in the
// overflow list — see the package doc's back-pressure contract.
type lane struct {
	rt   *Runtime
	idx  int // position in rt.lanes; the tracer's lane number
	in   *ring.MPSC[laneEvent]
	wake chan struct{} // capacity 1; coalesced wake-up signal

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
// flag. Timed frames (ev.at != 0, stamped by dispatch while tracing) record
// a StageLaneDeq span whose Aux is the time the frame spent queued behind
// the lane.
func (ln *lane) exec(ev laneEvent) {
	rt := ln.rt
	ln.depth.Add(-1)
	if ev.fn != nil {
		if ev.owner == nil || !ev.owner.Crashed() {
			ev.fn()
		}
		return
	}
	if ev.at != 0 {
		rt.tracer.RecordSpan(ev.span, ln.idx, trace.StageLaneDeq, types.MessageID{}, ev.to,
			time.Now().UnixNano()-ev.at)
	}
	if p := rt.procs[ev.to]; p != nil {
		p.Deliver(ev.from, ev.proto, ev.body, ev.ts)
	}
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
	// The wire read path reuses all of its storage across envelopes: the
	// frame scratch, the inflate scratch, and the Batch (whose Msgs slice is
	// recycled). Decoded bodies never alias the scratch buffers — every
	// registered codec copies or builds fresh values — so handing them to
	// lanes while the next envelope overwrites the scratch is safe, and the
	// steady-state receive machinery allocates nothing per envelope.
	br := bufio.NewReaderSize(conn, 64<<10)
	var (
		scratch []byte
		inflate []byte
		bat     wire.Batch
	)
	for {
		data, err := wire.ReadFrameBytes(br, &scratch)
		if err != nil {
			rt.Tracef("decode error at %v: %v", to, err)
			return // connection closed or corrupt; peers redial
		}
		rt.rec.Add(metrics.WireBytesIn, len(data)+4)
		f, kind, isBatch, err := wire.DecodeFrameOrBatch(data, &bat, &inflate)
		if err != nil {
			rt.Tracef("decode error at %v: %v", to, err)
			return
		}
		if isBatch {
			if !rt.validFrom(bat.From) {
				rt.Tracef("drop batch at %v: sender %d outside topology", to, int(bat.From))
				return
			}
			for i := range bat.Msgs {
				m := &bat.Msgs[i]
				rt.rec.OnWireRecv(byte(m.Kind), m.Size)
				rt.dispatch(to, wire.Frame{From: bat.From, Proto: m.Proto, TS: m.TS, Body: m.Body})
			}
			continue
		}
		if !rt.validFrom(f.From) {
			rt.Tracef("drop frame at %v: sender %d outside topology", to, int(f.From))
			return
		}
		rt.rec.OnWireRecv(byte(kind), len(data))
		rt.dispatch(to, f)
	}
}

// validFrom guards the receive path against sender IDs outside this
// runtime's topology (a corrupt varint or a peer configured with a
// different Π): the topology lookups in dispatch panic on them, and a
// malformed frame must cost a connection, never the process.
func (rt *Runtime) validFrom(from types.ProcessID) bool {
	return from >= 0 && int(from) < rt.topo.N()
}

// dispatch applies the injected link delay (the fabric's current view of
// it, so delay spikes take effect mid-run) and hands the frame to the
// receiver's event loop. Frames of a link severed after they were written
// still deliver: they are in flight, and in-flight traffic draining during
// a partition is just delay — the sender side stopped writing the moment
// the sever landed.
func (rt *Runtime) dispatch(to types.ProcessID, f wire.Frame) {
	// Read loops run concurrently, and the shared jitter rng needs a lock —
	// but only an ACTIVE fabric can have jitter overrides, so the common
	// case (no chaos this run) stays lock-free: every frame taking a
	// runtime-global mutex here would serialise all receive paths for a
	// knob that is usually untouched. (A base model with static jitter
	// would need the rng too, but the transport's base is built from
	// WANDelay/LANDelay alone; an injected Config.Fabric must keep its
	// base jitter zero.)
	var delay time.Duration
	if rt.fabric.Active() {
		rt.rngMu.Lock()
		delay = rt.fabric.Delay(f.From, to, rt.jrng)
		rt.rngMu.Unlock()
	} else {
		delay = rt.base.Delay(rt.topo, f.From, to, nil)
	}
	// Demultiplex straight into the destination lane: the decoded frame
	// becomes the lane event field-for-field (body handed over as-is —
	// zero-copy from the codec), with no per-frame closure on the
	// zero-delay path.
	ev := laneEvent{from: f.From, to: to, proto: f.Proto, ts: f.TS, body: f.Body}
	if rt.tracer.Enabled() {
		ev.span = rt.tracer.NextSpan()
		ev.at = time.Now().UnixNano()
	}
	// The nil check must come before the call: building the variadic args
	// boxes every operand, which would put allocations back on the
	// receive hot path whenever tracing is off (the default). With a span
	// assigned, the debug line names it instead of %+v-dumping the body —
	// the line joins against the tracer's /spans output by span ID.
	if rt.trace != nil && f.Proto != "fd" {
		if ev.span != 0 {
			rt.Tracef("%v recv span=%d %v->%v %s", time.Since(rt.start).Round(time.Millisecond), ev.span, f.From, to, f.Proto)
		} else {
			rt.Tracef("%v recv %v->%v %s %+v", time.Since(rt.start).Round(time.Millisecond), f.From, to, f.Proto, f.Body)
		}
	}
	if delay > 0 {
		rt.laneOf[to].delay(ev, time.Now().Add(delay))
	} else {
		rt.laneOf[to].post(ev)
	}
}

// Now implements node.Env: wall time since Start.
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

// Transmit implements node.Env. It runs on the sender's loop and never
// blocks: for each receiver in list order, a self-send short-circuits
// through the inbox and a remote send is enqueued to the connection's
// writer goroutine (dropping if the bounded queue is full).
func (rt *Runtime) Transmit(from types.ProcessID, tos []types.ProcessID, proto string, body any, sendTS int64) {
	for _, to := range tos {
		if from == to {
			rt.laneOf[to].post(laneEvent{from: from, to: to, proto: proto, ts: sendTS, body: body})
			continue
		}
		l := rt.link(from, to)
		if l == nil {
			return // runtime stopped
		}
		// fd frames ride their own small queue: a protocol backlog
		// (bandwidth pacing, slow peer) filling l.queue must never drop or
		// delay the liveness signals, or congestion would masquerade as a
		// crash.
		q := l.queue
		if proto == fdProto {
			q = l.fdq
		}
		select {
		case q <- outFrame{proto: proto, ts: sendTS, body: body}:
			// Record only frames actually handed to a writer: counting
			// drops as sends would skew message statistics in exactly the
			// overload regime the queue bound exists for.
			rt.rec.OnSend(proto, from, to, !rt.topo.SameGroup(from, to), rt.Now())
		default:
			rt.queueDrops[from].Add(1)
			rt.Tracef("send queue full: drop %v->%v %s", from, to, proto)
		}
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
		rt:    rt,
		from:  from,
		to:    to,
		queue: make(chan outFrame, rt.cfg.SendQueue),
		fdq:   make(chan outFrame, 16),
		wake:  make(chan struct{}, 1),
		ctr:   rt.fabric.Counter(from, to),
	}
	rt.links[key] = l
	rt.wg.Add(1)
	go l.writeLoop()
	return l
}

// outFrame is one queued send; the sender's identity lives on the link.
type outFrame struct {
	proto string
	ts    int64
	body  any
	// encSize is writePending scratch: the frame's encoded size inside the
	// envelope being built (-1 when the body failed to encode).
	encSize int
}

// fdProto is the failure detector's proto label. fd frames get transport
// privileges: they are never folded into batch envelopes, never compressed,
// and exempt from bandwidth pacing — a saturated or compressed link must
// keep carrying the liveness signals, or congestion would masquerade as
// crashes.
const fdProto = "fd"

// maxEnvelopeFrames caps how many additional frames the writer pulls off
// its queue into one flush cycle, bounding a single batch envelope.
const maxEnvelopeFrames = 512

// paceChunkBytes caps one write burst on a bandwidth-capped link. Without
// it the writer would hand a whole coalesced cycle — potentially megabytes —
// to the kernel at memory speed and then sit silent through the transmission
// debt, so the peer would see an instantaneous flood followed by a gap. The
// flood is the dangerous half: hundreds of frames land on the receiver's
// lane at once and heartbeat processing queues behind them past
// SuspectAfter. Chunking the burst and paying the debt between chunks makes
// the peer receive at the modeled rate instead.
const paceChunkBytes = 128 << 10

// link owns one outbound TCP connection: a bounded frame queue drained by a
// single writer goroutine that dials, encodes, and writes with coalesced
// flushes. While the fabric severs the link, the writer kills the
// connection, refuses to dial, and parks protocol frames in held until the
// link heals — the heal wakes it through wake.
type link struct {
	rt       *Runtime
	from, to types.ProcessID
	queue    chan outFrame
	fdq      chan outFrame        // fd frames only: immune to protocol backlog
	wake     chan struct{}        // fabric transition signal, capacity 1
	ctr      *network.LinkCounter // the fabric's independent per-link byte count

	// Writer-goroutine state, reused across flush cycles.
	bat      wire.BatchWriter
	pend     []outFrame
	nextFree time.Time // bandwidth pacing: when the written bytes have drained
}

func (l *link) writeLoop() {
	rt := l.rt
	defer rt.wg.Done()
	var (
		conn     net.Conn
		bw       *bufio.Writer
		buf      []byte // reused wire-encode buffer; zero-alloc steady state
		nextDial time.Time
		held     []outFrame // frames parked while the fabric severs the link
	)
	// teardown closes the connection after a write error. It does NOT arm
	// the dial backoff: a transient error on an established connection
	// (peer restarted its listener, one RST) should redial immediately —
	// blacking the link out for DialTimeout would drop heartbeats long
	// enough to falsely suspect a live peer. Only failed dials back off.
	teardown := func() {
		if conn != nil {
			_ = conn.Close()
			rt.untrack(conn)
		}
		conn, bw = nil, nil
	}
	defer func() {
		if conn != nil {
			_ = conn.Close()
			rt.untrack(conn)
		}
	}()
	for {
		var f outFrame
		var got bool
		select {
		case f = <-l.fdq:
			got = true
		case f = <-l.queue:
			got = true
		case <-l.wake:
			// Fabric transition on this link: fall through to re-check the
			// severed state — killing the connection on a sever, flushing
			// held on a heal.
		case <-rt.done:
			return
		}
		if rt.fabric.Severed(l.from, l.to) {
			// Partition: kill the connection, reject dials, and park the
			// frame — the transport-level stand-in for the TCP retransmit
			// buffer that carries unacked data across a real partition, so
			// the severed link stays a quasi-reliable (arbitrarily slow)
			// channel. Heartbeats are NOT parked: they are ephemeral
			// liveness signals, and withholding them is the whole point —
			// the peer must suspect us until the link heals. The park
			// buffer is bounded by SendQueue; beyond it frames drop, as a
			// full send queue always has (protocol retries recover).
			if conn != nil {
				teardown()
			}
			if got && f.proto != "fd" {
				if len(held) < rt.cfg.SendQueue {
					held = append(held, f)
				} else {
					rt.holdDrops[l.from].Add(1)
					rt.Tracef("partition hold full: drop %v->%v %s", l.from, l.to, f.proto)
				}
			}
			continue
		}
		if got {
			held = append(held, f)
		}
		if len(held) == 0 {
			continue
		}
		if conn == nil {
			if time.Now().Before(nextDial) {
				held = nil
				continue // peer presumed dead: drop until the backoff expires
			}
			c, err := net.DialTimeout("tcp", rt.addr(l.to), rt.cfg.DialTimeout)
			if err != nil {
				rt.Tracef("dial error %v->%v: %v", l.from, l.to, err)
				nextDial = time.Now().Add(rt.cfg.DialTimeout)
				held = nil
				continue // unreachable peer: quasi-reliable links lose nothing between correct processes
			}
			conn = c
			rt.track(conn)
			bw = bufio.NewWriterSize(conn, 64<<10)
		}
		// Coalesce: gather the held frames (usually just the one received
		// above; more after a heal) plus whatever the queue yields within
		// FlushEvery, and write them as one flush. The gathered protocol
		// frames pack into a single batch envelope — one length header and
		// one sender preamble for the whole burst, one syscall — while fd
		// frames are written immediately as plain frames (see fdProto).
		deadline := time.Now().Add(rt.cfg.FlushEvery)
		var err error
		pend := l.pend[:0]
		take := func(f outFrame) {
			if f.proto == fdProto {
				_, err = l.writePlain(bw, &buf, f)
			} else {
				pend = append(pend, f)
			}
		}
		n := 0
		for n < len(held) && err == nil {
			if take(held[n]); err == nil {
				n++
			}
		}
		held = slices.Delete(held, 0, n) // keeps the backing array for the next cycle
		for err == nil && len(pend) < maxEnvelopeFrames && time.Now().Before(deadline) {
			var more bool
			select {
			case f = <-l.fdq:
				more = true
			default:
				select {
				case f = <-l.queue:
					more = true
				default:
				}
			}
			if !more {
				break
			}
			take(f)
		}
		// Write the gathered protocol frames. On an uncapped link the whole
		// cycle goes out as one burst (one envelope). On a
		// bandwidth-capped link it goes out in paceChunkBytes chunks with the
		// transmission debt paid between them — modeling the burst draining
		// through a rate-limited pipe, and keeping the peer's receive rate at
		// the modeled rate (see paceChunkBytes).
		rate := rt.fabric.Bandwidth(l.from, l.to)
		limit := 0
		if rate > 0 {
			limit = paceChunkBytes
		}
		for off := 0; err == nil && off < len(pend); {
			var payBytes, used int
			payBytes, used, err = l.writePending(bw, &buf, pend[off:], limit)
			off += used
			if err == nil {
				err = bw.Flush()
			}
			if err == nil && payBytes > 0 && rate > 0 {
				now := time.Now()
				if l.nextFree.Before(now) {
					l.nextFree = now
				}
				l.nextFree = l.nextFree.Add(network.TransmitTime(rate, payBytes))
				err = l.pace(&held, bw, &buf)
			}
		}
		for i := range pend {
			pend[i] = outFrame{} // drop body references
		}
		l.pend = pend[:0]
		if err == nil {
			err = bw.Flush() // fd frames written outside writePending
		}
		if err != nil {
			// Unwritten held frames stay parked for the next attempt (a
			// heal racing a broken connection must not lose them).
			rt.Tracef("write error %v->%v: %v", l.from, l.to, err)
			teardown()
			continue
		}
	}
}

// writePending encodes the cycle's gathered protocol frames: one batch
// envelope when two or more coalesced, and also when a lone frame reaches the
// compression threshold — the envelope is the unit of compression, and on a
// payload that size its preamble is noise next to the deflate win. A lone
// frame below the threshold goes out plain: there the preamble costs more
// than it saves. It consumes frames from the front of pend — all of them
// when limit is zero, otherwise stopping once the payload reaches limit
// bytes (always at least one frame) — and returns the pacing-liable wire
// bytes written plus how many frames it consumed.
func (l *link) writePending(bw *bufio.Writer, buf *[]byte, pend []outFrame, limit int) (payBytes, used int, err error) {
	rt := l.rt
	if len(pend) == 0 {
		return 0, 0, nil
	}
	l.bat.Begin(l.from)
	solo := -1
	for i := range pend {
		f := &pend[i]
		n, aerr := l.bat.Add(f.proto, f.ts, f.body)
		used = i + 1
		if aerr != nil {
			// The body itself is unencodable (e.g. an unregistered exotic
			// payload): drop this frame, keep the rest of the envelope.
			rt.Tracef("encode error %v->%v %s: %v", l.from, l.to, f.proto, aerr)
			f.encSize = -1
			continue
		}
		f.encSize = n
		solo = i
		if limit > 0 && l.bat.Len() >= limit {
			break
		}
	}
	if l.bat.Count() == 0 {
		return 0, used, nil
	}
	if l.bat.Count() == 1 && (rt.compressMin <= 0 || l.bat.Len() < rt.compressMin) {
		n, werr := l.writePlain(bw, buf, pend[solo])
		return n, used, werr
	}
	if rt.rec != nil {
		for i := 0; i < used; i++ {
			if pend[i].encSize >= 0 {
				rt.rec.OnWireSend(byte(wire.KindOf(pend[i].body)), pend[i].encSize)
			}
		}
	}
	b, rawLen, compLen, wireLen, ferr := l.bat.Finish((*buf)[:0], rt.compressMin)
	if ferr != nil {
		rt.Tracef("encode error %v->%v batch: %v", l.from, l.to, ferr)
		return 0, used, nil
	}
	*buf = b
	l.ctr.Count(wireLen)
	rt.rec.OnWireFlush(wireLen, rawLen, compLen)
	_, werr := bw.Write(b)
	return wireLen, used, werr
}

// writePlain encodes one frame in the plain (non-envelope) wire format and
// counts its bytes. It returns the frame's pacing-liable wire bytes: zero
// for fd frames, which are exempt from bandwidth pacing. Encode failures
// drop the frame but keep the connection; only write failures return error.
func (l *link) writePlain(bw *bufio.Writer, buf *[]byte, f outFrame) (int, error) {
	rt := l.rt
	b, err := wire.AppendFrame((*buf)[:0], l.from, f.proto, f.ts, f.body)
	if err != nil {
		rt.Tracef("encode error %v->%v %s: %v", l.from, l.to, f.proto, err)
		return 0, nil
	}
	*buf = b
	l.ctr.Count(len(b))
	rt.rec.OnWireSend(byte(wire.KindOf(f.body)), len(b))
	rt.rec.OnWireFlush(len(b), 0, 0)
	_, err = bw.Write(b)
	if f.proto == fdProto {
		return 0, err
	}
	return len(b), err
}

// pace blocks until the link's transmission-debt clock (nextFree) passes:
// after a burst of n bytes on a link capped at rate bytes/s the writer
// accepts no further protocol frames for TransmitTime(rate, n) — the
// written bytes draining through the modeled pipe. fd frames are exempt:
// they are written and flushed immediately during the wait, so a saturated
// link keeps carrying heartbeats and congestion cannot masquerade as a
// crash. Other frames arriving mid-wait park in held for the next cycle,
// bounded by SendQueue exactly like the partition hold.
func (l *link) pace(held *[]outFrame, bw *bufio.Writer, buf *[]byte) error {
	rt := l.rt
	for {
		d := time.Until(l.nextFree)
		if d <= 0 {
			return nil
		}
		t := time.NewTimer(d)
		select {
		case f := <-l.fdq:
			// fd frames are exempt from pacing: write and flush them
			// through the capped window so the wait cannot starve the
			// failure detector.
			t.Stop()
			if rt.fabric.Severed(l.from, l.to) {
				continue // heartbeats never cross a severed link
			}
			if _, err := l.writePlain(bw, buf, f); err != nil {
				return err
			}
			if err := bw.Flush(); err != nil {
				return err
			}
		case f := <-l.queue:
			t.Stop()
			if len(*held) < rt.cfg.SendQueue {
				*held = append(*held, f)
			} else {
				rt.holdDrops[l.from].Add(1)
				rt.Tracef("pacing hold full: drop %v->%v %s", l.from, l.to, f.proto)
			}
		case <-l.wake:
			t.Stop()
			if rt.fabric.Severed(l.from, l.to) {
				// A sever must kill the connection now: hand control back
				// to the main loop with the wake re-armed so it sees the
				// transition. Remaining debt stays on nextFree.
				select {
				case l.wake <- struct{}{}:
				default:
				}
				return nil
			}
			// A heal or reverse-link transition changes nothing for an
			// unsevered writer: keep pacing.
		case <-rt.done:
			t.Stop()
			return nil
		case <-t.C:
			return nil
		}
	}
}
