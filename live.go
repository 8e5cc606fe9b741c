package wanamcast

import (
	"errors"
	"fmt"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"wanamcast/internal/check"
	"wanamcast/internal/config"
	"wanamcast/internal/durable"
	"wanamcast/internal/fd"
	"wanamcast/internal/harness"
	"wanamcast/internal/metrics"
	"wanamcast/internal/network"
	"wanamcast/internal/node"
	"wanamcast/internal/scenario"
	"wanamcast/internal/storage"
	"wanamcast/internal/trace"
	"wanamcast/internal/transport/tcp"
	"wanamcast/internal/types"
	"wanamcast/internal/wire"
)

// LiveConfig describes a cluster running over real TCP sockets on
// localhost, with an injected one-way WAN delay between groups. Every knob
// is declared, documented, defaulted and validated in internal/config.
type LiveConfig = config.Config

// Replica is an application a process hosts, attached by
// LiveCluster.SetReplica: the service layer's Server is one.
type Replica = node.Replica

// LiveCluster runs Algorithms A1 and A2 over TCP on every process it hosts:
// all of Π, or LiveConfig.Local. Construct with NewLiveCluster, then Start;
// deliveries arrive on the callback passed to OnDeliver (installed before
// Start). LiveCluster is safe for concurrent use.
type LiveCluster struct {
	rt     *tcp.Runtime
	topo   *types.Topology
	cfg    LiveConfig
	col    *metrics.Collector
	tracer *trace.Tracer   // nil unless LiveConfig.TraceSpans
	hosts  []*durable.Node // per hosted process: its current incarnation's endpoints (loop-confined), built by Start

	stores []storage.Store      // per process; nil = no persistence
	gc     *storage.GroupCommit // cross-lane fsync batcher; nil without a durable store

	onDeliver func(p ProcessID, id MessageID, payload any) // set before Start only
	replicas  []atomic.Pointer[Replica]                    // per process, see SetReplica

	mu        sync.Mutex
	checker   *check.Checker
	crashed   map[ProcessID]bool
	started   bool
	stopped   bool
	closeOnce sync.Once
}

// replicaSection names a replica's snapshot section. earlierReplicaSection
// is its name while the service layer's cached outcomes carried receipts for
// delivery certificates: a snapshot that holds it is refused by name, never
// handed to a replica that would misread it.
const replicaSection, earlierReplicaSection = "replica", "svc"

// NewLiveCluster builds (but does not start) a live cluster. A cast payload
// travels in its wire encoding: the basic types have codecs; gob-register
// your own payload types before casting other values. It panics if a
// configured data directory cannot be opened: a cluster asked to be durable
// must not silently run volatile.
func NewLiveCluster(cfg LiveConfig) *LiveCluster {
	cfg = cfg.WithDefaults()
	topo := types.NewTopology(cfg.Groups, cfg.PerGroup)
	// The collector's per-cast records, which DeliveredCount reads too,
	// must not grow forever on a long-lived cluster: see RetainDeliveries.
	col := &metrics.Collector{CastWindow: 1 << 16}
	if cfg.RetainDeliveries > 0 {
		col.CastWindow = max(8*cfg.RetainDeliveries, 4096)
	}
	var tr *trace.Tracer
	if cfg.TraceSpans {
		tr = trace.New(cfg.Lanes, cfg.SpanBuf) // one span ring per ordering lane
		tr.SetEnabled(true)
	}
	rt := tcp.New(tcp.Config{Config: cfg, Topo: topo, Recorder: col, Tracer: tr})
	l := &LiveCluster{
		rt:       rt,
		col:      col,
		tracer:   tr,
		topo:     topo,
		cfg:      cfg,
		hosts:    make([]*durable.Node, topo.N()),
		stores:   make([]storage.Store, topo.N()),
		replicas: make([]atomic.Pointer[Replica], topo.N()),
		crashed:  make(map[ProcessID]bool),
	}
	if cfg.Check {
		l.checker = check.New(topo)
	}
	for _, id := range rt.Local() {
		// Lanes share goroutines, so durability barriers batch through one
		// group-commit syncer instead of syncing inline (see
		// storage.GroupCommit). Only worth starting with a store to sync.
		if l.stores[id] = l.openStore(id); l.stores[id] != nil && l.gc == nil {
			l.gc = storage.NewGroupCommit()
			l.gc.SetTracer(tr)
		}
	}
	return l
}

// openStore creates process id's durable store per the config: StoreFor
// wins, then DataDir, else none.
func (l *LiveCluster) openStore(id ProcessID) storage.Store {
	if l.cfg.StoreFor != nil {
		return l.cfg.StoreFor(id)
	}
	if l.cfg.DataDir == "" {
		return nil
	}
	d, err := storage.OpenDisk(filepath.Join(l.cfg.DataDir, fmt.Sprintf("p%d", int(id))),
		storage.DiskOptions{NoFsync: l.cfg.NoFsync})
	if err != nil {
		panic(fmt.Sprintf("wanamcast: open data dir for %v: %v", id, err))
	}
	return d
}

// recoverHost builds an incarnation of a process on proc and recovers it
// from the process's store before it handles any live event or casts (see
// package durable); only a recovered incarnation becomes the process's host.
// Start runs it for every hosted process before the transport starts,
// Restart on the process's event loop.
func (l *LiveCluster) recoverHost(proc *node.Proc, det *fd.Oracle) error {
	id := proc.Self()
	h := durable.New(durable.Config{
		Proc:        proc,
		Detector:    det,
		Store:       l.stores[id],
		GroupCommit: l.gc,
		Knobs:       l.cfg,
		Async:       func(fn func()) { l.rt.Async(id, fn) },
		Deliver: func(_ string, mid MessageID, payload []byte) {
			l.recordDelivery(id, proc.Recovering(), mid, payload)
		},
		Sections: func() []durable.Section {
			r := l.replica(id)
			if r == nil {
				return nil
			}
			return []durable.Section{{Name: replicaSection, Save: r.SaveSnapshot, Restore: r.RestoreSnapshot},
				{Name: earlierReplicaSection, Restore: func([]byte) error {
					return errors.New("a replica section of the earlier format, whose cached outcomes carry receipts")
				}}}
		},
		OnSyncFailed: func(proto string) {
			l.flightRecord(fmt.Sprintf("%s state transfer abandoned at %v", proto, id))
		},
	})
	if err := h.Recover(); err != nil {
		return err
	}
	l.hosts[id] = h
	return nil
}

// recordDelivery hands one of p's A-Deliveries on, on p's event loop: to
// the checker (under l.mu, only with Check on), the OnDeliver callback, then
// p's replica. Log replay re-emits deliveries recorded before the crash, so
// only the replica sees them: they rebuild its state.
func (l *LiveCluster) recordDelivery(p ProcessID, replay bool, id MessageID, payload []byte) {
	if !replay {
		if l.checker != nil {
			l.mu.Lock()
			l.checker.RecordDeliver(p, id)
			l.mu.Unlock()
		}
		if l.onDeliver != nil {
			l.onDeliver(p, id, harness.Decode(id, payload, l.rt.Tracef))
		}
	}
	if r := l.replica(p); r != nil {
		r.Deliver(id, payload)
	}
}

// OnDeliver installs the delivery callback: fn runs on p's event loop for
// each of p's A-Deliveries, in delivery order, with the payload decoded. It
// panics after Start.
func (l *LiveCluster) OnDeliver(fn func(p ProcessID, id MessageID, payload any)) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.started {
		panic("wanamcast: OnDeliver after Start")
	}
	l.onDeliver = fn
}

// SetReplica makes r process p's replica, replacing whatever p had, so
// nothing of a dead incarnation's replica stays reachable. r receives p's
// A-Deliveries on p's event loop, in delivery order, after the OnDeliver
// callback, replayed ones included; a payload comes undecoded, as the
// caster's edge encoded it, and is shared with the ordering layer (read it,
// never write it). r's state is p's "replica" snapshot section: every snapshot
// saves it, and Start and Restart restore it and replay p's log to it before
// p handles a live event. So a replica attached before Start resumes from an
// earlier run's data dir, and one attached after Start begins empty, after the
// replay. The service layer (internal/svc) attaches each of its servers here.
func (l *LiveCluster) SetReplica(p ProcessID, r Replica) {
	l.replicas[p].Store(&r)
}

// replica returns process p's replica, nil if none is attached.
func (l *LiveCluster) replica(p ProcessID) Replica {
	if r := l.replicas[p].Load(); r != nil {
		return *r
	}
	return nil
}

// Topology exposes the cluster's process/group layout.
func (l *LiveCluster) Topology() *Topology { return l.topo }

// Start brings every hosted process up as Restart brings one back: it
// recovers the process from its store (its replica too, see SetReplica),
// opens the sockets, then catches the process up from its group peers. Over
// an earlier run's data dir the cluster resumes that run, casting above its
// IDs; a checked one refuses, as the checker cannot know that run's casts. A
// cluster can be started at most once; Start after Stop fails rather than
// resurrecting closed sockets.
func (l *LiveCluster) Start() error {
	l.mu.Lock()
	if l.started {
		l.mu.Unlock()
		return fmt.Errorf("wanamcast: live cluster already started")
	}
	if l.stopped {
		l.mu.Unlock()
		return fmt.Errorf("wanamcast: live cluster already stopped")
	}
	l.started = true
	l.mu.Unlock()
	for _, p := range l.rt.Local() {
		if err := l.recoverHost(l.rt.Proc(p), l.rt.Detector(p).Oracle); err != nil {
			return fmt.Errorf("wanamcast: recover %v: %w", p, err)
		}
		if l.hosts[p].Recovered() {
			if l.checker != nil {
				return fmt.Errorf("wanamcast: %v's store holds an earlier run, whose casts the property checker cannot know", p)
			}
			l.rt.Tracef("%v recovered from its store; syncing with group peers", p)
		}
	}
	if err := l.rt.Start(); err != nil {
		return err
	}
	for _, p := range l.rt.Local() {
		l.rt.Run(p, func() { l.hosts[p].StartSync() })
	}
	return nil
}

// Stop shuts the cluster down. It is idempotent and safe to call
// concurrently (every call blocks until shutdown completes) and before
// Start (the cluster then refuses to start).
func (l *LiveCluster) Stop() {
	l.mu.Lock()
	l.stopped = true
	l.mu.Unlock()
	l.rt.Stop()
	// Loops are drained: stop the group-commit syncer (its final sweep
	// must precede the store closes below — a Sync racing Close would
	// hit a closed file), then flush and release the durable stores
	// exactly once.
	l.closeOnce.Do(func() {
		if l.gc != nil {
			l.gc.Close()
		}
		for _, s := range l.stores {
			if s != nil {
				_ = s.Close()
			}
		}
	})
}

// Process returns the ProcessID of the i-th member of group g.
func (l *LiveCluster) Process(g GroupID, i int) ProcessID { return l.topo.Members(g)[i] }

// Broadcast atomically broadcasts payload from process from (Algorithm A2).
func (l *LiveCluster) Broadcast(from ProcessID, payload any) MessageID {
	return l.castWait(from, payload, l.topo.AllGroups(), true)
}

// Multicast atomically multicasts payload from from to groups (Algorithm A1).
func (l *LiveCluster) Multicast(from ProcessID, payload any, groups ...GroupID) MessageID {
	if len(groups) == 0 {
		panic("wanamcast: Multicast needs at least one destination group")
	}
	return l.castWait(from, payload, types.NewGroupSet(groups...), false)
}

// Submit multicasts payload, already encoded, from process from to dest
// (Algorithm A1) without waiting: done runs on from's event loop right after
// the cast, before any delivery of it there, with its ID (zero if refused).
// payload then belongs to the ordering layer.
func (l *LiveCluster) Submit(from ProcessID, payload []byte, dest GroupSet, done func(MessageID)) {
	l.cast(from, payload, dest, false, done)
}

// castWait encodes payload, the one encoding a cast gets, casts it and waits
// for its ID. A payload even gob cannot encode is refused, with a trace line.
func (l *LiveCluster) castWait(from ProcessID, payload any, dest GroupSet, broadcast bool) MessageID {
	b, err := wire.EncodeValue(payload)
	if err != nil {
		l.rt.Tracef("wanamcast: cast refused: %v", err)
		return MessageID{}
	}
	ids := make(chan MessageID, 1)
	l.cast(from, b, dest, broadcast, func(id MessageID) { ids <- id })
	return <-ids
}

// cast posts the cast of b from process from to dest to from's event loop,
// through A2 if broadcast, else through A1, and done runs there after it.
//
// With checking on, l.mu is held ACROSS the cast and its recording: a remote
// replica could otherwise order and deliver the message between the cast
// handing frames to the async writers and the checker learning of the cast,
// and recordDelivery would file a permanent false integrity fault.
// Deadlock-free: a cast only enqueues (never blocks on another loop), and no
// A-Delivery can happen synchronously inside it. l.checker is immutable after
// construction, so the checker-off hot path (all benchmarks) adds no
// cross-loop lock contention. A cast from a crashed (not yet restarted)
// process is refused: done gets the zero MessageID and nothing is cast — a
// dead process cannot originate messages, and recording such a cast would
// become a permanent false validity fault once the process restarts as
// correct. The crash flag is loop-confined state of the CURRENT incarnation
// (Restart swaps in a fresh one), so the checker-off path reads it unlocked.
func (l *LiveCluster) cast(from ProcessID, b []byte, dest GroupSet, broadcast bool, done func(MessageID)) {
	l.rt.Async(from, func() {
		var id MessageID
		if l.checker != nil {
			l.mu.Lock()
		}
		if !l.rt.Proc(from).Crashed() && (l.checker == nil || !l.crashed[from]) {
			if h := l.hosts[from]; broadcast {
				id = h.A2.ABCast(b)
			} else {
				id = h.A1.AMCast(b, dest)
			}
			if l.checker != nil {
				l.checker.RecordCast(id, dest)
			}
		}
		if l.checker != nil {
			l.mu.Unlock()
		}
		done(id)
	})
}

// WaitPropertiesClean polls CheckProperties until it reports no
// violations or the timeout expires, returning the final verdict (empty
// means the run satisfies §2.2). This is the idiomatic way to check a
// live run: casts still draining report as transient agreement/validity
// violations that disappear once every addressee has delivered.
func (l *LiveCluster) WaitPropertiesClean(timeout time.Duration) []string {
	deadline := time.Now().Add(timeout)
	for {
		v := l.CheckProperties()
		if len(v) == 0 || time.Now().After(deadline) {
			return v
		}
		time.Sleep(100 * time.Millisecond)
	}
}

// Crash crash-stops process p.
func (l *LiveCluster) Crash(p ProcessID) {
	l.mu.Lock()
	l.crashed[p] = true
	l.mu.Unlock()
	l.rt.Crash(p)
}

// Stats returns the aggregate protocol measurements of the run so far:
// message counts, latency degrees, batch sizes, and the failure-detector
// counters (suspicions, trust restorations, leader changes per group).
// Counters are cumulative; the per-cast latency aggregates cover a bounded
// window of recent casts (see RetainDeliveries), so a long-running
// cluster's memory stays flat.
func (l *LiveCluster) Stats() Stats {
	st := l.col.Snapshot()
	st.SendQueueDrops = l.rt.Drops()
	st.WANReleaseLate = l.rt.ReleaseLateness()
	return st
}

// FsyncStats reports the cluster's durability-barrier accounting:
// Fsyncs is the total fsyncs issued across every durable store, and the
// group-commit counters (zero without a durable store) show the batching — with
// B barriers amortised over W windows, B/W lane barriers shared each
// fsync.
type FsyncStats struct {
	Fsyncs   uint64 // fsyncs issued across all stores (inline + group commit)
	Barriers uint64 // durability barriers staged through the group-commit syncer
	Windows  uint64 // group-commit windows executed
	Syncs    uint64 // store syncs the syncer asked for, one per dirty store per window (a store with nothing flushed since its last one skips the fsync)
}

// Tracer returns the cluster's message-lifecycle tracer, nil unless
// LiveConfig.TraceSpans: recent spans via Snapshot/WriteJSONL, per-stage
// latency histograms via Stats().
func (l *LiveCluster) Tracer() *trace.Tracer { return l.tracer }

// LaneDepths snapshots each ordering lane's pending-event count.
func (l *LiveCluster) LaneDepths() []int { return l.rt.LaneDepths() }

// TelemetrySource assembles the live introspection plane's data sources
// from this cluster for harness.ServeTelemetry: protocol stats, fsync and
// lane-depth gauges, and — when TraceSpans is on — the stage histograms
// and the recent span dump. svcStats adds the service-layer counters
// (nil omits them); cmd names the serving command on the index page.
func (l *LiveCluster) TelemetrySource(cmd string, svcStats *metrics.Service) harness.Telemetry {
	t := harness.Telemetry{
		Cmd:   cmd,
		Stats: l.Stats,
		Gauges: func(st metrics.Stats) map[string]float64 {
			fs := l.FsyncStats()
			w := st.Wire
			g := map[string]float64{
				"wanamcast_fsyncs_total":           float64(fs.Fsyncs),
				"wanamcast_gc_barriers_total":      float64(fs.Barriers),
				"wanamcast_gc_windows_total":       float64(fs.Windows),
				"wanamcast_wire_compression_ratio": w.CompressionRatio(),
				"wanamcast_wire_frames_per_write":  w.FramesPerEnvelope(),
			}
			for i, d := range l.LaneDepths() {
				g[fmt.Sprintf("wanamcast_lane_depth{lane=\"%d\"}", i)] = float64(d)
			}
			for p := range st.SendQueueDrops {
				g[fmt.Sprintf("wanamcast_send_queue_drops_total{proc=\"%d\"}", p)] = float64(st.SendQueueDrops[p])
			}
			return g
		},
	}
	if svcStats != nil {
		t.Service = svcStats.Snapshot
	}
	if tr := l.tracer; tr != nil {
		t.Stages = tr.Stats().Snapshot
		t.Spans = tr.WriteJSONL
	}
	return t
}

// flightRecord dumps the retained spans to LiveConfig.FlightDump — the
// crash-dump path for §2.2 violations, abandoned state transfers, and
// restarts. A no-op unless both TraceSpans and FlightDump are set.
func (l *LiveCluster) flightRecord(reason string) {
	if l.tracer == nil || l.cfg.FlightDump == "" {
		return
	}
	if err := l.tracer.DumpFile(l.cfg.FlightDump); err != nil {
		l.rt.Tracef("flight recorder: dump failed: %v", err)
		return
	}
	l.rt.Tracef("flight recorder: spans dumped to %s (%s)", l.cfg.FlightDump, reason)
}

// FsyncStats returns the durability-barrier counters of the run so far.
func (l *LiveCluster) FsyncStats() FsyncStats {
	var st FsyncStats
	for _, s := range l.stores {
		if s != nil {
			st.Fsyncs += s.Fsyncs()
		}
	}
	if l.gc != nil {
		g := l.gc.Stats()
		st.Barriers, st.Windows, st.Syncs = g.Barriers, g.Windows, g.Syncs
	}
	return st
}

// Fabric exposes the live network's mutable link table: severing a
// (from, to) pair kills its TCP connection, rejects dials, and parks
// outbound frames (except heartbeats) until the link heals — the paper's
// quasi-reliable channel under arbitrary delay, so partitions are
// admissible runs. Safe to mutate from any goroutine while the cluster
// runs.
func (l *LiveCluster) Fabric() *network.Fabric { return l.rt.Fabric() }

// ReadLease returns process p's leader lease — valid only while p holds a
// majority of live grants from its group (nil when LeaseDuration is 0).
// Pass it to the service layer (svc.ServiceConfig.LeaseFor) to let p serve
// linearizable reads locally, and to chaos assertions that pin the
// no-two-leases-overlap invariant across a partition.
func (l *LiveCluster) ReadLease(p ProcessID) *fd.Lease { return l.rt.Lease(p) }

// ForceSuspect injects a false suspicion of p into every group peer's
// failure detector — a leader flap without any real fault. Trust restores
// itself as soon as p's next heartbeats land (within ~HeartbeatEvery), or
// explicitly via Unsuspect.
func (l *LiveCluster) ForceSuspect(p ProcessID) {
	l.atPeers(p, func(q ProcessID) { l.rt.Detector(q).Suspect(p) })
}

// Unsuspect restores every group peer's trust in p immediately.
func (l *LiveCluster) Unsuspect(p ProcessID) {
	l.atPeers(p, func(q ProcessID) { l.rt.Detector(q).Unsuspect(p) })
}

// atPeers runs fn(q) on the event loop of every group peer q of p, in turn.
func (l *LiveCluster) atPeers(p ProcessID, fn func(q ProcessID)) {
	for _, q := range l.topo.Members(l.topo.GroupOf(p)) {
		if q != p {
			l.rt.Run(q, func() { fn(q) })
		}
	}
}

// LeaderOf returns process q's current view of its own group's leader.
func (l *LiveCluster) LeaderOf(q ProcessID) ProcessID {
	var leader ProcessID
	l.rt.Run(q, func() { leader = l.rt.Detector(q).Leader(l.topo.GroupOf(q)) })
	return leader
}

// SubscribeLeader registers fn with process q's failure detector: it runs
// on q's event loop at every leader change q observes — demotions and
// re-elections both. Subscribe before Start or while the cluster runs.
func (l *LiveCluster) SubscribeLeader(q ProcessID, fn func(g GroupID, leader ProcessID)) {
	l.mu.Lock()
	started := l.started
	l.mu.Unlock()
	if !started {
		// Loops are not running yet; the detector is safe to touch
		// directly.
		l.rt.Detector(q).Subscribe(fn)
		return
	}
	l.rt.Run(q, func() { l.rt.Detector(q).Subscribe(fn) })
}

// Chaos returns the scenario control surface of the live cluster: pass it
// to scenario.Apply to run a fault script (wall-clock timed) against the
// real TCP fabric. Restart events go through LiveCluster.Restart and thus
// need a durable store; when the cluster hosts a service layer
// (svc.ServeCluster), override RestartFn with Service.RestartReplica so
// the replica's server is reincarnated too. Scenario events are logged
// through the runtime's trace hook.
func (l *LiveCluster) Chaos() scenario.Funcs {
	return scenario.Funcs{
		Topo:        l.topo,
		Net:         l.rt.Fabric(),
		Schedule:    func(d time.Duration, fn func()) { time.AfterFunc(d, fn) },
		CrashFn:     l.Crash,
		RestartFn:   l.Restart,
		SuspectFn:   l.ForceSuspect,
		UnsuspectFn: l.Unsuspect,
		Logf:        l.rt.Tracef,
	}
}

// Restart brings a crashed process back as a fresh incarnation: it
// recovers Paxos acceptor state, the group clock, delivery rounds, and its
// replica's snapshot section (see SetReplica) from its durable store, then
// catches up the instances it missed from live group peers via the bounded
// state-transfer protocol. The restarted process resumes as a correct
// participant: once its state transfer completes it again delivers
// everything addressed to its group, and CheckProperties holds it to that.
//
// Restart requires the process to be crashed and durably configured
// (DataDir or StoreFor).
func (l *LiveCluster) Restart(p ProcessID) error {
	l.mu.Lock()
	switch {
	case !l.started || l.stopped:
		l.mu.Unlock()
		return fmt.Errorf("wanamcast: Restart(%v) needs a started, unstopped cluster", p)
	case !l.crashed[p]:
		l.mu.Unlock()
		return fmt.Errorf("wanamcast: Restart(%v): process is not crashed", p)
	case l.stores[p] == nil:
		l.mu.Unlock()
		return fmt.Errorf("wanamcast: Restart(%v): no durable store (set DataDir or StoreFor)", p)
	}
	l.mu.Unlock()

	// Snapshot the pre-restart spans before recovery overwrites the rings:
	// whatever led to the crash is about to age out.
	l.flightRecord(fmt.Sprintf("restart %v", p))

	if err := l.rt.Restart(p, l.recoverHost); err != nil {
		// The crashed incarnation stays in place (see tcp.Runtime.Restart).
		return err
	}
	l.mu.Lock()
	delete(l.crashed, p)
	l.mu.Unlock()
	// Liveness: fetch everything missed while down from the group peers.
	l.rt.Run(p, func() { l.hosts[p].StartSync() })
	return nil
}

// Snapshot forces an immediate snapshot of process p (tests, graceful
// shutdown). It blocks until the snapshot completes.
func (l *LiveCluster) Snapshot(p ProcessID) {
	l.rt.Run(p, func() {
		if err := l.hosts[p].Snapshot(); err != nil {
			l.rt.Tracef("snapshot %v failed: %v", p, err)
		}
	})
}

// CheckProperties verifies the §2.2 properties — uniform integrity,
// validity, uniform agreement, uniform prefix order — over every cast and
// delivery recorded so far, and returns the violations. It requires
// LiveConfig.Check. Note that a live run has no quiescence signal: casts
// still in flight report as transient agreement/validity violations, so
// call it (or poll it) after the workload has drained.
func (l *LiveCluster) CheckProperties() []string {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.checker == nil {
		panic("wanamcast: CheckProperties requires LiveConfig.Check")
	}
	correct := func(p ProcessID) bool { return !l.crashed[p] }
	correctCaster := func(id MessageID) bool { return !l.crashed[id.Origin] }
	v := l.checker.Check(correct, correctCaster)
	if len(v) > 0 {
		// Arm-once is wrong here: each check with violations refreshes the
		// dump so the recorded spans cover the window closest to the fault.
		l.flightRecord("§2.2 violation: " + v[0])
	}
	return v
}

// DeliveredCount returns how many processes have delivered id so far,
// replays not counted. It answers for the collector's window of recent
// casts made here (see LiveConfig.RetainDeliveries), 0 once id has aged out
// of it; with LiveConfig.Local only the hosted processes count.
func (l *LiveCluster) DeliveredCount(id MessageID) int { return l.col.Delivered(id) }

// WaitDelivered blocks until id has been delivered by n processes or the
// timeout expires; it reports whether the count was reached.
func (l *LiveCluster) WaitDelivered(id MessageID, n int, timeout time.Duration) bool {
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if l.DeliveredCount(id) >= n {
			return true
		}
		time.Sleep(5 * time.Millisecond)
	}
	return false
}
