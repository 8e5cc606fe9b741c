package wanamcast

import (
	"fmt"
	"path/filepath"
	"slices"
	"sync"
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
)

// LiveConfig describes a cluster running over real TCP sockets on
// localhost, with an injected one-way WAN delay between groups. Every knob
// is declared, documented, defaulted and validated in internal/config.
type LiveConfig = config.Config

// LiveCluster runs Algorithms A1 and A2 on every process over TCP.
// Construct with NewLiveCluster, then Start; deliveries arrive on the
// callback passed to OnDeliver (installed before Start). LiveCluster is
// safe for concurrent use.
type LiveCluster struct {
	rt     *tcp.Runtime
	topo   *types.Topology
	cfg    LiveConfig
	col    *metrics.Collector
	tracer *trace.Tracer   // nil unless LiveConfig.TraceSpans
	hosts  []*durable.Node // per process: its current incarnation's endpoints (loop-confined)

	stores []storage.Store      // per process; nil = no persistence
	gc     *storage.GroupCommit // cross-lane fsync batcher; nil when no store can split its barrier

	mu         sync.Mutex
	onDeliver  func(p ProcessID, id MessageID, payload any)
	hooks      [][]func(id MessageID, payload any) // per-process delivery hooks
	extras     [][]durable.Section                 // registered snapshot sections
	deliveries []Delivery
	retain     int
	counts     map[MessageID]int
	countOrder []MessageID // first-delivery order, for bounded eviction
	checker    *check.Checker
	crashed    map[ProcessID]bool
	started    bool
	stopped    bool
	startTime  time.Time
	closeOnce  sync.Once
}

// NewLiveCluster builds (but does not start) a live cluster. Payloads of
// the basic types and every protocol message have wire codecs; gob-register
// your own payload types before casting other values. It panics if a
// configured data directory cannot be opened: a cluster asked to be durable
// must not silently run volatile.
func NewLiveCluster(cfg LiveConfig) *LiveCluster {
	cfg = cfg.WithDefaults()
	topo := types.NewTopology(cfg.Groups, cfg.PerGroup)
	// The collector's per-cast records (each holding its deliveries) must
	// not grow forever on a long-lived cluster: bound them like the
	// delivery-count map — generously past RetainDeliveries when that is
	// set, and at 64k casts otherwise (a serve-mode cluster that keeps its
	// whole delivery log still gets bounded metrics).
	col := &metrics.Collector{CastWindow: 1 << 16}
	if cfg.RetainDeliveries > 0 {
		col.CastWindow = 8 * cfg.RetainDeliveries
	}
	var tr *trace.Tracer
	if cfg.TraceSpans {
		tr = trace.New(cfg.Lanes, cfg.SpanBuf) // one span ring per ordering lane
		tr.SetEnabled(true)
	}
	rt := tcp.New(tcp.Config{Config: cfg, Topo: topo, Recorder: col, Tracer: tr})
	l := &LiveCluster{
		rt:      rt,
		col:     col,
		tracer:  tr,
		topo:    topo,
		cfg:     cfg,
		hosts:   make([]*durable.Node, topo.N()),
		stores:  make([]storage.Store, topo.N()),
		retain:  cfg.RetainDeliveries,
		counts:  make(map[MessageID]int),
		hooks:   make([][]func(id MessageID, payload any), topo.N()),
		extras:  make([][]durable.Section, topo.N()),
		crashed: make(map[ProcessID]bool),
	}
	if cfg.Check {
		l.checker = check.New(topo)
	}
	for _, id := range topo.AllProcesses() {
		l.stores[id] = l.openStore(id)
	}
	// Lanes share goroutines, so Commit barriers batch through one
	// group-commit syncer instead of fsyncing inline (see
	// storage.GroupCommit). Only worth starting when some store can
	// actually split its barrier.
	for _, s := range l.stores {
		if _, ok := s.(storage.SyncStore); ok {
			l.gc = storage.NewGroupCommit()
			l.gc.SetTracer(tr)
			break
		}
	}
	for _, id := range topo.AllProcesses() {
		l.hosts[id] = l.newHost(id, rt.Proc(id), rt.Detector(id))
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

// newHost builds one incarnation of process id on proc. It runs at
// construction and again, on the process's own event loop, when Restart
// builds a fresh incarnation.
func (l *LiveCluster) newHost(id ProcessID, proc *node.Proc, det fd.Detector) *durable.Node {
	return durable.New(durable.Config{
		Proc:        proc,
		Detector:    det,
		Store:       l.stores[id],
		GroupCommit: l.gc,
		Knobs:       l.cfg,
		Async:       func(fn func()) { l.rt.Async(id, fn) },
		Deliver: func(_ string, mid MessageID, payload any) {
			l.recordDelivery(id, proc.Recovering(), mid, payload)
		},
		Sections: func() []durable.Section {
			l.mu.Lock()
			defer l.mu.Unlock()
			return slices.Clone(l.extras[id])
		},
		OnSyncFailed: func(proto string) {
			l.flightRecord(fmt.Sprintf("%s state transfer abandoned at %v", proto, id))
		},
		Logf: l.rt.Tracef,
	})
}

func (l *LiveCluster) recordDelivery(p ProcessID, replay bool, id MessageID, payload any) {
	l.mu.Lock()
	if replay {
		// Log replay re-emits deliveries the cluster already recorded
		// before the crash: the checker, counts, and the delivery log must
		// not see them twice. The per-process hooks DO run — they rebuild
		// the restarted replica's service state from the replayed sequence.
		hooks := l.hooks[p]
		l.mu.Unlock()
		for _, h := range hooks {
			h(id, payload)
		}
		return
	}
	fn := l.onDeliver
	hooks := l.hooks[p]
	if l.checker != nil {
		l.checker.RecordDeliver(p, id)
	}
	if _, seen := l.counts[id]; !seen {
		l.countOrder = append(l.countOrder, id)
	}
	l.counts[id]++
	l.deliveries = append(l.deliveries, Delivery{Process: p, ID: id, Payload: payload, At: time.Since(l.startTime)})
	// With RetainDeliveries set, trim amortised: let the log grow to twice
	// the bound, then copy the newest half down. The per-message count map
	// is bounded too (its entries are small but would otherwise accumulate
	// one per message forever): the oldest ids are evicted once it exceeds
	// countBound(), so DeliveredCount stays exact for recent messages only.
	if l.retain > 0 {
		l.deliveries, _ = storage.TrimTail(l.deliveries, l.retain)
		if bound := l.countBound(); len(l.countOrder) > 2*bound {
			evict := l.countOrder[:len(l.countOrder)-bound]
			for _, old := range evict {
				delete(l.counts, old)
			}
			l.countOrder = append(l.countOrder[:0], l.countOrder[len(l.countOrder)-bound:]...)
		}
	}
	l.mu.Unlock()
	if fn != nil {
		fn(p, id, payload)
	}
	// Hooks run on p's event loop (like fn), so each process's hooks see
	// its deliveries sequentially, in A-Delivery order.
	for _, h := range hooks {
		h(id, payload)
	}
}

// countBound is how many per-message delivery counts are retained when
// RetainDeliveries bounds the cluster's memory: comfortably more than the
// delivery log itself so WaitDelivered works for anything still visible in
// Deliveries(), with a floor that keeps short test runs exact.
func (l *LiveCluster) countBound() int {
	const floor = 4096
	if b := 8 * l.retain; b > floor {
		return b
	}
	return floor
}

// OnDeliver installs the delivery callback. Install before Start.
func (l *LiveCluster) OnDeliver(fn func(p ProcessID, id MessageID, payload any)) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.onDeliver = fn
}

// OnDeliverAt installs an additional per-process delivery hook: fn runs on
// p's event loop for each of p's A-Deliveries, in delivery order, after
// the global OnDeliver callback. The service layer (internal/svc) hangs
// its replica servers here. Install before the first cast.
func (l *LiveCluster) OnDeliverAt(p ProcessID, fn func(id MessageID, payload any)) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.hooks[p] = append(l.hooks[p], fn)
}

// Topology exposes the cluster's process/group layout.
func (l *LiveCluster) Topology() *Topology { return l.topo }

// Start opens sockets and launches every process. A cluster can be
// started at most once; Start after Stop fails rather than resurrecting
// closed sockets.
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
	l.startTime = time.Now()
	l.mu.Unlock()
	return l.rt.Start()
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
	var id MessageID
	// With checking on, l.mu is held ACROSS the cast and its recording: a
	// remote replica could otherwise order and deliver the message between
	// ABCast handing frames to the async writers and the checker learning
	// of the cast, and recordDelivery would file a permanent false
	// integrity fault. Deadlock-free: ABCast only enqueues (never blocks
	// on another loop), and no A-Delivery can happen synchronously inside
	// it. l.checker is immutable after construction, so the checker-off
	// hot path (all benchmarks) adds no cross-loop lock contention.
	// Broadcasting from a crashed (not yet restarted) process is refused:
	// the zero MessageID is returned and nothing is cast — a dead process
	// cannot originate messages, and recording such a cast would become a
	// permanent false validity fault once the process restarts as correct.
	l.rt.Run(from, func() {
		// The crash flag is loop-confined state of the CURRENT incarnation
		// (Restart swaps in a fresh one), so the checker-off hot path stays
		// lock-free.
		if l.rt.Proc(from).Crashed() {
			return
		}
		if l.checker == nil {
			id = l.hosts[from].A2.ABCast(payload)
			return
		}
		l.mu.Lock()
		if l.crashed[from] {
			l.mu.Unlock()
			return
		}
		id = l.hosts[from].A2.ABCast(payload)
		l.checker.RecordCast(id, l.topo.AllGroups())
		l.mu.Unlock()
	})
	return id
}

// Multicast atomically multicasts payload from from to groups (Algorithm A1).
func (l *LiveCluster) Multicast(from ProcessID, payload any, groups ...GroupID) MessageID {
	if len(groups) == 0 {
		panic("wanamcast: Multicast needs at least one destination group")
	}
	dest := types.NewGroupSet(groups...)
	var id MessageID
	// See Broadcast for why l.mu spans the cast and its recording when
	// checking is on, why it is skipped entirely when it is off, and why
	// a crashed originator is refused (zero MessageID).
	l.rt.Run(from, func() {
		if l.rt.Proc(from).Crashed() {
			return
		}
		if l.checker == nil {
			id = l.hosts[from].A1.AMCast(payload, dest)
			return
		}
		l.mu.Lock()
		if l.crashed[from] {
			l.mu.Unlock()
			return
		}
		id = l.hosts[from].A1.AMCast(payload, dest)
		l.checker.RecordCast(id, dest)
		l.mu.Unlock()
	})
	return id
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
// window of recent casts (8×RetainDeliveries, or 65536 when the delivery
// log is unbounded), so a long-running cluster's memory stays flat.
func (l *LiveCluster) Stats() Stats {
	st := l.col.Snapshot()
	st.SendQueueDrops, st.HoldDrops = l.rt.Drops()
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
				"wanamcast_wire_bytes_out_total":   float64(w.BytesOut),
				"wanamcast_wire_bytes_in_total":    float64(w.BytesIn),
				"wanamcast_wire_frames_out_total":  float64(w.FramesOut),
				"wanamcast_wire_writes_out_total":  float64(w.EnvelopesOut),
				"wanamcast_wire_compression_ratio": w.CompressionRatio(),
				"wanamcast_wire_frames_per_write":  w.FramesPerEnvelope(),
			}
			for i, d := range l.LaneDepths() {
				g[fmt.Sprintf("wanamcast_lane_depth{lane=\"%d\"}", i)] = float64(d)
			}
			for p := range st.SendQueueDrops {
				g[fmt.Sprintf("wanamcast_send_queue_drops_total{proc=\"%d\"}", p)] = float64(st.SendQueueDrops[p])
				g[fmt.Sprintf("wanamcast_hold_drops_total{proc=\"%d\"}", p)] = float64(st.HoldDrops[p])
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
		if ss, ok := s.(storage.SyncStore); ok {
			st.Fsyncs += ss.Fsyncs()
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
	for _, q := range l.topo.Members(l.topo.GroupOf(p)) {
		if q == p {
			continue
		}
		q := q
		l.rt.Run(q, func() { l.rt.Detector(q).Suspect(p) })
	}
}

// Unsuspect restores every group peer's trust in p immediately.
func (l *LiveCluster) Unsuspect(p ProcessID) {
	for _, q := range l.topo.Members(l.topo.GroupOf(p)) {
		if q == p {
			continue
		}
		q := q
		l.rt.Run(q, func() { l.rt.Detector(q).Unsuspect(p) })
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
// recovers Paxos acceptor state, the group clock, delivery rounds, and
// every registered snapshot section (e.g. the service layer's state
// machine and session tables) from its durable store, then catches up the
// instances it missed from live group peers via the bounded state-transfer
// protocol. The restarted process resumes as a correct participant: once
// its state transfer completes it again delivers everything addressed to
// its group, and CheckProperties holds it to that.
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

	err := l.rt.Restart(p, func(proc *node.Proc, det fd.Detector) error {
		h := l.newHost(p, proc, det)
		if err := h.Recover(); err != nil {
			return err
		}
		l.hosts[p] = h
		return nil
	})
	if err != nil {
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

// RegisterSnapshot adds (or, by name, replaces) a snapshot section for
// process p: save contributes to every future snapshot, restore runs
// during Restart before the ordering layers replay their logs. The
// service layer registers each replica's state machine and session tables
// here.
func (l *LiveCluster) RegisterSnapshot(p ProcessID, name string, save func() ([]byte, error), restore func(data []byte) error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	sec := durable.Section{Name: name, Save: save, Restore: restore}
	for i, s := range l.extras[p] {
		if s.Name == name {
			l.extras[p][i] = sec
			return
		}
	}
	l.extras[p] = append(l.extras[p], sec)
}

// SetDeliverAt replaces ALL of process p's delivery hooks with fn (nil
// clears them). Restart flows use it so a dead incarnation's hooks cannot
// linger behind the new one's.
func (l *LiveCluster) SetDeliverAt(p ProcessID, fn func(id MessageID, payload any)) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.hooks[p] = nil
	if fn != nil {
		l.hooks[p] = append(l.hooks[p], fn)
	}
}

// DeliverHookCount returns how many delivery hooks process p currently
// has (leak diagnostics).
func (l *LiveCluster) DeliverHookCount(p ProcessID) int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.hooks[p])
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

// Deliveries returns a snapshot of the delivery log: every delivery
// observed so far, or only the most recent LiveConfig.RetainDeliveries of
// them when that bound is set.
func (l *LiveCluster) Deliveries() []Delivery {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]Delivery(nil), l.deliveries...)
}

// DeliveredCount returns how many processes have delivered id so far. It
// stays exact when RetainDeliveries has trimmed the delivery log, until id
// itself ages out of the (much larger) count window — see
// LiveConfig.RetainDeliveries.
func (l *LiveCluster) DeliveredCount(id MessageID) int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.counts[id]
}

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
