package main

import (
	"bytes"
	"fmt"
	"net"
	"os"
	"sync"
	"time"

	"wanamcast"
	"wanamcast/internal/fd"
	"wanamcast/internal/metrics"
	"wanamcast/internal/svc"
	"wanamcast/internal/types"
)

// Listen ports. Tier-1 tests use 19000 to 29300 and the kernel hands out
// ephemeral client ports from 32768 up; the benchmark stays between.
// Successive clusters of one run rotate through portRounds blocks so a
// port is never rebound the instant after it was closed.
const (
	portBase   = 31000
	portBlock  = 64 // cluster ports from the block's start, service ports from its middle
	portRounds = 8
)

var portRound int

// spanBuf is each lane's span ring in a traced run: large enough that the
// span-pair timings rest on the last seconds of the window, not its last
// milliseconds.
const spanBuf = 1 << 16

func nextPorts() (cluster, service int, err error) {
	cluster = portBase + portBlock*(portRound%portRounds)
	service = cluster + portBlock/2
	portRound++
	for _, first := range []int{cluster, service} {
		for p := first; p < first+groups*perGroup; p++ {
			ln, err := net.Listen("tcp", fmt.Sprintf("127.0.0.1:%d", p))
			if err != nil {
				return 0, 0, fmt.Errorf("port %d is busy (the benchmark listens on %d to %d; stop whatever holds it): %w",
					p, portBase, portBase+portBlock*portRounds-1, err)
			}
			_ = ln.Close()
		}
	}
	return cluster, service, nil
}

// outDir holds everything the benchmark writes: WAL directories while a
// durable workload runs, span files after a traced one. The benchmark runs
// in its own directory (`go run -C bench .`), so this is bench/out.
const outDir = "out"

// env is one started cluster with its service and client connections.
type env struct {
	w        workloadDef
	cl       *wanamcast.LiveCluster
	service  *svc.Service // nil on bcast-wan
	svcStats *metrics.Service
	conns    []*clientConn
	dataDir  string
	warm     phase

	mu      sync.Mutex
	leaders []leaderChange // durable-crash: every change a rank-1 replica saw
	bcast   bcastTracker   // bcast-wan
}

type leaderChange struct {
	g      types.GroupID
	leader types.ProcessID
	at     time.Time
}

// startEnv brings a workload's cluster to the point where the measured
// window can begin: processes started, service listening, leases held,
// clients connected, warm-up ops answered. Its duration is setup_s.
func startEnv(w workloadDef, seed int64, traced bool) (*env, error) {
	clusterPort, svcPort, err := nextPorts()
	if err != nil {
		return nil, err
	}
	e := &env{w: w, svcStats: &metrics.Service{}}
	started := false
	defer func() {
		if !started {
			e.stop()
		}
	}()
	shards, replicas := w.shape()
	cfg := wanamcast.LiveConfig{
		Groups: shards, PerGroup: replicas, BasePort: clusterPort,
		WANDelay: w.wan, LeaseDuration: w.lease,
		Lanes: lanes, MaxBatch: maxBatch, Pipeline: pipeline,
		// Bounded bookkeeping: an unbounded delivery log is live heap the
		// collector marks ever longer, which shows as generator lateness.
		RetainDeliveries: 1024,
		TraceSpans:       traced, Check: traced, SpanBuf: spanBuf,
	}
	if w.durable {
		if err := os.MkdirAll(outDir, 0o755); err != nil {
			return nil, err
		}
		if e.dataDir, err = os.MkdirTemp(outDir, "wal-"); err != nil {
			return nil, err
		}
		cfg.DataDir = e.dataDir
	}
	e.cl = wanamcast.NewLiveCluster(cfg)
	topo := e.cl.Topology()
	if w.name == "bcast-wan" {
		e.bcast.casts = make(map[types.MessageID]*bcastState)
		e.cl.OnDeliver(e.onBroadcastDeliver)
	}
	if w.durable {
		for g := 0; g < shards; g++ {
			e.cl.SubscribeLeader(e.cl.Process(types.GroupID(g), 1), func(g types.GroupID, leader types.ProcessID) {
				e.mu.Lock()
				e.leaders = append(e.leaders, leaderChange{g, leader, time.Now()})
				e.mu.Unlock()
			})
		}
	}
	if err := e.cl.Start(); err != nil {
		return nil, fmt.Errorf("start cluster: %w", err)
	}
	if w.name == "bcast-wan" {
		warm := time.Duration(float64(w.warmupOps) / w.rate * float64(time.Second))
		if e.warm, err = e.runBroadcasts(broadcastSchedule(seed^0x5eed, w.rate, warm), warm); err != nil {
			return nil, err
		}
		started = true
		return e, nil
	}

	route := svc.PrefixRoute(shards)
	sc := svc.ServiceConfig{
		BasePort: svcPort,
		NewMachine: func(p types.ProcessID, g types.GroupID) svc.StateMachine {
			return svc.NewKVMachine(g, route)
		},
		Stats: e.svcStats,
	}
	if w.lease > 0 {
		sc.LeaseFor = func(p types.ProcessID) *fd.Lease { return e.cl.ReadLease(p) }
	}
	if traced {
		sc.Tracer = e.cl.Tracer()
	}
	if e.service, err = svc.ServeCluster(e.cl, topo, sc); err != nil {
		return nil, fmt.Errorf("serve cluster: %w", err)
	}
	if w.lease > 0 {
		deadline := time.Now().Add(10 * time.Second)
		for g := 0; g < shards; g++ {
			for !e.cl.ReadLease(e.cl.Process(types.GroupID(g), 0)).Valid() {
				if time.Now().After(deadline) {
					return nil, fmt.Errorf("shard g%d's leader never earned its lease", g)
				}
				time.Sleep(time.Millisecond)
			}
		}
	}
	addrs := e.service.Addrs()
	for i := 0; i < 2; i++ {
		home := types.GroupID(i % shards)
		cc, err := dialClient(addrs[home][w.clientAt], i, home, w.wan, e.svcStats)
		if err != nil {
			return nil, err
		}
		e.conns = append(e.conns, cc)
	}
	sessions := w.sessions
	if sessions == 0 {
		sessions = 16
	}
	plans := clientPlans(topo, seed^0x5eed, w.warmupOps, w.reads, w.warmLocal)
	if e.warm, err = runClosed(e.conns, plans, sessions, 30*time.Second, w.warmupOps); err != nil {
		return nil, err
	}
	if n := e.warm.unanswered + failedOps(e.warm.samples); n > 0 {
		return nil, fmt.Errorf("%d of %d warm-up ops failed: %v", n, e.warm.sent, e.warm.errs)
	}
	started = true
	return e, nil
}

func failedOps(samples []sample) int {
	n := 0
	for _, s := range samples {
		if !s.ok {
			n++
		}
	}
	return n
}

// stop tears the environment down: clients, then the service, then the
// cluster (a request in flight submits through the cluster's loops).
func (e *env) stop() {
	for _, cc := range e.conns {
		cc.close()
	}
	if e.service != nil {
		e.service.Stop()
	}
	if e.cl != nil {
		e.cl.Stop()
	}
	if e.dataDir != "" {
		_ = os.RemoveAll(e.dataDir)
	}
}

// converged reports, per shard, whether every replica's state machine
// snapshot is byte-identical, waiting up to timeout for stragglers.
func (e *env) converged(timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		err := e.snapshotMismatch()
		if err == nil || time.Now().After(deadline) {
			return err
		}
		time.Sleep(20 * time.Millisecond)
	}
}

func (e *env) snapshotMismatch() error {
	topo := e.cl.Topology()
	for g := 0; g < topo.NumGroups(); g++ {
		var first []byte
		for i, p := range topo.Members(types.GroupID(g)) {
			snap, err := e.service.Machine(p).Snapshot()
			if err != nil {
				return fmt.Errorf("snapshot of %v: %w", p, err)
			}
			if i == 0 {
				first = snap
			} else if !bytes.Equal(first, snap) {
				return fmt.Errorf("shard g%d: replica %v's state differs from %v's", g, p, topo.Members(types.GroupID(g))[0])
			}
		}
	}
	return nil
}
