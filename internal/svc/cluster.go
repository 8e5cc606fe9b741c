package svc

import (
	"fmt"
	"sync"
	"time"

	"wanamcast/internal/fd"
	"wanamcast/internal/metrics"
	"wanamcast/internal/node"
	"wanamcast/internal/trace"
	"wanamcast/internal/types"
)

// Cluster is what the service layer needs from the ordering layer; the
// root package's LiveCluster satisfies it.
type Cluster interface {
	// Submit genuinely multicasts payload from process from to dest
	// (Algorithm A1) without waiting: done runs on from's event loop right
	// after the cast, before any delivery of it there, with the message's
	// ID (the zero ID if the cast was refused).
	Submit(from types.ProcessID, payload []byte, dest types.GroupSet, done func(types.MessageID))
	// SetReplica makes r process p's replica, replacing whatever p had: r
	// gets p's A-Deliveries in order, each payload in its encoding (the
	// service parses its own commands), and its snapshot is p's service
	// section.
	SetReplica(p types.ProcessID, r node.Replica)
	// Restart recovers crashed process p from its durable store, its
	// replica's section included, and catches it up from live peers.
	Restart(p types.ProcessID) error
}

// ServiceConfig configures ServeCluster.
type ServiceConfig struct {
	// BasePort: process p's client-facing listener binds 127.0.0.1:BasePort+p.
	// 0 binds ephemeral ports (tests); read them back with Addrs.
	BasePort int
	// NewMachine builds the state machine for replica p of group g
	// (required).
	NewMachine func(p types.ProcessID, g types.GroupID) StateMachine
	// Stats, when non-nil, receives the servers' service-level counters.
	Stats *metrics.Service
	// ReplyTimeout bounds reply writes (see ServerConfig), a seam only
	// the writer_test.go timeouts set.
	ReplyTimeout time.Duration
	// MaxSessions bounds each replica's dedup table (see ServerConfig), a
	// seam only TestSessionEviction sets.
	MaxSessions int
	// LeaseFor, when non-nil, resolves replica p's leader lease (the live
	// runtime's ReadLease). Nil disables lease reads on every replica.
	LeaseFor func(p types.ProcessID) *fd.Lease
	// Tracer, when non-nil, records each server's request lifecycle spans
	// (submit, enqueue, reply) into the cluster-wide lifecycle tracer.
	Tracer *trace.Tracer
}

// Service is one Server per cluster process plus the address book that
// clients and redirects use.
type Service struct {
	topo    *types.Topology
	cfg     ServiceConfig
	cluster Cluster

	mu      sync.Mutex
	servers []*Server
	addrs   map[types.GroupID][]string
}

// ServeCluster starts one client-facing Server per process of the cluster
// and attaches each as its process's replica: it gets the process's
// deliveries, and its state machine and session tables are the process's
// snapshot section, so cluster snapshots capture them and RestartReplica
// recovers them. Call after the cluster has started, and Stop the Service
// BEFORE stopping the cluster: a request in flight is answered from the
// cluster's event loops, and tearing those down first would strand it.
// Attached after Start, each server begins empty, after its process's
// recovery: a cluster started over an earlier run's data dir resumes its
// ordering state but not the servers' (clients' session numbers do not
// survive a run). A replica attached before Start is recovered with its
// process instead (LiveCluster.SetReplica).
func ServeCluster(c Cluster, topo *types.Topology, cfg ServiceConfig) (*Service, error) {
	if cfg.NewMachine == nil {
		panic("svc: ServiceConfig.NewMachine is required")
	}
	svc := &Service{
		topo:    topo,
		cfg:     cfg,
		cluster: c,
		servers: make([]*Server, topo.N()),
		addrs:   make(map[types.GroupID][]string, topo.NumGroups()),
	}
	// Phase 1: bind every listener (learning ephemeral ports) and fill the
	// address book — accepting no connections and attaching no replica
	// yet. A Listen failure therefore aborts with the cluster
	// untouched (no orphaned servers wired into its delivery path), and
	// the GroupAddrs closures can never read svc.addrs while it is still
	// being built, even on predictable fixed ports.
	for _, p := range topo.AllProcesses() {
		g := topo.GroupOf(p)
		addr := "127.0.0.1:0"
		if cfg.BasePort != 0 {
			addr = fmt.Sprintf("127.0.0.1:%d", cfg.BasePort+int(p))
		}
		srv := svc.buildServer(p, g, addr)
		if err := srv.Listen(); err != nil {
			svc.Stop()
			return nil, err
		}
		svc.servers[p] = srv
		svc.addrs[g] = append(svc.addrs[g], srv.Addr())
	}
	// Phase 2: every listener is bound and the address book is complete;
	// attach the replicas and start accepting. (A stopped server's Deliver
	// is a no-op, so a Service that is later Stopped goes inert while its
	// servers stay attached.)
	for _, p := range topo.AllProcesses() {
		c.SetReplica(p, svc.servers[p])
	}
	for _, srv := range svc.servers {
		srv.Serve()
	}
	return svc, nil
}

// buildServer constructs (without binding) replica p's server and machine.
func (s *Service) buildServer(p types.ProcessID, g types.GroupID, addr string) *Server {
	sc := ServerConfig{
		Self:    p,
		Group:   g,
		Groups:  s.topo.NumGroups(),
		Addr:    addr,
		Machine: s.cfg.NewMachine(p, g),
		Submit: func(cmd []byte, dest types.GroupSet, done func(types.MessageID)) {
			s.cluster.Submit(p, cmd, dest, done)
		},
		GroupAddrs:   func(g types.GroupID) []string { return s.groupAddrs(g) },
		Stats:        s.cfg.Stats,
		ReplyTimeout: s.cfg.ReplyTimeout,
		MaxSessions:  s.cfg.MaxSessions,
		Tracer:       s.cfg.Tracer,
	}
	if s.cfg.LeaseFor != nil {
		sc.Lease = s.cfg.LeaseFor(p)
	}
	return NewServer(sc)
}

// groupAddrs reads the (mutable across restarts) address book.
func (s *Service) groupAddrs(g types.GroupID) []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]string(nil), s.addrs[g]...)
}

// RestartReplica recovers crashed replica p end to end: the old server
// (with its listener and connections) is stopped, a fresh server and
// state machine are built and attached as p's replica in its place —
// nothing of the dead incarnation stays reachable — and the cluster's
// Restart replays p's durable state (restoring the machine and session
// tables) and catches up from live peers. The new server reuses the old
// incarnation's client-facing address.
func (s *Service) RestartReplica(p types.ProcessID) error {
	s.mu.Lock()
	old := s.servers[p]
	s.mu.Unlock()
	if old == nil {
		return fmt.Errorf("svc: no server for %v", p)
	}
	g := s.topo.GroupOf(p)
	oldAddr := old.Addr()
	old.Stop() // frees the listen address for the new incarnation
	srv := s.buildServer(p, g, oldAddr)
	if err := srv.Listen(); err != nil {
		return err
	}
	// Attach the new incarnation BEFORE recovery so the snapshot and the
	// replayed deliveries rebuild its state.
	s.cluster.SetReplica(p, srv)
	if err := s.cluster.Restart(p); err != nil {
		srv.Stop()
		return err
	}
	srv.Serve()
	s.mu.Lock()
	s.servers[p] = srv
	for i, a := range s.addrs[g] {
		if a == oldAddr {
			s.addrs[g][i] = srv.Addr()
		}
	}
	s.mu.Unlock()
	return nil
}

// Addrs returns a copy of the client-facing address book: group → its
// servers (the book can change across replica restarts).
func (s *Service) Addrs() map[types.GroupID][]string {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make(map[types.GroupID][]string, len(s.addrs))
	for g, as := range s.addrs {
		out[g] = append([]string(nil), as...)
	}
	return out
}

// Machine returns replica p's state machine (test/diagnostic access).
func (s *Service) Machine(p types.ProcessID) StateMachine {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.servers[p].cfg.Machine
}

// Server returns replica p's server.
func (s *Service) Server(p types.ProcessID) *Server {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.servers[p]
}

// Stop stops every server. The underlying cluster keeps running.
func (s *Service) Stop() {
	s.mu.Lock()
	servers := append([]*Server(nil), s.servers...)
	s.mu.Unlock()
	for _, srv := range servers {
		if srv != nil {
			srv.Stop()
		}
	}
}
