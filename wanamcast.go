// Package wanamcast is a reproduction of Schiper & Pedone, "Optimal Atomic
// Broadcast and Multicast Algorithms for Wide Area Networks" (PODC 2007).
//
// It provides:
//
//   - Algorithm A1: a genuine fault-tolerant atomic multicast with the
//     optimal latency degree of two for messages addressed to multiple
//     groups (use Cluster.Multicast);
//   - Algorithm A2: a proactive, quiescent, fault-tolerant atomic broadcast
//     with latency degree one (use Cluster.Broadcast);
//   - a deterministic WAN simulator that measures latency degrees with the
//     paper's modified Lamport clocks (§2.3) and counts inter-group
//     messages, reproducing the comparisons of Figure 1;
//   - a batched, pipelined ordering engine under both algorithms:
//     Config.MaxBatch caps how many messages one consensus instance orders
//     (0 = the paper's propose-everything rule) and Config.Pipeline sets
//     how many instances/rounds run concurrently (1 = the paper's
//     sequential engine). The defaults reproduce the paper exactly; larger
//     values amortize agreement cost under heavy load without changing any
//     §2.2 property, and Stats reports the resulting batch sizes and
//     throughput;
//   - durable state and crash recovery on the live cluster: with
//     LiveConfig.DataDir set, every process journals its Paxos acceptor
//     state, ordering decisions, and service state to a write-ahead log
//     with periodic snapshots (internal/storage), a crashed process comes
//     back with LiveCluster.Restart — recovering from disk and catching up
//     missed instances from live peers — and fsync batching rides the
//     ordering batches, so durability costs one fsync per decided batch.
//
// The quickest way in:
//
//	cfg := wanamcast.Config{Groups: 3, PerGroup: 3, InterGroupDelay: 100 * time.Millisecond}
//	c := wanamcast.NewCluster(cfg)
//	c.OnDeliver(func(p wanamcast.ProcessID, id wanamcast.MessageID, payload any) { ... })
//	id := c.Broadcast(c.Process(0, 0), "hello")
//	c.Run()
//	deg, _ := c.LatencyDegree(id) // 1 while rounds run, 2 after quiescence
//
// See examples/ for runnable programs and EXPERIMENTS.md for the
// paper-versus-measured record of every figure and theorem.
package wanamcast

import (
	"fmt"
	"time"

	"wanamcast/internal/check"
	"wanamcast/internal/config"
	"wanamcast/internal/durable"
	"wanamcast/internal/metrics"
	"wanamcast/internal/network"
	"wanamcast/internal/node"
	"wanamcast/internal/scenario"
	"wanamcast/internal/types"
)

// Re-exported identifiers so that users of the public API never import
// internal packages.
type (
	// ProcessID identifies a process (the paper's Π).
	ProcessID = types.ProcessID
	// GroupID identifies a group (the paper's Γ).
	GroupID = types.GroupID
	// MessageID identifies a cast message.
	MessageID = types.MessageID
	// GroupSet is a set of destination groups.
	GroupSet = types.GroupSet
	// Topology is the static process/group layout (Π and Γ).
	Topology = types.Topology
	// Stats is the aggregate measurement snapshot of a run.
	Stats = metrics.Stats
)

// NewGroupSet builds a destination set.
func NewGroupSet(groups ...GroupID) GroupSet { return types.NewGroupSet(groups...) }

// Config describes a simulated wide-area system.
type Config struct {
	// Groups is the number of groups (≥ 1).
	Groups int
	// PerGroup is the number of processes per group (≥ 1).
	PerGroup int
	// InterGroupDelay is the one-way delay between processes of different
	// groups. Defaults to 100 ms, the figure §5.3 uses.
	InterGroupDelay time.Duration
	// IntraGroupDelay is the one-way delay inside a group. Defaults to 1 ms.
	IntraGroupDelay time.Duration
	// Jitter adds uniform per-message extra delay in [0, Jitter).
	Jitter time.Duration
	// Seed makes the run reproducible. Zero is a valid seed.
	Seed int64
	// LogSends retains a per-send event log (needed by genuineness checks).
	LogSends bool
	// DisableSkipping turns off A1's stage skipping (single-group messages
	// jump from s0 to s3), yielding the Fritzke et al. [5] pipeline (used
	// for ablations).
	DisableSkipping bool
	// SuspicionDelay is the failure-detection lag after a crash.
	// Defaults to 20 ms.
	SuspicionDelay time.Duration
	// MaxBatch caps how many messages one consensus instance may order,
	// for both A1 and A2. Zero means unbounded — the paper's
	// propose-everything rule; 1 degenerates to one message per instance.
	MaxBatch int
	// Pipeline is the number of consensus instances (A1) / rounds (A2)
	// that may be in flight concurrently. Zero or 1 is the paper's
	// strictly sequential engine; deeper pipelines overlap agreement with
	// the WAN exchange, trading extra in-flight state for throughput.
	Pipeline int
}

func (c *Config) fill() {
	if c.Groups == 0 {
		c.Groups = 2
	}
	if c.PerGroup == 0 {
		c.PerGroup = 3
	}
	if c.InterGroupDelay == 0 {
		c.InterGroupDelay = 100 * time.Millisecond
	}
	if c.IntraGroupDelay == 0 {
		c.IntraGroupDelay = 1 * time.Millisecond
	}
	if c.SuspicionDelay == 0 {
		c.SuspicionDelay = 20 * time.Millisecond
	}
}

// Delivery is one A-Deliver event observed at a process.
type Delivery struct {
	Process ProcessID
	ID      MessageID
	Payload any
	At      time.Duration
}

// Cluster is a simulated wide-area system running both A1 (atomic
// multicast) and A2 (atomic broadcast) on every process. Clusters are not
// safe for concurrent use: drive them from one goroutine.
type Cluster struct {
	cfg     Config
	rt      *node.Runtime
	col     *metrics.Collector
	checker *check.Checker
	hosts   []*durable.Node

	deliveries []Delivery
	onDeliver  func(p ProcessID, id MessageID, payload any)
	crashed    map[ProcessID]bool
}

// NewCluster builds a simulated cluster from cfg.
func NewCluster(cfg Config) *Cluster {
	cfg.fill()
	topo := types.NewTopology(cfg.Groups, cfg.PerGroup)
	col := &metrics.Collector{LogSends: cfg.LogSends}
	model := network.Model{
		IntraGroup: cfg.IntraGroupDelay,
		InterGroup: cfg.InterGroupDelay,
		Jitter:     cfg.Jitter,
	}
	rt := node.NewRuntime(topo, model, cfg.Seed, col)
	rt.SuspicionDelay = cfg.SuspicionDelay
	c := &Cluster{
		cfg:     cfg,
		rt:      rt,
		col:     col,
		checker: check.New(topo),
		hosts:   make([]*durable.Node, topo.N()),
		crashed: make(map[ProcessID]bool),
	}
	for _, id := range topo.AllProcesses() {
		id := id
		c.hosts[id] = durable.New(durable.Config{
			Proc:     rt.Proc(id),
			Detector: rt.Oracle(),
			Knobs:    config.Config{MaxBatch: cfg.MaxBatch, Pipeline: cfg.Pipeline},
			NoSkip:   cfg.DisableSkipping,
			Deliver: func(_ string, mid MessageID, payload any) {
				c.recordDelivery(id, mid, payload)
			},
		})
	}
	rt.Start()
	return c
}

func (c *Cluster) recordDelivery(p ProcessID, id MessageID, payload any) {
	c.checker.RecordDeliver(p, id)
	c.deliveries = append(c.deliveries, Delivery{Process: p, ID: id, Payload: payload, At: c.rt.Now()})
	if c.onDeliver != nil {
		c.onDeliver(p, id, payload)
	}
}

// Process returns the ProcessID of the i-th member of group g.
func (c *Cluster) Process(g GroupID, i int) ProcessID {
	return c.rt.Topo().Members(g)[i]
}

// Groups returns the set of all groups.
func (c *Cluster) Groups() GroupSet { return c.rt.Topo().AllGroups() }

// OnDeliver installs a delivery callback invoked on every A-Deliver at
// every process, in global delivery order.
func (c *Cluster) OnDeliver(fn func(p ProcessID, id MessageID, payload any)) { c.onDeliver = fn }

// Multicast atomically multicasts payload from process from to the given
// groups using Algorithm A1, and returns the message ID.
func (c *Cluster) Multicast(from ProcessID, payload any, groups ...GroupID) MessageID {
	if len(groups) == 0 {
		panic("wanamcast: Multicast needs at least one destination group")
	}
	dest := types.NewGroupSet(groups...)
	id := c.hosts[from].A1.AMCast(payload, dest)
	c.checker.RecordCast(id, dest)
	return id
}

// Broadcast atomically broadcasts payload from process from to all groups
// using Algorithm A2, and returns the message ID.
func (c *Cluster) Broadcast(from ProcessID, payload any) MessageID {
	id := c.hosts[from].A2.ABCast(payload)
	c.checker.RecordCast(id, c.rt.Topo().AllGroups())
	return id
}

// MulticastAt schedules a Multicast at virtual time at.
func (c *Cluster) MulticastAt(at time.Duration, from ProcessID, payload any, groups ...GroupID) {
	c.rt.Scheduler().At(at, func() { c.Multicast(from, payload, groups...) })
}

// BroadcastAt schedules a Broadcast at virtual time at.
func (c *Cluster) BroadcastAt(at time.Duration, from ProcessID, payload any) {
	c.rt.Scheduler().At(at, func() { c.Broadcast(from, payload) })
}

// CrashAt schedules a crash-stop of process p at virtual time at.
func (c *Cluster) CrashAt(p ProcessID, at time.Duration) {
	c.crashed[p] = true
	c.rt.CrashAt(p, at)
}

// Crash crash-stops process p now (chaos scenarios crash mid-event).
func (c *Cluster) Crash(p ProcessID) {
	c.crashed[p] = true
	c.rt.Crash(p)
}

// Fabric exposes the simulated network's mutable link table: sever and
// heal links (messages on severed links are withheld, not lost, so a
// partition-then-heal is an admissible quasi-reliable run), override
// per-link delays and jitter, or partition whole group sets. Mutate it
// only from scheduled events (or before Run) — the simulation is
// single-threaded.
func (c *Cluster) Fabric() *network.Fabric { return c.rt.Fabric() }

// Chaos returns the scenario control surface of the simulated cluster:
// pass it to scenario.Apply to schedule a fault script. Crashed processes
// are excluded from the §2.2 checker's correct set automatically. The
// simulator has no durable restart, so Restart events leave their crash
// permanent (logged and skipped).
func (c *Cluster) Chaos() scenario.Funcs {
	return scenario.SimFuncs(c.rt, func(p types.ProcessID) { c.crashed[p] = true })
}

// Run executes the simulation until no events remain (all protocols
// quiescent) and returns the virtual time reached.
func (c *Cluster) Run() time.Duration {
	c.rt.Run()
	return c.rt.Now()
}

// RunFor executes the simulation up to virtual time deadline.
func (c *Cluster) RunFor(deadline time.Duration) { c.rt.RunUntil(deadline) }

// Now returns the current virtual time.
func (c *Cluster) Now() time.Duration { return c.rt.Now() }

// Stats returns the aggregate measurements of the run so far.
func (c *Cluster) Stats() Stats { return c.col.Snapshot() }

// LatencyDegree returns the measured latency degree Δ(m) of message id:
// the maximum, over its deliverers, of the §2.3 Lamport clock at delivery
// minus the clock at cast.
func (c *Cluster) LatencyDegree(id MessageID) (int64, bool) { return c.col.LatencyDegree(id) }

// WallLatency returns the virtual-time span between cast and last delivery.
func (c *Cluster) WallLatency(id MessageID) (time.Duration, bool) { return c.col.WallLatency(id) }

// Deliveries returns every delivery observed, in global order. Callers
// must not modify the returned slice.
func (c *Cluster) Deliveries() []Delivery { return c.deliveries }

// SequenceAt returns the delivery sequence of process p.
func (c *Cluster) SequenceAt(p ProcessID) []MessageID { return c.checker.Sequence(p) }

// LastSend returns the virtual time of the last message send (the
// quiescence signal of Prop. A.9) and whether anything was sent.
func (c *Cluster) LastSend() (time.Duration, bool) { return c.col.LastSend() }

// CheckProperties verifies uniform integrity, validity, uniform agreement,
// and uniform prefix order over everything recorded so far, and returns the
// violations (empty means the run satisfied the specification §2.2).
func (c *Cluster) CheckProperties() []string {
	correct := func(p ProcessID) bool { return !c.crashed[p] }
	correctCaster := func(id MessageID) bool { return !c.crashed[id.Origin] }
	return c.checker.Check(correct, correctCaster)
}

// CheckGenuineness verifies, over the send log (Config.LogSends must be
// set), that only casters and addressees participated in the A1 protocol.
func (c *Cluster) CheckGenuineness() []string {
	if !c.cfg.LogSends {
		panic("wanamcast: CheckGenuineness requires Config.LogSends")
	}
	sends := make([]check.SendRecord, 0, len(c.col.Sends()))
	for _, s := range c.col.Sends() {
		sends = append(sends, check.SendRecord{Proto: s.Proto, From: s.From, To: s.To})
	}
	return c.checker.GenuinenessViolations(sends, "a1")
}

// String describes the cluster configuration.
func (c *Cluster) String() string {
	return fmt.Sprintf("wanamcast cluster: %d groups x %d processes, inter-group %v",
		c.cfg.Groups, c.cfg.PerGroup, c.cfg.InterGroupDelay)
}
