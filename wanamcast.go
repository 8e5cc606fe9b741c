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
//	cfg := wanamcast.Config{Groups: 3, PerGroup: 3, Inter: 100 * time.Millisecond}
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
	"wanamcast/internal/harness"
	"wanamcast/internal/metrics"
	"wanamcast/internal/network"
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

// Config describes a simulated wide-area system: the topology, the network
// model, and the ordering engines' tuning. Unset fields take the paper's
// defaults: 2 groups of 3, Inter 100 ms (the figure §5.3 uses), Intra 1 ms.
// DetMergeInterval and DetMergeStop tune only the harness's detmerge baseline:
// a Cluster runs A1 and A2 and ignores them.
type Config = harness.Options

// Delivery is one A-Deliver event observed at a process.
type Delivery = harness.Delivery

// Cluster is a simulated wide-area system running both A1 (atomic
// multicast) and A2 (atomic broadcast) on every process. Clusters are not
// safe for concurrent use: drive them from one goroutine.
type Cluster struct {
	sys *harness.System
}

// NewCluster builds a simulated cluster from cfg.
func NewCluster(cfg Config) *Cluster {
	return &Cluster{sys: harness.Build(harness.AlgoA1, cfg)}
}

// Process returns the ProcessID of the i-th member of group g.
func (c *Cluster) Process(g GroupID, i int) ProcessID {
	return c.sys.Topo.Members(g)[i]
}

// Groups returns the set of all groups.
func (c *Cluster) Groups() GroupSet { return c.sys.Topo.AllGroups() }

// OnDeliver installs a delivery callback invoked on every A-Deliver at
// every process, in global delivery order.
func (c *Cluster) OnDeliver(fn func(p ProcessID, id MessageID, payload any)) { c.sys.OnDeliver = fn }

// Multicast atomically multicasts payload from process from to the given
// groups using Algorithm A1, and returns the message ID.
func (c *Cluster) Multicast(from ProcessID, payload any, groups ...GroupID) MessageID {
	if len(groups) == 0 {
		panic("wanamcast: Multicast needs at least one destination group")
	}
	return c.sys.Cast(from, payload, types.NewGroupSet(groups...))
}

// Broadcast atomically broadcasts payload from process from to all groups
// using Algorithm A2, and returns the message ID.
func (c *Cluster) Broadcast(from ProcessID, payload any) MessageID {
	id := c.sys.Hosts[from].A2.ABCast(harness.Encode(payload))
	c.sys.Checker.RecordCast(id, c.sys.Topo.AllGroups())
	return id
}

// MulticastAt schedules a Multicast at virtual time at.
func (c *Cluster) MulticastAt(at time.Duration, from ProcessID, payload any, groups ...GroupID) {
	c.sys.RT.Scheduler().At(at, func() { c.Multicast(from, payload, groups...) })
}

// BroadcastAt schedules a Broadcast at virtual time at.
func (c *Cluster) BroadcastAt(at time.Duration, from ProcessID, payload any) {
	c.sys.RT.Scheduler().At(at, func() { c.Broadcast(from, payload) })
}

// CrashAt schedules a crash-stop of process p at virtual time at.
func (c *Cluster) CrashAt(p ProcessID, at time.Duration) { c.sys.CrashAt(p, at) }

// Fabric exposes the simulated network's mutable link table: sever and
// heal links (messages on severed links are withheld, not lost, so a
// partition-then-heal is an admissible quasi-reliable run), override
// per-link delays and jitter, or partition whole group sets. Mutate it
// only from scheduled events (or before Run) — the simulation is
// single-threaded.
func (c *Cluster) Fabric() *network.Fabric { return c.sys.RT.Fabric() }

// Chaos returns the scenario control surface of the simulated cluster:
// pass it to scenario.Apply to schedule a fault script. The simulator has no
// durable restart, so Restart events leave their crash permanent (logged and
// skipped).
func (c *Cluster) Chaos() scenario.Funcs { return c.sys.Chaos() }

// Run executes the simulation until no events remain (all protocols
// quiescent) and returns the virtual time reached.
func (c *Cluster) Run() time.Duration { return c.sys.Run() }

// RunFor executes the simulation up to virtual time deadline.
func (c *Cluster) RunFor(deadline time.Duration) { c.sys.RunUntil(deadline) }

// Now returns the current virtual time.
func (c *Cluster) Now() time.Duration { return c.sys.RT.Now() }

// Stats returns the aggregate measurements of the run so far.
func (c *Cluster) Stats() Stats { return c.sys.Col.Snapshot() }

// LatencyDegree returns the measured latency degree Δ(m) of message id:
// the maximum, over its deliverers, of the §2.3 Lamport clock at delivery
// minus the clock at cast.
func (c *Cluster) LatencyDegree(id MessageID) (int64, bool) { return c.sys.DegreeOf(id) }

// WallLatency returns the virtual-time span between cast and last delivery.
func (c *Cluster) WallLatency(id MessageID) (time.Duration, bool) { return c.sys.Col.WallLatency(id) }

// Deliveries returns every delivery observed, in global order. Callers
// must not modify the returned slice.
func (c *Cluster) Deliveries() []Delivery { return c.sys.Deliveries }

// SequenceAt returns the delivery sequence of process p.
func (c *Cluster) SequenceAt(p ProcessID) []MessageID { return c.sys.Checker.Sequence(p) }

// LastSend returns the virtual time of the last message send (the
// quiescence signal of Prop. A.9) and whether anything was sent.
func (c *Cluster) LastSend() (time.Duration, bool) { return c.sys.Col.LastSend() }

// CheckProperties verifies uniform integrity, validity, uniform agreement,
// and uniform prefix order over everything recorded so far, and returns the
// violations (empty means the run satisfied the specification §2.2). A
// process counts as correct unless it has crashed by now.
func (c *Cluster) CheckProperties() []string { return c.sys.Check() }

// CheckGenuineness verifies, over the send log (Config.LogSends must be
// set), that only casters and addressees participated in the A1 protocol.
func (c *Cluster) CheckGenuineness() []string {
	if !c.sys.Opts.LogSends {
		panic("wanamcast: CheckGenuineness requires Config.LogSends")
	}
	sends := make([]check.SendRecord, 0, len(c.sys.Col.Sends()))
	for _, s := range c.sys.Col.Sends() {
		sends = append(sends, check.SendRecord{Proto: s.Proto, From: s.From, To: s.To})
	}
	return c.sys.Checker.GenuinenessViolations(sends, "a1")
}

// String describes the cluster configuration.
func (c *Cluster) String() string {
	o := c.sys.Opts
	return fmt.Sprintf("wanamcast cluster: %d groups x %d processes, inter-group %v", o.Groups, o.PerGroup, o.Inter)
}
