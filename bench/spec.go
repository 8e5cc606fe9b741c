package main

import "time"

// Every live workload runs 3 shards × 3 replicas with the same ordering
// settings; only delay, durability, leases and the load differ.
const (
	groups   = 3
	perGroup = 3
	lanes    = 2
	maxBatch = 64
	pipeline = 4
)

// defaultSeconds is BENCHMARK.json's run_seconds: the measured window.
// The issue's windows (15 to 24 s) are scaled to it by one factor.
const defaultSeconds = 12

// workloadDef is one named workload. why is BENCHMARK.json's line.
type workloadDef struct {
	name string
	why  string

	live      bool
	shards    int           // 0 = groups
	replicas  int           // 0 = perGroup
	wan       time.Duration // injected one-way inter-group delay
	rate      float64       // open loop: Poisson arrivals per second; 0 = closed loop
	sessions  int           // closed loop: commands kept outstanding
	reads     float64       // share of lease reads
	lease     time.Duration
	durable   bool
	clientAt  int // rank of the replica of g0 and g1 the clients connect to
	warmupOps int // closed-loop ops that end set-up
	warmLocal bool
}

var workloads = []workloadDef{
	{
		name: "wan-mix", live: true, wan: 20 * time.Millisecond, rate: 400, warmupOps: 2000, warmLocal: true,
		why: "open loop at 7 % of CPU capacity over a 20 ms WAN: latency is hops and protocol waits, so codec or allocation work must not show",
	},
	{
		name: "lan-sat", live: true, wan: time.Millisecond, sessions: 64, warmupOps: 3000,
		why: "closed loop, 64 sessions, 1 ms WAN: CPU-bound, so wire, tcp, lane ring, batcher, rmcast and svc dedup set ops/s and hop counts barely show",
	},
	{
		name: "read-heavy", live: true, wan: time.Millisecond, sessions: 32, reads: 0.95, lease: 250 * time.Millisecond, warmupOps: 6000,
		why: "95 % lease reads: the read tier, fd leases and SvcConn do the work while ordering idles; a read win that costs writes shows in write_p50_ms",
	},
	{
		name: "durable-crash", live: true, wan: time.Millisecond, rate: 300, durable: true, clientAt: 1, warmupOps: 600,
		why: "real fsync plus nine leader crashes and restarts on schedule: the only place WAL, group commit, fd detection and recover.go are on the critical path",
	},
	{
		name: "bcast-wan", live: true, wan: 20 * time.Millisecond, rate: 200, warmupOps: 100,
		why: "LiveCluster.Broadcast direct over a 20 ms WAN: A2 is half the paper and no svc path uses it; shows warm-round delta=1, keep-alive and batching",
	},
	{
		name: "sim-scale",
		why:  "harness.RunScaleSweep A1 200x5 then A2 50x3, no sockets: pure CPU on sim, node and the protocols; the only workload whose counts repeat exactly",
	},
}

// singleNode is lan-sat's load on one shard with one replica: no
// replication, no WAN, the ceiling the box puts on a single process.
var singleNode = workloadDef{name: "single-node", live: true, shards: 1, replicas: 1,
	wan: time.Millisecond, sessions: 64, warmupOps: 3000}

func (w workloadDef) shape() (shards, replicas int) {
	if w.shards == 0 {
		return groups, perGroup
	}
	return w.shards, w.replicas
}

func workloadByName(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

// metricDef is one row of BENCHMARK.json. bound is set on end-to-end
// metrics only: the share of the parent's median by which the metric may
// worsen before a change counts as a regression.
type metricDef struct {
	name   string
	unit   string
	better string
	bound  float64
}

// The end-to-end metrics: what the driver gates. Its contract takes every
// one of them from every workload and refuses a value of 0, so these are
// the metrics that mean the same thing on all six: each is about all of a
// workload's ops. The issue's metrics about one kind of op (single-shard
// writes, reads, broadcasts, crash episodes) exist on some workloads only;
// they are the first block of perLayer, printed by every run, never gated.
// Bounds follow the spread measured over ten seeds (README, "Bounds").
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"ops_per_s", "1/s", "higher", 0.25},
	{"op_mean_ms", "ms", "lower", 0.25},
	{"op_p99_ms", "ms", "lower", 0.25},
	{"allocs_per_op", "count", "lower", 0.15},
}

// named are the issue's end-to-end metrics that are about one kind of op
// or one workload. Every run measures and prints those its workload has;
// the driver gets them with the per-layer metrics, ungated.
var named = []metricDef{
	{name: "fail_ratio", unit: "ratio", better: "lower"},
	{name: "op_p50_ms", unit: "ms", better: "lower"},
	{name: "local_p50_ms", unit: "ms", better: "lower"},
	{name: "multi_over_floor_ms", unit: "ms", better: "lower"},
	{name: "multi_p99_ms", unit: "ms", better: "lower"},
	{name: "write_p50_ms", unit: "ms", better: "lower"},
	{name: "write_p99_ms", unit: "ms", better: "lower"},
	{name: "read_p99_ms", unit: "ms", better: "lower"},
	{name: "bcast_over_floor_ms", unit: "ms", better: "lower"},
	{name: "bcast_p99_ms", unit: "ms", better: "lower"},
	{name: "unavail_ms", unit: "ms", better: "lower"},
	{name: "catchup_ms", unit: "ms", better: "lower"},
	{name: "events_per_s", unit: "1/s", better: "higher"},
	{name: "allocs_per_event", unit: "count", better: "lower"},
}

// layerMetrics are about one layer each, read from outside the program by
// a traced run (README, "Per-layer metrics").
var layerMetrics = []metricDef{
	{name: "svc.retries", unit: "count", better: "lower"},
	{name: "svc.duplicates", unit: "count", better: "lower"},
	{name: "svc.lease_denied", unit: "count", better: "lower"},
	{name: "svc.stale_reads", unit: "count", better: "lower"},
	{name: "svc.submit_us_p50", unit: "us", better: "lower"},
	{name: "svc.reply_us_p50", unit: "us", better: "lower"},
	{name: "svc.kv_apply_ns", unit: "ns", better: "lower"},
	{name: "svc.cert_verify_us", unit: "us", better: "lower"},
	{name: "rmcast.msgs_per_op", unit: "count", better: "lower"},
	{name: "rmcast.admit_us_p50", unit: "us", better: "lower"},
	{name: "amcast.msgs_per_op", unit: "count", better: "lower"},
	{name: "amcast.wan_msgs_per_op", unit: "count", better: "lower"},
	{name: "amcast.order_p50_ms", unit: "ms", better: "lower"},
	{name: "amcast.local_alone_p50_ms", unit: "ms", better: "lower"},
	{name: "amcast.degree_max", unit: "count", better: "lower"},
	{name: "abcast.degree_warm_share", unit: "ratio", better: "higher"},
	{name: "abcast.rounds_per_op", unit: "count", better: "lower"},
	{name: "abcast.msgs_per_op", unit: "count", better: "lower"},
	{name: "consensus.instances_per_op", unit: "count", better: "lower"},
	{name: "consensus.batch_mean", unit: "count", better: "higher"},
	{name: "consensus.ordered_per_learn", unit: "count", better: "higher"},
	{name: "consensus.propose_learn_us_p50", unit: "us", better: "lower"},
	{name: "consensus.sim_ns_per_ordered", unit: "ns", better: "lower"},
	{name: "storage.fsyncs_per_op", unit: "count", better: "lower"},
	{name: "storage.fsyncs_per_batch", unit: "count", better: "lower"},
	{name: "storage.gc_barriers_per_window", unit: "count", better: "higher"},
	{name: "storage.fsync_us_p50", unit: "us", better: "lower"},
	{name: "storage.append_ns", unit: "ns", better: "lower"},
	{name: "storage.commit_nofsync_ns", unit: "ns", better: "lower"},
	{name: "storage.fsync_us", unit: "us", better: "lower"},
	{name: "ring.push_pop_ns", unit: "ns", better: "lower"},
	{name: "tcp.lane_depth_max", unit: "count", better: "lower"},
	{name: "tcp.lane_deq_us_p50", unit: "us", better: "lower"},
	{name: "tcp.envelopes_per_op", unit: "count", better: "lower"},
	{name: "tcp.svc_rtt_us", unit: "us", better: "lower"},
	{name: "wire.bytes_per_op", unit: "B", better: "lower"},
	{name: "wire.frames_per_envelope", unit: "count", better: "higher"},
	{name: "wire.compression_ratio", unit: "ratio", better: "higher"},
	{name: "wire.encode_ns", unit: "ns", better: "lower"},
	{name: "wire.decode_ns", unit: "ns", better: "lower"},
	{name: "wire.allocs_per_frame", unit: "count", better: "lower"},
	{name: "fd.suspicions", unit: "count", better: "lower"},
	{name: "fd.leader_changes", unit: "count", better: "lower"},
	{name: "fd.detect_ms", unit: "ms", better: "lower"},
	{name: "durable.restart_call_ms", unit: "ms", better: "lower"},
	{name: "durable.transfer_ms", unit: "ms", better: "lower"},
	{name: "sim.scheduler_event_ns", unit: "ns", better: "lower"},
	{name: "sim.scheduler_allocs_per_event", unit: "count", better: "lower"},
	{name: "sim.events_per_cast", unit: "count", better: "lower"},
	{name: "sim.peak_heap_mb", unit: "MB", better: "lower"},
	{name: "trace.overhead_ratio", unit: "ratio", better: "higher"},
	{name: "baseline.single_node_ops_per_s", unit: "1/s", better: "higher"},
	{name: "proc.cpu_us_per_op", unit: "us", better: "lower"},
	{name: "proc.allocs_per_op", unit: "count", better: "lower"},
	{name: "proc.bytes_per_op", unit: "B", better: "lower"},
	{name: "proc.gc_pause_ms", unit: "ms", better: "lower"},
	{name: "proc.rss_peak_mb", unit: "MB", better: "lower"},
	{name: "gen.late_p99_ms", unit: "ms", better: "lower"},
	{name: "gen.offered_per_s", unit: "1/s", better: "higher"},
	{name: "gen.inflight_max", unit: "count", better: "lower"},
}

// perLayer is BENCHMARK.json's per_layer list: reported with -trace 1 and
// never gated. A metric a workload has nothing to say about is 0.
var perLayer = append(append([]metricDef(nil), named...), layerMetrics...)
