// Package config declares every knob of a live cluster exactly once: the
// field and its meaning, its default (WithDefaults), the rule that rejects
// a bad value (Validate), and the command-line flag that sets it (Bind).
// wanamcast.LiveConfig is an alias of Config, the TCP transport embeds it,
// and every command binds its flags through it, so a knob can neither
// drift between the layers nor be validated by one command only.
package config

import (
	"flag"
	"fmt"
	"slices"
	"strconv"
	"strings"
	"time"

	"wanamcast/internal/storage"
	"wanamcast/internal/types"
)

// Config describes a cluster running over real TCP sockets on localhost,
// with an injected one-way WAN delay between groups. A zero field means
// its default; a flag name in brackets is the flag Bind registers for it.
type Config struct {
	// Groups and PerGroup shape the topology (defaults 2 × 3). [-groups, -d]
	Groups   int
	PerGroup int
	// BasePort: process p listens on BasePort+p (default 19000). [-port]
	BasePort int
	// Local lists the processes hosted here; nil hosts all of Π. The rest
	// of Π runs in other OS processes on the same ports and shape (cmd/wannode
	// hosts one process each). Check cannot go with it: the checker needs
	// every cast and delivery of Π.
	Local []types.ProcessID
	// WANDelay is the injected inter-group one-way delay (default 100 ms);
	// LANDelay applies within groups (default 0: the loopback's real
	// latency). With an injected tcp.Config.Fabric the fabric's own base
	// model governs instead. [-wan, -lan]
	WANDelay time.Duration
	LANDelay time.Duration
	// HeartbeatEvery and SuspectAfter tune the heartbeat failure detector
	// (defaults 50 ms and 250 ms): a peer is suspected when it has been
	// silent for SuspectAfter (checked at that moment, not at the next
	// beat: a crash goes unnoticed for SuspectAfter less what had passed
	// of the victim's beat period) — and trusted again the moment its
	// beats resume.
	// [-heartbeat, -suspectafter]
	HeartbeatEvery time.Duration
	SuspectAfter   time.Duration
	// LeaseDuration enables leader leases: each beat a group's rank-0
	// replica sends doubles as a lease request its followers countersign,
	// and while a majority's grants are live the leader publishes a lease
	// (LiveCluster.ReadLease) that lets it serve linearizable single-shard
	// reads locally — zero WAN round trips — until
	// (beat + LeaseDuration − MaxClockSkew). 0 (the default) disables
	// leases. It must comfortably exceed HeartbeatEvery so grants renew the
	// lease before it expires. [-leasems]
	LeaseDuration time.Duration
	// MaxClockSkew is the lease safety margin (default 10 ms when leases
	// are enabled): the holder shortens its claim by it while granters
	// lengthen their fencing promise by it, so clock RATE drift up to
	// MaxClockSkew per lease window cannot overlap an old holder with a
	// successor. Clock offsets don't matter (see the tcp lease protocol).
	// [-skewms]
	MaxClockSkew time.Duration
	// Pipeline sets the consensus-instances-in-flight limit for both A1
	// and A2 (default 1, the paper's sequential algorithms); beyond a
	// process's first undecided instance, only full MaxBatch batches
	// open one. [-pipeline]
	Pipeline int
	// MaxBatch caps how many messages one consensus instance may order,
	// for both A1 and A2 (default 0: unbounded, the paper's rule).
	// [-maxbatch]
	MaxBatch int
	// ConsensusRetry overrides the re-drive period for undecided consensus
	// proposals (default 40 ms). Raise it on bandwidth-capped clusters:
	// re-driving faster than the links drain only multiplies the queued
	// bytes the retries are waiting behind.
	ConsensusRetry time.Duration
	// Lanes shards the hosted processes across exactly this many ordering
	// lane goroutines, by group (lane = group mod Lanes): each group's
	// protocol state stays confined to one lane while different groups
	// order in parallel on different cores. The default is one lane per
	// group; 1 serialises every hosted process onto a single goroutine
	// (the single-core baseline the lane-scaling benchmark measures
	// against). [-lanes]
	Lanes int
	// Bandwidth caps every link at this many bytes per second (0 =
	// uncapped): each connection's writer paces itself so a flushed burst
	// occupies the link for its transmission time before further protocol
	// frames go out. Heartbeats and lease grants are exempt, so a saturated
	// link cannot look like a crash. The flag takes ParseBandwidth forms.
	// [-bandwidth]
	Bandwidth int64
	// RetainDeliveries sizes the metrics collector's window of per-cast
	// records, which the cluster's latency stats, WaitDelivered and
	// DeliveredCount read: the most recent max(8×RetainDeliveries, 4096)
	// casts, or 65 536 when 0 — wait only on recent casts.
	RetainDeliveries int
	// Check records every cast and delivery into a §2.2 property checker
	// so CheckProperties can verify uniform integrity, validity, uniform
	// agreement, and uniform prefix order over the live run. The checker
	// retains the full run (unaffected by RetainDeliveries): leave it off
	// for unbounded benchmarks.
	Check bool
	// DataDir enables durability: process p persists its WAL and
	// snapshots under DataDir/p<N>, and Crash(p) can be undone with
	// Restart(p) — the replica recovers its Paxos, clock, and session
	// state from disk and catches up missed instances from live peers.
	// Empty means no persistence. [-datadir]
	DataDir string
	// StoreFor overrides DataDir with an explicit store per process
	// (tests use storage.NewMem). When it returns nil for a process, that
	// process runs without persistence.
	StoreFor func(p types.ProcessID) storage.Store
	// NoFsync makes each store's Sync a no-op, so a durability barrier
	// only flushes: crashes of the whole OS process lose the tail,
	// in-process Crash/Restart does not. The "fsync=off" benchmark knob;
	// needs DataDir. [-nofsync]
	NoFsync bool
	// SnapshotEvery is how many A-Deliveries a process accumulates before
	// its state is snapshotted and the WAL truncated (default 512;
	// negative disables automatic snapshots). Needs a store. [-snapevery]
	SnapshotEvery int
	// TraceSpans enables the end-to-end message lifecycle tracer: every
	// process records causal spans (submit, rmcast send/admit, cast,
	// consensus propose/promise/accept/learn, fsync barriers, lane
	// dequeues, A-Deliver, reply) into bounded per-lane rings, and the
	// duration-carrying stages feed per-stage latency histograms
	// (Tracer().Stats()). Off by default; disabled it costs one atomic
	// load per potential span. On the command line, giving -spanbuf,
	// -flightdump or a command's -telemetry (harness.TelemetryFlag) turns it
	// on.
	TraceSpans bool
	// SpanBuf bounds each lane's span ring (default 4096 events, rounded
	// up to a power of two). Older spans are overwritten — the tracer is
	// a flight recorder, not a complete log. [-spanbuf]
	SpanBuf int
	// FlightDump arms the flight recorder (requires TraceSpans): on a
	// §2.2 checker violation, an abandoned state transfer (SyncFailed),
	// or a crash-restart, the retained spans are dumped as JSONL to this
	// path (overwritten per trigger — the last incident wins).
	// [-flightdump]
	FlightDump string
}

// WithDefaults returns c with every unset knob that has a default replaced
// by it. Zero is unset, and so is a negative count or duration: a library
// caller's -1 must fall back, not reach group % -1. SnapshotEvery keeps its
// sign, because there negative means "off".
func (c Config) WithDefaults() Config {
	def(&c.Groups, 2)
	def(&c.PerGroup, 3)
	def(&c.BasePort, 19000)
	def(&c.WANDelay, 100*time.Millisecond)
	def(&c.HeartbeatEvery, 50*time.Millisecond)
	def(&c.SuspectAfter, 250*time.Millisecond)
	if c.LeaseDuration > 0 {
		def(&c.MaxClockSkew, 10*time.Millisecond)
	}
	// One lane per group: lane = group mod Lanes is then the identity, and
	// a runtime starts lanes only for the groups it hosts.
	def(&c.Lanes, c.Groups)
	if c.SnapshotEvery == 0 {
		c.SnapshotEvery = 512
	}
	return c
}

// def sets a knob left unset (zero or negative) to its default.
func def[T int | time.Duration](knob *T, to T) {
	if *knob <= 0 {
		*knob = to
	}
}

// Validate rejects a configuration that would panic or silently misbehave
// deep inside a live run: every rule of ValidateModel, plus the rules of
// what only a live cluster has — sockets, the failure detector, leases,
// stores, span rings. Relations between knobs are
// judged on the values the run would use (a zero knob as its default).
// Commands call it after parsing their flags and exit 2 on an error;
// NewLiveCluster does not call it.
func (c Config) Validate() error {
	if err := c.ValidateModel(); err != nil {
		return err
	}
	e := c.WithDefaults()
	switch {
	case c.BasePort < 0:
		return fmt.Errorf("base port must be positive: %d", c.BasePort)
	case c.HeartbeatEvery < 0 || c.SuspectAfter < 0 || e.HeartbeatEvery >= e.SuspectAfter:
		return fmt.Errorf("need 0 < heartbeat period < suspicion timeout (got %v, %v)", c.HeartbeatEvery, c.SuspectAfter)
	case c.LeaseDuration < 0 || c.MaxClockSkew < 0:
		return fmt.Errorf("lease duration and clock skew must be non-negative: %v, %v", c.LeaseDuration, c.MaxClockSkew)
	case c.MaxClockSkew > 0 && c.LeaseDuration == 0:
		return fmt.Errorf("a clock-skew guard is meaningless without leases (set a lease duration)")
	case e.LeaseDuration > 0 && e.MaxClockSkew >= e.LeaseDuration:
		return fmt.Errorf("the clock-skew guard %v consumes the whole lease window %v", e.MaxClockSkew, e.LeaseDuration)
	case c.ConsensusRetry < 0:
		return fmt.Errorf("consensus retry must be non-negative: %v", c.ConsensusRetry)
	case c.SpanBuf < 0:
		return fmt.Errorf("span buffer size must be non-negative: %d", c.SpanBuf)
	case c.NoFsync && c.DataDir == "":
		return fmt.Errorf("fsync=off is meaningless without a data dir")
	case c.SnapshotEvery != 0 && c.DataDir == "" && c.StoreFor == nil:
		return fmt.Errorf("snapshot cadence is meaningless without a data dir")
	case c.Check && c.Local != nil:
		return fmt.Errorf("the property checker needs every process: it cannot run on a cluster that hosts only %v", c.Local)
	}
	return PortRange(e.BasePort, e.Groups*e.PerGroup)
}

// ValidateModel checks only the knobs the simulator models too — topology,
// delays, batching, pipelining, bandwidth, lanes. It is all a run that
// opens no socket needs (wansim: a 15000x3 sweep shape must not be refused
// for want of 45000 ports). Groups and PerGroup must be
// given: a command always holds them from its flags, so a 0 there is a
// typo, not a request for the default.
func (c Config) ValidateModel() error {
	switch {
	case c.Groups < 1 || c.PerGroup < 1:
		return fmt.Errorf("topology must be positive: %d groups x %d processes", c.Groups, c.PerGroup)
	case c.PerGroup > 64:
		return fmt.Errorf("a group holds at most 64 processes (consensus counts quorums in a 64-bit mask): %d", c.PerGroup)
	case c.WANDelay < 0 || c.LANDelay < 0:
		return fmt.Errorf("delays must be non-negative: wan=%v lan=%v", c.WANDelay, c.LANDelay)
	case c.Pipeline < 0:
		return fmt.Errorf("pipeline depth must be non-negative: %d", c.Pipeline)
	case c.MaxBatch < 0:
		return fmt.Errorf("max batch must be non-negative: %d", c.MaxBatch)
	case c.Bandwidth < 0:
		return fmt.Errorf("bandwidth must be non-negative: %d B/s", c.Bandwidth)
	case c.Lanes < 0:
		return fmt.Errorf("lane count must be non-negative: %d", c.Lanes)
	}
	return nil
}

// PortRange checks that n consecutive TCP ports starting at base fit within
// 1..65535 — the process-p-listens-on-base+p scheme of the cluster ports
// and of the commands' client-facing service ports.
func PortRange(base, n int) error {
	if base < 1 || base+n > 65536 {
		return fmt.Errorf("base port %d leaves no room for %d processes (need ports %d..%d within 1..65535)",
			base, n, base, base+n-1)
	}
	return nil
}

// Bind registers the flag of every knob that has one on fs, storing into
// c, with c's current values as the defaults the usage text shows — so a
// command states only where it differs (cfg.BasePort = 27000; cfg.Bind(fs))
// and every command spells, documents and parses a knob the same way. A
// command names in except the flags it has no way to honour; they stay
// unknown to it rather than being accepted and ignored.
func (c *Config) Bind(fs *flag.FlagSet, except ...string) {
	all := flag.NewFlagSet("", flag.ContinueOnError)
	all.IntVar(&c.Groups, "groups", c.Groups, "number of groups (shards)")
	all.IntVar(&c.PerGroup, "d", c.PerGroup, "processes (replicas) per group")
	all.IntVar(&c.BasePort, "port", c.BasePort, "cluster base port: process p listens on port+p")
	all.DurationVar(&c.WANDelay, "wan", c.WANDelay, "injected one-way inter-group delay")
	all.DurationVar(&c.LANDelay, "lan", c.LANDelay, "injected one-way intra-group delay (0 = raw loopback)")
	all.DurationVar(&c.HeartbeatEvery, "heartbeat", c.HeartbeatEvery, "failure detector heartbeat period (0 = default 50ms)")
	all.DurationVar(&c.SuspectAfter, "suspectafter", c.SuspectAfter, "failure detector suspicion timeout (0 = default 250ms)")
	all.Var((*millis)(&c.LeaseDuration), "leasems", "leader lease duration in `ms` (0 = leases off)")
	all.Var((*millis)(&c.MaxClockSkew), "skewms", "max clock-rate drift per lease window in `ms` (0 = default 10 when leases are on)")
	all.IntVar(&c.MaxBatch, "maxbatch", c.MaxBatch, "max messages per consensus instance (0 = unbounded, the paper's rule)")
	all.IntVar(&c.Pipeline, "pipeline", c.Pipeline, "consensus instances in flight; past a process's first undecided one, full -maxbatch batches only (0 or 1 = the paper's sequential engine)")
	all.IntVar(&c.Lanes, "lanes", c.Lanes, "ordering lane goroutines, processes sharded across them by group (0 = one per group)")
	all.Var((*bandwidth)(&c.Bandwidth), "bandwidth", "per-link bandwidth cap `rate`, e.g. 50mbit, 6.25MB, 1gbit (0 = uncapped; heartbeats are exempt)")
	all.StringVar(&c.DataDir, "datadir", c.DataDir, "persist each process's WAL+snapshots under this directory (empty = volatile)")
	all.BoolVar(&c.NoFsync, "nofsync", c.NoFsync, "with -datadir: durability barriers flush the WAL but never fsync it (benchmark knob)")
	all.IntVar(&c.SnapshotEvery, "snapevery", c.SnapshotEvery, "with -datadir: snapshot every N deliveries per process (0 = default 512, negative = never)")
	// Asking for a tracing output turns the tracer on.
	all.Func("spanbuf", "per-lane lifecycle span ring size `n` (0 = default 4096); enables lifecycle tracing",
		func(s string) (err error) { c.TraceSpans = true; c.SpanBuf, err = strconv.Atoi(s); return err })
	all.Func("flightdump", "dump recent spans as JSONL to this `path` on a property violation, failed state transfer, or restart; enables lifecycle tracing",
		func(s string) error { c.FlightDump, c.TraceSpans = s, true; return nil })
	all.VisitAll(func(f *flag.Flag) {
		if !slices.Contains(except, f.Name) {
			fs.Var(f.Value, f.Name, f.Usage)
		}
	})
}

// millis is a duration flag spelled in whole milliseconds.
type millis time.Duration

func (m *millis) String() string { return strconv.FormatInt(time.Duration(*m).Milliseconds(), 10) }

func (m *millis) Set(s string) error {
	n, err := strconv.Atoi(s)
	*m = millis(time.Duration(n) * time.Millisecond)
	return err
}

// bandwidth is a bytes-per-second flag spelled in ParseBandwidth forms. It
// parses at flag time, so a malformed rate is a usage error and can never
// reach a run as "uncapped".
type bandwidth int64

func (b *bandwidth) String() string { return strconv.FormatInt(int64(*b), 10) }

func (b *bandwidth) Set(s string) error {
	n, err := ParseBandwidth(s)
	*b = bandwidth(n)
	return err
}

// bandwidthUnits maps a lower-cased rate unit to bytes per second.
var bandwidthUnits = map[string]float64{
	"": 1, "b": 1, "kb": 1e3, "mb": 1e6, "gb": 1e9,
	"bit": 1.0 / 8, "kbit": 1e3 / 8, "mbit": 1e6 / 8, "gbit": 1e9 / 8,
}

// ParseBandwidth parses a link-rate string into bytes per second. The
// number may be fractional; the unit suffix (case-insensitive, optional
// "/s") selects bits or bytes with decimal (1000-based) prefixes, the
// networking convention: "50Mbit" = 50·10⁶ bit/s = 6.25·10⁶ B/s.
// Accepted units: bit, kbit, Mbit, Gbit, B, kB, MB, GB; a bare number
// means bytes per second. Zero or empty means uncapped; negative rates
// and rates that round below one byte per second are rejected.
func ParseBandwidth(s string) (int64, error) {
	s = strings.TrimSpace(s)
	if s == "" {
		return 0, nil
	}
	num := strings.TrimRight(s, "/sS")
	i := len(num)
	for i > 0 {
		c := num[i-1]
		if c >= '0' && c <= '9' || c == '.' {
			break
		}
		i--
	}
	unit, num := num[i:], num[:i]
	val, err := strconv.ParseFloat(num, 64)
	if err != nil {
		return 0, fmt.Errorf("bandwidth %q: %q is not a number", s, num)
	}
	scale, ok := bandwidthUnits[strings.ToLower(unit)]
	if !ok {
		return 0, fmt.Errorf("bandwidth %q: unknown unit %q (want bit, kbit, Mbit, Gbit, B, kB, MB, or GB)", s, unit)
	}
	bytesPerSec := val * scale
	if bytesPerSec < 0 {
		return 0, fmt.Errorf("bandwidth %q: rate must be non-negative", s)
	}
	if val > 0 && bytesPerSec < 1 {
		return 0, fmt.Errorf("bandwidth %q: rounds below one byte per second", s)
	}
	return int64(bytesPerSec), nil
}
