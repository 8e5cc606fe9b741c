// Package metrics collects the two quantities the paper's evaluation
// (Figure 1) reports — latency degree and inter-group message counts — plus
// wall-clock (virtual-time) delivery latencies and the quiescence signal
// used by Proposition A.9 experiments.
//
// The latency degree of a message m in a run R (§2.3) is
//
//	Δ(m,R) = max over deliverers q of ts(A-Deliver(m) at q) − ts(A-XCast(m) at caster)
//
// where ts are the modified Lamport clocks that tick only on inter-group
// sends. The network layer maintains the clocks; protocols report cast and
// deliver events here.
//
// There is one sink, *Collector, and no interface in front of it: the
// simulated and the live runtime, the transport, the failure detectors and
// the protocols call its methods directly. It is safe for concurrent use and
// a nil *Collector discards.
//
// A plain cumulative count is one Counter constant, its row in counters (the
// Stats field it fills and its /metrics series) and that Stats field; its
// call site bumps it with c.Add(k, n), or c.AddGroup(g, k, n) for a per-group
// one. Snapshot, internal/harness/telemetry.go and the live cluster's gauges
// are not edited. Anything more than a count — the per-protocol and per-kind
// maps, the largest batch, a distribution — is a typed field with its own On…
// method, its own line in Snapshot and its own line in writeMetrics (writeHist
// for a distribution).
//
// How a distribution is held: as a Hist (hist.go) and nothing else — the trace
// stages, the WAN emulator's release lateness, A1's owner margin, the client
// latencies by fan-out and by class — so memory is fixed, nothing is sorted to
// read one, and any two (lanes, processes, windows) add. The one exception is
// the Collector's per-cast slab: the paper's Δ(m) is per message, goldens and
// the simulator benchmark read LatencyDegree, WallLatency and Deliveries by
// message id, and the simulator's virtual-time percentiles (Stats.P50Wall…,
// nearest-rank) are pinned to the digit. CastWindow bounds it.
//
// Service collects the client-facing counters of the replicated service
// layer (internal/svc): requests, retries, suppressed duplicates, and
// client-observed latency by shard fan-out.
package metrics

import (
	"fmt"
	"maps"
	"math"
	"slices"
	"sort"
	"strings"
	"sync"
	"time"

	"wanamcast/internal/types"
)

// Collector accumulates statistics for one run. It is the one measurement
// sink of both runtimes, called concretely: the simulator, the live lane
// loops, the transport's reader and writer goroutines, the failure detectors
// and the protocols (through node.Proc.Metrics) all bump the same value.
//
// A Collector is safe for concurrent use — every method takes its one mutex,
// Snapshot included, so a mid-run scrape is consistent — and every recording
// method is a no-op on a nil *Collector: nil is how a runtime built without a
// collector, or a process replaying its log, discards. The zero value is
// ready to use; set the exported fields before the run.
type Collector struct {
	// LogSends, when set before the run, keeps a full per-send event log
	// (used by genuineness and quiescence tests). Off by default: large
	// benchmarks would otherwise hold every send in memory.
	LogSends bool

	// CastWindow, when positive, bounds the per-cast records (a fixed size
	// each) to the most recent CastWindow casts: older ones are
	// evicted in cast order, so LatencyDegree/WallLatency answer only for
	// recent messages and Snapshot aggregates over the window. Zero keeps
	// every cast forever — fine for bounded runs, unbounded memory for a
	// long-lived service. Set before the run.
	CastWindow int

	// What every send, frame and decision touches sits next to mu; the
	// 4 KB margin histogram goes last.
	mu                  sync.Mutex
	counts              [numCounters]uint64
	perProto            map[string]*ProtoCount
	byKindOut, byKindIn map[byte]uint64 // Wire.ByKindOut, Wire.ByKindIn
	lastSend            time.Duration
	anySend             bool
	maxBatch            int
	sends               []SendEvent
	groups              [][numGroupCounters]uint64 // indexed by GroupID

	casts     map[types.MessageID]castRecord
	castOrder []types.MessageID // cast arrival order, for CastWindow eviction

	leadUs map[[2]types.GroupID]uint64 // A1Owner.LeadUs
	margin Hist                        // A1Owner.Margin
}

// Counter names one of the Collector's plain cumulative counts.
type Counter int

// The Collector's counters, each a row of counters.
const (
	TotalMessages Counter = iota
	InterGroupMessages
	ConsensusInstances
	LearnFetches
	CastTotal
	DeliveredTotal
	BatchesDecided
	BatchedMessages
	BundleCopiesSent
	BundleRepeatsDropped
	BundlePullsServed
	BundlePullsUnserved
	TSReshipped
	TSPullsServed
	TSPullsUnserved
	OwnerLost
	WireBytesOut
	WireBytesIn
	WireFramesOut
	WireFramesIn
	WireEnvelopesOut
	WireEnvelopesIn
	WireRawOut
	WireCompressedOut
	numCounters
)

// row is one line of a counter table: the field a count fills in the snapshot
// S, and its /metrics series with any fixed label ("" when not exported).
type row[S any] struct {
	field  func(*S) *uint64
	series string
}

// counters is the Collector's table: Snapshot fills Stats from it and
// Stats.Series exports it. A _total series must never go down, so a row
// counts since the run began (CastTotal, not the windowed MessagesCast).
var counters = [numCounters]row[Stats]{
	TotalMessages:        {func(s *Stats) *uint64 { return &s.TotalMessages }, "wanamcast_messages_total"},
	InterGroupMessages:   {func(s *Stats) *uint64 { return &s.InterGroupMessages }, "wanamcast_messages_intergroup_total"},
	ConsensusInstances:   {func(s *Stats) *uint64 { return &s.ConsensusInstances }, "wanamcast_consensus_instances_total"},
	LearnFetches:         {func(s *Stats) *uint64 { return &s.LearnFetches }, "wanamcast_consensus_learn_fetches_total"},
	CastTotal:            {func(s *Stats) *uint64 { return &s.CastTotal }, "wanamcast_messages_cast_total"},
	DeliveredTotal:       {func(s *Stats) *uint64 { return &s.DeliveredTotal }, "wanamcast_messages_delivered_total"},
	BatchesDecided:       {func(s *Stats) *uint64 { return &s.BatchesDecided }, "wanamcast_batches_decided_total"},
	BatchedMessages:      {func(s *Stats) *uint64 { return &s.BatchedMessages }, ""},
	BundleCopiesSent:     {func(s *Stats) *uint64 { return &s.BundleCopiesSent }, "wanamcast_a2_bundle_copies_sent_total"},
	BundleRepeatsDropped: {func(s *Stats) *uint64 { return &s.BundleRepeatsDropped }, "wanamcast_a2_bundle_repeats_dropped_total"},
	BundlePullsServed:    {func(s *Stats) *uint64 { return &s.BundlePullsServed }, `wanamcast_a2_bundle_pulls_total{served="true"}`},
	BundlePullsUnserved:  {func(s *Stats) *uint64 { return &s.BundlePullsUnserved }, `wanamcast_a2_bundle_pulls_total{served="false"}`},
	TSReshipped:          {func(s *Stats) *uint64 { return &s.TSReshipped }, "wanamcast_a1_ts_reshipped_total"},
	TSPullsServed:        {func(s *Stats) *uint64 { return &s.TSPullsServed }, `wanamcast_a1_ts_pulls_total{served="true"}`},
	TSPullsUnserved:      {func(s *Stats) *uint64 { return &s.TSPullsUnserved }, `wanamcast_a1_ts_pulls_total{served="false"}`},
	OwnerLost:            {func(s *Stats) *uint64 { return &s.A1Owner.Lost }, `wanamcast_a1_owner_proposals_total{outcome="lost"}`},
	WireBytesOut:         {func(s *Stats) *uint64 { return &s.Wire.BytesOut }, "wanamcast_wire_bytes_out_total"},
	WireBytesIn:          {func(s *Stats) *uint64 { return &s.Wire.BytesIn }, "wanamcast_wire_bytes_in_total"},
	WireFramesOut:        {func(s *Stats) *uint64 { return &s.Wire.FramesOut }, "wanamcast_wire_frames_out_total"},
	WireFramesIn:         {func(s *Stats) *uint64 { return &s.Wire.FramesIn }, ""},
	WireEnvelopesOut:     {func(s *Stats) *uint64 { return &s.Wire.EnvelopesOut }, "wanamcast_wire_writes_out_total"},
	WireEnvelopesIn:      {func(s *Stats) *uint64 { return &s.Wire.EnvelopesIn }, ""},
	WireRawOut:           {func(s *Stats) *uint64 { return &s.Wire.RawPayloadOut }, ""},
	WireCompressedOut:    {func(s *Stats) *uint64 { return &s.Wire.CompressedPayloadOut }, ""},
}

// GroupCounter names one of the Collector's per-group cumulative counts.
type GroupCounter int

// The Collector's per-group counters, each a row of groupCounters.
const (
	Suspicions GroupCounter = iota
	TrustRestorations
	LeaderChanges
	RoundsOnPace
	RoundsLate
	numGroupCounters
)

// groupCounts is one group's counts as Stats holds them: its PerGroupFD and
// its PerGroupRounds entry.
type groupCounts struct {
	FDCount
	RoundCount
}

// groupCounters is the per-group table: a row's field in its group's counts,
// the Stats field that totals it over the groups, and the series exporting
// that total — or, with a %d for the group, one series per group that opened
// a round, holding the group's own count.
var groupCounters = [numGroupCounters]struct {
	field  func(*groupCounts) *uint64
	total  func(*Stats) *uint64
	series string
}{
	Suspicions:        {func(g *groupCounts) *uint64 { return &g.Suspicions }, func(s *Stats) *uint64 { return &s.Suspicions }, "wanamcast_suspicions_total"},
	TrustRestorations: {func(g *groupCounts) *uint64 { return &g.TrustRestorations }, func(s *Stats) *uint64 { return &s.TrustRestorations }, "wanamcast_trust_restorations_total"},
	LeaderChanges:     {func(g *groupCounts) *uint64 { return &g.LeaderChanges }, func(s *Stats) *uint64 { return &s.LeaderChanges }, "wanamcast_leader_changes_total"},
	RoundsOnPace:      {func(g *groupCounts) *uint64 { return &g.OnPace }, func(s *Stats) *uint64 { return &s.RoundsOnPace }, `wanamcast_a2_rounds_opened_total{group="%d",slot="pace"}`},
	RoundsLate:        {func(g *groupCounts) *uint64 { return &g.Late }, func(s *Stats) *uint64 { return &s.RoundsLate }, `wanamcast_a2_rounds_opened_total{group="%d",slot="late"}`},
}

// Add adds n to counter k. An envelope read off a connection is one Add to
// WireBytesIn, which counts it in WireEnvelopesIn too: one lock per event.
func (c *Collector) Add(k Counter, n int) {
	if c.lock() {
		c.counts[k] += uint64(n)
		if k == WireBytesIn {
			c.counts[WireEnvelopesIn]++
		}
		c.mu.Unlock()
	}
}

// AddGroup adds n to group g's counter k.
func (c *Collector) AddGroup(g types.GroupID, k GroupCounter, n int) {
	if c.lock() {
		for int(g) >= len(c.groups) {
			c.groups = append(c.groups, [numGroupCounters]uint64{})
		}
		c.groups[g][k] += uint64(n)
		c.mu.Unlock()
	}
}

// series calls emit with each exported row's series and its value in st.
func series[S any](st *S, rows []row[S], emit func(string, uint64)) {
	for _, r := range rows {
		if r.series != "" {
			emit(r.series, *r.field(st))
		}
	}
}

// Series calls emit with the /metrics series and value of every exported
// counter.
func (st Stats) Series(emit func(name string, v uint64)) {
	series(&st, counters[:], emit)
	groups := slices.Sorted(maps.Keys(st.PerGroupRounds))
	for _, r := range groupCounters {
		if !strings.Contains(r.series, "%d") {
			emit(r.series, *r.total(&st))
			continue
		}
		for _, g := range groups {
			gc := groupCounts{st.PerGroupFD[g], st.PerGroupRounds[g]}
			emit(fmt.Sprintf(r.series, g), *r.field(&gc))
		}
	}
}

// lock takes the collector's mutex for one recording and reports whether
// there is a collector at all: the caller records and unlocks only on true.
func (c *Collector) lock() bool {
	if c == nil {
		return false
	}
	c.mu.Lock()
	return true
}

// RoundCount is one group's paced-round accounting (Algorithm A2 with
// Pipeline > 1; every member counts every round it sees open): rounds that
// opened on their pace slot, and rounds that opened late — their slot passed
// while the Barrier held them shut, and a later Barrier raise or cast opened
// them. A live stream should open nearly every round on the pace; late
// rounds are the quiescence predictor's misses, and each costs the casts
// riding it a pace slot or more.
type RoundCount struct {
	OnPace, Late uint64
}

// FDCount is the failure-detector accounting for one group: how often its
// members were suspected, how often trust was restored (a suspicion
// revoked — partitions healing, false suspicions corrected), and how often
// its leadership moved. On live runs every member's detector reports
// independently, so one network-level incident counts once per observer.
type FDCount struct {
	Suspicions        uint64
	TrustRestorations uint64
	LeaderChanges     uint64
}

// OwnerStats is A1's hybrid-timestamp accounting, counted once per
// multi-group message, at its caster, when the final timestamp is decided.
// Margin is final − own proposal over all of them (Margin.Count): 0 when the
// caster's group's proposal was the final timestamp — the caster's
// coordinator knew it at cast time and nothing cast later sorts below it.
// Lost counts the rest: a remote group outbid it, and the message may have
// queued behind later local casts. LeadUs is the lead from a casting group
// {0} towards a remote group {1}, as the member of {0} whose estimate moved
// last reported it: a gauge, not a sum.
type OwnerStats struct {
	Lost   uint64
	Margin Hist
	LeadUs map[[2]types.GroupID]uint64
}

// SendEvent is one logged point-to-point send.
type SendEvent struct {
	Proto      string
	From, To   types.ProcessID
	InterGroup bool
	At         time.Duration
}

// ProtoCount is the message accounting for one protocol label.
type ProtoCount struct {
	Total      uint64
	InterGroup uint64
}

// castRecord is one cast's latency record, a fixed size however many
// processes deliver it.
type castRecord struct {
	castTS    int64 // Lamport clock at the A-XCast event
	castAt    time.Duration
	delivered int           // A-Deliver events recorded
	maxTS     int64         // the largest deliverer clock
	lastAt    time.Duration // the latest delivery
}

// span returns the record's latency degree (max deliverer clock minus the
// cast clock) and wall latency (cast to last delivery); ok is false until
// the message was delivered at least once.
func (rec castRecord) span() (deg int64, wall time.Duration, ok bool) {
	if rec.delivered == 0 {
		return 0, 0, false
	}
	return rec.maxTS - rec.castTS, rec.lastAt - rec.castAt, true
}

// OnSend records one point-to-point message send. interGroup reports whether
// sender and receiver are in different groups; proto labels the protocol
// layer that produced the message (e.g. "consensus", "a1").
func (c *Collector) OnSend(proto string, from, to types.ProcessID, interGroup bool, at time.Duration) {
	if !c.lock() {
		return
	}
	defer c.mu.Unlock()
	c.counts[TotalMessages]++
	c.lastSend = at
	c.anySend = true
	if c.perProto == nil {
		c.perProto = make(map[string]*ProtoCount)
	}
	pc := c.perProto[proto]
	if pc == nil {
		pc = &ProtoCount{}
		c.perProto[proto] = pc
	}
	pc.Total++
	if interGroup {
		c.counts[InterGroupMessages]++
		pc.InterGroup++
	}
	if c.LogSends {
		c.sends = append(c.sends, SendEvent{Proto: proto, From: from, To: to, InterGroup: interGroup, At: at})
	}
}

// Sends returns the logged send events (empty unless LogSends was set).
// Callers must not modify the returned slice.
func (c *Collector) Sends() []SendEvent {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.sends
}

// OnCast records the A-XCast of message id with the caster's Lamport clock
// value at the cast event.
func (c *Collector) OnCast(id types.MessageID, lamportTS int64, at time.Duration) {
	if !c.lock() {
		return
	}
	defer c.mu.Unlock()
	if c.casts == nil {
		c.casts = make(map[types.MessageID]castRecord)
	}
	if _, ok := c.casts[id]; ok {
		return // duplicate cast report; keep the first
	}
	c.casts[id] = castRecord{castTS: lamportTS, castAt: at}
	c.counts[CastTotal]++
	if c.CastWindow > 0 {
		// Amortised trim, same idiom as the live delivery log: grow to
		// twice the window, then copy the newest half down.
		c.castOrder = append(c.castOrder, id)
		if len(c.castOrder) > 2*c.CastWindow {
			for _, old := range c.castOrder[:len(c.castOrder)-c.CastWindow] {
				delete(c.casts, old)
			}
			c.castOrder = append(c.castOrder[:0], c.castOrder[len(c.castOrder)-c.CastWindow:]...)
		}
	}
}

// OnDeliver records an A-Deliver of id at process p with p's Lamport clock
// value at the delivery event. Deliveries of unknown casts are dropped (the
// checker package, not metrics, flags integrity violations).
func (c *Collector) OnDeliver(id types.MessageID, p types.ProcessID, lamportTS int64, at time.Duration) {
	if !c.lock() {
		return
	}
	defer c.mu.Unlock()
	rec, ok := c.casts[id]
	if !ok {
		return
	}
	if rec.delivered == 0 {
		c.counts[DeliveredTotal]++
		rec.maxTS, rec.lastAt = lamportTS, at
	}
	rec.delivered++
	rec.maxTS, rec.lastAt = max(rec.maxTS, lamportTS), max(rec.lastAt, at)
	c.casts[id] = rec
}

// OnOwnerProposal records, at its caster, the final timestamp of a
// multi-group A1 message: short is how many µs the caster's group's own
// proposal fell below it (0: the proposal was the final timestamp).
func (c *Collector) OnOwnerProposal(short uint64) {
	if c.lock() {
		if short > 0 {
			c.counts[OwnerLost]++
		}
		// A lying or stepped clock can put the final timestamp up to 2^62 µs
		// ahead: saturate rather than wrap into a small or negative margin.
		short = min(short, math.MaxInt64/uint64(time.Microsecond))
		c.margin.Observe(time.Duration(short) * time.Microsecond)
		c.mu.Unlock()
	}
}

// OnOwnerLead records a new value of the lead, in µs, that a process of
// group from adds to its hints for messages its group casts to remote group
// to.
func (c *Collector) OnOwnerLead(from, to types.GroupID, us uint64) {
	if c.lock() {
		if c.leadUs == nil {
			c.leadUs = make(map[[2]types.GroupID]uint64)
		}
		c.leadUs[[2]types.GroupID{from, to}] = us
		c.mu.Unlock()
	}
}

// OnBatchDecided records the size of one decided ordering batch (how many
// messages a consensus instance ordered at one process).
func (c *Collector) OnBatchDecided(size int) {
	if c.lock() {
		c.counts[BatchesDecided]++
		c.counts[BatchedMessages] += uint64(size)
		c.maxBatch = max(c.maxBatch, size)
		c.mu.Unlock()
	}
}

// OnSuspect, OnTrustRestored, and OnLeaderChange implement fd.Observer:
// the failure detectors report suspicions, trust restorations, and leader
// changes here, counted per group.
func (c *Collector) OnSuspect(g types.GroupID, p types.ProcessID) { c.AddGroup(g, Suspicions, 1) }

// OnTrustRestored implements fd.Observer.
func (c *Collector) OnTrustRestored(g types.GroupID, p types.ProcessID) {
	c.AddGroup(g, TrustRestorations, 1)
}

// OnLeaderChange implements fd.Observer.
func (c *Collector) OnLeaderChange(g types.GroupID, leader types.ProcessID) {
	c.AddGroup(g, LeaderChanges, 1)
}

// LatencyDegree returns Δ(id) = max deliverer Lamport clock minus the
// caster's clock at cast time, and whether id was cast and delivered at
// least once.
func (c *Collector) LatencyDegree(id types.MessageID) (int64, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	deg, _, ok := c.casts[id].span()
	return deg, ok
}

// Delivered returns how many A-Deliver events have been recorded for id: 0
// for a cast never recorded, and for one CastWindow has evicted.
func (c *Collector) Delivered(id types.MessageID) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.casts[id].delivered
}

// WallLatency returns the virtual-time span between the cast of id and its
// last recorded delivery.
func (c *Collector) WallLatency(id types.MessageID) (time.Duration, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	_, wall, ok := c.casts[id].span()
	return wall, ok
}

// LastSend returns the virtual time of the most recent send and whether any
// send happened at all. Quiescence experiments assert that LastSend stops
// advancing once casts cease.
func (c *Collector) LastSend() (time.Duration, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.lastSend, c.anySend
}

// Stats is an immutable snapshot of a run's aggregate statistics.
type Stats struct {
	TotalMessages      uint64
	InterGroupMessages uint64
	ConsensusInstances uint64
	// LearnFetches counts decisions an acceptor fetched by LearnMsg: the
	// AcceptMsg carrying the value never reached it. SendQueueDrops and
	// HoldDrops count, per sending process, the frames the live transport
	// dropped on a full send queue (a paced link's too) and partition hold
	// (nil on the simulator); the protocols' retries recover them.
	LearnFetches              uint64
	SendQueueDrops, HoldDrops []uint64
	PerProtocol               map[string]ProtoCount

	// Cast/delivery aggregates over all messages that were both cast and
	// delivered at least once. With CastWindow set they cover the window
	// only, and fall at each trim; CastTotal and DeliveredTotal count the
	// same two things over the whole run and never decrease.
	MessagesCast      int
	MessagesDelivered int
	CastTotal         uint64
	DeliveredTotal    uint64
	// Latency degree distribution.
	MinDegree, MaxDegree int64
	MeanDegree           float64
	// DegreeHist counts messages by their measured latency degree Δ(m) —
	// the paper's WAN-hop count per message (Δ=2 for A1, Δ=1 for warm A2
	// broadcasts). Keyed by Δ, so a run's conformance to the latency-degree
	// theorems is a histogram lookup, not an assumption.
	DegreeHist map[int64]int
	// Wall (virtual-time) latency of the last delivery of each message.
	MeanWallLatency time.Duration
	MaxWallLatency  time.Duration
	// Percentiles of the wall-latency distribution (nearest-rank).
	P50Wall, P95Wall, P99Wall time.Duration

	// Batching aggregates of the ordering engine: per-process decided
	// batches and their sizes (empty keepalive rounds count as size 0).
	BatchesDecided  uint64
	BatchedMessages uint64
	MeanBatchSize   float64
	MaxBatchSize    int
	// Throughput of the run in ordered messages per second of virtual
	// time, measured over delivered messages only: from the earliest cast
	// among messages that were delivered to the last delivery. Zero when
	// that span is zero (e.g. a zero-latency network model where every
	// delivery shares the cast instant — rates are meaningless there).
	ThroughputPerSec float64
	// OrderedPerLearn is messages delivered per consensus learn —
	// the amortization the batched engine buys (ConsensusInstances counts
	// per-process learns, so this is comparable across equal topologies).
	OrderedPerLearn float64

	// Failure-detector totals and their per-group breakdown (see FDCount).
	Suspicions        uint64
	TrustRestorations uint64
	LeaderChanges     uint64
	PerGroupFD        map[types.GroupID]FDCount

	// A2 round and bundle accounting. RoundsOnPace and RoundsLate total
	// PerGroupRounds (see RoundCount; zero unless Pipeline > 1).
	// BundleCopiesSent counts (K, msgSet) copies shipped to other groups'
	// processes — copies per round is this over the rounds run — and
	// BundleRepeatsDropped the copies a receiver dropped undecoded because
	// it already held that group's bundle of the round.
	RoundsOnPace, RoundsLate uint64
	PerGroupRounds           map[types.GroupID]RoundCount
	BundleCopiesSent         uint64
	BundleRepeatsDropped     uint64

	// A2's pulls for a missing bundle (Pipeline > 1), served and left
	// unanswered at the members asked: 0 where every copy arrives in time.
	BundlePullsServed, BundlePullsUnserved uint64
	// WANReleaseLate is how late the live transport's WAN emulator released
	// delayed frames (zero on the simulator, whose delays are exact).
	WANReleaseLate Hist

	// A1Owner is A1's owner-proposal accounting (see OwnerStats).
	A1Owner OwnerStats
	// A1's reduced sender set (Pipeline > 1): (TS, m) proposals re-sent on an
	// Ω change, and pulls served and left unanswered at the members asked. A
	// run without crashes, suspicions or full send queues counts 0 of each.
	TSReshipped, TSPullsServed, TSPullsUnserved uint64

	// Wire holds the wire-level traffic accounting (bytes, frames,
	// envelopes, compression) reported by the transports.
	Wire WireStats
}

// Snapshot computes aggregate statistics over everything recorded so far.
// It holds the lock only to copy the counters and reduce each delivered cast
// to its (degree, wall latency, cast instant); the histogram, the sort and
// the percentiles run after the lock is released, so a scrape of a full
// CastWindow does not stall the lanes recording through the same mutex.
func (c *Collector) Snapshot() Stats {
	type sample struct {
		deg          int64
		wall, castAt time.Duration
	}
	c.mu.Lock()
	st := Stats{
		PerProtocol:  make(map[string]ProtoCount, len(c.perProto)),
		MessagesCast: len(c.casts),
		MaxBatchSize: c.maxBatch,
		A1Owner:      OwnerStats{Margin: c.margin, LeadUs: maps.Clone(c.leadUs)},
		Wire:         WireStats{ByKindOut: maps.Clone(c.byKindOut), ByKindIn: maps.Clone(c.byKindIn)},
	}
	for k, r := range counters {
		*r.field(&st) = c.counts[k]
	}
	for g, counts := range c.groups {
		var gc groupCounts
		for k, r := range groupCounters {
			*r.field(&gc) = counts[k]
			*r.total(&st) += counts[k]
		}
		if gc.FDCount != (FDCount{}) {
			setKeyed(&st.PerGroupFD, types.GroupID(g), gc.FDCount)
		}
		if gc.RoundCount != (RoundCount{}) {
			setKeyed(&st.PerGroupRounds, types.GroupID(g), gc.RoundCount)
		}
	}
	for name, pc := range c.perProto {
		st.PerProtocol[name] = *pc
	}
	samples := make([]sample, 0, len(c.casts))
	for _, rec := range c.casts {
		if deg, wall, ok := rec.span(); ok {
			samples = append(samples, sample{deg, wall, rec.castAt})
		}
	}
	c.mu.Unlock()

	if st.BatchesDecided > 0 {
		st.MeanBatchSize = float64(st.BatchedMessages) / float64(st.BatchesDecided)
	}
	st.MessagesDelivered = len(samples)
	if len(samples) == 0 {
		return st
	}
	var (
		sumDeg    int64
		sumWall   time.Duration
		firstCast = samples[0].castAt
		lastDel   time.Duration
	)
	st.MinDegree, st.MaxDegree = samples[0].deg, samples[0].deg
	st.DegreeHist = make(map[int64]int)
	walls := make([]time.Duration, len(samples))
	for i, s := range samples {
		walls[i] = s.wall
		firstCast, lastDel = min(firstCast, s.castAt), max(lastDel, s.castAt+s.wall)
		st.DegreeHist[s.deg]++
		sumDeg += s.deg
		sumWall += s.wall
		st.MinDegree, st.MaxDegree = min(st.MinDegree, s.deg), max(st.MaxDegree, s.deg)
	}
	slices.Sort(walls)
	st.MaxWallLatency = walls[len(walls)-1]
	st.MeanDegree = float64(sumDeg) / float64(len(walls))
	st.MeanWallLatency = sumWall / time.Duration(len(walls))
	st.P50Wall = percentile(walls, 50)
	st.P95Wall = percentile(walls, 95)
	st.P99Wall = percentile(walls, 99)
	if span := lastDel - firstCast; span > 0 {
		st.ThroughputPerSec = float64(len(walls)) / span.Seconds()
	}
	if st.ConsensusInstances > 0 {
		st.OrderedPerLearn = float64(len(walls)) / float64(st.ConsensusInstances)
	}
	return st
}

// setKeyed sets key's value in *m, making the map on first use.
func setKeyed[K comparable, V any](m *map[K]V, key K, v V) {
	if *m == nil {
		*m = make(map[K]V)
	}
	(*m)[key] = v
}

// Service collects service-level (client-facing) counters and
// client-observed latencies, bucketed by shard fan-out (how many groups a
// command touched). It is safe for concurrent use: load generators and
// servers record from many goroutines. The zero value is
// ready to use, and every Record… method is a no-op on a nil *Service; share
// one instance between the servers and the clients of a run to see both
// sides in a single snapshot.
type Service struct {
	mu         sync.Mutex
	counts     [numServiceCounters]uint64
	lat        map[int]*Hist
	classLat   map[string]*Hist
	classFails map[string]uint64
}

// serviceCounter names one of the Service's counts, each a row of
// serviceCounters; the Record… methods bump them.
type serviceCounter int

const (
	svcRequests serviceCounter = iota
	svcCasts
	svcReplies
	svcReplyWrites
	svcRedirects
	svcRetries
	svcDuplicates
	svcFailures
	svcOps
	svcStaleReads
	svcLeaseDenied
	svcCertVerifies
	svcCertFailures
	numServiceCounters
)

// serviceCounters is the Service's table: Snapshot fills ServiceStats from it
// and ServiceStats.Series exports it.
var serviceCounters = [numServiceCounters]row[ServiceStats]{
	svcRequests:     {func(s *ServiceStats) *uint64 { return &s.Requests }, "wanamcast_requests_total"},
	svcCasts:        {func(s *ServiceStats) *uint64 { return &s.Casts }, "wanamcast_svc_casts_total"},
	svcReplies:      {func(s *ServiceStats) *uint64 { return &s.Replies }, "wanamcast_replies_total"},
	svcReplyWrites:  {func(s *ServiceStats) *uint64 { return &s.ReplyWrites }, "wanamcast_svc_reply_writes_total"},
	svcRedirects:    {func(s *ServiceStats) *uint64 { return &s.Redirects }, "wanamcast_redirects_total"},
	svcRetries:      {func(s *ServiceStats) *uint64 { return &s.Retries }, "wanamcast_retries_total"},
	svcDuplicates:   {func(s *ServiceStats) *uint64 { return &s.Duplicates }, "wanamcast_duplicates_total"},
	svcFailures:     {func(s *ServiceStats) *uint64 { return &s.Failures }, "wanamcast_failures_total"},
	svcOps:          {func(s *ServiceStats) *uint64 { return &s.Ops }, "wanamcast_ops_total"},
	svcStaleReads:   {func(s *ServiceStats) *uint64 { return &s.StaleReads }, "wanamcast_stale_reads_total"},
	svcLeaseDenied:  {func(s *ServiceStats) *uint64 { return &s.LeaseDenied }, "wanamcast_lease_denied_total"},
	svcCertVerifies: {func(s *ServiceStats) *uint64 { return &s.CertVerifies }, "wanamcast_cert_verifies_total"},
	svcCertFailures: {func(s *ServiceStats) *uint64 { return &s.CertFailures }, "wanamcast_cert_failures_total"},
}

// RecordRequest counts one request received by a server.
func (s *Service) RecordRequest() { s.bump(svcRequests) }

// RecordCast counts one multicast a server made of its clients' commands:
// requests over casts is how many commands share a cast.
func (s *Service) RecordCast() { s.bump(svcCasts) }

// RecordReply counts one successful reply sent by a server.
func (s *Service) RecordReply() { s.bump(svcReplies) }

// RecordReplyWrite counts one socket write by a server's connection writer,
// which carries every frame queued since its previous write: replies over
// reply writes is how many frames leave per syscall.
func (s *Service) RecordReplyWrite() { s.bump(svcReplyWrites) }

// RecordRedirect counts one request answered with a redirect.
func (s *Service) RecordRedirect() { s.bump(svcRedirects) }

// RecordRetry counts one client resend under an existing sequence number.
func (s *Service) RecordRetry() { s.bump(svcRetries) }

// RecordDuplicate counts one duplicate command suppressed by the
// replicated dedup table (the exactly-once signal: retries that reached
// the ordering layer but mutated nothing).
func (s *Service) RecordDuplicate() { s.bump(svcDuplicates) }

func (s *Service) bump(k serviceCounter) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.counts[k]++
	s.mu.Unlock()
}

// RecordOutcome records one completed client operation: its shard fan-out,
// end-to-end latency (first send to final reply, retries included), and
// whether it succeeded.
func (s *Service) RecordOutcome(fanout int, latency time.Duration, ok bool) {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.counts[svcOps]++
	if !ok {
		s.counts[svcFailures]++
		return
	}
	observeKeyed(&s.lat, fanout, latency)
}

// observeKeyed records d into key's Hist, making map and Hist on first use.
func observeKeyed[K comparable](m *map[K]*Hist, key K, d time.Duration) {
	h := (*m)[key]
	if h == nil {
		if *m == nil {
			*m = make(map[K]*Hist)
		}
		h = new(Hist)
		(*m)[key] = h
	}
	h.Observe(d)
}

// RecordClassOutcome records one completed operation under a named class
// — the read tier's buckets ("read-lease", "read-watermark",
// "read-ordered", "write"). Classes are a separate axis from the fan-out
// buckets of RecordOutcome: they do not touch the global ops/failures
// counters, so wiring both into one Service double-counts nothing.
func (s *Service) RecordClassOutcome(class string, latency time.Duration, ok bool) {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if !ok {
		if s.classFails == nil {
			s.classFails = make(map[string]uint64)
		}
		s.classFails[class]++
		return
	}
	observeKeyed(&s.classLat, class, latency)
}

// RecordStaleRead counts one read response a client rejected because the
// replica answered below the session's tracked watermark.
func (s *Service) RecordStaleRead() { s.bump(svcStaleReads) }

// RecordLeaseDenied counts one lease read a replica refused because it
// did not hold (or lost mid-read) its group's leader lease.
func (s *Service) RecordLeaseDenied() { s.bump(svcLeaseDenied) }

// RecordCertVerify counts one client-side certificate verification.
func (s *Service) RecordCertVerify(ok bool) {
	if ok {
		s.bump(svcCertVerifies)
	} else {
		s.bump(svcCertFailures)
	}
}

// LatencySummary condenses one fan-out bucket's latency distribution.
type LatencySummary struct {
	Count int
	Mean  time.Duration
	P50   time.Duration
	P95   time.Duration
	P99   time.Duration
	Max   time.Duration
}

// ServiceStats is an immutable snapshot of a Service.
type ServiceStats struct {
	Requests    uint64
	Casts       uint64
	Replies     uint64
	ReplyWrites uint64
	Redirects   uint64
	Retries     uint64
	Duplicates  uint64
	Failures    uint64
	Ops         uint64
	// ByFanout holds client-observed latency summaries keyed by how many
	// shards the command touched.
	ByFanout map[int]LatencySummary
	// ByClass holds latency summaries keyed by operation class
	// ("read-lease", "read-watermark", "read-ordered", "write");
	// ClassFailures counts the failed operations per class.
	ByClass       map[string]LatencySummary
	ClassFailures map[string]uint64
	// Read-tier counters: stale responses clients rejected, lease reads
	// replicas refused, and client-side certificate verifications.
	StaleReads   uint64
	LeaseDenied  uint64
	CertVerifies uint64
	CertFailures uint64
}

// Snapshot computes a ServiceStats from everything recorded so far. It holds
// the lock only to copy the counters and the fixed-size histograms; the
// quantiles are derived after it is released, so a scrape does not stall the
// clients recording through the same mutex.
func (s *Service) Snapshot() ServiceStats {
	s.mu.Lock()
	st := ServiceStats{ClassFailures: maps.Clone(s.classFails)}
	for k, r := range serviceCounters {
		*r.field(&st) = s.counts[k]
	}
	byFanout, byClass := copyKeyed(s.lat), copyKeyed(s.classLat)
	s.mu.Unlock()
	st.ByFanout, st.ByClass = summaries(byFanout), summaries(byClass)
	return st
}

// Series calls emit with the /metrics series and value of every service
// counter.
func (st ServiceStats) Series(emit func(name string, v uint64)) {
	series(&st, serviceCounters[:], emit)
}

// copyKeyed copies m's histograms, to be read outside the lock guarding m.
func copyKeyed[K comparable](m map[K]*Hist) map[K]Hist {
	out := make(map[K]Hist, len(m))
	for k, h := range m {
		out[k] = *h
	}
	return out
}

// summaries condenses each histogram: Count, Mean and Max exact, the
// percentiles within one bucket.
func summaries[K comparable](hists map[K]Hist) map[K]LatencySummary {
	out := make(map[K]LatencySummary, len(hists))
	for k, h := range hists {
		out[k] = LatencySummary{
			Count: int(h.Count),
			Mean:  h.Mean(),
			P50:   h.Quantile(0.5),
			P95:   h.Quantile(0.95),
			P99:   h.Quantile(0.99),
			Max:   h.Max,
		}
	}
	return out
}

// String renders the snapshot with one latency row per fan-out.
func (st ServiceStats) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "requests=%d casts=%d replies=%d redirects=%d retries=%d duplicates=%d failures=%d",
		st.Requests, st.Casts, st.Replies, st.Redirects, st.Retries, st.Duplicates, st.Failures)
	if st.StaleReads > 0 || st.LeaseDenied > 0 || st.CertVerifies > 0 || st.CertFailures > 0 {
		fmt.Fprintf(&b, "\n  read tier: stale-reads=%d lease-denied=%d cert-ok=%d cert-bad=%d",
			st.StaleReads, st.LeaseDenied, st.CertVerifies, st.CertFailures)
	}
	fanouts := make([]int, 0, len(st.ByFanout))
	for f := range st.ByFanout {
		fanouts = append(fanouts, f)
	}
	sort.Ints(fanouts)
	for _, f := range fanouts {
		ls := st.ByFanout[f]
		fmt.Fprintf(&b, "\n  fan-out %d: n=%-5d mean=%-10v p50=%-10v p95=%-10v p99=%-10v max=%v",
			f, ls.Count, ls.Mean.Round(time.Microsecond), ls.P50.Round(time.Microsecond),
			ls.P95.Round(time.Microsecond), ls.P99.Round(time.Microsecond), ls.Max.Round(time.Microsecond))
	}
	classes := make([]string, 0, len(st.ByClass))
	for c := range st.ByClass {
		classes = append(classes, c)
	}
	sort.Strings(classes)
	for _, c := range classes {
		ls := st.ByClass[c]
		fmt.Fprintf(&b, "\n  %-14s n=%-6d mean=%-10v p50=%-10v p95=%-10v p99=%-10v max=%v (failed %d)",
			c+":", ls.Count, ls.Mean.Round(time.Microsecond), ls.P50.Round(time.Microsecond),
			ls.P95.Round(time.Microsecond), ls.P99.Round(time.Microsecond), ls.Max.Round(time.Microsecond),
			st.ClassFailures[c])
	}
	return b.String()
}

// percentile returns the nearest-rank p-th percentile of sorted samples.
func percentile(sorted []time.Duration, p int) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	rank := (p*len(sorted) + 99) / 100 // ceil(p/100 * n), nearest-rank
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}

// String renders a compact human-readable summary.
func (st Stats) String() string {
	protos := make([]string, 0, len(st.PerProtocol))
	for name := range st.PerProtocol {
		protos = append(protos, name)
	}
	sort.Strings(protos)
	s := fmt.Sprintf("msgs=%d inter-group=%d consensus=%d cast=%d delivered=%d degree=[%d..%d] mean=%.2f wall(mean=%v p50=%v p95=%v p99=%v max=%v)",
		st.TotalMessages, st.InterGroupMessages, st.ConsensusInstances,
		st.MessagesCast, st.MessagesDelivered,
		st.MinDegree, st.MaxDegree, st.MeanDegree,
		st.MeanWallLatency, st.P50Wall, st.P95Wall, st.P99Wall, st.MaxWallLatency)
	if st.BatchesDecided > 0 {
		s += fmt.Sprintf("\n  batches=%d batched-msgs=%d mean-batch=%.2f max-batch=%d throughput=%.1f msg/s ordered/learn=%.3f",
			st.BatchesDecided, st.BatchedMessages, st.MeanBatchSize, st.MaxBatchSize,
			st.ThroughputPerSec, st.OrderedPerLearn)
	}
	if st.Wire.BytesOut > 0 || st.Wire.BytesIn > 0 {
		s += fmt.Sprintf("\n  wire: out=%dB in=%dB frames-out=%d envelopes-out=%d frames/write=%.2f",
			st.Wire.BytesOut, st.Wire.BytesIn, st.Wire.FramesOut, st.Wire.EnvelopesOut,
			st.Wire.FramesPerEnvelope())
		if ratio := st.Wire.CompressionRatio(); ratio > 0 {
			s += fmt.Sprintf(" compression=%.2fx (%dB->%dB)",
				ratio, st.Wire.RawPayloadOut, st.Wire.CompressedPayloadOut)
		}
	}
	if st.Suspicions > 0 || st.TrustRestorations > 0 || st.LeaderChanges > 0 {
		s += fmt.Sprintf("\n  fd: suspicions=%d trust-restored=%d leader-changes=%d",
			st.Suspicions, st.TrustRestorations, st.LeaderChanges)
		groups := make([]types.GroupID, 0, len(st.PerGroupFD))
		for g := range st.PerGroupFD {
			groups = append(groups, g)
		}
		sort.Slice(groups, func(i, j int) bool { return groups[i] < groups[j] })
		for _, g := range groups {
			fc := st.PerGroupFD[g]
			s += fmt.Sprintf("\n    g%d: suspicions=%d trust-restored=%d leader-changes=%d",
				int(g), fc.Suspicions, fc.TrustRestorations, fc.LeaderChanges)
		}
	}
	for _, name := range protos {
		pc := st.PerProtocol[name]
		s += fmt.Sprintf("\n  %-14s total=%-6d inter-group=%d", name, pc.Total, pc.InterGroup)
	}
	return s
}
