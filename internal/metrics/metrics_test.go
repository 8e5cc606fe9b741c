package metrics

import (
	"math"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"wanamcast/internal/types"
)

func id(o, s int) types.MessageID {
	return types.MessageID{Origin: types.ProcessID(o), Seq: uint64(s)}
}

func TestLatencyDegree(t *testing.T) {
	var c Collector
	m := id(0, 1)
	c.OnCast(m, 3, 10*time.Millisecond)
	c.OnDeliver(m, 1, 4, 20*time.Millisecond)
	c.OnDeliver(m, 2, 5, 30*time.Millisecond)
	deg, ok := c.LatencyDegree(m)
	if !ok || deg != 2 {
		t.Fatalf("degree = %d ok=%v, want 2", deg, ok)
	}
	wall, ok := c.WallLatency(m)
	if !ok || wall != 20*time.Millisecond {
		t.Fatalf("wall = %v ok=%v, want 20ms", wall, ok)
	}
}

func TestLatencyDegreeUnknownMessage(t *testing.T) {
	var c Collector
	if _, ok := c.LatencyDegree(id(0, 1)); ok {
		t.Error("unknown message must not report a degree")
	}
	c.OnCast(id(0, 1), 0, 0)
	if _, ok := c.LatencyDegree(id(0, 1)); ok {
		t.Error("undelivered message must not report a degree")
	}
}

func TestDuplicateCastKeepsFirst(t *testing.T) {
	var c Collector
	m := id(0, 1)
	c.OnCast(m, 1, 0)
	c.OnCast(m, 99, 0)
	c.OnDeliver(m, 0, 2, time.Millisecond)
	deg, _ := c.LatencyDegree(m)
	if deg != 1 {
		t.Errorf("duplicate cast overwrote the first: degree %d", deg)
	}
}

func TestDeliverBeforeCastDropped(t *testing.T) {
	var c Collector
	c.OnDeliver(id(0, 1), 0, 5, 0) // no cast recorded
	if st := c.Snapshot(); st.MessagesDelivered != 0 {
		t.Error("delivery without cast must not count")
	}
}

func TestOnSendAccounting(t *testing.T) {
	var c Collector
	c.OnSend("a1", 0, 1, false, 1*time.Millisecond)
	c.OnSend("a1", 0, 3, true, 2*time.Millisecond)
	c.OnSend("cons", 1, 2, false, 3*time.Millisecond)
	st := c.Snapshot()
	if st.TotalMessages != 3 || st.InterGroupMessages != 1 {
		t.Fatalf("total=%d inter=%d", st.TotalMessages, st.InterGroupMessages)
	}
	if pc := st.PerProtocol["a1"]; pc.Total != 2 || pc.InterGroup != 1 {
		t.Errorf("a1 accounting: %+v", pc)
	}
	last, any := c.LastSend()
	if !any || last != 3*time.Millisecond {
		t.Errorf("LastSend = %v any=%v", last, any)
	}
}

func TestLastSendWithNoSends(t *testing.T) {
	var c Collector
	if _, any := c.LastSend(); any {
		t.Error("LastSend must report no sends on a fresh collector")
	}
}

func TestSendLogDisabledByDefault(t *testing.T) {
	var c Collector
	c.OnSend("x", 0, 1, true, 0)
	if len(c.Sends()) != 0 {
		t.Error("send log must be off by default")
	}
	c2 := Collector{LogSends: true}
	c2.OnSend("x", 0, 1, true, 0)
	if len(c2.Sends()) != 1 {
		t.Error("send log must record when enabled")
	}
	s := c2.Sends()[0]
	if s.Proto != "x" || s.From != 0 || s.To != 1 || !s.InterGroup {
		t.Errorf("send record = %+v", s)
	}
}

func TestSnapshotAggregates(t *testing.T) {
	var c Collector
	for i := 0; i < 3; i++ {
		m := id(0, i+1)
		c.OnCast(m, int64(i), time.Duration(i)*time.Millisecond)
		c.OnDeliver(m, 1, int64(i+1+i%2), time.Duration(10+i)*time.Millisecond)
	}
	c.OnCast(id(9, 9), 0, 0) // never delivered
	st := c.Snapshot()
	if st.MessagesCast != 4 || st.MessagesDelivered != 3 {
		t.Fatalf("cast=%d delivered=%d", st.MessagesCast, st.MessagesDelivered)
	}
	if st.MinDegree != 1 || st.MaxDegree != 2 {
		t.Errorf("degree range [%d..%d], want [1..2]", st.MinDegree, st.MaxDegree)
	}
	wantMean := (1.0 + 2.0 + 1.0) / 3.0
	if st.MeanDegree != wantMean {
		t.Errorf("mean degree %f, want %f", st.MeanDegree, wantMean)
	}
}

func TestWallPercentiles(t *testing.T) {
	var c Collector
	// 100 messages with wall latencies 1ms..100ms.
	for i := 1; i <= 100; i++ {
		m := id(0, i)
		c.OnCast(m, 0, 0)
		c.OnDeliver(m, 1, 1, time.Duration(i)*time.Millisecond)
	}
	st := c.Snapshot()
	if st.P50Wall != 50*time.Millisecond {
		t.Errorf("p50 = %v, want 50ms", st.P50Wall)
	}
	if st.P95Wall != 95*time.Millisecond {
		t.Errorf("p95 = %v, want 95ms", st.P95Wall)
	}
	if st.P99Wall != 99*time.Millisecond {
		t.Errorf("p99 = %v, want 99ms", st.P99Wall)
	}
}

func TestWallPercentilesSingleSample(t *testing.T) {
	var c Collector
	m := id(0, 1)
	c.OnCast(m, 0, 0)
	c.OnDeliver(m, 1, 1, 7*time.Millisecond)
	st := c.Snapshot()
	if st.P50Wall != 7*time.Millisecond || st.P99Wall != 7*time.Millisecond {
		t.Errorf("single-sample percentiles: p50=%v p99=%v", st.P50Wall, st.P99Wall)
	}
}

func TestConsensusCounter(t *testing.T) {
	var c Collector
	c.Add(ConsensusInstances, 1)
	c.Add(ConsensusInstances, 1)
	if st := c.Snapshot(); st.ConsensusInstances != 2 {
		t.Errorf("consensus instances = %d", st.ConsensusInstances)
	}
}

// TestCastRecordIsFixedSize: a cast's record keeps its span — the largest
// deliverer clock and the latest delivery, whatever order they arrive in —
// and not one entry per delivery, so recording a delivery allocates nothing
// however many processes deliver.
func TestCastRecordIsFixedSize(t *testing.T) {
	var c Collector
	m := id(1, 1)
	c.OnCast(m, 2, time.Millisecond)
	c.OnDeliver(m, 2, 9, 5*time.Millisecond)
	c.OnDeliver(m, 3, 4, 8*time.Millisecond)
	c.OnDeliver(m, 4, 6, 3*time.Millisecond)
	if deg, ok := c.LatencyDegree(m); !ok || deg != 7 {
		t.Errorf("degree = %d ok=%v, want 7", deg, ok)
	}
	if wall, ok := c.WallLatency(m); !ok || wall != 7*time.Millisecond {
		t.Errorf("wall = %v ok=%v, want 7ms", wall, ok)
	}
	if _, ok := c.LatencyDegree(id(8, 8)); ok {
		t.Error("an unknown message has no degree")
	}
	seq := 1
	if n := testing.AllocsPerRun(100, func() {
		seq++
		c.OnCast(id(1, seq), 0, 0)
		for p := range 1000 {
			c.OnDeliver(id(1, seq), types.ProcessID(p), int64(p), time.Duration(p))
		}
	}); n >= 1 {
		t.Errorf("a cast delivered 1000 times costs %.0f allocations, want its share of the map's growth only", n)
	}
}

// TestDeliveredCountsUntilEvicted: Delivered counts every recorded
// A-Deliver of a cast until CastWindow evicts its record, and 0 for a cast
// it never recorded.
func TestDeliveredCountsUntilEvicted(t *testing.T) {
	c := Collector{CastWindow: 2}
	m := id(1, 1)
	c.OnCast(m, 0, 0)
	c.OnDeliver(m, 0, 1, 0)
	c.OnDeliver(m, 1, 1, 0)
	if n := c.Delivered(m); n != 2 {
		t.Fatalf("Delivered = %d after two deliveries, want 2", n)
	}
	if n := c.Delivered(id(9, 9)); n != 0 {
		t.Fatalf("Delivered = %d for a message never cast, want 0", n)
	}
	for seq := 2; seq <= 5; seq++ {
		c.OnCast(id(1, seq), 0, 0)
	}
	if n := c.Delivered(m); n != 0 {
		t.Fatalf("Delivered = %d past twice the window, want 0 (evicted)", n)
	}
}

func TestStatsString(t *testing.T) {
	var c Collector
	c.OnSend("a1", 0, 1, true, 0)
	m := id(0, 1)
	c.OnCast(m, 0, 0)
	c.OnDeliver(m, 1, 2, time.Millisecond)
	s := c.Snapshot().String()
	for _, frag := range []string{"msgs=1", "inter-group=1", "a1", "degree=[2..2]"} {
		if !strings.Contains(s, frag) {
			t.Errorf("Stats.String() missing %q in %q", frag, s)
		}
	}
}

func TestServiceStats(t *testing.T) {
	var s Service
	s.RecordRequest()
	s.RecordRequest()
	s.RecordReply()
	s.RecordRedirect()
	s.RecordRetry()
	s.RecordDuplicate()
	for i := 1; i <= 100; i++ {
		s.RecordOutcome(1, time.Duration(i)*time.Millisecond, true)
	}
	s.RecordOutcome(2, 5*time.Millisecond, true)
	s.RecordOutcome(3, 7*time.Millisecond, false)
	st := s.Snapshot()
	if st.Requests != 2 || st.Replies != 1 || st.Redirects != 1 || st.Retries != 1 || st.Duplicates != 1 {
		t.Fatalf("counters wrong: %+v", st)
	}
	if st.Failures != 1 || st.Ops != 102 {
		t.Fatalf("ops/failures wrong: %+v", st)
	}
	one := st.ByFanout[1]
	if one.Count != 100 || one.Mean != 50500*time.Microsecond || one.Max != 100*time.Millisecond ||
		(one.P50-50*time.Millisecond).Abs() > widthAt(50*time.Millisecond) ||
		(one.P95-95*time.Millisecond).Abs() > widthAt(95*time.Millisecond) ||
		(one.P99-99*time.Millisecond).Abs() > widthAt(99*time.Millisecond) {
		t.Fatalf("fan-out 1 summary wrong (count, mean, max exact; percentiles within one bucket): %+v", one)
	}
	if st.ByFanout[2].Count != 1 {
		t.Fatalf("fan-out 2 summary wrong: %+v", st.ByFanout[2])
	}
	if _, ok := st.ByFanout[3]; ok {
		t.Fatal("failed ops must not contribute latency samples")
	}
	for _, frag := range []string{"requests=2", "fan-out 1", "fan-out 2", "duplicates=1"} {
		if !strings.Contains(st.String(), frag) {
			t.Errorf("ServiceStats.String() missing %q in %q", frag, st.String())
		}
	}
}

func TestServiceStatsConcurrent(t *testing.T) {
	var s Service
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				s.RecordRequest()
				s.RecordOutcome(1, time.Millisecond, true)
			}
		}()
	}
	wg.Wait()
	st := s.Snapshot()
	if st.Requests != 800 || st.ByFanout[1].Count != 800 {
		t.Fatalf("concurrent recording lost events: %+v", st)
	}
}

// TestFDCounters: suspicions, trust restorations, and leader changes are
// counted per group and totaled in the snapshot.
func TestFDCounters(t *testing.T) {
	var c Collector
	c.OnSuspect(0, 0)
	c.OnLeaderChange(0, 1)
	c.OnTrustRestored(0, 0)
	c.OnLeaderChange(0, 0)
	c.OnSuspect(1, 4)
	st := c.Snapshot()
	if st.Suspicions != 2 || st.TrustRestorations != 1 || st.LeaderChanges != 2 {
		t.Fatalf("fd totals = %d/%d/%d, want 2/1/2",
			st.Suspicions, st.TrustRestorations, st.LeaderChanges)
	}
	g0 := st.PerGroupFD[0]
	if g0.Suspicions != 1 || g0.TrustRestorations != 1 || g0.LeaderChanges != 2 {
		t.Fatalf("g0 fd counts = %+v", g0)
	}
	if st.PerGroupFD[1].Suspicions != 1 {
		t.Fatalf("g1 fd counts = %+v", st.PerGroupFD[1])
	}
	for _, frag := range []string{"suspicions=2", "trust-restored=1", "leader-changes=2", "g0:", "g1:"} {
		if !strings.Contains(st.String(), frag) {
			t.Errorf("Stats.String() missing %q in %q", frag, st.String())
		}
	}
}

// TestFDCountersAbsentWhenQuiet: a run with no detector events reports
// nothing (no map allocated, no String noise).
func TestFDCountersAbsentWhenQuiet(t *testing.T) {
	var c Collector
	st := c.Snapshot()
	if st.PerGroupFD != nil || st.Suspicions != 0 {
		t.Fatalf("quiet run grew fd stats: %+v", st)
	}
	if strings.Contains(st.String(), "fd:") {
		t.Errorf("quiet Stats.String() mentions fd: %q", st.String())
	}
}

// TestCollectorConcurrent: one Collector takes every kind of event from many
// goroutines while another snapshots it, and loses none (run with -race).
func TestCollectorConcurrent(t *testing.T) {
	const workers, rounds = 8, 200
	c := &Collector{LogSends: true}
	stop := make(chan struct{})
	scraped := make(chan struct{})
	go func() {
		defer close(scraped)
		var last Stats
		for {
			st := c.Snapshot()
			if st.TotalMessages < last.TotalMessages || st.CastTotal < last.CastTotal || st.DeliveredTotal < last.DeliveredTotal {
				t.Errorf("a counter went down between snapshots: %+v then %+v", last, st)
			}
			last = st
			select {
			case <-stop:
				return
			default:
			}
		}
	}()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			g, p := types.GroupID(w%2), types.ProcessID(w)
			for j := 0; j < rounds; j++ {
				m := id(w, j)
				c.OnSend("x", p, p+1, j%2 == 0, time.Duration(j))
				c.OnCast(m, int64(j), time.Duration(j))
				c.OnDeliver(m, p, int64(j+2), time.Duration(j+5))
				c.OnDeliver(m, p+1, int64(j+1), time.Duration(j+3))
				c.Add(ConsensusInstances, 1)
				c.Add(LearnFetches, 1)
				c.OnBatchDecided(j % 4)
				if j%4 == 0 {
					c.AddGroup(g, RoundsLate, 1)
				} else {
					c.AddGroup(g, RoundsOnPace, 1)
				}
				c.Add(BundleCopiesSent, 2)
				c.Add(BundleRepeatsDropped, 1)
				c.OnWireSend(byte(w), 10)
				c.OnWireRecv(byte(w), 10)
				c.OnWireFlush(14, 0, 0)
				c.Add(WireBytesIn, 14)
				c.OnSuspect(g, p)
				c.OnTrustRestored(g, p)
				c.OnLeaderChange(g, p)
				c.LatencyDegree(m)
				c.LastSend()
			}
		}()
	}
	wg.Wait()
	close(stop)
	<-scraped
	const n = workers * rounds
	st := c.Snapshot()
	if st.TotalMessages != n || st.InterGroupMessages != n/2 || st.PerProtocol["x"].Total != n || len(c.Sends()) != n {
		t.Errorf("sends lost: %+v", st)
	}
	if st.MessagesCast != n || st.CastTotal != n || st.MessagesDelivered != n || st.DeliveredTotal != n ||
		st.MinDegree != 2 || st.MaxDegree != 2 || st.DegreeHist[2] != n || st.MaxWallLatency != 5 {
		t.Errorf("casts or deliveries lost: %+v", st)
	}
	if st.ConsensusInstances != n || st.LearnFetches != n || st.BatchesDecided != n || st.BatchedMessages != n/4*6 ||
		st.RoundsOnPace != n/4*3 || st.RoundsLate != n/4 || st.BundleCopiesSent != 2*n || st.BundleRepeatsDropped != n {
		t.Errorf("protocol counters lost: %+v", st)
	}
	if w := st.Wire; w.FramesOut != n || w.FramesIn != n || w.EnvelopesOut != n || w.EnvelopesIn != n ||
		w.BytesOut != 14*n || w.BytesIn != 14*n || w.ByKindOut[3] != 10*rounds || w.ByKindIn[3] != 10*rounds {
		t.Errorf("wire events lost: %+v", w)
	}
	if st.Suspicions != n || st.TrustRestorations != n || st.LeaderChanges != n || st.PerGroupFD[1].Suspicions != n/2 {
		t.Errorf("fd events lost: %+v", st)
	}
}

// TestNilCollectorDiscards: every recording method is a no-op on a nil
// *Collector — how a runtime without a collector, and a process replaying
// its log, record nothing.
func TestNilCollectorDiscards(t *testing.T) {
	var c *Collector
	c.OnSend("x", 0, 1, true, 0)
	c.OnCast(id(0, 1), 0, 0)
	c.OnDeliver(id(0, 1), 1, 1, 0)
	c.Add(ConsensusInstances, 1)
	c.AddGroup(0, RoundsLate, 1)
	c.OnBatchDecided(3)
	c.OnOwnerProposal(5)
	c.OnOwnerLead(0, 1, 5)
	c.OnWireSend(1, 10)
	c.OnWireRecv(1, 10)
	c.OnWireFlush(14, 0, 0)
	c.Add(WireBytesIn, 14)
	c.OnSuspect(0, 1)
	c.OnTrustRestored(0, 1)
	c.OnLeaderChange(0, 1)
}

// TestOwnerProposalSaturates: PR 23's decision rule admits final timestamps
// up to 2^62 µs, which a lying or stepped clock reaches; that many µs do not
// fit a time.Duration. Such a sample is a lost proposal in the top bucket,
// not a wrapped (zero or negative) margin.
func TestOwnerProposalSaturates(t *testing.T) {
	c := &Collector{}
	c.OnOwnerProposal(1 << 62)
	o := c.Snapshot().A1Owner
	if o.Lost != 1 || o.Margin.Count != 1 || o.Margin.buckets[histBuckets-1] != 1 || o.Margin.Sum < 0 {
		t.Fatalf("lost %d, margin count %d sum %v max %v: want one sample in the top bucket and a non-negative sum",
			o.Lost, o.Margin.Count, o.Margin.Sum, o.Margin.Max)
	}
}

// TestOwnerMarginSumSaturates: three saturated margins would wrap Hist.Sum
// negative, and so would adding two nearly full histograms; Sum stops at the
// largest Duration instead, and the mean stays positive.
func TestOwnerMarginSumSaturates(t *testing.T) {
	c := &Collector{}
	for range 3 {
		c.OnOwnerProposal(1 << 62)
	}
	if m := c.Snapshot().A1Owner.Margin; m.Count != 3 || m.Sum != math.MaxInt64 || m.Mean() <= 0 {
		t.Fatalf("three saturated margins: count %d sum %d mean %v, want 3, MaxInt64 and a positive mean", m.Count, m.Sum, m.Mean())
	}
	var a, b Hist
	a.Observe(math.MaxInt64 - 1)
	b.Observe(math.MaxInt64 - 2)
	a.Add(b)
	if a.Count != 2 || a.Sum != math.MaxInt64 || a.Mean() <= 0 {
		t.Fatalf("two near-max histograms added: count %d sum %d mean %v, want 2, MaxInt64 and a positive mean", a.Count, a.Sum, a.Mean())
	}
}

// TestCounterTablesComplete: every uint64 field of Stats (WireStats within
// it), FDCount, RoundCount and ServiceStats is filled by a row of a counter
// table, or is on the list below of fields that are not plain counts. A new
// field therefore cannot miss Snapshot or /metrics silently.
func TestCounterTablesComplete(t *testing.T) {
	notRows := map[string]bool{
		"Stats.WANReleaseLate.Count": true, // a Hist's own sample count
		"Stats.A1Owner.Margin.Count": true,
	}
	var (
		st Stats
		gc groupCounts
		sv ServiceStats
	)
	rows := map[*uint64]bool{}
	for _, r := range counters {
		rows[r.field(&st)] = true
	}
	for _, r := range groupCounters {
		rows[r.field(&gc)], rows[r.total(&st)] = true, true
	}
	for _, r := range serviceCounters {
		rows[r.field(&sv)] = true
	}
	if want := int(numCounters) + 2*int(numGroupCounters) + int(numServiceCounters); len(rows) != want {
		t.Errorf("the tables fill %d distinct fields, want %d: two rows share one", len(rows), want)
	}
	seen := 0
	var walk func(name string, v reflect.Value)
	walk = func(name string, v reflect.Value) {
		for i := range v.NumField() {
			f, sf := v.Field(i), v.Type().Field(i)
			switch path := name + "." + sf.Name; {
			case !sf.IsExported():
			case f.Kind() == reflect.Struct:
				walk(path, f)
			case f.Kind() != reflect.Uint64:
			case notRows[path]:
				seen++
			case !rows[f.Addr().Interface().(*uint64)]:
				t.Errorf("%s is a uint64 in no counter table row and not listed as derived", path)
			}
		}
	}
	walk("Stats", reflect.ValueOf(&st).Elem())
	walk("groupCounts", reflect.ValueOf(&gc).Elem())
	walk("ServiceStats", reflect.ValueOf(&sv).Elem())
	if seen != len(notRows) {
		t.Errorf("%d of the %d listed fields exist: drop the stale names", seen, len(notRows))
	}
}
