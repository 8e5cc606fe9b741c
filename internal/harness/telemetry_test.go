package harness

import (
	"fmt"
	"maps"
	"os"
	"slices"
	"strings"
	"testing"
	"time"

	"wanamcast/internal/metrics"
	"wanamcast/internal/types"
)

// scrapeValue renders one /metrics scrape and returns the value of name.
func scrapeValue(t *testing.T, src Telemetry, name string) float64 {
	t.Helper()
	var b strings.Builder
	writeMetrics(&b, src)
	for _, line := range strings.Split(b.String(), "\n") {
		if rest, ok := strings.CutPrefix(line, name+" "); ok {
			var v float64
			if _, err := fmt.Sscan(rest, &v); err != nil {
				t.Fatalf("scrape line %q: %v", line, err)
			}
			return v
		}
	}
	t.Fatalf("scrape has no %s line:\n%s", name, b.String())
	return 0
}

// TestScrapeTotalsNeverDecrease: with a cast window (every LiveCluster has
// one) the windowed MessagesCast falls at each trim; the _total counters on
// /metrics must not.
func TestScrapeTotalsNeverDecrease(t *testing.T) {
	col := &metrics.Collector{CastWindow: 4}
	src := Telemetry{Stats: col.Snapshot}
	var lastCast, lastDelivered float64
	for i := 1; i <= 3*2*col.CastWindow; i++ {
		id := types.MessageID{Origin: 0, Seq: uint64(i)}
		col.OnCast(id, 0, 0)
		col.OnDeliver(id, 1, 1, time.Millisecond)
		cast := scrapeValue(t, src, "wanamcast_messages_cast_total")
		delivered := scrapeValue(t, src, "wanamcast_messages_delivered_total")
		if cast < lastCast || delivered < lastDelivered {
			t.Fatalf("after %d casts the exported totals fell: cast %v -> %v, delivered %v -> %v",
				i, lastCast, cast, lastDelivered, delivered)
		}
		lastCast, lastDelivered = cast, delivered
	}
	if want := float64(3 * 2 * col.CastWindow); lastCast != want || lastDelivered != want {
		t.Fatalf("exported totals = %v cast, %v delivered; want %v of each", lastCast, lastDelivered, want)
	}
	if st := col.Snapshot(); st.MessagesCast >= int(lastCast) {
		t.Fatalf("the window never trimmed (MessagesCast %d): the test shows nothing", st.MessagesCast)
	}
}

// TestScrapeCountsReshipsAndPulls: what A1's one-sender rule re-sent on Ω
// changes and what receivers had to ask for reaches /metrics off any
// collector — the simulator's as the live cluster's. A failure-free run
// counts 0 of each (TestOneSenderKeepsDegreeTwo, TestTelemetryServesUnderLoad).
func TestScrapeCountsReshipsAndPulls(t *testing.T) {
	var col metrics.Collector
	src := Telemetry{Stats: col.Snapshot}
	col.Add(metrics.TSReshipped, 3)
	col.Add(metrics.TSPullsServed, 1)
	col.Add(metrics.TSPullsServed, 1)
	col.Add(metrics.TSPullsUnserved, 1)
	for name, want := range map[string]float64{"wanamcast_a1_ts_reshipped_total": 3,
		`wanamcast_a1_ts_pulls_total{served="true"}`: 2, `wanamcast_a1_ts_pulls_total{served="false"}`: 1} {
		if got := scrapeValue(t, src, name); got != want {
			t.Errorf("%s = %v, want %v", name, got, want)
		}
	}
}

// TestScrapeSnapshotsOnce: a scrape takes ONE Stats snapshot — the snapshot
// walks every cast in the window under the lock the lanes record through —
// and hands it to the gauges.
func TestScrapeSnapshotsOnce(t *testing.T) {
	var col metrics.Collector
	col.OnWireFlush(14, 0, 0)
	snapshots := 0
	src := Telemetry{
		Stats: func() metrics.Stats { snapshots++; return col.Snapshot() },
		Gauges: func(st metrics.Stats) map[string]float64 {
			return map[string]float64{"wanamcast_wire_bytes_out_total": float64(st.Wire.BytesOut)}
		},
	}
	if got := scrapeValue(t, src, "wanamcast_wire_bytes_out_total"); got != 14 {
		t.Fatalf("gauge read %v off the scrape's snapshot, want 14", got)
	}
	if snapshots != 1 {
		t.Fatalf("one scrape took %d Stats snapshots, want 1", snapshots)
	}
}

// TestScrapeHistograms: both exported histograms go through writeHist — the
// cumulative buckets never decrease, +Inf equals _count, _sum is the samples'
// sum, and a 270 ms stall (PR 20 measured 60–270 ms ones) lands in a bucket
// that says so rather than in a 6.4 ms catch-all. An empty histogram emits
// nothing.
func TestScrapeHistograms(t *testing.T) {
	var col metrics.Collector
	var late metrics.Hist
	for _, us := range []uint64{0, 0, 150, 900, 270_000} {
		col.OnOwnerProposal(us)
		late.Observe(time.Duration(us) * time.Microsecond)
	}
	src := Telemetry{Stats: func() metrics.Stats {
		st := col.Snapshot()
		st.WANReleaseLate = late
		return st
	}}
	var b strings.Builder
	writeMetrics(&b, src)
	for _, name := range []string{"wanamcast_wan_release_late_seconds", "wanamcast_a1_owner_margin_seconds"} {
		var les []string
		var counts []uint64
		for _, line := range strings.Split(b.String(), "\n") {
			if rest, ok := strings.CutPrefix(line, name+`_bucket{le="`); ok {
				le, n, _ := strings.Cut(rest, `"} `)
				var v uint64
				if _, err := fmt.Sscan(n, &v); err != nil {
					t.Fatalf("scrape line %q: %v", line, err)
				}
				les, counts = append(les, le), append(counts, v)
			}
		}
		if len(les) < 3 || les[len(les)-1] != "+Inf" {
			t.Fatalf("%s: bucket edges %v, want several ending in +Inf", name, les)
		}
		for i := 1; i < len(counts); i++ {
			if counts[i] < counts[i-1] {
				t.Errorf("%s: cumulative buckets decrease: %v", name, counts)
			}
		}
		if count := scrapeValue(t, src, name+"_count"); float64(counts[len(counts)-1]) != count || count != 5 {
			t.Errorf("%s: +Inf bucket %d, _count %v, want 5 and 5", name, counts[len(counts)-1], count)
		}
		if sum := scrapeValue(t, src, name+"_sum"); sum != 0.27105 {
			t.Errorf("%s: _sum %v, want 0.27105", name, sum)
		}
		// The last finite bucket is the one the 270 ms sample lands in.
		var top, below float64
		fmt.Sscan(les[len(les)-2], &top)
		fmt.Sscan(les[len(les)-3], &below)
		if top < 0.27 || below >= 0.27 || counts[len(counts)-2] != 5 || counts[len(counts)-3] != 4 {
			t.Errorf("%s: the 270 ms sample is not told apart: edges %v counts %v", name, les, counts)
		}
	}
	b.Reset()
	writeMetrics(&b, Telemetry{Stats: (&metrics.Collector{}).Snapshot})
	if strings.Contains(b.String(), "_bucket") {
		t.Errorf("empty histograms were exported:\n%s", b.String())
	}
}

// TestMetricsGolden: a Collector and a Service holding a distinct non-zero
// value in every counter, over two groups, render the /metrics lines of
// testdata/metrics.golden — recorded before the counters became table rows,
// with the live cluster's wire totals then among its gauges — plus the five
// service counters the scrape did not export then. The lines are compared as
// a sorted set: the scrape's order is not part of the format.
func TestMetricsGolden(t *testing.T) {
	var col metrics.Collector
	var svc metrics.Service
	times := func(n int, f func(i int)) {
		for i := range n {
			f(i)
		}
	}
	times(20, func(i int) { col.OnSend("a1", 0, 1, i < 13, time.Duration(i)) })
	times(9, func(i int) {
		id := types.MessageID{Origin: 1, Seq: uint64(i + 1)}
		col.OnCast(id, int64(i), time.Duration(i)*time.Millisecond)
		if i < 8 {
			col.OnDeliver(id, 2, int64(i+1+i%3), time.Duration(i+5+i%4)*time.Millisecond)
		}
	})
	col.Add(metrics.ConsensusInstances, 11)
	col.Add(metrics.LearnFetches, 12)
	times(14, func(i int) { col.OnBatchDecided(i % 5) })
	col.Add(metrics.BundleCopiesSent, 15)
	col.Add(metrics.BundleRepeatsDropped, 16)
	col.Add(metrics.TSReshipped, 17)
	col.Add(metrics.TSPullsServed, 18)
	col.Add(metrics.TSPullsUnserved, 19)
	times(21, func(i int) { col.OnOwnerProposal(uint64(100 * (i + 1))) })
	times(22, func(int) { col.OnOwnerProposal(0) })
	col.OnOwnerLead(0, 1, 21500)
	col.OnOwnerLead(1, 0, 20700)
	times(23, func(i int) { col.OnWireSend(byte(i%3), 40+i) })
	times(24, func(i int) { col.OnWireRecv(byte(i%3), 30+i) })
	times(25, func(i int) {
		if i%2 == 0 {
			col.OnWireFlush(100+i, 300+i, 90+i)
		} else {
			col.OnWireFlush(100+i, 0, 0)
		}
	})
	times(26, func(i int) { col.Add(metrics.WireBytesIn, 200+i) })
	for g, base := range []int{27, 31} {
		col.AddGroup(types.GroupID(g), metrics.Suspicions, base)
		col.AddGroup(types.GroupID(g), metrics.TrustRestorations, base+1)
		col.AddGroup(types.GroupID(g), metrics.LeaderChanges, base+2)
	}
	for g, base := range []int{34, 36} {
		col.AddGroup(types.GroupID(g), metrics.RoundsOnPace, base)
		col.AddGroup(types.GroupID(g), metrics.RoundsLate, base+1)
	}
	times(41, func(int) { svc.RecordRequest() })
	times(42, func(int) { svc.RecordReply() })
	times(43, func(int) { svc.RecordRedirect() })
	times(44, func(int) { svc.RecordRetry() })
	times(45, func(int) { svc.RecordDuplicate() })
	times(50, func(i int) { svc.RecordOutcome(1+i%2, time.Duration(i)*time.Millisecond, i >= 47) })
	times(48, func(int) { svc.RecordStaleRead() })
	times(49, func(int) { svc.RecordLeaseDenied() })
	times(53, func(int) { svc.RecordReplyWrite() })
	times(54, func(int) { svc.RecordCast() })
	src := Telemetry{
		Stats:   col.Snapshot,
		Service: svc.Snapshot,
		Gauges: func(st metrics.Stats) map[string]float64 { // the live cluster's wire gauges
			return map[string]float64{
				"wanamcast_wire_compression_ratio": st.Wire.CompressionRatio(),
				"wanamcast_wire_frames_per_write":  st.Wire.FramesPerEnvelope(),
			}
		},
	}
	var b strings.Builder
	writeMetrics(&b, src)
	added := map[string]bool{
		"wanamcast_retries_total 44": true, "wanamcast_failures_total 47": true, "wanamcast_ops_total 50": true,
	}
	var got []string
	for _, line := range strings.Split(strings.TrimSpace(b.String()), "\n") {
		switch {
		case strings.HasPrefix(line, "wanamcast_scrape_time_seconds "):
		case added[line]:
			delete(added, line)
		default:
			got = append(got, line)
		}
	}
	if len(added) > 0 {
		t.Errorf("the scrape lacks the service counters %v", slices.Sorted(maps.Keys(added)))
	}
	slices.Sort(got)
	want, err := os.ReadFile("testdata/metrics.golden")
	if err != nil {
		t.Fatal(err)
	}
	if g := strings.Join(got, "\n") + "\n"; g != string(want) {
		t.Errorf("/metrics lines differ from testdata/metrics.golden:\n got:\n%s\nwant:\n%s", g, want)
	}
}
