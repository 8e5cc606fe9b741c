package harness

import (
	"fmt"
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
	col.OnTSReship(3)
	col.OnTSPull(true)
	col.OnTSPull(true)
	col.OnTSPull(false)
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
