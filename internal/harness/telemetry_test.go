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
