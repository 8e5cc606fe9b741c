package wanamcast

// Live-cluster coverage for the observability PR: the flight recorder
// dumps parseable JSONL the moment the §2.2 checker sees a violation, the
// introspection plane serves /metrics and /spans while a workload is in
// flight, and end-to-end tracing stays cheap enough that a traced run
// sustains at least 90% of an untraced run's ordered/s.

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"wanamcast/internal/harness"
)

// pushLoad casts n A1 multicasts to both groups round-robin across
// processes and blocks until every copy is delivered. Returns ordered/s.
func pushLoad(t *testing.T, l *LiveCluster, n int) float64 {
	t.Helper()
	topo := l.Topology()
	begin := time.Now()
	ids := make([]MessageID, 0, n)
	for i := 0; i < n; i++ {
		from := l.Process(GroupID(i%2), i%3)
		ids = append(ids, l.Multicast(from, fmt.Sprintf("m-%d", i), 0, 1))
	}
	for _, id := range ids {
		if !l.WaitDelivered(id, topo.N(), 30*time.Second) {
			t.Fatalf("%v delivered by %d of %d", id, l.DeliveredCount(id), topo.N())
		}
	}
	return float64(n) / time.Since(begin).Seconds()
}

// TestFlightDumpOnViolation injects a forged delivery into the live
// checker and verifies CheckProperties trips the flight recorder: the
// dump file exists, parses line-by-line as JSON, and holds real spans.
func TestFlightDumpOnViolation(t *testing.T) {
	dump := filepath.Join(t.TempDir(), "flight.jsonl")
	l := NewLiveCluster(LiveConfig{
		Groups:     2,
		PerGroup:   3,
		BasePort:   23100,
		WANDelay:   2 * time.Millisecond,
		MaxBatch:   16,
		Pipeline:   2,
		Check:      true,
		TraceSpans: true,
		SpanBuf:    2048, // per lane, and a lane hosts a whole group: room for all 20 casts' spans
		FlightDump: dump,
	})
	if err := l.Start(); err != nil {
		t.Fatal(err)
	}
	defer l.Stop()

	pushLoad(t, l, 20)
	if v := l.CheckProperties(); len(v) != 0 {
		t.Fatalf("clean run reports violations: %v", v)
	}
	if _, err := os.Stat(dump); !os.IsNotExist(err) {
		t.Fatalf("flight recorder fired without a violation (stat err=%v)", err)
	}

	// Forge a delivery of a message that was never cast: uniform
	// integrity fails and the recorder must dump the retained spans.
	l.mu.Lock()
	l.checker.RecordDeliver(l.Topology().AllProcesses()[0], MessageID{Origin: 99, Seq: 999})
	l.mu.Unlock()
	if v := l.CheckProperties(); len(v) == 0 {
		t.Fatal("injected violation not detected")
	}

	f, err := os.Open(dump)
	if err != nil {
		t.Fatalf("flight dump missing after violation: %v", err)
	}
	defer f.Close()
	stages := map[string]int{}
	sc := bufio.NewScanner(f)
	lines := 0
	for sc.Scan() {
		var ev struct {
			Span  uint64 `json:"span"`
			Stage string `json:"stage"`
			At    int64  `json:"at_ns"`
		}
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("unparseable JSONL line %d: %q: %v", lines+1, sc.Text(), err)
		}
		if ev.Stage == "" || ev.At == 0 {
			t.Fatalf("span on line %d lacks stage/timestamp: %q", lines+1, sc.Text())
		}
		stages[ev.Stage]++
		lines++
	}
	if lines == 0 {
		t.Fatal("flight dump is empty")
	}
	for _, want := range []string{"cast", "deliver"} {
		if stages[want] == 0 {
			t.Fatalf("dump holds no %q spans (stages: %v)", want, stages)
		}
	}
	t.Logf("flight dump: %d spans across stages %v", lines, stages)
}

// TestTelemetryServesUnderLoad mounts the introspection plane on a traced
// live cluster and scrapes /metrics, /spans, and /healthz while a
// workload is in flight.
func TestTelemetryServesUnderLoad(t *testing.T) {
	l := NewLiveCluster(LiveConfig{
		Groups:     2,
		PerGroup:   3,
		BasePort:   23200,
		WANDelay:   2 * time.Millisecond,
		MaxBatch:   16,
		Pipeline:   2,
		TraceSpans: true,
		SpanBuf:    512,
	})
	if err := l.Start(); err != nil {
		t.Fatal(err)
	}
	defer l.Stop()

	srv, err := harness.ServeTelemetry("127.0.0.1:0", l.TelemetrySource("test", nil))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	done := make(chan struct{})
	go func() {
		defer close(done)
		pushLoad(t, l, 60)
	}()

	get := func(path string) (int, string) {
		resp, err := http.Get("http://" + srv.Addr() + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(body)
	}

	// Scrape repeatedly while the workload runs, then once after.
	deadline := time.After(30 * time.Second)
	for running := true; running; {
		select {
		case <-done:
			running = false
		case <-deadline:
			t.Fatal("workload did not drain within 30s")
		default:
			time.Sleep(10 * time.Millisecond)
		}
		if code, body := get("/metrics"); code != http.StatusOK ||
			!strings.Contains(body, "wanamcast_messages_total") {
			t.Fatalf("/metrics: code %d, body %.200s", code, body)
		}
		if code, _ := get("/healthz"); code != http.StatusOK {
			t.Fatalf("/healthz: code %d", code)
		}
		if code, _ := get("/spans"); code != http.StatusOK {
			t.Fatalf("/spans: code %d", code)
		}
	}

	// After the run the stage histograms must be populated and the span
	// feed must parse as JSONL.
	code, body := get("/metrics")
	if code != http.StatusOK || !strings.Contains(body, "wanamcast_stage_latency_seconds") {
		t.Fatalf("stage histograms missing from /metrics after load (code %d)", code)
	}
	// A1's one-sender rule is on the scrape, and a healthy run — no crash, no
	// suspicion, no full send queue, nothing stalled for a pull period: this
	// one, and the benchmark's lan-sat and wan-mix — re-ships no (TS, m) and
	// pulls none: the rule costs a failure-free run no frame.
	healthy := l.Stats()
	for _, line := range []string{"wanamcast_a1_ts_reshipped_total 0", `wanamcast_a1_ts_pulls_total{served="true"} 0`, `wanamcast_a1_ts_pulls_total{served="false"} 0`} {
		name, _, _ := strings.Cut(line, " ")
		if !strings.Contains(body, name+" ") {
			t.Errorf("/metrics lacks %s", name)
		} else if healthy.Suspicions == 0 && healthy.MaxWallLatency < 300*time.Millisecond && !strings.Contains(body, line+"\n") {
			t.Errorf("/metrics of a healthy run lacks %q (max wall latency %v)", line, healthy.MaxWallLatency)
		}
	}
	code, spans := get("/spans")
	if code != http.StatusOK {
		t.Fatalf("/spans: code %d", code)
	}
	n := 0
	for _, line := range strings.Split(strings.TrimSpace(spans), "\n") {
		if line == "" {
			continue
		}
		var m map[string]any
		if err := json.Unmarshal([]byte(line), &m); err != nil {
			t.Fatalf("/spans line %q is not JSON: %v", line, err)
		}
		n++
	}
	if n == 0 {
		t.Fatal("/spans served no spans after a traced workload")
	}
	t.Logf("/spans served %d spans; /metrics %d bytes", n, len(body))
}

// TestA2RoundTelemetryLive: a paced broadcast stream over real sockets shows
// up where an operator looks — the roundwait/blocked split of A2's order in
// the tracer's stage statistics, and on /metrics the rounds opened on the
// pace and late, the bundle copies sent and dropped as repeats, and the WAN
// emulator's release lateness.
func TestA2RoundTelemetryLive(t *testing.T) {
	l := NewLiveCluster(LiveConfig{
		Groups: 3, PerGroup: 3, BasePort: 23300,
		WANDelay: 5 * time.Millisecond, MaxBatch: 16, Pipeline: 4,
		TraceSpans: true, SpanBuf: 512,
	})
	if err := l.Start(); err != nil {
		t.Fatal(err)
	}
	defer l.Stop()
	var ids []MessageID
	for i := 0; i < 150; i++ {
		ids = append(ids, l.Broadcast(l.Process(GroupID(i%3), i%2), i))
		time.Sleep(2 * time.Millisecond)
	}
	for _, id := range ids {
		if !l.WaitDelivered(id, 9, 30*time.Second) {
			t.Fatalf("%v delivered by %d of 9", id, l.DeliveredCount(id))
		}
	}
	stages := map[string]uint64{}
	for _, s := range l.Tracer().Stats().Snapshot() {
		stages[s.Name] = s.Count
	}
	// A member that R-Delivers a message only after learning the decision
	// that carries it records order alone, so the counts may differ a little.
	if stages["roundwait"] < stages["order"]*9/10 || stages["roundwait"] != stages["blocked"] || stages["blocked"] > stages["order"] {
		t.Errorf("A2's order is not split: %d roundwait, %d blocked, %d order spans", stages["roundwait"], stages["blocked"], stages["order"])
	}
	st := l.Stats()
	if st.RoundsOnPace == 0 || len(st.PerGroupRounds) != 3 {
		t.Errorf("no paced rounds counted: %d on the pace, %d late, per group %v", st.RoundsOnPace, st.RoundsLate, st.PerGroupRounds)
	}
	// Two senders per group ship to six outside processes; a receiver keeps
	// one copy per group and round and drops the other.
	if st.BundleCopiesSent == 0 || st.BundleRepeatsDropped == 0 || st.BundleRepeatsDropped > st.BundleCopiesSent*2/3 {
		t.Errorf("bundle copies: %d sent, %d dropped as repeats", st.BundleCopiesSent, st.BundleRepeatsDropped)
	}
	if h := st.WANReleaseLate; h.Count == 0 || h.Mean() <= 0 {
		t.Errorf("the WAN emulator recorded no release lateness: %+v", h)
	}
	srv, err := harness.ServeTelemetry("127.0.0.1:0", l.TelemetrySource("test", nil))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	resp, err := http.Get("http://" + srv.Addr() + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	for _, want := range []string{
		`wanamcast_a2_rounds_opened_total{group="0",slot="pace"}`, `wanamcast_a2_rounds_opened_total{group="2",slot="late"}`,
		"wanamcast_a2_bundle_copies_sent_total", "wanamcast_a2_bundle_repeats_dropped_total",
		`wanamcast_wan_release_late_seconds_bucket{le="+Inf"}`, "wanamcast_wan_release_late_seconds_sum",
		`wanamcast_stage_latency_seconds{stage="roundwait",quantile="0.5"}`,
	} {
		if !strings.Contains(string(body), want) {
			t.Errorf("/metrics lacks %s", want)
		}
	}
}

// TestTracingOverheadUnderLoad pins the tracer's cost at the acceptance
// bound: a fully traced run must sustain at least 90% of the untraced
// ordered/s on the same workload. Each mode takes its best of two runs so
// scheduler noise doesn't mask the comparison.
func TestTracingOverheadUnderLoad(t *testing.T) {
	if testing.Short() {
		t.Skip("throughput comparison; skipped in -short")
	}
	if raceEnabled {
		t.Skip("wall-clock throughput comparison; skipped under the race detector")
	}
	const casts = 120
	run := func(port int, traced bool) float64 {
		cfg := LiveConfig{
			Groups:   2,
			PerGroup: 3,
			BasePort: port,
			MaxBatch: 64,
			Pipeline: 4,
		}
		if traced {
			cfg.TraceSpans = true
			cfg.SpanBuf = 1024
		}
		l := NewLiveCluster(cfg)
		if err := l.Start(); err != nil {
			t.Fatal(err)
		}
		defer l.Stop()
		return pushLoad(t, l, casts)
	}
	best := func(port int, traced bool) float64 {
		a := run(port, traced)
		b := run(port+100, traced)
		if b > a {
			return b
		}
		return a
	}
	base := best(23300, false)
	traced := best(23500, true)
	if traced < 0.9*base {
		t.Fatalf("traced throughput %.0f/s is below 90%% of untraced %.0f/s (%.1f%%)",
			traced, base, 100*traced/base)
	}
	t.Logf("untraced %.0f/s, traced %.0f/s (%.1f%%)", base, traced, 100*traced/base)
}
