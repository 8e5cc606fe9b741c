package harness

import (
	"flag"
	"fmt"
	"io"
	"maps"
	"net"
	"net/http"
	"slices"
	"sort"
	"strconv"
	"time"

	"wanamcast/internal/metrics"
	"wanamcast/internal/types"
)

// Telemetry supplies the live introspection plane's data as closures, so
// the plane serves any host — LiveCluster-backed commands or tests —
// without this package importing them. Every field but Stats is optional: a
// nil closure simply omits its section.
type Telemetry struct {
	// Cmd names the serving command on the index page.
	Cmd string
	// Stats returns the cluster-wide protocol measurements (required).
	Stats func() metrics.Stats
	// Service returns the service-layer counters (requests, replies,
	// stale reads, lease denials).
	Service func() metrics.ServiceStats
	// Stages returns the per-stage latency histograms of the lifecycle
	// tracer. Nil, or an empty result, means tracing is off.
	Stages func() []metrics.StageSummary
	// Spans writes the recent lifecycle spans as JSONL; nil serves 404 on
	// /spans.
	Spans func(w io.Writer) error
	// Gauges returns extra point-in-time gauges (fsync totals, lane
	// depths, wire totals read off st — the scrape's one Stats snapshot).
	// Keys must be valid Prometheus metric names; they are emitted verbatim.
	Gauges func(st metrics.Stats) map[string]float64
	// Healthy reports process liveness for /healthz; nil means healthy.
	Healthy func() error
}

// TelemetryServer is a running introspection plane; Close releases its
// listener.
type TelemetryServer struct {
	ln  net.Listener
	srv *http.Server
}

// Addr returns the bound address (useful with a ":0" listen address).
func (t *TelemetryServer) Addr() string { return t.ln.Addr().String() }

// Close shuts the plane down. Idempotent.
func (t *TelemetryServer) Close() { _ = t.srv.Close() }

// TelemetryFlag registers -telemetry on fs and returns where its value
// lands: the host:port (":9090", "127.0.0.1:0", ...; an empty host binds
// all interfaces) the command hands to ServeTelemetry while its cluster
// runs. Giving the flag also sets *traceSpans — the plane's stage
// histograms and /spans are the tracer's output.
func TelemetryFlag(fs *flag.FlagSet, traceSpans *bool) *string {
	addr := new(string)
	fs.Func("telemetry", "serve the introspection plane (/metrics, /spans, /healthz) on this `host:port`; enables lifecycle tracing",
		func(s string) error {
			_, port, err := net.SplitHostPort(s)
			if err != nil {
				return fmt.Errorf("must be host:port")
			}
			if p, err := strconv.Atoi(port); err != nil || p < 0 || p > 65535 {
				return fmt.Errorf("port must be 0..65535: %q", port)
			}
			*addr, *traceSpans = s, true
			return nil
		})
	return addr
}

// ServeTelemetry binds addr and serves the introspection plane on it:
// Prometheus-text metrics on /metrics, the recent span dump (JSONL) on
// /spans, and liveness on /healthz. It returns once the listener is
// bound; serving continues until Close.
func ServeTelemetry(addr string, t Telemetry) (*TelemetryServer, error) {
	if t.Stats == nil {
		return nil, fmt.Errorf("telemetry: Stats source is required")
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("telemetry: listen %s: %w", addr, err)
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/" {
			http.NotFound(w, r)
			return
		}
		fmt.Fprintf(w, "%s telemetry\n\n/metrics  Prometheus text\n/spans    recent lifecycle spans (JSONL)\n/healthz  liveness\n", t.Cmd)
	})
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4")
		writeMetrics(w, t)
	})
	mux.HandleFunc("/spans", func(w http.ResponseWriter, r *http.Request) {
		if t.Spans == nil {
			http.Error(w, "tracing disabled", http.StatusNotFound)
			return
		}
		w.Header().Set("Content-Type", "application/jsonl")
		_ = t.Spans(w)
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		if t.Healthy != nil {
			if err := t.Healthy(); err != nil {
				http.Error(w, err.Error(), http.StatusServiceUnavailable)
				return
			}
		}
		fmt.Fprintln(w, "ok")
	})
	srv := &http.Server{Handler: mux}
	ts := &TelemetryServer{ln: ln, srv: srv}
	go func() { _ = srv.Serve(ln) }()
	return ts, nil
}

// writeHist renders a non-empty Hist as a Prometheus histogram — the one
// function every exported distribution goes through. The le edges are the
// histogram's own power-of-two octaves, so a stall shows at its size.
func writeHist(w io.Writer, name string, h metrics.Hist) {
	if h.Count == 0 {
		return
	}
	for le, cum := range h.Octaves {
		fmt.Fprintf(w, "%s_bucket{le=\"%g\"} %d\n", name, le.Seconds(), cum)
	}
	fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n%s_sum %g\n%s_count %d\n", name, h.Count, name, h.Sum.Seconds(), name, h.Count)
}

// writeMetrics renders one Prometheus-text scrape. Counters come from the
// sources' snapshots, so a scrape is consistent within each section but
// not across sections — fine for monitoring, which is all this is for.
func writeMetrics(w io.Writer, t Telemetry) {
	st := t.Stats()
	emit := func(name string, v float64) { fmt.Fprintf(w, "%s %g\n", name, v) }
	emit("wanamcast_messages_total", float64(st.TotalMessages))
	emit("wanamcast_messages_intergroup_total", float64(st.InterGroupMessages))
	emit("wanamcast_consensus_instances_total", float64(st.ConsensusInstances))
	emit("wanamcast_consensus_learn_fetches_total", float64(st.LearnFetches))
	emit("wanamcast_messages_cast_total", float64(st.CastTotal))
	emit("wanamcast_messages_delivered_total", float64(st.DeliveredTotal))
	emit("wanamcast_ordered_per_second", st.ThroughputPerSec)
	emit("wanamcast_batches_decided_total", float64(st.BatchesDecided))
	emit("wanamcast_suspicions_total", float64(st.Suspicions))
	emit("wanamcast_trust_restorations_total", float64(st.TrustRestorations))
	emit("wanamcast_leader_changes_total", float64(st.LeaderChanges))
	// A2's paced rounds: opened on their slot or late (the quiescence
	// predictor's misses), and the bundle copies shipped and thrown away.
	groups := make([]types.GroupID, 0, len(st.PerGroupRounds))
	for g := range st.PerGroupRounds {
		groups = append(groups, g)
	}
	slices.Sort(groups)
	for _, g := range groups {
		rc := st.PerGroupRounds[g]
		fmt.Fprintf(w, "wanamcast_a2_rounds_opened_total{group=\"%d\",slot=\"pace\"} %d\n", g, rc.OnPace)
		fmt.Fprintf(w, "wanamcast_a2_rounds_opened_total{group=\"%d\",slot=\"late\"} %d\n", g, rc.Late)
	}
	emit("wanamcast_a2_bundle_copies_sent_total", float64(st.BundleCopiesSent))
	emit("wanamcast_a2_bundle_repeats_dropped_total", float64(st.BundleRepeatsDropped))
	// A1's one-sender rule: what Ω changes re-sent and what receivers had to ask for.
	emit("wanamcast_a1_ts_reshipped_total", float64(st.TSReshipped))
	emit(`wanamcast_a1_ts_pulls_total{served="true"}`, float64(st.TSPullsServed))
	emit(`wanamcast_a1_ts_pulls_total{served="false"}`, float64(st.TSPullsUnserved))
	// How late the WAN emulator released delayed frames (live runs only).
	writeHist(w, "wanamcast_wan_release_late_seconds", st.WANReleaseLate)
	// A1's owner proposals: was the caster's group's proposal the final
	// timestamp, by how much it fell short, and the lead now in force.
	emit(`wanamcast_a1_owner_proposals_total{outcome="won"}`, float64(st.A1Owner.Margin.Count-st.A1Owner.Lost))
	emit(`wanamcast_a1_owner_proposals_total{outcome="lost"}`, float64(st.A1Owner.Lost))
	writeHist(w, "wanamcast_a1_owner_margin_seconds", st.A1Owner.Margin)
	for _, k := range slices.SortedFunc(maps.Keys(st.A1Owner.LeadUs), func(x, y [2]types.GroupID) int { return slices.Compare(x[:], y[:]) }) {
		fmt.Fprintf(w, "wanamcast_a1_owner_lead_us{from=\"%d\",group=\"%d\"} %d\n", k[0], k[1], st.A1Owner.LeadUs[k])
	}
	// Latency degree Δ per message — the paper's WAN-hop count, measured.
	degrees := make([]int64, 0, len(st.DegreeHist))
	for d := range st.DegreeHist {
		degrees = append(degrees, d)
	}
	sort.Slice(degrees, func(i, j int) bool { return degrees[i] < degrees[j] })
	for _, d := range degrees {
		fmt.Fprintf(w, "wanamcast_latency_degree_total{degree=%q} %d\n",
			strconv.FormatInt(d, 10), st.DegreeHist[d])
	}
	if t.Service != nil {
		sv := t.Service()
		emit("wanamcast_requests_total", float64(sv.Requests))
		emit("wanamcast_replies_total", float64(sv.Replies))
		emit("wanamcast_redirects_total", float64(sv.Redirects))
		emit("wanamcast_duplicates_total", float64(sv.Duplicates))
		emit("wanamcast_stale_reads_total", float64(sv.StaleReads))
		emit("wanamcast_lease_denied_total", float64(sv.LeaseDenied))
	}
	if t.Stages != nil {
		for _, s := range t.Stages() {
			if s.Count == 0 {
				continue
			}
			fmt.Fprintf(w, "wanamcast_stage_latency_seconds{stage=%q,quantile=\"0.5\"} %g\n", s.Name, s.P50.Seconds())
			fmt.Fprintf(w, "wanamcast_stage_latency_seconds{stage=%q,quantile=\"0.99\"} %g\n", s.Name, s.P99.Seconds())
			fmt.Fprintf(w, "wanamcast_stage_latency_seconds_count{stage=%q} %d\n", s.Name, s.Count)
		}
	}
	if t.Gauges != nil {
		gs := t.Gauges(st)
		names := make([]string, 0, len(gs))
		for n := range gs {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			emit(n, gs[n])
		}
	}
	fmt.Fprintf(w, "wanamcast_scrape_time_seconds %g\n", float64(time.Now().UnixNano())/1e9)
}
