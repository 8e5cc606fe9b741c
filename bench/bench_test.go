package main

import (
	"bytes"
	"math"
	"os"
	"reflect"
	"testing"
	"time"

	"wanamcast/internal/types"
)

func TestTailRankKeepsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n, rank int
		pct     float64
	}{
		{0, 0, 0},
		{2000, 1980, 99},   // p99 has 20 beyond: reported as is
		{1000, 990, 99},    // exactly ten beyond
		{999, 989, 98.999}, // p99 would leave nine: one rank down
		{500, 490, 98},
		{25, 15, 60},
		{15, 8, 53.333}, // never below the median
		{1, 1, 100},
	} {
		rank, pct := tailRank(c.n)
		if rank != c.rank || math.Abs(pct-c.pct) > 0.01 {
			t.Errorf("tailRank(%d) = rank %d (p%.3f), want rank %d (p%.3f)", c.n, rank, pct, c.rank, c.pct)
		}
	}
	d := make(dist, 500)
	for i := range d {
		d[i] = float64(i + 1)
	}
	if v, pct := d.tail(); v != 490 || pct != 98 {
		t.Errorf("tail of 1..500 = %v at p%v, want 490 at p98", v, pct)
	}
	if got := d.p50(); got != 250 {
		t.Errorf("p50 of 1..500 = %v, want 250", got)
	}
}

// The driver computes spreads with Python's statistics.quantiles(n=4).
func TestQuartilesMatchPython(t *testing.T) {
	xs := []float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}
	q1, q2, q3 := quartiles(xs)
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
	if got := spread(xs); math.Abs(got-1) > 1e-12 {
		t.Errorf("spread(1..10) = %v, want 1", got)
	}
	q1, q2, q3 = quartiles([]float64{3, 1, 2})
	if q1 != 1 || q2 != 2 || q3 != 3 {
		t.Errorf("quartiles(1,2,3) = %v %v %v, want 1 2 3", q1, q2, q3)
	}
}

func TestSeedFixesScheduleAndDestinations(t *testing.T) {
	topo := types.NewTopology(groups, perGroup)
	a := openSchedule(topo, 7, 400, 2*time.Second)
	b := openSchedule(topo, 7, 400, 2*time.Second)
	if len(a) < 600 || len(a) > 1000 {
		t.Fatalf("400/s over 2 s gave %d arrivals", len(a))
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("the same seed gave two different schedules")
	}
	if c := openSchedule(topo, 8, 400, 2*time.Second); reflect.DeepEqual(a, c) {
		t.Fatal("two seeds gave the same schedule")
	}
	fanout := make(map[int]int)
	for i, op := range a {
		if i > 0 && op.due < a[i-1].due {
			t.Fatalf("arrival %d is due before arrival %d", i, i-1)
		}
		if !op.dest.Contains(types.GroupID(op.conn)) {
			t.Fatalf("op %d on connection %d does not address its home shard: %v", i, op.conn, op.dest)
		}
		fanout[op.dest.Size()]++
	}
	// The §1 mix: 60 % one shard, 30 % two, 10 % all three.
	for size, want := range map[int]float64{1: 0.6, 2: 0.3, 3: 0.1} {
		if got := float64(fanout[size]) / float64(len(a)); math.Abs(got-want) > 0.06 {
			t.Errorf("%.2f of ops address %d shards, want about %.2f", got, size, want)
		}
	}
	if x, y := broadcastSchedule(7, 200, time.Second), broadcastSchedule(7, 200, time.Second); !reflect.DeepEqual(x, y) {
		t.Fatal("the same seed gave two different broadcast schedules")
	}
}

func TestSessionTableBookkeeping(t *testing.T) {
	tab := sessionTable{base: 1_000_000}
	a, b := tab.acquire(), tab.acquire()
	if a == b || tab.inflight != 2 || tab.maxIn != 2 {
		t.Fatalf("two acquires gave slots %d and %d, inflight %d, max %d", a, b, tab.inflight, tab.maxIn)
	}
	tab.slots[a].seq = 5
	tab.slots[b].op.read = true
	tab.slots[b].rseq = 9

	if i, ok := tab.lookup(tab.session(a), 5, false); !ok || i != a {
		t.Errorf("write reply (seq 5) did not find slot %d: %d %v", a, i, ok)
	}
	if _, ok := tab.lookup(tab.session(a), 4, false); ok {
		t.Error("a reply with an old sequence number was accepted")
	}
	if _, ok := tab.lookup(tab.session(a), 5, true); ok {
		t.Error("a read response was matched to an outstanding write")
	}
	if i, ok := tab.lookup(tab.session(b), 9, true); !ok || i != b {
		t.Errorf("read response (seq 9) did not find slot %d: %d %v", b, i, ok)
	}
	for _, session := range []uint64{0, tab.base, tab.base + 3, 2_000_001} {
		if _, ok := tab.lookup(session, 5, false); ok {
			t.Errorf("session %d is not one of this table's, yet its reply was accepted", session)
		}
	}

	tab.release(a)
	if _, ok := tab.lookup(tab.session(a), 5, false); ok {
		t.Error("a second reply for a finished command was accepted")
	}
	if c := tab.acquire(); c != a {
		t.Errorf("an idle session was not reused: got slot %d, want %d", c, a)
	}
	if tab.slots[a].seq != 5 {
		t.Error("a reused session lost its sequence number")
	}
	if tab.acquire() != 2 || tab.maxIn != 3 || len(tab.slots) != 3 {
		t.Errorf("a third outstanding command should open a third session: %+v", tab)
	}
}

func TestFloorSubtractionAndPopulations(t *testing.T) {
	const wan = 20 * time.Millisecond
	if floorOf(opWrite, 1, wan) != 0 || floorOf(opRead, 1, wan) != 0 {
		t.Error("a single-shard op never crosses the WAN: its floor is 0")
	}
	if floorOf(opWrite, 2, wan) != 2*wan || floorOf(opWrite, 3, wan) != 2*wan {
		t.Error("a multi-shard write's floor is 2 × WAN (A1, latency degree 2)")
	}
	if floorOf(opBcast, 3, wan) != wan {
		t.Error("a warm broadcast's floor is 1 × WAN (A2, latency degree 1)")
	}

	mk := func(kind opKind, fanout uint8, lat time.Duration) sample {
		return sample{lat: lat, floor: floorOf(kind, fanout, wan), fanout: fanout, kind: kind, ok: true}
	}
	r := &run{steady: time.Second, window: time.Second, w: workloads[0], setups: []time.Duration{time.Second}}
	r.main.sent = 5
	r.proc.mallocs = 8
	r.main.samples = []sample{
		mk(opWrite, 1, 1*time.Millisecond),
		mk(opWrite, 2, 43*time.Millisecond),
		mk(opWrite, 3, 45*time.Millisecond),
		mk(opWrite, 2, 47*time.Millisecond),
		{lat: time.Second, fanout: 2, kind: opWrite, ok: false}, // failed: no latency
	}
	if d := newDist(r.latencies(isMulti, true, r.window)); !reflect.DeepEqual([]float64(d), []float64{3, 5, 7}) {
		t.Errorf("multi over floor = %v, want [3 5 7] ms", d)
	}
	gated, named := r.endToEndValues()
	for _, def := range endToEnd {
		if v, ok := gated[def.name]; !ok || v.v == 0 {
			t.Errorf("gated metric %s = %v (set: %v): the driver wants every one, and never 0", def.name, v.v, ok)
		}
	}
	if got := gated["op_mean_ms"].v; got != 34 {
		t.Errorf("op_mean_ms = %v, want 34: the mean of all answered ops, floors left in", got)
	}
	if got := named["multi_over_floor_ms"].v; got != 5 {
		t.Errorf("multi_over_floor_ms = %v, want 5", got)
	}
	if got := named["fail_ratio"].v; got != 0.2 {
		t.Errorf("fail_ratio = %v, want 0.2", got)
	}
	// A workload says nothing about ops it does not have.
	for _, name := range []string{"read_p99_ms", "bcast_over_floor_ms", "bcast_p99_ms", "unavail_ms", "catchup_ms", "events_per_s"} {
		if v, ok := named[name]; ok {
			t.Errorf("%s = %v on a workload with no such ops", name, v.v)
		}
	}
	// The metrics about one kind of op count only ops due in the steady
	// window; the gated ones count the whole window.
	r.steady = time.Millisecond
	r.main.samples[1].due = 2 * time.Millisecond
	gated, named = r.endToEndValues()
	if got := named["multi_over_floor_ms"].v; got != 5 || gated["op_mean_ms"].v != 34 {
		t.Errorf("multi_over_floor_ms = %v and op_mean_ms = %v, want 5 (of [5 7]) and 34", got, gated["op_mean_ms"].v)
	}
}

func TestLateGeneratorInvalidatesOpenLoopRun(t *testing.T) {
	r := &run{w: workloads[0]} // wan-mix: open loop
	for i := 0; i < 1000; i++ {
		s := sample{ok: true, late: 100 * time.Microsecond}
		if i < 15 { // 1.5 % of the sends left 3 ms late
			s.late = 3 * time.Millisecond
		}
		r.main.samples = append(r.main.samples, s)
	}
	if r.generatorInvalid() == "" {
		t.Error("a generator 3 ms late at p99 was accepted")
	}
	for i := 5; i < 15; i++ {
		r.main.samples[i].late = 100 * time.Microsecond
	}
	if why := r.generatorInvalid(); why != "" {
		t.Errorf("a generator late on 0.5 %% of its sends was rejected: %s", why)
	}
	r.w = workloads[1] // lan-sat: a closed loop has no schedule to be late on
	r.main.samples[0].late = time.Second
	if why := r.generatorInvalid(); why != "" {
		t.Errorf("a closed-loop run was rejected: %s", why)
	}
}

func TestContractFileMatchesBinary(t *testing.T) {
	onDisk, err := os.ReadFile(contractPath)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(onDisk, contractJSON()) {
		t.Error("BENCHMARK.json differs from what spec.go defines: regenerate it with `go run -C bench . -contract > BENCHMARK.json`")
	}
	seen := make(map[string]bool)
	for _, def := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if seen[def.name] {
			t.Errorf("metric %s is defined twice", def.name)
		}
		seen[def.name] = true
	}
}

func TestDriverCertificateVerifies(t *testing.T) {
	keys, cert, members := driverCertificate()
	if err := keys.VerifyCertificate(cert, members); err != nil {
		t.Fatalf("the cert_verify driver's certificate no longer verifies (has svc's receipt layout changed?): %v", err)
	}
}

// TestSmoke runs every workload end to end with one-second windows. It
// opens sockets and takes half a minute, so tier-1 skips it.
func TestSmoke(t *testing.T) {
	if os.Getenv("WANBENCH_SMOKE") != "1" {
		t.Skip("set WANBENCH_SMOKE=1 to run every workload with 1 s windows")
	}
	for _, w := range workloads {
		for _, layers := range []bool{false, true} {
			res, err := measure(w, 1, time.Second, layers)
			if err != nil {
				t.Fatalf("%s (layers %v): %v", w.name, layers, err)
			}
			if !res.Correct {
				t.Errorf("%s (layers %v): %v", w.name, layers, res.Problems)
			}
			line := res.driverLine()
			want := endToEnd
			if layers {
				want = perLayer
			}
			for _, def := range want {
				if _, ok := line.Metrics[def.name]; !ok {
					t.Errorf("%s (layers %v) did not report %s", w.name, layers, def.name)
				}
			}
			if len(line.Metrics) != len(want) {
				t.Errorf("%s (layers %v) reported %d metrics, want %d", w.name, layers, len(line.Metrics), len(want))
			}
		}
	}
}
