package wanamcast

// Satellite of the observability PR: per-message WAN-hop counts derived
// from lifecycle traces ALONE — the StageCast and StageDeliver spans carry
// the §2.3 modified Lamport clocks — must reproduce the paper's latency
// degrees on the deterministic simulator with the strictest knobs
// (MaxBatch=1, Pipeline=1): Δ=2 for a multi-group A1 multicast
// (Theorem 4.1) and Δ=1 for a warm A2 broadcast (Theorem 5.1).

import (
	"testing"
	"time"

	"wanamcast/internal/trace"
)

// attachSimTracer wires a lifecycle tracer into every simulated process,
// one ring lane per process, on the runtime's virtual clock so span
// timestamps are deterministic across runs.
func attachSimTracer(c *Cluster, perLane int) *trace.Tracer {
	topo := c.sys.RT.Topo()
	tr := trace.New(topo.N(), perLane)
	tr.SetEnabled(true)
	tr.SetClock(func() int64 { return int64(c.sys.RT.Now()) })
	for _, id := range topo.AllProcesses() {
		c.sys.RT.Proc(id).SetTracer(tr, int(id))
	}
	return tr
}

// traceDegrees computes Δ(m) per message purely from recorded spans — the
// maximum StageDeliver clock over all deliverers minus the StageCast
// clock — plus each message's deliver-span count.
func traceDegrees(tr *trace.Tracer) (deg map[MessageID]int64, delivers map[MessageID]int) {
	cast := map[MessageID]int64{}
	maxDel := map[MessageID]int64{}
	delivers = map[MessageID]int{}
	for _, ev := range tr.Snapshot() {
		switch ev.Stage {
		case trace.StageCast:
			cast[ev.ID] = ev.Aux
		case trace.StageDeliver:
			delivers[ev.ID]++
			if cur, ok := maxDel[ev.ID]; !ok || ev.Aux > cur {
				maxDel[ev.ID] = ev.Aux
			}
		}
	}
	deg = make(map[MessageID]int64, len(cast))
	for id, at := range cast {
		deg[id] = maxDel[id] - at
	}
	return deg, delivers
}

func TestTraceWanHopsA1(t *testing.T) {
	c := NewCluster(Config{Groups: 2, PerGroup: 3, MaxBatch: 1, Pipeline: 1})
	tr := attachSimTracer(c, 512)
	id := c.Multicast(c.Process(0, 0), "m", 0, 1)
	c.Run()
	if v := c.CheckProperties(); len(v) != 0 {
		t.Fatalf("violations: %v", v)
	}

	deg, delivers := traceDegrees(tr)
	if delivers[id] != 6 {
		t.Fatalf("StageDeliver spans for %v: %d, want one per addressee (6)", id, delivers[id])
	}
	if deg[id] != 2 {
		t.Fatalf("trace-measured Δ = %d, want 2 for a multi-group A1 multicast", deg[id])
	}
	// The trace-derived degree must agree with the collector's.
	if want, ok := c.LatencyDegree(id); !ok || deg[id] != want {
		t.Fatalf("trace Δ %d disagrees with collector Δ %d (ok=%v)", deg[id], want, ok)
	}
}

func TestTraceWanHopsWarmA2(t *testing.T) {
	c := NewCluster(Config{Groups: 2, PerGroup: 3, MaxBatch: 1, Pipeline: 1})
	tr := attachSimTracer(c, 512)
	// Warm every group's rounds, then probe the steady state.
	c.BroadcastAt(0, c.Process(0, 0), "warm0")
	c.BroadcastAt(0, c.Process(1, 0), "warm1")
	var probe MessageID
	c.sys.RT.Scheduler().At(50*time.Millisecond, func() {
		probe = c.Broadcast(c.Process(0, 1), "probe")
	})
	c.Run()
	if v := c.CheckProperties(); len(v) != 0 {
		t.Fatalf("violations: %v", v)
	}

	deg, delivers := traceDegrees(tr)
	if delivers[probe] != 6 {
		t.Fatalf("StageDeliver spans for %v: %d, want 6", probe, delivers[probe])
	}
	if deg[probe] != 1 {
		t.Fatalf("trace-measured Δ = %d, want 1 for a warm A2 broadcast", deg[probe])
	}
	if want, ok := c.LatencyDegree(probe); !ok || deg[probe] != want {
		t.Fatalf("trace Δ %d disagrees with collector Δ %d (ok=%v)", deg[probe], want, ok)
	}
}

// TestTraceSimDeterminism: the same seed and knobs reproduce the exact
// same span log — the tracer rides the virtual clock, not the wall.
func TestTraceSimDeterminism(t *testing.T) {
	run := func() []trace.Event {
		c := NewCluster(Config{Groups: 2, PerGroup: 3, Seed: 4, MaxBatch: 1, Pipeline: 1})
		tr := attachSimTracer(c, 1024)
		c.MulticastAt(time.Millisecond, c.Process(0, 0), "a", 0, 1)
		c.MulticastAt(2*time.Millisecond, c.Process(1, 1), "b", 0, 1)
		c.Run()
		return tr.Snapshot()
	}
	a, b := run(), run()
	if len(a) == 0 || len(a) != len(b) {
		t.Fatalf("span logs differ in length: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("span %d diverges: %+v vs %+v", i, a[i], b[i])
		}
	}
}

// TestTraceSplitsA2Order: A2's order splits, at every member of the caster's
// group, into roundwait (R-Delivery → the message's bundle is decided there:
// the wait for a round to open plus its consensus) and blocked (→ the round
// completes: the WAN hop and the slowest group's bundle). On the virtual
// clock the two add up to order exactly.
func TestTraceSplitsA2Order(t *testing.T) {
	c := NewCluster(Config{Groups: 3, PerGroup: 3, MaxBatch: 16, Pipeline: 4})
	tr := attachSimTracer(c, 4096)
	const casts = 60
	for i := 0; i < casts; i++ {
		c.BroadcastAt(time.Duration(i)*20*time.Millisecond, c.Process(GroupID(i%3), i%2), i)
	}
	c.Run()
	if v := c.CheckProperties(); len(v) != 0 {
		t.Fatalf("violations: %v", v)
	}
	type key struct {
		id   MessageID
		proc ProcessID
	}
	spans := map[trace.Stage]map[key]int64{trace.StageOrder: {}, trace.StageRoundWait: {}, trace.StageBlocked: {}}
	for _, ev := range tr.Snapshot() {
		if m, ok := spans[ev.Stage]; ok {
			k := key{ev.ID, ev.Proc}
			if _, dup := m[k]; dup {
				t.Fatalf("%v recorded %v twice for %v", ev.Proc, ev.Stage, ev.ID)
			}
			m[k] = ev.Aux
		}
	}
	if got := len(spans[trace.StageOrder]); got != casts*3 {
		t.Fatalf("%d order spans, want one per cast and member of its caster's group (%d)", got, casts*3)
	}
	for k, order := range spans[trace.StageOrder] {
		wait, okW := spans[trace.StageRoundWait][k]
		blocked, okB := spans[trace.StageBlocked][k]
		if !okW || !okB || wait+blocked != order || wait <= 0 || blocked <= 0 {
			t.Fatalf("%v at p%d: roundwait %v (%v) + blocked %v (%v) != order %v",
				k.id, k.proc, time.Duration(wait), okW, time.Duration(blocked), okB, time.Duration(order))
		}
	}
}
