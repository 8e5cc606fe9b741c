package wanamcast

// Tests for the batched, pipelined ordering engine at the public Cluster
// surface: the ≥5× messages-ordered-per-consensus-instance amortization at
// saturating load, and the latency-degree regressions with the strictest
// knob settings.

import (
	"testing"
	"time"
)

// saturate casts n A1 multicasts to both groups in one burst and returns
// the run's stats.
func saturate(t testing.TB, n, maxBatch, pipeline int) Stats {
	t.Helper()
	c := NewCluster(Config{Groups: 2, PerGroup: 3, MaxBatch: maxBatch, Pipeline: pipeline})
	for i := 0; i < n; i++ {
		from := c.Process(GroupID(i%2), i%3)
		c.MulticastAt(0, from, i, 0, 1)
	}
	c.Run()
	if v := c.CheckProperties(); len(v) != 0 {
		t.Fatalf("violations: %v", v)
	}
	st := c.Stats()
	if st.MessagesDelivered != n {
		t.Fatalf("delivered %d of %d", st.MessagesDelivered, n)
	}
	return st
}

// TestBatchedThroughputMultiplier is the headline claim of the batched
// engine: at saturating load, MaxBatch=64 orders at least 5× more
// messages per consensus instance than MaxBatch=1.
func TestBatchedThroughputMultiplier(t *testing.T) {
	batched := saturate(t, 64, 64, 1)
	strict := saturate(t, 64, 1, 1)
	if batched.OrderedPerLearn < 5*strict.OrderedPerLearn {
		t.Fatalf("ordered/learn: MaxBatch=64 %.4f vs MaxBatch=1 %.4f — below the 5x bound",
			batched.OrderedPerLearn, strict.OrderedPerLearn)
	}
	if batched.ThroughputPerSec <= strict.ThroughputPerSec {
		t.Errorf("virtual throughput did not improve: %.1f vs %.1f msg/s",
			batched.ThroughputPerSec, strict.ThroughputPerSec)
	}
	t.Logf("ordered/learn: batched %.3f, strict %.3f (%.1fx); throughput %.0f vs %.0f msg/s",
		batched.OrderedPerLearn, strict.OrderedPerLearn,
		batched.OrderedPerLearn/strict.OrderedPerLearn,
		batched.ThroughputPerSec, strict.ThroughputPerSec)
}

// TestStrictKnobsKeepPaperDegrees: with MaxBatch=1 and Pipeline=1 the
// paper's latency degrees are unchanged — 2 for a multi-group A1
// multicast (Theorem 4.1) and 1 for a warm A2 broadcast (Theorem 5.1).
func TestStrictKnobsKeepPaperDegrees(t *testing.T) {
	c := NewCluster(Config{Groups: 2, PerGroup: 3, MaxBatch: 1, Pipeline: 1})
	id := c.Multicast(c.Process(0, 0), "m", 0, 1)
	c.Run()
	if deg, ok := c.LatencyDegree(id); !ok || deg != 2 {
		t.Fatalf("A1 degree = %d ok=%v, want 2 with MaxBatch=1 Pipeline=1", deg, ok)
	}

	c2 := NewCluster(Config{Groups: 2, PerGroup: 3, MaxBatch: 1, Pipeline: 1})
	c2.BroadcastAt(0, c2.Process(0, 0), "warm0")
	c2.BroadcastAt(0, c2.Process(1, 0), "warm1")
	var probe MessageID
	c2.sys.RT.Scheduler().At(50*time.Millisecond, func() {
		probe = c2.Broadcast(c2.Process(0, 1), "probe")
	})
	c2.Run()
	if deg, ok := c2.LatencyDegree(probe); !ok || deg != 1 {
		t.Fatalf("A2 warm degree = %d ok=%v, want 1 with MaxBatch=1 Pipeline=1", deg, ok)
	}
}

// TestDefaultKnobsKeepPaperDegrees: the zero-value knobs (unbounded
// batches, sequential pipeline — the paper's algorithms) are untouched by
// the engine refactor.
func TestDefaultKnobsKeepPaperDegrees(t *testing.T) {
	c := NewCluster(Config{Groups: 2, PerGroup: 3})
	id := c.Multicast(c.Process(0, 0), "m", 0, 1)
	c.Run()
	if deg, ok := c.LatencyDegree(id); !ok || deg != 2 {
		t.Fatalf("A1 degree = %d ok=%v, want 2 with default knobs", deg, ok)
	}
}

// TestPipelinedClusterDeterminism: the same seed and knobs reproduce the
// same delivery log at the public surface, with Pipeline > 1.
func TestPipelinedClusterDeterminism(t *testing.T) {
	run := func() []Delivery {
		c := NewCluster(Config{Groups: 2, PerGroup: 3, Seed: 9, MaxBatch: 4, Pipeline: 4})
		for i := 0; i < 12; i++ {
			from := c.Process(GroupID(i%2), i%3)
			c.MulticastAt(time.Duration(i)*5*time.Millisecond, from, i, 0, 1)
			c.BroadcastAt(time.Duration(i)*7*time.Millisecond, from, i+100)
		}
		c.Run()
		if v := c.CheckProperties(); len(v) != 0 {
			t.Fatalf("violations: %v", v)
		}
		return c.Deliveries()
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("runs delivered %d vs %d events", len(a), len(b))
	}
	for i := range a {
		if a[i].Process != b[i].Process || a[i].ID != b[i].ID || a[i].At != b[i].At {
			t.Fatalf("delivery %d diverges: %+v vs %+v", i, a[i], b[i])
		}
	}
}
