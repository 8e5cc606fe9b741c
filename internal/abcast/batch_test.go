package abcast

// Tests for the shared batching engine under Algorithm A2: bundle caps,
// determinism with pipelining, and total order at every knob setting.

import (
	"fmt"
	"testing"
	"time"

	"wanamcast/internal/check"
	"wanamcast/internal/metrics"
	"wanamcast/internal/network"
	"wanamcast/internal/node"
	"wanamcast/internal/types"
)

// newRigKnobs is newRig with explicit MaxBatch and Pipeline.
func newRigKnobs(t *testing.T, groups, per int, seed int64, maxBatch, pipeline int) *rig {
	t.Helper()
	topo := types.NewTopology(groups, per)
	col := &metrics.Collector{LogSends: true}
	rt := node.NewRuntime(topo, network.Model{IntraGroup: time.Millisecond, InterGroup: 100 * time.Millisecond}, seed, col)
	r := &rig{
		topo:    topo,
		rt:      rt,
		col:     col,
		checker: check.New(topo),
		eps:     make([]*Bcast, topo.N()),
		crashed: make(map[types.ProcessID]bool),
	}
	for _, id := range topo.AllProcesses() {
		id := id
		r.eps[id] = New(Config{
			Host:     rt.Proc(id),
			Detector: rt.Oracle(),
			MaxBatch: maxBatch,
			Pipeline: pipeline,
			OnDeliver: func(mid types.MessageID, payload any) {
				r.checker.RecordDeliver(id, mid)
			},
		})
	}
	rt.Start()
	return r
}

// TestBundleCapRespected: with MaxBatch set, no decided bundle exceeds it
// and every message still delivers (excess rides later rounds).
func TestBundleCapRespected(t *testing.T) {
	r := newRigKnobs(t, 2, 3, 1, 2, 1)
	r.warm()
	for i := 1; i <= 10; i++ {
		r.castAt(time.Duration(10*i)*time.Millisecond, types.ProcessID(i%6))
	}
	r.rt.Scheduler().MaxSteps = 10_000_000
	r.rt.Run()
	r.verify(t)
	st := r.col.Snapshot()
	if st.MaxBatchSize > 2 {
		t.Fatalf("decided bundle of %d exceeds MaxBatch=2", st.MaxBatchSize)
	}
	if got := len(r.checker.Sequence(0)); got != 12 {
		t.Fatalf("p0 delivered %d of 12", got)
	}
}

// TestStrictKnobsWarmDegreeOne: the Theorem 5.1 regression with the
// strictest engine configuration — MaxBatch=1, Pipeline=1 must keep the
// warm-path latency degree at one.
func TestStrictKnobsWarmDegreeOne(t *testing.T) {
	r := newRigKnobs(t, 2, 3, 1, 1, 1)
	r.warm()
	var id types.MessageID
	r.rt.Scheduler().At(50*time.Millisecond, func() { id = r.cast(1) })
	r.rt.Run()
	deg, ok := r.col.LatencyDegree(id)
	if !ok || deg != 1 {
		t.Fatalf("degree = %d ok=%v, want 1 with MaxBatch=1 Pipeline=1 (Theorem 5.1)", deg, ok)
	}
	r.verify(t)
}

// TestKnobGridTotalOrder: every knob combination preserves the single
// global delivery sequence and quiescence.
func TestKnobGridTotalOrder(t *testing.T) {
	for _, tc := range []struct{ maxBatch, pipeline int }{
		{1, 1}, {2, 4}, {0, 8},
	} {
		t.Run(fmt.Sprintf("mb=%d/pl=%d", tc.maxBatch, tc.pipeline), func(t *testing.T) {
			r := newRigKnobs(t, 2, 3, 5, tc.maxBatch, tc.pipeline)
			r.warm()
			for i := 1; i <= 15; i++ {
				r.castAt(time.Duration(8*i)*time.Millisecond, types.ProcessID(i%6))
			}
			r.rt.Scheduler().MaxSteps = 10_000_000
			r.rt.Run()
			r.verify(t)
			ref := r.checker.Sequence(0)
			if len(ref) != 17 {
				t.Fatalf("p0 delivered %d of 17", len(ref))
			}
			for _, p := range r.topo.AllProcesses()[1:] {
				seq := r.checker.Sequence(p)
				if len(seq) != len(ref) {
					t.Fatalf("p%v delivered %d, want %d", p, len(seq), len(ref))
				}
				for i := range ref {
					if seq[i] != ref[i] {
						t.Fatalf("p%v diverges at %d", p, i)
					}
				}
			}
		})
	}
}

// TestDeferredFillBuildsNothing: while an own round is undecided the Batcher
// asks fillBundle for a full bundle on every event; short of one, the fill
// returns nil without allocating, and with fewer R-Delivered records than
// the limit it asks no in-flight question.
func TestDeferredFillBuildsNothing(t *testing.T) {
	r := newRigKnobs(t, 1, 3, 1, 64, 4)
	b := r.eps[0]
	for i := uint64(1); i <= 10; i++ {
		id := types.MessageID{Origin: 1, Seq: i}
		b.rdelivered[id] = Record{ID: id, Payload: "payload"}
		b.rdOrder = append(b.rdOrder, id)
	}
	asked := 0
	none := func(types.MessageID) bool { asked++; return false }
	if n := testing.AllocsPerRun(100, func() {
		if set := b.fillBundle(none, 64, true); set != nil {
			t.Fatalf("a full-only fill returned %d of 64 records", len(set))
		}
	}); n != 0 {
		t.Errorf("a full-only fill short of its limit made %.1f allocations, want 0", n)
	}
	if asked != 0 {
		t.Errorf("a full-only fill of 10 records against a limit of 64 asked exclude %d times, want 0", asked)
	}
	if set := b.fillBundle(none, 10, true); len(set) != 10 {
		t.Fatalf("a full-only fill with ten R-Delivered returned %d of 10 records", len(set))
	}
}
