package amcast

// Tests for the batched, pipelined ordering engine under Algorithm A1:
// determinism, cross-group agreement at every batch size and pipeline
// depth, the strict-batch latency-degree regression, and the throughput
// amortization batching buys.

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"wanamcast/internal/network"
	"wanamcast/internal/node"
	"wanamcast/internal/types"
)

// loadRig schedules casts casts spread over spread from rotating origins,
// all addressed to every group, and runs to completion.
func loadRig(t *testing.T, r *rig, casts int, spread time.Duration) []types.MessageID {
	t.Helper()
	var dest []types.GroupID
	for g := 0; g < r.topo.NumGroups(); g++ {
		dest = append(dest, types.GroupID(g))
	}
	n := r.topo.N()
	ids := make([]types.MessageID, 0, casts)
	for i := 0; i < casts; i++ {
		i := i
		from := types.ProcessID(i % n)
		at := time.Duration(0)
		if casts > 1 {
			at = spread * time.Duration(i) / time.Duration(casts)
		}
		r.rt.Scheduler().At(at, func() {
			ids = append(ids, r.cast(from, dest...))
		})
	}
	r.rt.Scheduler().MaxSteps = 20_000_000
	r.rt.Run()
	r.verify(t)
	return ids
}

// TestBatchDeterminism: identical seeds and knobs yield identical delivery
// sequences at every process, even with a deep pipeline and capped batches.
func TestBatchDeterminism(t *testing.T) {
	run := func() [][]types.MessageID {
		r := newRig(t, rigOpts{groups: 2, per: 3, seed: 42, maxBatch: 4, pipeline: 4})
		loadRig(t, r, 24, 200*time.Millisecond)
		seqs := make([][]types.MessageID, r.topo.N())
		for _, p := range r.topo.AllProcesses() {
			seqs[p] = r.checker.Sequence(p)
		}
		return seqs
	}
	a, b := run(), run()
	for p := range a {
		if len(a[p]) != len(b[p]) {
			t.Fatalf("p%d: runs delivered %d vs %d messages", p, len(a[p]), len(b[p]))
		}
		for i := range a[p] {
			if a[p][i] != b[p][i] {
				t.Fatalf("p%d: runs diverge at delivery %d: %v vs %v", p, i, a[p][i], b[p][i])
			}
		}
	}
}

// TestBatchOrderAgreementAcrossGroups: at every batch size and pipeline
// depth, all processes of all destination groups deliver the same
// sequence (uniform prefix order is checked by verify inside loadRig; here
// we additionally require the full sequences to match, since every cast
// goes to every group).
func TestBatchOrderAgreementAcrossGroups(t *testing.T) {
	for _, tc := range []struct{ maxBatch, pipeline int }{
		{0, 1}, {1, 1}, {4, 2}, {8, 4},
	} {
		t.Run(fmt.Sprintf("maxBatch=%d/pipeline=%d", tc.maxBatch, tc.pipeline), func(t *testing.T) {
			r := newRig(t, rigOpts{groups: 3, per: 2, seed: 7, maxBatch: tc.maxBatch, pipeline: tc.pipeline})
			ids := loadRig(t, r, 18, 150*time.Millisecond)
			ref := r.checker.Sequence(0)
			if len(ref) != len(ids) {
				t.Fatalf("p0 delivered %d of %d", len(ref), len(ids))
			}
			for _, p := range r.topo.AllProcesses()[1:] {
				seq := r.checker.Sequence(p)
				if len(seq) != len(ref) {
					t.Fatalf("p%v delivered %d, p0 delivered %d", p, len(seq), len(ref))
				}
				for i := range ref {
					if seq[i] != ref[i] {
						t.Fatalf("p%v diverges from p0 at %d: %v vs %v", p, i, seq[i], ref[i])
					}
				}
			}
		})
	}
}

// TestStrictBatchLatencyDegreeTwo: the latency-degree regression the
// batching refactor must not disturb — with MaxBatch=1 and Pipeline=1
// (the strictest engine configuration) a two-group multicast still
// measures Theorem 4.1's optimal degree of two, and a single-group cast
// from a member still measures zero.
func TestStrictBatchLatencyDegreeTwo(t *testing.T) {
	r := newRig(t, rigOpts{groups: 2, per: 3, maxBatch: 1, pipeline: 1})
	id := r.cast(0, 0, 1)
	r.rt.Run()
	deg, ok := r.col.LatencyDegree(id)
	if !ok || deg != 2 {
		t.Fatalf("degree = %d ok=%v, want 2 with MaxBatch=1 Pipeline=1", deg, ok)
	}
	r.verify(t)

	r2 := newRig(t, rigOpts{groups: 2, per: 3, maxBatch: 1, pipeline: 1})
	id2 := r2.cast(0, 0)
	r2.rt.Run()
	deg2, ok2 := r2.col.LatencyDegree(id2)
	if !ok2 || deg2 != 0 {
		t.Fatalf("single-group degree = %d ok=%v, want 0", deg2, ok2)
	}
	r2.verify(t)
}

// TestMaxBatchCapRespected: no decided batch exceeds the cap.
func TestMaxBatchCapRespected(t *testing.T) {
	r := newRig(t, rigOpts{groups: 2, per: 3, maxBatch: 3, pipeline: 2})
	loadRig(t, r, 20, 100*time.Millisecond)
	if max := r.col.Snapshot().MaxBatchSize; max > 3 {
		t.Fatalf("decided batch of %d exceeds MaxBatch=3", max)
	}
}

// TestBatchingAmortizesConsensus: a burst ordered with MaxBatch=64 takes
// ≥5× fewer consensus learns per delivered message than MaxBatch=1 — the
// throughput claim of the batched engine at saturating load.
func TestBatchingAmortizesConsensus(t *testing.T) {
	perLearn := func(maxBatch int) float64 {
		r := newRig(t, rigOpts{groups: 2, per: 3, maxBatch: maxBatch, pipeline: 1})
		for i := 0; i < 64; i++ {
			from := types.ProcessID(i % r.topo.N())
			r.rt.Scheduler().At(0, func() { r.cast(from, 0, 1) })
		}
		r.rt.Scheduler().MaxSteps = 20_000_000
		r.rt.Run()
		r.verify(t)
		st := r.col.Snapshot()
		if st.MessagesDelivered != 64 {
			t.Fatalf("MaxBatch=%d delivered %d of 64", maxBatch, st.MessagesDelivered)
		}
		return st.OrderedPerLearn
	}
	batched := perLearn(64)
	strict := perLearn(1)
	if batched < 5*strict {
		t.Fatalf("ordered/learn: batched=%.4f strict=%.4f — less than the 5x amortization bound", batched, strict)
	}
	t.Logf("ordered messages per consensus learn: MaxBatch=64 %.3f, MaxBatch=1 %.3f (%.1fx)",
		batched, strict, batched/strict)
}

// TestPipelineImprovesWallLatencyUnderLoad: with casts arriving faster
// than a consensus instance completes (~3 ms of intra-group hops), the
// sequential engine queues s0 fixes one instance at a time while a deeper
// pipeline overlaps them, lowering mean wall latency at the same batch cap.
func TestPipelineImprovesWallLatencyUnderLoad(t *testing.T) {
	mean := func(pipeline int) time.Duration {
		r := newRig(t, rigOpts{groups: 2, per: 3, maxBatch: 1, pipeline: pipeline, seed: 3})
		ids := loadRig(t, r, 24, 24*time.Millisecond)
		var sum time.Duration
		for _, id := range ids {
			w, ok := r.col.WallLatency(id)
			if !ok {
				t.Fatalf("%v not delivered", id)
			}
			sum += w
		}
		return sum / time.Duration(len(ids))
	}
	seq := mean(1)
	pipe := mean(8)
	if pipe >= seq {
		t.Fatalf("pipelining did not help: sequential mean %v, pipelined mean %v", seq, pipe)
	}
	t.Logf("mean wall latency under load: pipeline=1 %v, pipeline=8 %v", seq, pipe)
}

// TestRandomWorkloadWithBatchingKnobs: property-check random mixed
// workloads across the knob grid, including crashes.
func TestRandomWorkloadWithBatchingKnobs(t *testing.T) {
	for _, tc := range []struct{ maxBatch, pipeline int }{
		{2, 2}, {4, 8}, {1, 4},
	} {
		for seed := int64(0); seed < 3; seed++ {
			seed := seed
			t.Run(fmt.Sprintf("mb=%d/pl=%d/seed=%d", tc.maxBatch, tc.pipeline, seed), func(t *testing.T) {
				r := newRig(t, rigOpts{groups: 2, per: 3, seed: seed, maxBatch: tc.maxBatch, pipeline: tc.pipeline})
				rng := rand.New(rand.NewSource(seed + 11))
				for i := 0; i < 15; i++ {
					from := types.ProcessID(rng.Intn(6))
					dests := [][]types.GroupID{{0}, {1}, {0, 1}}[rng.Intn(3)]
					at := time.Duration(rng.Intn(200)) * time.Millisecond
					r.rt.Scheduler().At(at, func() {
						if !r.crashed[from] {
							r.cast(from, dests...)
						}
					})
				}
				r.crash(types.ProcessID(rng.Intn(3)), time.Duration(rng.Intn(150))*time.Millisecond)
				r.rt.Scheduler().MaxSteps = 20_000_000
				r.rt.Run()
				r.verify(t)
			})
		}
	}
}

// TestPendingEntriesComeInChunks: a single-group message admitted to PENDING
// and A-Delivered in the decision that orders it costs less than one
// allocation: its entry is carved from a chunk of 64, not allocated alone.
// Delivered entries never come back (a fill may still hold one), and drop
// their payloads.
func TestPendingEntriesComeInChunks(t *testing.T) {
	rt := node.NewRuntime(types.NewTopology(1, 1), network.Model{IntraGroup: time.Millisecond}, 1, nil)
	a := New(Config{Host: rt.Proc(0), Detector: rt.Oracle()})
	rt.Start()
	dest, payload, set := types.NewGroupSet(0), []byte("op"), make([]Descriptor, 1)
	var seq uint64
	var last *pend
	cycle := func() {
		seq++
		set[0] = Descriptor{ID: types.MessageID{Origin: 0, Seq: seq}, Dest: dest, Payload: payload}
		last = a.newPend(set[0].ID, dest, set[0].Payload, 0)
		a.processDecision(seq, set)
	}
	if n := testing.AllocsPerRun(640, cycle); n >= 1 {
		t.Errorf("admit to delivery made %.0f allocations a message, want less than 1", n)
	}
	if a.Delivered() != seq || len(a.pending) != 0 {
		t.Fatalf("delivered %d of %d messages, %d still pending", a.Delivered(), seq, len(a.pending))
	}
	if last.payload != nil {
		t.Errorf("a delivered entry still holds its payload %q", last.payload)
	}
}
