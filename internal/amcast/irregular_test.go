package amcast

import (
	"testing"
	"time"

	"wanamcast/internal/check"
	"wanamcast/internal/metrics"
	"wanamcast/internal/network"
	"wanamcast/internal/node"
	"wanamcast/internal/types"
)

// newIrregularRig builds A1 over groups of different sizes — quorums and
// TS fan-outs must be computed per group, not from a global d.
func newIrregularRig(t *testing.T, sizes []int) *rig {
	t.Helper()
	topo := types.NewIrregularTopology(sizes)
	col := &metrics.Collector{}
	rt := node.NewRuntime(topo, network.Model{IntraGroup: time.Millisecond, InterGroup: 100 * time.Millisecond}, 1, col)
	r := &rig{
		topo:    topo,
		rt:      rt,
		col:     col,
		checker: check.New(topo),
		eps:     make([]*Mcast, topo.N()),
		crashed: make(map[types.ProcessID]bool),
	}
	for _, id := range topo.AllProcesses() {
		id := id
		r.eps[id] = New(Config{
			Host:     rt.Proc(id),
			Detector: rt.Oracle(),
			OnDeliver: func(mid types.MessageID, _ []byte) {
				r.checker.RecordDeliver(id, mid)
			},
		})
	}
	rt.Start()
	return r
}

// TestIrregularTopologyMulticast: a 1-5-3 layout, multicasts across all
// pair combinations, full §2.2 verification.
func TestIrregularTopologyMulticast(t *testing.T) {
	r := newIrregularRig(t, []int{1, 5, 3})
	// Space the casts out so each measures its uncontended latency degree
	// (concurrent messages legitimately extend each other's causal paths).
	var id01, id12, idAll types.MessageID
	id01 = r.cast(0, 0, 1)
	r.rt.Scheduler().At(400*time.Millisecond, func() { id12 = r.cast(1, 1, 2) })
	r.rt.Scheduler().At(800*time.Millisecond, func() { idAll = r.cast(6, 0, 1, 2) })
	r.rt.Run()
	r.verify(t)
	for _, tc := range []struct {
		id   types.MessageID
		want int
	}{{id01, 6}, {id12, 8}, {idAll, 9}} {
		got := 0
		for _, p := range r.topo.AllProcesses() {
			for _, d := range r.checker.Sequence(p) {
				if d == tc.id {
					got++
				}
			}
		}
		if got != tc.want {
			t.Errorf("%v delivered %d times, want %d", tc.id, got, tc.want)
		}
	}
	// Degrees stay at the optimum regardless of group-size asymmetry.
	for _, id := range []types.MessageID{id01, id12, idAll} {
		deg, _ := r.col.LatencyDegree(id)
		if deg != 2 {
			t.Errorf("%v degree = %d, want 2", id, deg)
		}
	}
}

// TestIrregularTopologyWithCrash: the 5-member group tolerates two
// crashes; the singleton group must stay up (the paper needs one correct
// process per group).
func TestIrregularTopologyWithCrash(t *testing.T) {
	r := newIrregularRig(t, []int{1, 5, 3})
	r.cast(0, 0, 1, 2)
	r.crash(2, 2*time.Millisecond)   // member of the 5-group
	r.crash(3, 110*time.Millisecond) // another member of the 5-group
	r.cast(1, 1, 2)
	r.rt.Run()
	r.verify(t)
}
