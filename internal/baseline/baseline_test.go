package baseline

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"wanamcast/internal/check"
	"wanamcast/internal/metrics"
	"wanamcast/internal/network"
	"wanamcast/internal/node"
	"wanamcast/internal/rmcast"
	"wanamcast/internal/types"
)

// mcaster is the uniform casting surface of the multicast baselines.
type mcaster interface {
	AMCast(payload []byte, dest types.GroupSet) types.MessageID
}

type rig struct {
	topo    *types.Topology
	rt      *node.Runtime
	col     *metrics.Collector
	checker *check.Checker
	cast    []mcaster
}

func newRig(t *testing.T, groups, per int, build func(host *node.Proc, rt *node.Runtime, onDeliver func(rmcast.Message)) mcaster) *rig {
	t.Helper()
	topo := types.NewTopology(groups, per)
	col := &metrics.Collector{}
	rt := node.NewRuntime(topo, network.Model{IntraGroup: time.Millisecond, InterGroup: 100 * time.Millisecond}, 1, col)
	r := &rig{topo: topo, rt: rt, col: col, checker: check.New(topo), cast: make([]mcaster, topo.N())}
	for _, id := range topo.AllProcesses() {
		id := id
		r.cast[id] = build(rt.Proc(id), rt, func(m rmcast.Message) {
			r.checker.RecordDeliver(id, m.ID)
		})
	}
	rt.Start()
	return r
}

func (r *rig) amcast(from types.ProcessID, dest ...types.GroupID) types.MessageID {
	gs := types.NewGroupSet(dest...)
	id := r.cast[from].AMCast([]byte("x"), gs)
	r.checker.RecordCast(id, gs)
	return id
}

func (r *rig) verify(t *testing.T) {
	t.Helper()
	if v := r.checker.Check(nil, func(types.MessageID) bool { return true }); len(v) != 0 {
		t.Fatalf("property violations:\n%v", v)
	}
}

func buildSkeen(host *node.Proc, _ *node.Runtime, onDeliver func(rmcast.Message)) mcaster {
	return NewSkeen(SkeenConfig{Host: host, OnDeliver: onDeliver})
}

func buildDelporte(host *node.Proc, rt *node.Runtime, onDeliver func(rmcast.Message)) mcaster {
	return NewDelporte(DelporteConfig{Host: host, Detector: rt.Oracle(), OnDeliver: onDeliver})
}

func buildRodrigues(host *node.Proc, _ *node.Runtime, onDeliver func(rmcast.Message)) mcaster {
	return NewRodrigues(RodriguesConfig{Host: host, OnDeliver: onDeliver})
}

func buildDetMerge(host *node.Proc, _ *node.Runtime, onDeliver func(rmcast.Message)) mcaster {
	return NewDetMerge(DetMergeConfig{Host: host, OnDeliver: onDeliver, Interval: 20 * time.Millisecond, StopAfter: 2 * time.Second})
}

var multicastBuilders = map[string]func(*node.Proc, *node.Runtime, func(rmcast.Message)) mcaster{
	"skeen":     buildSkeen,
	"delporte":  buildDelporte,
	"rodrigues": buildRodrigues,
	"detmerge":  buildDetMerge,
}

// TestMulticastBaselinesSingleMessage: every baseline delivers a 2-group
// multicast exactly once at every destination and nowhere else.
func TestMulticastBaselinesSingleMessage(t *testing.T) {
	for name, build := range multicastBuilders {
		t.Run(name, func(t *testing.T) {
			r := newRig(t, 3, 2, build)
			id := r.amcast(0, 0, 1)
			r.rt.Run()
			for _, p := range r.topo.AllProcesses() {
				want := 0
				if r.topo.GroupOf(p) != 2 {
					want = 1
				}
				got := 0
				for _, d := range r.checker.Sequence(p) {
					if d == id {
						got++
					}
				}
				if got != want {
					t.Errorf("p%v delivered %d, want %d", p, got, want)
				}
			}
			r.verify(t)
		})
	}
}

// TestMulticastBaselinesConcurrent: concurrent conflicting multicasts must
// satisfy uniform prefix order under every baseline.
func TestMulticastBaselinesConcurrent(t *testing.T) {
	for name, build := range multicastBuilders {
		t.Run(name, func(t *testing.T) {
			r := newRig(t, 2, 2, build)
			r.amcast(0, 0, 1)
			r.amcast(2, 0, 1)
			r.amcast(1, 0, 1)
			r.rt.Run()
			r.verify(t)
		})
	}
}

// TestMulticastBaselinesRandomWorkload: randomized destinations and times.
func TestMulticastBaselinesRandomWorkload(t *testing.T) {
	for name, build := range multicastBuilders {
		t.Run(name, func(t *testing.T) {
			r := newRig(t, 3, 2, build)
			rng := rand.New(rand.NewSource(11))
			for i := 0; i < 15; i++ {
				from := types.ProcessID(rng.Intn(6))
				var dest []types.GroupID
				for g := 0; g < 3; g++ {
					if rng.Intn(2) == 0 {
						dest = append(dest, types.GroupID(g))
					}
				}
				if len(dest) == 0 {
					dest = []types.GroupID{0}
				}
				at := time.Duration(rng.Intn(400)) * time.Millisecond
				r.rt.Scheduler().At(at, func() { r.amcast(from, dest...) })
			}
			r.rt.Run()
			r.verify(t)
		})
	}
}

// TestSkeenMessageComplexity: data kd−1 copies plus all-to-all proposals.
func TestSkeenMessageComplexity(t *testing.T) {
	r := newRig(t, 2, 3, buildSkeen)
	r.amcast(0, 0, 1)
	r.rt.Run()
	st := r.col.Snapshot()
	// data: 5 copies (self uncounted); proposals: 6 destinations × 5 = 30.
	if st.TotalMessages != 35 {
		t.Errorf("total = %d, want 35", st.TotalMessages)
	}
}

// TestDelporteSerializesPerGroup: with two in-flight multi-group messages,
// the shared group must process them one at a time and all orders agree.
func TestDelporteSerializesPerGroup(t *testing.T) {
	r := newRig(t, 3, 2, buildDelporte)
	r.amcast(0, 0, 1)
	r.amcast(0, 0, 1, 2)
	r.amcast(2, 1, 2)
	r.rt.Run()
	r.verify(t)
}

// TestDelporteSingleGroup: single-group messages deliver in consensus order
// with no inter-group traffic.
func TestDelporteSingleGroup(t *testing.T) {
	r := newRig(t, 2, 3, buildDelporte)
	r.amcast(0, 0)
	r.amcast(1, 0)
	r.rt.Run()
	r.verify(t)
	if st := r.col.Snapshot(); st.InterGroupMessages != 0 {
		t.Errorf("single-group casts sent %d inter-group messages", st.InterGroupMessages)
	}
}

// TestDelporteChainVisitsGroupsInOrder: inter-group sends climb the group
// chain g0 → g1 → g2 and the final hop fans back.
func TestDelporteChainVisitsGroupsInOrder(t *testing.T) {
	topo := types.NewTopology(3, 2)
	col := &metrics.Collector{LogSends: true}
	rt := node.NewRuntime(topo, network.Model{IntraGroup: time.Millisecond, InterGroup: 100 * time.Millisecond}, 1, col)
	checker := check.New(topo)
	eps := make([]*Delporte, topo.N())
	for _, id := range topo.AllProcesses() {
		id := id
		eps[id] = NewDelporte(DelporteConfig{Host: rt.Proc(id), Detector: rt.Oracle(),
			OnDeliver: func(m rmcast.Message) { checker.RecordDeliver(id, m.ID) }})
	}
	rt.Start()
	gs := types.NewGroupSet(0, 1, 2)
	mid := eps[0].AMCast([]byte("x"), gs)
	checker.RecordCast(mid, gs)
	rt.Run()
	sawHandover01, sawHandover12 := false, false
	for _, s := range col.Sends() {
		if s.Proto != "dg" {
			continue
		}
		gFrom, gTo := topo.GroupOf(s.From), topo.GroupOf(s.To)
		if gFrom == 0 && gTo == 2 {
			// Only the final announcement may jump 0→2, and it must come
			// from the last group — so a dg message from g0 to g2 before
			// g2 was reached is a chain violation. The final announcement
			// is sent by g2, so from g0 only handovers to g1 are legal.
			t.Errorf("g0 sent dg message directly to g2")
		}
		if gFrom == 0 && gTo == 1 {
			sawHandover01 = true
		}
		if gFrom == 1 && gTo == 2 {
			sawHandover12 = true
		}
	}
	if !sawHandover01 || !sawHandover12 {
		t.Error("handover chain incomplete")
	}
	if v := checker.Check(nil, nil); len(v) != 0 {
		t.Errorf("violations: %v", v)
	}
}

// TestRodriguesPhases: commits only happen after estimates complete; the
// delivery count is right even with interleaved messages.
func TestRodriguesInterleaved(t *testing.T) {
	r := newRig(t, 2, 2, buildRodrigues)
	a := r.amcast(0, 0, 1)
	b := r.amcast(3, 0, 1)
	r.rt.Run()
	r.verify(t)
	for _, p := range r.topo.AllProcesses() {
		if len(r.checker.Sequence(p)) != 2 {
			t.Fatalf("p%v delivered %d", p, len(r.checker.Sequence(p)))
		}
	}
	_ = a
	_ = b
}

// TestDetMergeHeartbeatsDriveDelivery: a single cast is held until every
// publisher's stream passes it, then delivered in merge order.
func TestDetMergeHeartbeatsDriveDelivery(t *testing.T) {
	r := newRig(t, 2, 2, buildDetMerge)
	var id types.MessageID
	r.rt.Scheduler().At(5*time.Millisecond, func() { id = r.amcast(0, 0, 1) })
	// Before the next beats propagate, nothing can deliver.
	r.rt.RunUntil(100 * time.Millisecond)
	for _, p := range r.topo.AllProcesses() {
		if len(r.checker.Sequence(p)) != 0 {
			t.Fatalf("p%v delivered before the streams advanced", p)
		}
	}
	r.rt.Run()
	for _, p := range r.topo.AllProcesses() {
		if len(r.checker.Sequence(p)) != 1 || r.checker.Sequence(p)[0] != id {
			t.Fatalf("p%v did not deliver after streams advanced", p)
		}
	}
	r.verify(t)
}

// TestDetMergeMergeOrderIsByTimestamp: casts from different slots deliver
// in slot order everywhere.
func TestDetMergeMergeOrderIsByTimestamp(t *testing.T) {
	r := newRig(t, 2, 2, buildDetMerge)
	var a, b types.MessageID
	r.rt.Scheduler().At(5*time.Millisecond, func() { a = r.amcast(3, 0, 1) })
	r.rt.Scheduler().At(25*time.Millisecond, func() { b = r.amcast(0, 0, 1) })
	r.rt.Run()
	for _, p := range r.topo.AllProcesses() {
		seq := r.checker.Sequence(p)
		if len(seq) != 2 || seq[0] != a || seq[1] != b {
			t.Fatalf("p%v order = %v, want [%v %v]", p, seq, a, b)
		}
	}
	r.verify(t)
}

// TestDetMergeStopsBeating: after StopAfter, the stream ends and the run
// drains.
func TestDetMergeStopsBeating(t *testing.T) {
	r := newRig(t, 2, 1, buildDetMerge)
	r.amcast(0, 0, 1)
	r.rt.Run() // must terminate
	if r.rt.Now() > 3*time.Second {
		t.Errorf("run did not drain promptly: %v", r.rt.Now())
	}
}

// --- sequencer broadcasts ---

type brig struct {
	topo    *types.Topology
	rt      *node.Runtime
	col     *metrics.Collector
	checker *check.Checker
	eps     []*SeqBcast
	opt     []int
}

func newBrig(t *testing.T, groups, per int, uniform bool) *brig {
	t.Helper()
	topo := types.NewTopology(groups, per)
	col := &metrics.Collector{}
	rt := node.NewRuntime(topo, network.Model{IntraGroup: time.Millisecond, InterGroup: 100 * time.Millisecond}, 1, col)
	r := &brig{topo: topo, rt: rt, col: col, checker: check.New(topo), eps: make([]*SeqBcast, topo.N()), opt: make([]int, topo.N())}
	for _, id := range topo.AllProcesses() {
		id := id
		r.eps[id] = NewSeqBcast(SeqBcastConfig{
			Host:    rt.Proc(id),
			Uniform: uniform,
			OnDeliver: func(mid types.MessageID, payload []byte) {
				r.checker.RecordDeliver(id, mid)
			},
			OnOptimistic: func(mid types.MessageID, payload []byte) {
				r.opt[id]++
			},
		})
	}
	rt.Start()
	return r
}

func (r *brig) bcast(from types.ProcessID) types.MessageID {
	id := r.eps[from].ABCast([]byte("x"))
	r.checker.RecordCast(id, r.topo.AllGroups())
	return id
}

func TestSeqBcastTotalOrder(t *testing.T) {
	for _, uniform := range []bool{false, true} {
		t.Run(fmt.Sprintf("uniform=%v", uniform), func(t *testing.T) {
			r := newBrig(t, 2, 2, uniform)
			rng := rand.New(rand.NewSource(3))
			for i := 0; i < 10; i++ {
				from := types.ProcessID(rng.Intn(4))
				r.rt.Scheduler().At(time.Duration(rng.Intn(300))*time.Millisecond, func() { r.bcast(from) })
			}
			r.rt.Run()
			if v := r.checker.Check(nil, func(types.MessageID) bool { return true }); len(v) != 0 {
				t.Fatalf("violations: %v", v)
			}
			ref := r.checker.Sequence(0)
			if len(ref) != 10 {
				t.Fatalf("p0 delivered %d of 10", len(ref))
			}
		})
	}
}

func TestSeqBcastOptimisticPrecedesFinal(t *testing.T) {
	r := newBrig(t, 2, 2, true)
	r.bcast(1)
	r.rt.Run()
	for _, p := range r.topo.AllProcesses() {
		if r.opt[p] != 1 {
			t.Errorf("p%v optimistic deliveries = %d, want 1", p, r.opt[p])
		}
	}
}

func TestSeqBcastMessageComplexity(t *testing.T) {
	// Sousa: n−1 data + n−1 seq = O(n). Vicente adds (n−1)(n−1) echoes
	// minus the sequencer's (its SEQ doubles as its echo) = O(n²).
	nonUniform := newBrig(t, 2, 2, false)
	nonUniform.bcast(0)
	nonUniform.rt.Run()
	su := nonUniform.col.Snapshot().TotalMessages

	uniform := newBrig(t, 2, 2, true)
	uniform.bcast(0)
	uniform.rt.Run()
	vi := uniform.col.Snapshot().TotalMessages

	if su != 6 { // 3 data + 3 seq (n=4, self copies uncounted)
		t.Errorf("sousa messages = %d, want 6", su)
	}
	if vi != su+9 { // 3 non-sequencer processes × 3 echoes each
		t.Errorf("vicente messages = %d, want %d", vi, su+9)
	}
}

func TestSeqBcastSequencerIsCaster(t *testing.T) {
	r := newBrig(t, 2, 2, true)
	id := r.bcast(0) // process 0 is the default sequencer
	r.rt.Run()
	for _, p := range r.topo.AllProcesses() {
		if len(r.checker.Sequence(p)) != 1 || r.checker.Sequence(p)[0] != id {
			t.Fatalf("p%v sequence wrong", p)
		}
	}
}
