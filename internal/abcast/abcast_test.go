package abcast

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"wanamcast/internal/check"
	"wanamcast/internal/metrics"
	"wanamcast/internal/network"
	"wanamcast/internal/node"
	"wanamcast/internal/types"
)

type rig struct {
	topo    *types.Topology
	rt      *node.Runtime
	col     *metrics.Collector
	checker *check.Checker
	eps     []*Bcast
	crashed map[types.ProcessID]bool
	// lastUseful is the highest round that delivered anything (rigs built
	// by newRigPipe only).
	lastUseful uint64
}

func newRig(t *testing.T, groups, per int, seed int64) *rig {
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
			OnDeliver: func(mid types.MessageID, payload any) {
				r.checker.RecordDeliver(id, mid)
			},
		})
	}
	rt.Start()
	return r
}

func (r *rig) cast(from types.ProcessID) types.MessageID {
	id := r.eps[from].ABCast("payload")
	r.checker.RecordCast(id, r.topo.AllGroups())
	return id
}

func (r *rig) castAt(at time.Duration, from types.ProcessID) {
	r.rt.Scheduler().At(at, func() {
		if !r.crashed[from] {
			r.cast(from)
		}
	})
}

func (r *rig) crash(p types.ProcessID, at time.Duration) {
	r.crashed[p] = true
	r.rt.CrashAt(p, at)
}

func (r *rig) verify(t *testing.T) {
	t.Helper()
	correct := func(p types.ProcessID) bool { return !r.crashed[p] }
	caster := func(id types.MessageID) bool { return !r.crashed[id.Origin] }
	if v := r.checker.Check(correct, caster); len(v) != 0 {
		t.Fatalf("property violations:\n%v", v)
	}
}

// warm synchronizes rounds by broadcasting from every group at t=0.
func (r *rig) warm() {
	for g := 0; g < r.topo.NumGroups(); g++ {
		r.castAt(0, r.topo.Members(types.GroupID(g))[0])
	}
}

// TestColdStartDegreeTwo is Theorem 5.2's run: the first broadcast after
// quiescence costs latency degree two.
func TestColdStartDegreeTwo(t *testing.T) {
	r := newRig(t, 2, 3, 1)
	id := r.cast(0)
	r.rt.Run()
	deg, ok := r.col.LatencyDegree(id)
	if !ok || deg != 2 {
		t.Fatalf("degree = %d ok=%v, want 2", deg, ok)
	}
	r.verify(t)
}

// TestWarmDegreeOne is Theorem 5.1's run: with synchronized rounds
// running, a broadcast achieves latency degree one.
func TestWarmDegreeOne(t *testing.T) {
	r := newRig(t, 2, 3, 1)
	r.warm()
	var id types.MessageID
	r.rt.Scheduler().At(50*time.Millisecond, func() { id = r.cast(1) })
	r.rt.Run()
	deg, ok := r.col.LatencyDegree(id)
	if !ok || deg != 1 {
		t.Fatalf("degree = %d ok=%v, want 1 (Theorem 5.1)", deg, ok)
	}
	r.verify(t)
}

// TestSustainedStreamKeepsDegreeOne: §5.3 — if the inter-cast period stays
// below the round duration, rounds never stop and every later message
// enjoys latency degree one.
func TestSustainedStreamKeepsDegreeOne(t *testing.T) {
	r := newRig(t, 2, 3, 1)
	r.warm()
	var probes []types.MessageID
	// One broadcast every 50ms < ~104ms round time, alternating groups.
	for i := 1; i <= 12; i++ {
		i := i
		from := r.topo.Members(types.GroupID(i % 2))[i%3]
		r.rt.Scheduler().At(time.Duration(50*i)*time.Millisecond, func() {
			probes = append(probes, r.cast(from))
		})
	}
	r.rt.Run()
	for _, id := range probes {
		deg, ok := r.col.LatencyDegree(id)
		if !ok {
			t.Fatalf("%v not delivered", id)
		}
		if deg != 1 {
			t.Errorf("%v degree = %d, want 1 in the sustained regime", id, deg)
		}
	}
	r.verify(t)
}

// TestQuiescence is Proposition A.9: finitely many broadcasts ⇒ processes
// eventually stop sending. The simulator's event queue draining is exactly
// that: no timers, no messages.
func TestQuiescence(t *testing.T) {
	r := newRig(t, 3, 3, 1)
	r.warm()
	for i := 1; i <= 5; i++ {
		r.castAt(time.Duration(30*i)*time.Millisecond, types.ProcessID(i%9))
	}
	r.rt.Run() // draining terminates ⇒ quiescent
	end := r.rt.Now()
	lastSend, any := r.col.LastSend()
	if !any {
		t.Fatal("nothing was sent at all")
	}
	if lastSend >= end+time.Nanosecond {
		t.Fatalf("sends continued past the end: %v vs %v", lastSend, end)
	}
	r.verify(t)
	// After draining, injecting nothing for a long virtual stretch changes
	// nothing (no hidden periodic traffic).
	before := r.col.Snapshot().TotalMessages
	r.rt.RunUntil(end + 10*time.Second)
	if after := r.col.Snapshot().TotalMessages; after != before {
		t.Fatalf("quiescent system sent %d more messages", after-before)
	}
}

// TestRestartAfterQuiescence: a cast after rounds stopped restarts them —
// the caster's group via line 11, the others via the received bundle
// raising Barrier (line 10).
func TestRestartAfterQuiescence(t *testing.T) {
	r := newRig(t, 2, 3, 1)
	first := r.cast(0)
	r.rt.Run()          // quiesce
	second := r.cast(4) // from the *other* group, after quiescence
	r.rt.Run()
	for _, id := range []types.MessageID{first, second} {
		for _, p := range r.topo.AllProcesses() {
			found := false
			for _, got := range r.checker.Sequence(p) {
				if got == id {
					found = true
				}
			}
			if !found {
				t.Fatalf("%v missing at p%v", id, p)
			}
		}
	}
	deg, _ := r.col.LatencyDegree(second)
	if deg != 2 {
		t.Errorf("post-quiescence degree = %d, want 2 (Theorem 5.2)", deg)
	}
	r.verify(t)
}

// TestRoundsStopWhenUseless: Barrier stops advancing once a round delivers
// nothing; K freezes.
func TestRoundsStopWhenUseless(t *testing.T) {
	r := newRig(t, 2, 2, 1)
	r.cast(0)
	r.rt.Run()
	k := r.eps[0].Round()
	bar := r.eps[0].barrier
	if k <= bar {
		t.Errorf("rounds still runnable after drain: K=%d Barrier=%d", k, bar)
	}
	// The delivering round r raised Barrier to r+1; the empty round r+1
	// did not raise it further: K = Barrier + 1.
	if k != bar+1 {
		t.Errorf("K=%d Barrier=%d, want K=Barrier+1", k, bar)
	}
}

// TestTotalOrderAcrossManyCasters: all processes deliver the identical
// global sequence (for broadcast, prefix order degenerates to one order).
func TestTotalOrderAcrossManyCasters(t *testing.T) {
	r := newRig(t, 3, 2, 1)
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 20; i++ {
		r.castAt(time.Duration(rng.Intn(500))*time.Millisecond, types.ProcessID(rng.Intn(6)))
	}
	r.rt.Run()
	ref := r.checker.Sequence(0)
	if len(ref) != 20 {
		t.Fatalf("p0 delivered %d of 20", len(ref))
	}
	for _, p := range r.topo.AllProcesses()[1:] {
		seq := r.checker.Sequence(p)
		if len(seq) != len(ref) {
			t.Fatalf("p%v delivered %d of %d", p, len(seq), len(ref))
		}
		for i := range ref {
			if seq[i] != ref[i] {
				t.Fatalf("p%v order diverges at %d", p, i)
			}
		}
	}
	r.verify(t)
}

// TestRoundNumbersAgree: Lemma A.15 / A.16 — processes complete the same
// rounds with the same bundles; terminal K values agree.
func TestRoundNumbersAgree(t *testing.T) {
	r := newRig(t, 2, 3, 1)
	r.warm()
	for i := 1; i <= 6; i++ {
		r.castAt(time.Duration(40*i)*time.Millisecond, types.ProcessID(i%6))
	}
	r.rt.Run()
	k0 := r.eps[0].Round()
	for _, p := range r.topo.AllProcesses()[1:] {
		if r.eps[p].Round() != k0 {
			t.Errorf("terminal rounds diverge: p0=%d p%v=%d", k0, p, r.eps[p].Round())
		}
	}
	r.verify(t)
}

// TestCrashMinorityMidStream: uniform agreement and total order survive
// minority crashes in every group.
func TestCrashMinorityMidStream(t *testing.T) {
	for seed := int64(0); seed < 4; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			r := newRig(t, 2, 3, seed)
			rng := rand.New(rand.NewSource(seed + 50))
			r.warm()
			for i := 1; i <= 10; i++ {
				r.castAt(time.Duration(30*i)*time.Millisecond, types.ProcessID(rng.Intn(6)))
			}
			r.crash(types.ProcessID(rng.Intn(3)), time.Duration(50+rng.Intn(150))*time.Millisecond)
			r.crash(types.ProcessID(3+rng.Intn(3)), time.Duration(50+rng.Intn(150))*time.Millisecond)
			r.rt.Run()
			r.verify(t)
		})
	}
}

// TestCasterCrashAfterCast: the message was R-MCast to the caster's group
// eagerly; uniform agreement must deliver it everywhere or nowhere, and
// with the eager relay it is everywhere.
func TestCasterCrashAfterCast(t *testing.T) {
	r := newRig(t, 2, 3, 1)
	id := r.cast(0)
	r.crash(0, 0)
	r.rt.Run()
	for _, p := range []types.ProcessID{1, 2, 3, 4, 5} {
		found := false
		for _, got := range r.checker.Sequence(p) {
			if got == id {
				found = true
			}
		}
		if !found {
			t.Fatalf("correct p%v missed the crashed caster's message", p)
		}
	}
	r.verify(t)
}

// TestLeaderCrashDuringRound: the group's consensus recovers and the round
// completes.
func TestLeaderCrashDuringRound(t *testing.T) {
	r := newRig(t, 2, 3, 1)
	r.cast(1)
	r.crash(0, 2*time.Millisecond) // g0's leader mid-consensus
	r.rt.Run()
	r.verify(t)
	for _, p := range []types.ProcessID{1, 2, 3, 4, 5} {
		if len(r.checker.Sequence(p)) != 1 {
			t.Errorf("p%v delivered %d, want 1", p, len(r.checker.Sequence(p)))
		}
	}
}

// TestEmptyProposalRounds: groups with nothing to send propose empty sets
// (line 12's note) and rounds still complete.
func TestEmptyProposalRounds(t *testing.T) {
	r := newRig(t, 3, 2, 1)
	id := r.cast(0) // only group 0 ever has content
	r.rt.Run()
	for _, p := range r.topo.AllProcesses() {
		if len(r.checker.Sequence(p)) != 1 || r.checker.Sequence(p)[0] != id {
			t.Fatalf("p%v sequence wrong", p)
		}
	}
	r.verify(t)
}

// TestMessageComplexityPerRound: each round exchanges bundles all-to-all
// across groups: n(n−d) inter-group bundle messages per round — the O(n²)
// row of Figure 1(b).
func TestMessageComplexityPerRound(t *testing.T) {
	r := newRig(t, 2, 3, 1)
	r.cast(0)
	r.rt.Run()
	st := r.col.Snapshot()
	bundles := st.PerProtocol["a2"]
	// Rounds executed: delivering round + trailing empty round = 2, each
	// sending 6·3 = 18 inter-group bundle messages.
	if bundles.InterGroup != 36 {
		t.Errorf("bundle inter-group messages = %d, want 36", bundles.InterGroup)
	}
	if bundles.Total != bundles.InterGroup {
		t.Errorf("bundles must all be inter-group: %+v", bundles)
	}
}

// TestRandomWorkloads: property-style sweep over seeds.
func TestRandomWorkloads(t *testing.T) {
	for seed := int64(0); seed < 6; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			r := newRig(t, 1+int(seed%3)+1, 2, seed)
			rng := rand.New(rand.NewSource(seed))
			n := r.topo.N()
			for i := 0; i < 15; i++ {
				r.castAt(time.Duration(rng.Intn(400))*time.Millisecond, types.ProcessID(rng.Intn(n)))
			}
			r.rt.Run()
			r.verify(t)
		})
	}
}

func TestConfigValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic on missing config")
		}
	}()
	New(Config{})
}
