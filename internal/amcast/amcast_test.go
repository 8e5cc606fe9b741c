package amcast

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"wanamcast/internal/check"
	"wanamcast/internal/fd"
	"wanamcast/internal/metrics"
	"wanamcast/internal/network"
	"wanamcast/internal/node"
	"wanamcast/internal/node/clocktest"
	"wanamcast/internal/storage"
	"wanamcast/internal/types"
	"wanamcast/internal/wire"
)

type rig struct {
	topo    *types.Topology
	rt      *node.Runtime
	col     *metrics.Collector
	checker *check.Checker
	eps     []*Mcast
	crashed map[types.ProcessID]bool
	// atCaster is when each message was A-Delivered at its caster.
	atCaster map[types.MessageID]time.Duration
}

type rigOpts struct {
	groups, per int
	// fritzke builds the Fritzke et al. [5] preset (baseline.NewFritzke's
	// configuration) in place of A1.
	fritzke  bool
	seed     int64
	maxBatch int
	pipeline int
	jitter   time.Duration
	// store, if non-nil, makes process logged durable over it.
	store  storage.Store
	logged types.ProcessID
	// pairDelay, if non-nil, overrides per-pair link delays (for tests
	// that need a specific interleaving).
	pairDelay func(from, to types.ProcessID) (time.Duration, bool)
	// clock is every process's physical clock (zero value: the true one).
	clock clocktest.Clock
	// views, if non-nil, gives process p its own Ω (views[p]) in place of the
	// runtime's shared oracle, so a test can make the views disagree.
	views []*fd.Oracle
	// tap, if non-nil, is the runtime's Hook: it sees each message to a live
	// process first and calls deliver to let it through — or does not (a
	// frame a full send queue dropped), or acts once it has returned.
	tap func(to, from types.ProcessID, body any, deliver func())
}

func newRig(t *testing.T, o rigOpts) *rig {
	t.Helper()
	topo := types.NewTopology(o.groups, o.per)
	col := &metrics.Collector{LogSends: true}
	rt := node.NewRuntime(topo, network.Model{IntraGroup: time.Millisecond, InterGroup: 100 * time.Millisecond, Jitter: o.jitter}, o.seed, col)
	if o.pairDelay != nil {
		for _, from := range topo.AllProcesses() {
			for _, to := range topo.AllProcesses() {
				if d, ok := o.pairDelay(from, to); ok {
					rt.Fabric().SetDelay(from, to, d)
				}
			}
		}
	}
	r := &rig{
		topo:     topo,
		rt:       rt,
		col:      col,
		checker:  check.New(topo),
		eps:      make([]*Mcast, topo.N()),
		crashed:  make(map[types.ProcessID]bool),
		atCaster: make(map[types.MessageID]time.Duration),
	}
	rt.Skew = o.clock.Of
	for _, id := range topo.AllProcesses() {
		id := id
		var lg *storage.Log
		if id == o.logged {
			lg = storage.NewLog(o.store)
		}
		det := rt.Oracle()
		if o.views != nil {
			det = o.views[id]
		}
		cfg := Config{
			Host:     rt.Proc(id),
			Detector: det,
			MaxBatch: o.maxBatch,
			Pipeline: o.pipeline,
			Log:      lg,
			OnDeliver: func(mid types.MessageID, _ []byte) {
				r.checker.RecordDeliver(id, mid)
				if mid.Origin == id {
					r.atCaster[mid] = rt.Now()
				}
			},
		}
		build := New
		if o.fritzke {
			build = NewFritzke
		}
		r.eps[id] = build(cfg)
	}
	if o.tap != nil {
		rt.Hook = func(from, to types.ProcessID, _ string, body any, _ int64, deliver func()) {
			o.tap(to, from, body, deliver)
		}
	}
	rt.Start()
	return r
}

func (r *rig) cast(from types.ProcessID, dest ...types.GroupID) types.MessageID {
	gs := types.NewGroupSet(dest...)
	id := r.eps[from].AMCast(wire.AppendValue(nil, "payload"), gs) // an edge's encoding of the cast value
	r.checker.RecordCast(id, gs)
	return id
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

func TestSingleGroupFromMemberDegreeZero(t *testing.T) {
	r := newRig(t, rigOpts{groups: 2, per: 3})
	id := r.cast(0, 0)
	r.rt.Run()
	deg, ok := r.col.LatencyDegree(id)
	if !ok || deg != 0 {
		t.Fatalf("degree = %d ok=%v, want 0", deg, ok)
	}
	if len(r.checker.Sequence(0)) != 1 || len(r.checker.Sequence(3)) != 0 {
		t.Error("delivery pattern wrong")
	}
	r.verify(t)
}

func TestSingleGroupFromOutsiderDegreeOne(t *testing.T) {
	r := newRig(t, rigOpts{groups: 2, per: 3})
	id := r.cast(0, 1) // p0 in g0 casts to g1
	r.rt.Run()
	deg, ok := r.col.LatencyDegree(id)
	if !ok || deg != 1 {
		t.Fatalf("degree = %d ok=%v, want 1", deg, ok)
	}
	r.verify(t)
}

func TestTwoGroupsDegreeTwo(t *testing.T) {
	r := newRig(t, rigOpts{groups: 2, per: 3})
	id := r.cast(0, 0, 1)
	r.rt.Run()
	deg, ok := r.col.LatencyDegree(id)
	if !ok || deg != 2 {
		t.Fatalf("degree = %d ok=%v, want 2 (Theorem 4.1)", deg, ok)
	}
	for _, p := range r.topo.AllProcesses() {
		if len(r.checker.Sequence(p)) != 1 {
			t.Fatalf("p%d delivered %d messages", p, len(r.checker.Sequence(p)))
		}
	}
	r.verify(t)
}

func TestThreeGroupsStillDegreeTwo(t *testing.T) {
	r := newRig(t, rigOpts{groups: 4, per: 2})
	id := r.cast(0, 0, 1, 2, 3)
	r.rt.Run()
	deg, _ := r.col.LatencyDegree(id)
	if deg != 2 {
		t.Fatalf("degree = %d, want 2 independent of k", deg)
	}
	r.verify(t)
}

func TestGroupClocksAgree(t *testing.T) {
	// Lemma A.1/A.2: members of a group traverse the same K sequence.
	r := newRig(t, rigOpts{groups: 3, per: 3})
	for i := 0; i < 10; i++ {
		r.cast(types.ProcessID(i%9), types.GroupID(i%3), types.GroupID((i+1)%3))
	}
	r.rt.Run()
	for g := 0; g < 3; g++ {
		members := r.topo.Members(types.GroupID(g))
		k0 := r.eps[members[0]].K()
		for _, p := range members[1:] {
			if r.eps[p].K() != k0 {
				t.Errorf("group %d clocks diverge: %d vs %d", g, k0, r.eps[p].K())
			}
		}
	}
	r.verify(t)
}

func TestPendingDrains(t *testing.T) {
	r := newRig(t, rigOpts{groups: 2, per: 2})
	for i := 0; i < 8; i++ {
		r.cast(types.ProcessID(i%4), 0, 1)
	}
	r.rt.Run()
	for _, p := range r.topo.AllProcesses() {
		if n := len(r.eps[p].pending); n != 0 {
			t.Errorf("p%v still has %d pending messages", p, n)
		}
	}
	r.verify(t)
}

func TestConcurrentCastsUniformPrefixOrder(t *testing.T) {
	r := newRig(t, rigOpts{groups: 2, per: 3})
	// Simultaneous casts from both groups to both groups: the classic
	// conflict Skeen-style timestamping must serialize.
	r.cast(0, 0, 1)
	r.cast(3, 0, 1)
	r.rt.Run()
	s0 := r.checker.Sequence(0)
	s3 := r.checker.Sequence(3)
	if len(s0) != 2 || len(s3) != 2 {
		t.Fatalf("delivery counts: %d and %d", len(s0), len(s3))
	}
	if s0[0] != s3[0] || s0[1] != s3[1] {
		t.Fatalf("orders differ: %v vs %v", s0, s3)
	}
	r.verify(t)
}

func TestOverlappingDestinations(t *testing.T) {
	// m1 → {g0,g1}, m2 → {g1,g2}: g1 is the pivot that must order them
	// consistently for all pairwise projections.
	r := newRig(t, rigOpts{groups: 3, per: 2})
	r.cast(0, 0, 1)
	r.cast(4, 1, 2)
	r.cast(2, 0, 1, 2)
	r.rt.Run()
	r.verify(t)
}

func TestStageSkippingSavesConsensus(t *testing.T) {
	// A1 saves a consensus over Fritzke [5] on single-group messages only:
	// every multi-group message reaches s3 through an s2 decision of each
	// destination group (the paper's lines 35–37 shortcut, which saved the
	// instance for the group whose proposal is the maximum, is gone — see
	// the package doc).
	count := func(fritzke bool, dest ...types.GroupID) uint64 {
		r := newRig(t, rigOpts{groups: 2, per: 3, fritzke: fritzke})
		r.cast(0, dest...)
		r.rt.Run()
		r.verify(t)
		return r.col.Snapshot().ConsensusInstances
	}
	// Two groups: 2 instances per group, learned by 3 members each = 12
	// learns, for A1 (6 under the paper's rule with equal proposals) and
	// for Fritzke alike.
	if a1, fritzke := count(false, 0, 1), count(true, 0, 1); a1 != 12 || fritzke != 12 {
		t.Errorf("two-group cast: consensus learns a1=%d fritzke=%d, want 12 and 12", a1, fritzke)
	}
	// One group: A1 delivers in the one decision that orders the message
	// (3 learns); Fritzke runs s2 regardless (6 learns).
	if a1, fritzke := count(false, 0), count(true, 0); a1 != 3 || fritzke != 6 {
		t.Errorf("single-group cast: consensus learns a1=%d fritzke=%d, want 3 and 6", a1, fritzke)
	}
}

func TestFritzkeSingleGroupTakesTwoInstances(t *testing.T) {
	r := newRig(t, rigOpts{groups: 1, per: 3, fritzke: true})
	id := r.cast(0, 0)
	r.rt.Run()
	if got := r.col.Snapshot().ConsensusInstances; got != 6 {
		t.Errorf("consensus learns = %d, want 6 (two instances × three members)", got)
	}
	deg, _ := r.col.LatencyDegree(id)
	if deg != 0 {
		t.Errorf("degree = %d, want 0 (extra stages are intra-group)", deg)
	}
	r.verify(t)
}

func TestGenuineness(t *testing.T) {
	// Proposition 3.2's premise: only the caster and the addressees
	// participate. Group 2 must stay silent.
	r := newRig(t, rigOpts{groups: 3, per: 3})
	r.cast(0, 0, 1)
	r.cast(4, 0, 1)
	r.rt.Run()
	r.verify(t)
	if v := r.checker.GenuinenessViolations(r.col.Sends(), "a1"); len(v) != 0 {
		t.Fatalf("genuineness violations: %v", v)
	}
	for _, s := range r.col.Sends() {
		if g := r.topo.GroupOf(s.From); g == 2 {
			t.Fatalf("process %v of uninvolved group 2 sent %s", s.From, s.Proto)
		}
	}
}

func TestCasterCrashRightAfterCast(t *testing.T) {
	r := newRig(t, rigOpts{groups: 2, per: 3})
	id := r.cast(0, 0, 1)
	r.crash(0, 0) // crash in the same instant, after the fan-out
	r.rt.Run()
	delivered := 0
	for _, p := range r.topo.AllProcesses() {
		for _, got := range r.checker.Sequence(p) {
			if got == id {
				delivered++
			}
		}
	}
	if delivered != 5 {
		t.Errorf("%d correct processes delivered, want 5", delivered)
	}
	r.verify(t)
}

func TestLeaderCrashMidProtocol(t *testing.T) {
	r := newRig(t, rigOpts{groups: 2, per: 3})
	r.cast(0, 0, 1)
	r.crash(3, 2*time.Millisecond) // leader of g1 dies during its consensus
	r.rt.Run()
	r.verify(t)
	// All correct g1 members delivered.
	for _, p := range []types.ProcessID{4, 5} {
		if len(r.checker.Sequence(p)) != 1 {
			t.Errorf("p%v delivered %d, want 1", p, len(r.checker.Sequence(p)))
		}
	}
}

func TestCrashDuringTSExchange(t *testing.T) {
	r := newRig(t, rigOpts{groups: 3, per: 3})
	r.cast(0, 0, 1, 2)
	// One member of each destination group dies while TS messages fly.
	r.crash(1, 3*time.Millisecond)
	r.crash(4, 50*time.Millisecond)
	r.crash(8, 101*time.Millisecond)
	r.rt.Run()
	r.verify(t)
}

func TestInterleavedSingleAndMultiGroup(t *testing.T) {
	r := newRig(t, rigOpts{groups: 2, per: 2})
	r.cast(0, 0)
	r.cast(0, 0, 1)
	r.cast(2, 1)
	r.cast(3, 0, 1)
	r.cast(1, 0)
	r.rt.Run()
	r.verify(t)
}

func TestRandomWorkloadManySeeds(t *testing.T) {
	for seed := int64(0); seed < 6; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			r := newRig(t, rigOpts{groups: 3, per: 3, seed: seed})
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < 25; i++ {
				from := types.ProcessID(rng.Intn(9))
				var dest []types.GroupID
				for g := 0; g < 3; g++ {
					if rng.Intn(2) == 0 {
						dest = append(dest, types.GroupID(g))
					}
				}
				if len(dest) == 0 {
					dest = []types.GroupID{types.GroupID(rng.Intn(3))}
				}
				at := time.Duration(rng.Intn(300)) * time.Millisecond
				r.rt.Scheduler().At(at, func() { r.cast(from, dest...) })
			}
			r.rt.Run()
			r.verify(t)
		})
	}
}

func TestRandomWorkloadWithCrashes(t *testing.T) {
	for seed := int64(0); seed < 4; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			r := newRig(t, rigOpts{groups: 2, per: 3, seed: seed})
			rng := rand.New(rand.NewSource(seed + 100))
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
			// Crash one minority member per group at random times.
			r.crash(types.ProcessID(rng.Intn(3)), time.Duration(rng.Intn(150))*time.Millisecond)
			r.crash(types.ProcessID(3+rng.Intn(3)), time.Duration(rng.Intn(150))*time.Millisecond)
			r.rt.Run()
			r.verify(t)
		})
	}
}

func TestTieBreakByMessageID(t *testing.T) {
	// Two messages with identical final timestamps must deliver in ID
	// order everywhere. Simultaneous casts from the two group leaders at
	// t=0 collide in instance 1 of both groups.
	r := newRig(t, rigOpts{groups: 2, per: 1})
	a := r.cast(0, 0, 1)
	b := r.cast(1, 0, 1)
	r.rt.Run()
	s0 := r.checker.Sequence(0)
	if len(s0) != 2 {
		t.Fatalf("p0 delivered %d", len(s0))
	}
	// Regardless of which is first, both processes agree (checked by
	// verify); and if timestamps tied, a (lower ID) precedes b.
	if s0[0] == b && s0[1] == a {
		// Legal only if b's final timestamp was strictly smaller.
		t.Logf("b delivered first; timestamps differed")
	}
	r.verify(t)
}

func TestConfigValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic on missing config")
		}
	}()
	New(Config{})
}

func TestEmptyDestPanics(t *testing.T) {
	r := newRig(t, rigOpts{groups: 1, per: 1})
	defer func() {
		if recover() == nil {
			t.Error("expected panic on empty dest")
		}
	}()
	r.eps[0].AMCast([]byte("x"), types.NewGroupSet())
}

func TestWallClockLatencyScalesWithInterDelay(t *testing.T) {
	// Sanity: a 2-group multicast takes about 2 inter-group delays of
	// wall time for the caster's group (TS round trip).
	r := newRig(t, rigOpts{groups: 2, per: 2})
	id := r.cast(0, 0, 1)
	r.rt.Run()
	wall, ok := r.col.WallLatency(id)
	if !ok {
		t.Fatal("no wall latency")
	}
	if wall < 200*time.Millisecond || wall > 250*time.Millisecond {
		t.Errorf("wall latency = %v, want ~200ms", wall)
	}
}

// TestDeferredFillBuildsNothing: while an own instance is undecided the
// Batcher asks fillBatch for a full batch on every event; short of one, the
// fill returns nil without allocating or sorting, and with fewer entries
// than the limit it asks no in-flight question.
func TestDeferredFillBuildsNothing(t *testing.T) {
	r := newRig(t, rigOpts{groups: 1, per: 3, pipeline: 4, maxBatch: 64})
	a := r.eps[0]
	for i := uint64(1); i <= 10; i++ {
		a.newPend(types.MessageID{Origin: 1, Seq: i}, types.NewGroupSet(0), []byte("payload"), 0)
	}
	asked := 0
	none := func(types.MessageID) bool { asked++; return false }
	if n := testing.AllocsPerRun(100, func() {
		if set := a.fillBatch(none, 64, true); set != nil {
			t.Fatalf("a full-only fill returned %d of 64 descriptors", len(set))
		}
	}); n != 0 {
		t.Errorf("a full-only fill short of its limit made %.1f allocations, want 0", n)
	}
	if asked != 0 {
		t.Errorf("a full-only fill of 10 entries against a limit of 64 asked exclude %d times, want 0", asked)
	}
	if set := a.fillBatch(none, 10, true); len(set) != 10 {
		t.Fatalf("a full-only fill with ten pending returned %d of 10 descriptors", len(set))
	}
}

// TestSmallDestinationProposalsLiveInTheEntry: the (TS, m) proposals of a
// message to two groups are held in its PENDING entry, at no allocation of
// their own; a message to more groups holds them as well.
func TestSmallDestinationProposalsLiveInTheEntry(t *testing.T) {
	for _, dest := range []types.GroupSet{types.NewGroupSet(0, 1), types.NewGroupSet(0, 1, 2)} {
		p := &pend{dest: dest}
		n := testing.AllocsPerRun(100, func() {
			p.props, p.inline = nil, [2]prop{}
			for _, g := range dest.Groups() {
				p.setProp(g, uint64(g)+7)
			}
		})
		if dest.Size() == 2 && n != 0 {
			t.Errorf("proposals of a message to %v: %.1f allocations, want 0", dest, n)
		}
		for i, g := range dest.Groups() {
			if !p.has(i) || p.props[i].ts != uint64(g)+7 {
				t.Errorf("proposal of %v to %v: %+v", g, dest, p.props)
			}
		}
	}
}

// TestMisroutedTSIsDropped: a (TS, m) or a pull whose m is not addressed to
// both the receiver's group and the sender's came from a broken peer. It is
// dropped: m is never admitted, so no group orders or delivers it (§2.2
// uniform integrity), and later casts still deliver.
func TestMisroutedTSIsDropped(t *testing.T) {
	r := newRig(t, rigOpts{groups: 2, per: 3})
	forged := func(seq uint64, dest types.GroupID) Descriptor {
		return Descriptor{ID: types.MessageID{Origin: 3, Seq: 1<<30 + seq}, Dest: types.NewGroupSet(dest),
			TS: 1, Payload: wire.AppendValue(nil, "forged"), Stage: Stage1}
	}
	label := r.eps[0].Proto()
	node.Send(r.rt.Proc(3), 0, label, TSMsg{Desc: forged(0, 1)})   // not addressed to the receiver's group
	node.Send(r.rt.Proc(4), 1, label, PullMsg{Desc: forged(1, 1)}) // the same, as a pull
	node.Send(r.rt.Proc(3), 0, label, TSMsg{Desc: forged(2, 0)})   // not addressed to the sender's group
	node.Send(r.rt.Proc(5), 2, label, PullMsg{Desc: forged(3, 0)}) // the same, as a pull
	r.rt.Run()
	for _, p := range r.topo.AllProcesses() {
		if n := len(r.eps[p].pending); n != 0 {
			t.Fatalf("p%v holds %d forged messages in PENDING", p, n)
		}
	}
	r.verify(t) // a forged m delivered anywhere breaks integrity
	r.cast(0, 0, 1)
	r.cast(3, 0)
	r.rt.Run()
	for _, p := range r.topo.AllProcesses() {
		want := 1
		if r.topo.GroupOf(p) == 0 {
			want = 2
		}
		if n := len(r.checker.Sequence(p)); n != want {
			t.Fatalf("p%v delivered %d later casts, want %d", p, n, want)
		}
	}
	r.verify(t)
}
