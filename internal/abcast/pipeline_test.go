package abcast

import (
	"bytes"
	"math/rand"
	"testing"
	"time"

	"wanamcast/internal/check"
	"wanamcast/internal/fd"
	"wanamcast/internal/metrics"
	"wanamcast/internal/network"
	"wanamcast/internal/node"
	"wanamcast/internal/types"
)

// newRigPipe is newRig with a configurable pipeline depth.
func newRigPipe(t *testing.T, groups, per, pipeline int) *rig {
	t.Helper()
	return newRigViews(t, groups, per, pipeline, nil)
}

// newRigViews is newRigPipe with one Ω per process (views[p]; nil = the
// runtime's shared oracle), so a test can make the views disagree.
func newRigViews(t *testing.T, groups, per, pipeline int, views []*fd.Oracle) *rig {
	t.Helper()
	topo := types.NewTopology(groups, per)
	col := &metrics.Collector{LogSends: true}
	rt := node.NewRuntime(topo, network.Model{IntraGroup: time.Millisecond, InterGroup: 100 * time.Millisecond}, 1, col)
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
		var det fd.Detector = rt.Oracle()
		if views != nil {
			det = views[id]
		}
		r.eps[id] = New(Config{
			Host:     rt.Proc(id),
			Detector: det,
			Pipeline: pipeline,
			OnDeliver: func(mid types.MessageID, payload []byte) {
				r.checker.RecordDeliver(id, mid)
				r.lastUseful = max(r.lastUseful, r.eps[id].Round())
			},
		})
	}
	rt.Start()
	return r
}

// highRate schedules casts every 10ms — far faster than the ~104ms round
// time — and returns the mean wall latency over all of them.
func highRate(t *testing.T, r *rig, casts int) time.Duration {
	t.Helper()
	r.warm()
	var ids []types.MessageID
	for i := 1; i <= casts; i++ {
		i := i
		from := r.topo.Members(types.GroupID(i % r.topo.NumGroups()))[i%3]
		r.rt.Scheduler().At(time.Duration(10*i)*time.Millisecond, func() {
			ids = append(ids, r.cast(from))
		})
	}
	r.rt.Scheduler().MaxSteps = 10_000_000
	r.rt.Run()
	r.verify(t)
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

// TestPipelineCorrectUnderLoad: deep pipelines preserve every §2.2
// property (verify runs inside highRate) and still deliver everything.
func TestPipelineCorrectUnderLoad(t *testing.T) {
	for _, depth := range []int{1, 2, 4, 8} {
		r := newRigPipe(t, 2, 3, depth)
		highRate(t, r, 30)
	}
}

// TestPipelineImprovesLatencyUnderLoad: at cast rates far above one per
// round, the sequential algorithm queues messages for the next proposable
// round (up to a full WAN delay away); pipelining proposes a fresh round
// every consensus completion, cutting the queueing wait.
func TestPipelineImprovesLatencyUnderLoad(t *testing.T) {
	seq := highRate(t, newRigPipe(t, 2, 3, 1), 30)
	pipe := highRate(t, newRigPipe(t, 2, 3, 8), 30)
	if pipe >= seq {
		t.Fatalf("pipelining did not help: sequential mean %v, pipelined mean %v", seq, pipe)
	}
	// Both groups cast steadily here, so every round was already being
	// opened everywhere before rounds were paced (mean 108 ms then): the
	// pace may cost such a cast at most a Pipeline-th of a round.
	if limit := 108 * time.Millisecond * 105 / 100; pipe > limit {
		t.Fatalf("pacing holds casts back: pipelined mean %v, want <= %v", pipe, limit)
	}
	t.Logf("mean wall latency: sequential %v, pipeline-8 %v", seq, pipe)
}

// TestPipelineStillQuiescent: Prop. A.9 must survive the extension — after
// the last useful round of a stream at most 2×Pipeline empty rounds run, then
// nothing is sent and no timer stays armed. The bound was Pipeline until a
// stream earned a second window of patience: the Barrier rises when a round
// completes, a window after it opened, so patience of one window let every
// useless round of a live stream shut the next round of the idle groups.
func TestPipelineStillQuiescent(t *testing.T) {
	const pipeline = 4
	r := newRigPipe(t, 2, 2, pipeline)
	r.warm()
	for at := 30 * time.Millisecond; at <= 2*time.Second; at += 30 * time.Millisecond {
		r.castAt(at, types.ProcessID(at/(30*time.Millisecond)%4))
	}
	r.rt.Scheduler().MaxSteps = 5_000_000
	r.rt.Run() // termination is the assertion: no pace timer re-arms forever
	r.verify(t)
	for p, ep := range r.eps {
		if ep.paceD == 0 {
			t.Errorf("p%d never measured a round: the run did not exercise pacing", p)
		}
		if trailing := ep.Round() - 1 - r.lastUseful; trailing > 2*pipeline {
			t.Errorf("p%d ran %d empty rounds after the last useful one (round %d), want <= %d", p, trailing, r.lastUseful, 2*pipeline)
		}
	}
	end := r.rt.Now()
	before := r.col.Snapshot().TotalMessages
	r.rt.RunUntil(end + 5*time.Second)
	if after := r.col.Snapshot().TotalMessages; after != before {
		t.Fatalf("pipelined system kept sending after drain: +%d", after-before)
	}
}

// TestLoneCastCostsOneWindow: the second window of patience is for streams. A
// cast that finds the system quiescent costs its round and Pipeline empty
// ones, as before the stream rule, however many lone casts came before it.
func TestLoneCastCostsOneWindow(t *testing.T) {
	const pipeline = 4
	r := newRigPipe(t, 3, 3, pipeline)
	for i, at := range []time.Duration{0, 5 * time.Second, 10 * time.Second} {
		before := r.eps[0].Round()
		r.castAt(at, 4)
		r.rt.RunUntil(at + 4*time.Second)
		for p, ep := range r.eps {
			if ran := ep.Round() - before; ran != 1+pipeline {
				t.Errorf("lone cast %d: p%d ran %d rounds, want the useful one and %d empty", i, p, ran, pipeline)
			}
		}
	}
	r.verify(t)
}

// TestPipelineNoDuplicateShipping: a message decided into an in-flight
// round must not reappear in later proposals (the inDecided/inFlight
// exclusion), so each cast occupies exactly one round bundle per group.
func TestPipelineNoDuplicateShipping(t *testing.T) {
	r := newRigPipe(t, 2, 2, 4)
	r.warm()
	var id types.MessageID
	r.rt.Scheduler().At(30*time.Millisecond, func() { id = r.cast(0) })
	r.rt.Run()
	r.verify(t)
	// Count bundle messages containing the probe: exactly one round's
	// bundles from group 0 (2 members × 2 outside receivers = 4 copies).
	count := 0
	for _, s := range r.col.Sends() {
		if s.Proto != "a2" {
			continue
		}
		_ = s
	}
	// The send log does not retain bodies; assert via delivery count and
	// round agreement instead: the probe delivered exactly once anywhere.
	for _, p := range r.topo.AllProcesses() {
		n := 0
		for _, got := range r.checker.Sequence(p) {
			if got == id {
				n++
			}
		}
		if n != 1 {
			t.Fatalf("p%v delivered probe %d times", p, n)
		}
	}
	_ = count
}

// probeResult is what poissonProbe measured: the mean wall latency, the price
// paid for it in rounds and inter-group messages per cast, and the run's
// counters.
type probeResult struct {
	mean                          time.Duration
	roundsPerCast, wanMsgsPerCast float64
	rounds                        uint64
	stats                         metrics.Stats
}

// stream schedules a seed-fixed Poisson stream of rate casts/s over
// [0, until) from the given casters; the IDs are there once the run is over.
func (r *rig) stream(rate float64, until time.Duration, casters []types.ProcessID) *[]types.MessageID {
	rng := rand.New(rand.NewSource(7))
	ids := new([]types.MessageID)
	for at := time.Duration(0); at < until; at += time.Duration(rng.ExpFloat64() * float64(time.Second) / rate) {
		from := casters[rng.Intn(len(casters))]
		r.rt.Scheduler().At(at, func() { *ids = append(*ids, r.cast(from)) })
	}
	return ids
}

// poissonProbe is the §5.3-style open-load probe: 3 groups of 3, WAN 100 ms,
// LAN 1 ms, a seed-fixed Poisson stream of 40 casts/s from random processes
// for 20 s of virtual time, §2.2 checker on.
func poissonProbe(t *testing.T, pipeline int) probeResult {
	t.Helper()
	r := newRigPipe(t, 3, 3, pipeline)
	cast := r.stream(40, 20*time.Second, r.topo.AllProcesses())
	r.rt.Scheduler().MaxSteps = 50_000_000
	r.rt.Run()
	r.verify(t)
	ids := *cast
	var sum time.Duration
	for _, id := range ids {
		w, ok := r.col.WallLatency(id)
		if !ok {
			t.Fatalf("%v not delivered", id)
		}
		sum += w
	}
	st := r.col.Snapshot()
	n, rounds := float64(len(ids)), r.eps[0].Round()-1
	return probeResult{sum / time.Duration(len(ids)), float64(rounds) / n, float64(st.InterGroupMessages) / n, rounds, st}
}

// TestPipelinedRoundsAreWarm: with Pipeline > 1 every group opens the
// window's rounds on the same derived cadence, so a cast rides a round that
// is already open everywhere and is delivered one WAN delay later. Before
// rounds were paced a cast waited for the other groups to hear of its round
// first, and Pipeline 4 measured 160.2 ms here — no better than sequential.
// Paced, with a window of patience after a useful round, it measured 128.6:
// one round in three of this stream is useless, and each closed the Barrier
// on the idle groups' next round, which then opened a slot or two late.
func TestPipelinedRoundsAreWarm(t *testing.T) {
	// The logged rows are EXPERIMENTS.md's "A2 latency over the floor vs
	// Pipeline" table; the a2 line is the bundle copies a round costs.
	for _, p := range []int{1, 2, 4, 8} {
		res := poissonProbe(t, p)
		mean := res.mean
		t.Logf("| %d | %.1f | %.1f | %.2f | %.1f |", p, float64(mean)/1e6, float64(mean)/1e6-100, res.roundsPerCast, res.wanMsgsPerCast)
		t.Logf("Pipeline=%d: %.1f inter-group a2 messages per round, %d of %d bundle copies dropped as repeats", p,
			float64(res.stats.PerProtocol["a2"].InterGroup)/float64(res.rounds), res.stats.BundleRepeatsDropped, res.stats.BundleCopiesSent)
		switch want := 155588446 * time.Nanosecond; {
		case p == 1 && mean != want:
			t.Errorf("Pipeline=1 mean %v, want %v: the sequential algorithm must not change", mean, want)
		case p == 4 && mean > 120*time.Millisecond:
			t.Errorf("Pipeline=4 mean %v, want <= 120ms (floor 100ms)", mean)
		}
		if p != 4 {
			continue
		}
		for g, rc := range res.stats.PerGroupRounds {
			t.Logf("Pipeline=4 group %d: %d rounds opened on the pace, %d late", g, rc.OnPace, rc.Late)
			if rc.OnPace*100 < 98*(rc.OnPace+rc.Late) {
				t.Errorf("group %d opened %d of %d rounds late, want <= 2%%: the predictor closes the window on a live stream", g, rc.Late, rc.OnPace+rc.Late)
			}
		}
	}
}

// TestPacedRoundsSurviveLeaderCrash: a group's leader crashes mid-run under
// Pipeline 4. Its pace timer dies with it (the runtime drops a crashed
// owner's timers), the survivors keep the cadence once the next leader takes
// over, and §2.2 holds.
func TestPacedRoundsSurviveLeaderCrash(t *testing.T) {
	r := newRigPipe(t, 3, 3, 4)
	const crashAt, settled = time.Second, 1500 * time.Millisecond
	r.crash(0, crashAt) // p0 leads group 0
	rng := rand.New(rand.NewSource(7))
	var late []types.MessageID
	for at := time.Duration(0); at < 4*time.Second; at += time.Duration(rng.ExpFloat64() * float64(time.Second) / 40) {
		from := types.ProcessID(1 + rng.Intn(r.topo.N()-1))
		r.rt.Scheduler().At(at, func() {
			if id := r.cast(from); r.rt.Now() > settled {
				late = append(late, id)
			}
		})
	}
	var openedAtCrash uint64
	r.rt.Scheduler().At(crashAt, func() { openedAtCrash = r.eps[0].opened })
	r.rt.Scheduler().MaxSteps = 50_000_000
	r.rt.Run()
	r.verify(t)
	if got := r.eps[0].opened; got != openedAtCrash || got == 0 {
		t.Errorf("crashed p0 opened rounds up to %d after crashing at round %d", got, openedAtCrash)
	}
	var sum time.Duration
	for _, id := range late {
		w, ok := r.col.WallLatency(id)
		if !ok {
			t.Fatalf("%v not delivered", id)
		}
		sum += w
	}
	mean := sum / time.Duration(len(late))
	if mean > 135*time.Millisecond {
		t.Errorf("mean latency after the crash %v, want <= 135ms: survivors lost the cadence", mean)
	}
	t.Logf("%d casts after the crash settled: mean %v", len(late), mean)
}

// TestPacingIsSoftState: nothing about the cadence or the stream predictor
// reaches a snapshot, and a state transfer ends with no estimate and no
// stream.
func TestPacingIsSoftState(t *testing.T) {
	r := newRigPipe(t, 2, 3, 4)
	highRate(t, r, 30)
	ep := r.eps[1]
	if ep.paceD == 0 {
		t.Fatal("no pace estimate after a loaded run")
	}
	before := ep.AppendSnapshot(nil)
	ep.paceD, ep.opened, ep.openedAt, ep.probe, ep.probeAt, ep.paceAt = 7, 7, 7, 7, 7, 7
	ep.slotted, ep.shut, ep.lastUseful = 7, 7, 7
	if after := ep.AppendSnapshot(nil); !bytes.Equal(before, after) {
		t.Error("the snapshot depends on pacing state")
	}
	ep.resumeRounds()
	if ep.paceD != 0 || ep.probe != 0 || ep.lastUseful != 0 {
		t.Errorf("after state transfer: estimate %v, probe %d, stream since round %d, want none", ep.paceD, ep.probe, ep.lastUseful)
	}
}
