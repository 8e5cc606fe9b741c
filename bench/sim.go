package main

import (
	"math/rand"
	"time"

	"wanamcast/internal/harness"
	"wanamcast/internal/types"
)

// sim-scale runs the simulator's own scale sweep: Algorithm A1 on 200×5
// processes, then A2 on 50×3, with no sockets. The issue's 10 000 casts
// per pass take 6 s (A1) and 38 s (A2) on the 2-core box, so the cast
// counts are scaled to the window: each pass gets about half of it.
const (
	simA1CastsPerSecond = 10000.0 / 12
	simA2CastsPerSecond = 1500.0 / 12
)

var (
	simA1Shape = harness.Shape{Groups: 200, PerGroup: 5}
	simA2Shape = harness.Shape{Groups: 50, PerGroup: 3}
	// The probe runs on a topology small enough to keep every cast's
	// latency and degree.
	probeShape = harness.Shape{Groups: 12, PerGroup: 3}
)

const (
	probeCasts = 1200
	// probeJitter spreads the probe's link delays so that its latencies
	// depend on the seed instead of landing on the same whole millisecond.
	probeJitter = time.Millisecond
)

// simRun is what the sweep and its probe produced.
type simRun struct {
	casts, events uint64
	wall          time.Duration
	mallocs       float64
	peakHeap      uint64
	violations    int
	degreeA1      int64   // latency degree of one A1 cast made alone: Theorem 4.1 says 2
	degreeA2      int64   // latency degree of one A2 cast into a running round: Theorem 5.1 says 1
	warmShare     float64 // A2 under the probe's load: share of casts delivered at degree 1
}

func runSim(seed int64, window time.Duration) (*run, error) {
	r := &run{w: workloads[len(workloads)-1], window: window, steady: window, sim: &simRun{}}
	r.setUpSim(seed)
	opts := harness.Options{Seed: seed}
	seconds := window.Seconds()
	passes := []struct {
		algo  harness.Algo
		shape harness.Shape
		casts int
	}{
		{harness.AlgoA1, simA1Shape, int(simA1CastsPerSecond * seconds)},
		{harness.AlgoA2, simA2Shape, int(simA2CastsPerSecond * seconds)},
	}
	procBefore := readProc()
	for _, p := range passes {
		pt := harness.RunScaleSweep(p.algo, opts, []harness.Shape{p.shape}, p.casts)[0]
		r.sim.casts += uint64(pt.Casts)
		r.sim.events += pt.Events
		r.sim.wall += pt.Wall
		r.sim.mallocs += pt.AllocsPerEvent * float64(pt.Events)
		if pt.PeakHeapBytes > r.sim.peakHeap {
			r.sim.peakHeap = pt.PeakHeapBytes
		}
		r.sim.violations += pt.Violations
	}
	r.proc = readProc().since(procBefore)
	r.main.sent = int(r.sim.casts)
	if r.sim.violations > 0 {
		r.problemf("sim-scale: %d §2.2 violations in the sweep", r.sim.violations)
	}
	if r.sim.degreeA1 != 2 {
		r.problemf("sim-scale: a lone A1 multicast has latency degree %d, the paper proves 2", r.sim.degreeA1)
	}
	if r.sim.degreeA2 != 1 {
		r.problemf("sim-scale: an A2 broadcast into a running round has latency degree %d, the paper proves 1", r.sim.degreeA2)
	}
	return r, nil
}

// setUpSim is sim-scale's set-up, the probe: it checks the latency degrees
// the paper proves, yields the virtual-time latencies, and leaves the code
// paths and the heap warm for the sweep.
func (r *run) setUpSim(seed int64) {
	t0 := time.Now()
	r.main = phase{window: r.window}
	r.probe(harness.AlgoA1, seed)
	r.probe(harness.AlgoA2, seed)
	r.sim.degreeA1 = r.canonicalDegree(harness.AlgoA1)
	r.sim.degreeA2 = r.canonicalDegree(harness.AlgoA2)
	r.setups = append(r.setups, time.Since(t0))
}

// probe casts the way the sweep does (harness.RunScaleSweep keeps its
// system to itself), but once in every 50 ms of virtual time, and files
// every cast's virtual-time latency as a sample: A1 casts are two-group
// writes, A2 casts broadcasts. At the sweep's own 10 ms most casts queue
// behind another's timestamp, the latencies spread evenly over 100 ms,
// and their median moves by a tenth from seed to seed; at 50 ms the median
// is the protocol's own overhead above the floor and the tail still shows
// the convoy.
func (r *run) probe(algo harness.Algo, seed int64) {
	sys := harness.Build(algo, harness.Options{Groups: probeShape.Groups, PerGroup: probeShape.PerGroup,
		Seed: seed, Jitter: probeJitter})
	rng := rand.New(rand.NewSource(seed))
	const period = 50 * time.Millisecond
	if algo == harness.AlgoA2 {
		for g := 0; g < probeShape.Groups; g++ {
			sys.CastAt(0, sys.Topo.Members(types.GroupID(g))[0], "warm", sys.Topo.AllGroups())
		}
	}
	for i := 0; i < probeCasts; i++ {
		from := types.ProcessID(rng.Intn(sys.Topo.N()))
		a := types.GroupID(rng.Intn(probeShape.Groups))
		b := types.GroupID(rng.Intn(probeShape.Groups - 1))
		if b >= a {
			b++
		}
		at := time.Duration(i+1)*period + time.Duration(rng.Int63n(int64(period)))
		sys.CastAt(at, from, i, types.NewGroupSet(a, b))
	}
	sys.Run()
	if v := sys.Check(); len(v) > 0 {
		r.problemf("sim-scale probe (%s): §2.2 violated: %v", algo, v)
	}
	kind, fanout := opWrite, uint8(2)
	if algo == harness.AlgoA2 {
		kind, fanout = opBcast, uint8(probeShape.Groups)
	}
	seen := make(map[types.MessageID]bool)
	warm, total := 0, 0
	for _, d := range sys.Deliveries {
		if seen[d.ID] || d.Payload == "warm" {
			continue
		}
		seen[d.ID] = true
		deg, _ := sys.DegreeOf(d.ID)
		lat, _ := sys.Col.WallLatency(d.ID)
		r.main.samples = append(r.main.samples, sample{
			lat: lat, floor: floorOf(kind, fanout, sys.Opts.Inter), fanout: fanout, kind: kind, ok: true,
		})
		total++
		if algo == harness.AlgoA2 && deg == 1 {
			warm++
		}
	}
	if total != probeCasts {
		r.problemf("sim-scale probe (%s): %d of %d casts delivered", algo, total, probeCasts)
	}
	if algo == harness.AlgoA2 && total > 0 {
		r.sim.warmShare = float64(warm) / float64(total)
	}
}

// canonicalDegree measures the latency degree the paper's theorems are
// about, as the repository's own theorem tests do: one cast in a fresh
// system, made alone (A1) or into a round the warm-up casts keep running
// (A2). Under load the Lamport clocks that define the degree also count
// other casts' hops, so the probe's degrees say nothing about the floor.
func (r *run) canonicalDegree(algo harness.Algo) int64 {
	sys := harness.Build(algo, harness.Options{Groups: probeShape.Groups, PerGroup: probeShape.PerGroup})
	if algo == harness.AlgoA2 {
		for g := 0; g < probeShape.Groups; g++ {
			sys.CastAt(0, sys.Topo.Members(types.GroupID(g))[0], "warm", sys.Topo.AllGroups())
		}
	}
	var id types.MessageID
	sys.RT.Scheduler().At(15*time.Millisecond, func() {
		id = sys.Cast(sys.Topo.Members(0)[1], "probe", types.NewGroupSet(0, 1))
	})
	sys.Run()
	deg, ok := sys.DegreeOf(id)
	if v := sys.Check(); !ok || len(v) > 0 {
		r.problemf("sim-scale canonical run (%s): delivered=%v, §2.2 violations: %v", algo, ok, v)
	}
	return deg
}
