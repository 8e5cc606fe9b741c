package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"syscall"
	"time"

	"wanamcast"
	"wanamcast/internal/metrics"
	"wanamcast/internal/trace"
	"wanamcast/internal/types"
	"wanamcast/internal/wire"
)

// setupRounds is how often a run sets its workload up. The driver's
// contract asks for the median of several set-ups in one run; the window is
// measured on the first, and the others follow it (repeatSetups), so no
// stopped cluster's heap or timers are left over in the measured window.
const setupRounds = 5

// run is everything one measured run of a workload produced, before it is
// reduced to metrics.
type run struct {
	w      workloadDef
	traced bool
	window time.Duration
	// steady bounds the ops whose latency counts: those due before it.
	// It is the whole window except on durable-crash, where the crash
	// episodes follow it.
	steady   time.Duration
	setups   []time.Duration
	warm     phase
	main     phase
	episodes []episode
	proc     procUsage
	laneMax  int

	before, after metrics.Stats // cluster counters around the window
	fsyncBefore   wanamcast.FsyncStats
	fsync         wanamcast.FsyncStats
	svc           metrics.ServiceStats
	stages        map[string]metrics.StageSummary // traced runs
	spans         spanTimes                       // traced runs
	sim           *simRun                         // sim-scale

	problems []string // correctness-gate failures
}

func (r *run) problemf(format string, args ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

// procUsage is what the whole process (cluster, service and generator
// share it) consumed over the window.
type procUsage struct {
	cpu     time.Duration
	mallocs uint64
	bytes   uint64
	gcPause time.Duration
	rssPeak uint64 // bytes, high-water mark of the process so far
}

func readProc() procUsage {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // fails only on a bad argument
	tv := func(t syscall.Timeval) time.Duration {
		return time.Duration(t.Sec)*time.Second + time.Duration(t.Usec)*time.Microsecond
	}
	return procUsage{
		cpu: tv(ru.Utime) + tv(ru.Stime), mallocs: ms.Mallocs, bytes: ms.TotalAlloc,
		gcPause: time.Duration(ms.PauseTotalNs), rssPeak: uint64(ru.Maxrss) << 10,
	}
}

func (p procUsage) since(q procUsage) procUsage {
	return procUsage{cpu: p.cpu - q.cpu, mallocs: p.mallocs - q.mallocs, bytes: p.bytes - q.bytes,
		gcPause: p.gcPause - q.gcPause, rssPeak: p.rssPeak}
}

// runLive sets a live workload up, plays its load for window and checks
// what came back. layers adds the sampling only per-layer metrics need.
func runLive(w workloadDef, seed int64, window time.Duration, traced, layers bool) (*run, error) {
	r := &run{w: w, traced: traced, window: window, steady: window}
	t0 := time.Now()
	e, err := startEnv(w, seed, traced)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	r.setups = append(r.setups, time.Since(t0))
	defer e.stop()
	r.warm = e.warm
	topo := e.cl.Topology()

	stopLanes := func() {}
	if layers {
		stopLanes = r.sampleLanes(e.cl)
	}
	r.before = e.cl.Stats()
	r.fsyncBefore = e.cl.FsyncStats()
	procBefore := readProc()
	switch {
	case w.name == "bcast-wan":
		r.main, err = e.runBroadcasts(broadcastSchedule(seed, w.rate, window), window)
	case w.rate > 0:
		ops := openSchedule(topo, seed, w.rate, window)
		episodes := make(chan []episode, 1)
		if w.durable {
			r.steady = crashScale(window, crashAt[0])
			go func() { episodes <- e.runEpisodes(time.Now(), window, seed) }()
		} else {
			episodes <- nil
		}
		r.main, err = runOpen(e.conns, ops, window)
		r.episodes = <-episodes
		for i, ep := range r.episodes {
			r.episodes[i].detect = e.detected(ep)
		}
	default:
		r.main, err = runClosed(e.conns, clientPlans(topo, seed, closedPlanLen, w.reads, false), w.sessions, window, 0)
	}
	r.proc = readProc().since(procBefore)
	stopLanes()
	if err != nil {
		return nil, err
	}
	r.after = e.cl.Stats()
	r.fsync = e.cl.FsyncStats()
	r.svc = e.svcStats.Snapshot()

	// The correctness gate.
	for _, msg := range r.main.errs {
		r.problemf("client: %s", msg)
	}
	if e.service != nil {
		if err := e.converged(5 * time.Second); err != nil {
			r.problemf("replicas diverged: %v", err)
		}
	}
	for i, ep := range r.episodes {
		if ep.err != nil {
			r.problemf("crash episode %d (g%d): %v", i+1, ep.shard, ep.err)
		}
	}
	if traced {
		if v := e.cl.WaitPropertiesClean(10 * time.Second); len(v) > 0 {
			r.problemf("§2.2 violated: %v", v)
		}
		tr := e.cl.Tracer()
		r.stages = make(map[string]metrics.StageSummary)
		for _, s := range tr.Stats().Snapshot() {
			r.stages[s.Name] = s
		}
		r.spans = spanTimesOf(tr.Snapshot(), topo)
		if err := writeSpans(tr, w.name); err != nil {
			return nil, err
		}
	}
	return r, nil
}

// repeatSetups sets the workload up and tears it down again until the run
// has setupRounds set-up times.
func (r *run) repeatSetups(seed int64) error {
	for len(r.setups) < setupRounds {
		if r.sim != nil {
			again := &run{w: r.w, window: r.window, sim: &simRun{}}
			again.setUpSim(seed)
			r.setups = append(r.setups, again.setups...)
			continue
		}
		t0 := time.Now()
		e, err := startEnv(r.w, seed, false)
		if err != nil {
			return fmt.Errorf("set-up %d: %w", len(r.setups)+1, err)
		}
		r.setups = append(r.setups, time.Since(t0))
		e.stop()
	}
	return nil
}

// sampleLanes polls the ordering lanes' inbox depths until stopped.
func (r *run) sampleLanes(cl *wanamcast.LiveCluster) (stop func()) {
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-done:
				return
			case <-tick.C:
				for _, d := range cl.LaneDepths() {
					if d > r.laneMax {
						r.laneMax = d
					}
				}
			}
		}
	}()
	return func() { close(done); wg.Wait() }
}

// writeSpans dumps the traced run's retained spans, one JSON object per
// line, where the README's reading guide expects them.
func writeSpans(tr *trace.Tracer, workload string) error {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(outDir, workload+".spans.jsonl")
	if err := tr.DumpFile(path); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	return nil
}

// spanTimes are the layer timings that exist only as pairs of spans.
type spanTimes struct {
	admit        dist // rmcast: send → each admit, ms
	proposeLearn dist // consensus: propose → each group member's learn, ms
}

func spanTimesOf(events []trace.Event, topo *types.Topology) spanTimes {
	type instance struct {
		g    types.GroupID
		inst int64
	}
	sent := make(map[types.MessageID]int64)
	proposed := make(map[instance]int64)
	var admit, learn []float64
	for _, ev := range events { // oldest first
		switch ev.Stage {
		case trace.StageRMSend:
			sent[ev.ID] = ev.At
		case trace.StageRMAdmit:
			if at, ok := sent[ev.ID]; ok {
				admit = append(admit, float64(ev.At-at)/1e6)
			}
		case trace.StagePropose:
			k := instance{topo.GroupOf(ev.Proc), ev.Aux}
			if _, again := proposed[k]; !again { // a re-proposal keeps the first time
				proposed[k] = ev.At
			}
		case trace.StageLearn:
			if at, ok := proposed[instance{topo.GroupOf(ev.Proc), ev.Aux}]; ok {
				learn = append(learn, float64(ev.At-at)/1e6)
			}
		}
	}
	return spanTimes{admit: newDist(admit), proposeLearn: newDist(learn)}
}

// The durable-crash timeline, in 24ths of the window. The first quarter
// is steady. Then every 2/24 the rank-0 replica (consensus leader and
// lease holder) of the next shard, g0, g1, g2 and round again, is crashed,
// and restarted 1/24 later: at the default 12 s window that is half a
// second, twice what the detector needs to move the leader, and another
// half second for the restarted replica to catch up before the next crash.
// The issue's timeline has three episodes 5/24 apart; nine in the same
// window make the episode medians repeat. crashScale maps a point of the
// timeline onto the run's window.
var (
	crashAt      = []float64{6, 8, 10, 12, 14, 16, 18, 20, 22}
	restartAfter = 1.0
)

// crashJitter delays each crash by up to one heartbeat period, drawn from
// the seed. How long a crash goes unnoticed depends on where in the
// victim's heartbeat period it falls; crashes a whole number of periods
// apart would all fall at the same point, and a run's outages would be
// uniformly short or long.
const crashJitter = 50 * time.Millisecond

func crashScale(window time.Duration, at float64) time.Duration {
	return time.Duration(float64(window) * at / 24)
}

type episode struct {
	shard     types.GroupID
	victim    types.ProcessID
	crash     time.Time // Crash called
	detect    time.Time // the shard's rank-1 replica saw leadership move (zero: never)
	restart   time.Time // RestartReplica called
	restarted time.Time // RestartReplica returned
	caughtUp  time.Time // the new server's watermark reached its peers'
	err       error
}

// runEpisodes crashes and restarts one leader after another on the
// timeline while the open loop keeps sending.
func (e *env) runEpisodes(start time.Time, window time.Duration, seed int64) []episode {
	rng := rand.New(rand.NewSource(seed))
	var out []episode
	for i, at := range crashAt {
		g := types.GroupID(i % groups)
		ep := episode{shard: g, victim: e.cl.Process(g, 0)}
		time.Sleep(time.Until(start.Add(crashScale(window, at) + time.Duration(rng.Int63n(int64(crashJitter))))))
		ep.crash = time.Now()
		e.cl.Crash(ep.victim)
		time.Sleep(time.Until(start.Add(crashScale(window, at+restartAfter))))
		ep.restart = time.Now()
		ep.err = e.service.RestartReplica(ep.victim)
		ep.restarted = time.Now()
		deadline := start.Add(crashScale(window, at+2*restartAfter))
		if ep.err == nil {
			ep.caughtUp, ep.err = e.awaitCatchUp(ep, deadline)
		}
		if ep.err == nil {
			ep.err = e.sameStateAsPeer(ep, deadline)
		}
		out = append(out, ep)
	}
	return out
}

// awaitCatchUp polls until the restarted replica has applied as much of
// its shard's delivery sequence as the slowest of its peers.
func (e *env) awaitCatchUp(ep episode, deadline time.Time) (time.Time, error) {
	peers := e.cl.Topology().Members(ep.shard)
	for {
		behind := ^uint64(0)
		for _, p := range peers {
			if p != ep.victim {
				if wm := e.service.Server(p).Watermark(); wm < behind {
					behind = wm
				}
			}
		}
		now := time.Now()
		if e.service.Server(ep.victim).Watermark() >= behind {
			return now, nil
		}
		if now.After(deadline) {
			return now, fmt.Errorf("%v still behind its peers %v after its restart",
				ep.victim, now.Sub(ep.restarted).Round(time.Millisecond))
		}
		time.Sleep(200 * time.Microsecond)
	}
}

// sameStateAsPeer checks the restarted replica's state against its peers'
// while the load goes on. A KV snapshot begins with the number of commands
// applied, and two replicas that have applied equally many must be
// byte-identical; it polls until the restarted one is level with a peer.
func (e *env) sameStateAsPeer(ep episode, deadline time.Time) error {
	for {
		mine, err := e.appliedSnapshot(ep.victim)
		if err != nil {
			return err
		}
		for _, p := range e.cl.Topology().Members(ep.shard) {
			if p == ep.victim {
				continue
			}
			theirs, err := e.appliedSnapshot(p)
			if err != nil {
				return err
			}
			if theirs.applied != mine.applied {
				continue
			}
			if !bytes.Equal(theirs.snap, mine.snap) {
				return fmt.Errorf("after its restart %v's state differs from %v's at %d applied commands", ep.victim, p, mine.applied)
			}
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%v was never level with a peer after its restart, so its state could not be compared", ep.victim)
		}
		time.Sleep(200 * time.Microsecond)
	}
}

type appliedSnap struct {
	applied uint64
	snap    []byte
}

func (e *env) appliedSnapshot(p types.ProcessID) (appliedSnap, error) {
	snap, err := e.service.Machine(p).Snapshot()
	if err != nil {
		return appliedSnap{}, fmt.Errorf("snapshot of %v: %w", p, err)
	}
	applied, _, err := wire.Uvarint(snap)
	if err != nil {
		return appliedSnap{}, fmt.Errorf("snapshot of %v: %w", p, err)
	}
	return appliedSnap{applied, snap}, nil
}

// detected is when the shard's rank-1 replica first saw leadership leave
// the victim after the crash (zero if it never did).
func (e *env) detected(ep episode) time.Time {
	e.mu.Lock()
	defer e.mu.Unlock()
	for _, lc := range e.leaders {
		if lc.g == ep.shard && lc.leader != ep.victim && lc.at.After(ep.crash) {
			return lc.at
		}
	}
	return time.Time{}
}
