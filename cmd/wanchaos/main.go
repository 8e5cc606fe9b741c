// Command wanchaos is the chaos driver: it runs declarative fault
// scenarios — partitions, heals, crashes with recovery, delay spikes,
// leader flaps — against a cluster under client load and verifies that
// the §2.2 properties hold throughout and that delivery resumes after the
// faults end. It exits non-zero on any violation, failed operation, or
// stalled post-heal progress.
//
// Live mode (default) drives a real TCP cluster with the replicated KV
// service under a closed-loop client load while the scenario runs
// (replicas restart from in-memory durable stores, so crash/restart needs
// no disk):
//
//	wanchaos -scenario partition-recovery -groups 2 -d 3 -wan 5ms -clients 100
//	wanchaos -scenario suite -clients 100        # all six scenarios
//
// The lease-partition scenario additionally enables leader leases, serves
// half the load as lease-consistent reads, and pins the read tier's safety
// hand-off: the severed holder's lease must lapse strictly before the
// successor's activates, so no read served under the old lease can be
// stale.
//
// Sim mode replays the same scenarios deterministically on the virtual
// cluster under a Poisson workload:
//
//	wanchaos -mode sim -scenario suite -algo a1 -seed 7
//
// Measure mode records the failure-detection experiment of EXPERIMENTS.md
// ("partition & heal"): leader re-election latency after isolating the
// rank-0 leader, trust-restoration latency after the heal, and
// time-to-resume-delivery after healing a group partition:
//
//	wanchaos -measure -suspectafter 250ms -wan 5ms
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"wanamcast"
	"wanamcast/internal/config"
	"wanamcast/internal/fd"
	"wanamcast/internal/harness"
	"wanamcast/internal/metrics"
	"wanamcast/internal/scenario"
	"wanamcast/internal/storage"
	"wanamcast/internal/svc"
	"wanamcast/internal/types"
	"wanamcast/internal/workload"
)

func main() {
	f, err := parseFlags(flag.CommandLine, os.Args[1:])
	if err != nil {
		harness.Usagef("wanchaos", "%v", err)
	}
	os.Exit(run(f))
}

// flags is wanchaos's command line: the shared cluster knobs plus its own
// scenario and workload flags.
type flags struct {
	cfg       config.Config
	telemetry *string                // -telemetry address
	startProf func() (func(), error) // starts the -*profile outputs
	mode      string
	scenario  string
	scenarios []scenario.Scenario // resolved scenario, or the whole suite
	svcPort   int
	clients   int
	ops       int
	timeout   time.Duration
	unit      time.Duration
	spike     time.Duration
	algo      string
	seed      int64
	measure   bool
	verbose   bool
}

// portStride is how far apart consecutive live scenarios sit in port
// space: each gets a disjoint block so a fresh cluster never binds a port
// the previous one just released, and the block must cover the cluster
// itself, not just a fixed 64.
func (f *flags) portStride() int {
	if n := f.cfg.Groups * f.cfg.PerGroup; n > 64 {
		return n
	}
	return 64
}

// parseFlags registers wanchaos's flags on fs, parses args, and validates
// everything before anything is built.
func parseFlags(fs *flag.FlagSet, args []string) (*flags, error) {
	f := &flags{cfg: config.Config{Groups: 2, PerGroup: 3, BasePort: 27000,
		WANDelay: 5 * time.Millisecond, MaxBatch: 64, Pipeline: 2,
		HeartbeatEvery: 50 * time.Millisecond, SuspectAfter: 250 * time.Millisecond}}
	// wanchaos picks the lease per scenario and restarts replicas from
	// in-memory stores, so it has no lease or disk flags.
	f.cfg.Bind(fs, "leasems", "skewms", "datadir", "nofsync", "snapevery")
	f.telemetry = harness.TelemetryFlag(fs, &f.cfg.TraceSpans)
	f.startProf = harness.ProfileFlags(fs)
	fs.StringVar(&f.mode, "mode", "live", "live (real TCP + KV service under load) or sim (deterministic virtual time)")
	fs.StringVar(&f.scenario, "scenario", "suite", "scenario name (partition-heal, asym-partition, leader-flap, delay-spike, partition-recovery, lease-partition) or \"suite\" for all")
	fs.IntVar(&f.svcPort, "svcport", 28000, "client-facing base port (live)")
	fs.IntVar(&f.clients, "clients", 100, "closed-loop KV clients (live)")
	fs.IntVar(&f.ops, "ops", 4, "operations per client (live)")
	fs.DurationVar(&f.timeout, "timeout", 250*time.Millisecond, "client first-attempt reply timeout (doubles per retry)")
	fs.DurationVar(&f.unit, "unit", 500*time.Millisecond, "scenario time step: faults start at 1×unit, last heal by ~3.5×unit")
	fs.DurationVar(&f.spike, "spike", 0, "delay-spike override (0 = max(unit, 8×wan))")
	fs.StringVar(&f.algo, "algo", "a1", "sim mode: algorithm under chaos (a1 or a2)")
	fs.Int64Var(&f.seed, "seed", 1, "workload/sim seed")
	fs.BoolVar(&f.measure, "measure", false, "measure re-election/trust-restore/resume latencies instead of running a scenario")
	fs.BoolVar(&f.verbose, "v", false, "log every scenario event and delivery progress")
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	if err := f.cfg.Validate(); err != nil {
		return nil, err
	}
	switch {
	case f.mode != "live" && f.mode != "sim":
		return nil, fmt.Errorf("-mode must be live or sim (got %q)", f.mode)
	case f.cfg.Groups < 2:
		return nil, fmt.Errorf("-groups must be at least 2 (nothing to partition with %d)", f.cfg.Groups)
	case f.cfg.PerGroup < 3:
		return nil, fmt.Errorf("-d must be at least 3 (crash recovery needs a surviving majority per group)")
	case f.clients < 1 || f.ops < 1:
		return nil, fmt.Errorf("-clients and -ops must be at least 1")
	case f.timeout <= 0 || f.unit <= 0 || f.spike < 0:
		return nil, fmt.Errorf("-timeout and -unit must be positive, -spike non-negative")
	case f.algo != string(harness.AlgoA1) && f.algo != string(harness.AlgoA2):
		return nil, fmt.Errorf("-algo must be a1 or a2 (got %q)", f.algo)
	case f.cfg.TraceSpans && f.mode != "live":
		return nil, fmt.Errorf("-telemetry, -spanbuf, and -flightdump need live mode")
	}
	if f.mode == "live" {
		span := f.portStride() * len(scenario.Names())
		if err := config.PortRange(f.cfg.BasePort, span); err != nil {
			return nil, fmt.Errorf("-port: %v", err)
		}
		if err := config.PortRange(f.svcPort, span); err != nil {
			return nil, fmt.Errorf("-svcport: %v", err)
		}
	}
	if f.spike == 0 {
		f.spike = f.unit
		if s := 8 * f.cfg.WANDelay; s > f.spike {
			f.spike = s
		}
	}
	topo := types.NewTopology(f.cfg.Groups, f.cfg.PerGroup)
	suiteCfg := scenario.SuiteConfig{Unit: f.unit, Spike: f.spike}
	if f.scenario == "suite" {
		f.scenarios = scenario.Suite(topo, suiteCfg)
	} else {
		sc, ok := scenario.ByName(topo, suiteCfg, f.scenario)
		if !ok {
			return nil, fmt.Errorf("unknown -scenario %q (have %v and \"suite\")", f.scenario, scenario.Names())
		}
		f.scenarios = []scenario.Scenario{sc}
	}
	return f, nil
}

func run(f *flags) int {
	cfg := f.cfg
	stopProf, err := f.startProf()
	if err != nil {
		fmt.Fprintln(os.Stderr, "wanchaos:", err)
		return 1
	}
	defer stopProf()

	if f.measure {
		return measureLatencies(cfg, f.verbose)
	}

	failures := 0
	for i, sc := range f.scenarios {
		fmt.Printf("=== scenario %s (%s mode) ===\n", sc.Name, f.mode)
		if f.verbose {
			fmt.Println("   ", sc)
		}
		var ok bool
		if f.mode == "sim" {
			ok = runSim(sc, f)
		} else {
			// Fresh ports per scenario: listeners of the previous cluster
			// are closed, but lingering TIME_WAIT sockets must not flake
			// the next bind.
			ok = runLive(sc, f, i*f.portStride())
		}
		if ok {
			fmt.Printf("=== %s: OK ===\n\n", sc.Name)
		} else {
			failures++
			fmt.Printf("=== %s: FAILED ===\n\n", sc.Name)
		}
	}
	if failures > 0 {
		fmt.Printf("wanchaos: %d of %d scenarios FAILED\n", failures, len(f.scenarios))
		return 1
	}
	fmt.Printf("wanchaos: all %d scenarios passed (§2.2 clean, post-heal delivery resumed)\n", len(f.scenarios))
	return 0
}

// runLive runs one scenario against a real TCP cluster serving the KV
// service under closed-loop client load, on ports portOff past the base
// ports. Replicas persist to in-memory stores so crash/restart scenarios
// work without disk.
func runLive(sc scenario.Scenario, f *flags, portOff int) bool {
	// Scenarios that isolate a process exercise the lease hand-off: enable
	// leader leases and serve part of the load as lease-consistent reads so
	// the fenced window is actually crossed by read traffic.
	leasing := false
	for _, e := range sc.Events {
		if e.Kind == scenario.Isolate {
			leasing = true
		}
	}
	cfg := f.cfg.WithDefaults()
	cfg.BasePort += portOff
	cfg.Check = true
	if leasing {
		cfg.LeaseDuration = cfg.SuspectAfter
	}
	stores := make([]storage.Store, cfg.Groups*cfg.PerGroup)
	for i := range stores {
		stores[i] = storage.NewMem()
	}
	cfg.StoreFor = func(p wanamcast.ProcessID) storage.Store { return stores[p] }
	cluster := wanamcast.NewLiveCluster(cfg)
	if err := cluster.Start(); err != nil {
		fmt.Fprintln(os.Stderr, "wanchaos:", err)
		return false
	}
	defer cluster.Stop()

	topo := cluster.Topology()
	route := svc.PrefixRoute(cfg.Groups)
	stats := &metrics.Service{}
	svcCfg := svc.ServiceConfig{
		BasePort: f.svcPort + portOff,
		NewMachine: func(p types.ProcessID, g types.GroupID) svc.StateMachine {
			return svc.NewKVMachine(g, route)
		},
		Stats:  stats,
		Tracer: cluster.Tracer(),
	}
	if leasing {
		svcCfg.LeaseFor = func(p types.ProcessID) *fd.Lease { return cluster.ReadLease(p) }
	}
	service, err := svc.ServeCluster(cluster, topo, svcCfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "wanchaos:", err)
		return false
	}
	defer service.Stop()

	if *f.telemetry != "" {
		tsrv, err := harness.ServeTelemetry(*f.telemetry, cluster.TelemetrySource("wanchaos", stats))
		if err != nil {
			fmt.Fprintln(os.Stderr, "wanchaos:", err)
			return false
		}
		defer tsrv.Close()
		fmt.Printf("  telemetry: http://%s/metrics\n", tsrv.Addr())
	}

	funcs := cluster.Chaos()
	funcs.RestartFn = service.RestartReplica // reincarnate the replica's server too
	if f.verbose {
		funcs.Logf = func(format string, args ...any) {
			fmt.Printf("  chaos: "+format+"\n", args...)
		}
	}
	scenario.Apply(funcs, sc)

	// The load must OVERLAP the fault schedule, not finish before it: run
	// closed-loop waves (fresh sessions each — the replicated dedup
	// windows outlive a wave) until the scenario's horizon plus detector
	// slack has passed. Waves that span a partition stall on their
	// cross-shard commands and complete after the heal via client retries.
	fmt.Printf("  load: %d clients x %d ops per wave under %s (horizon %v)\n",
		f.clients, f.ops, sc.Name, sc.Horizon())
	begin := time.Now()
	totalOps, totalErrs, waves := 0, 0, 0
	for {
		spec := svc.LoadSpec{
			Clients:     f.clients,
			Ops:         f.ops,
			Mix:         workload.DefaultMix(),
			Timeout:     f.timeout,
			Seed:        f.seed + int64(waves),
			SessionBase: uint64(waves * (f.clients + 1)),
		}
		if leasing {
			spec.ReadFraction = 0.5
			spec.Consistency = svc.ConsistencyLease
		}
		res := svc.RunKVLoad(topo, service.Addrs(), spec, stats)
		totalOps += res.Ops
		totalErrs += res.Errors
		waves++
		if time.Since(begin) > sc.Horizon()+cfg.SuspectAfter {
			break
		}
	}
	elapsed := time.Since(begin)
	fmt.Printf("  ops: %d ok, %d failed in %d waves over %v (%.1f ops/s)\n",
		totalOps, totalErrs, waves, elapsed.Round(time.Millisecond),
		float64(totalOps)/elapsed.Seconds())

	good := true
	if totalErrs > 0 {
		fmt.Printf("  FAIL: %d client operations failed\n", totalErrs)
		good = false
	}

	// Post-heal delivery progress: a fresh broadcast and a fresh
	// cross-group multicast must reach every correct process.
	correct := topo.N()
	probeFrom := topo.Members(1)[0]
	bid := cluster.Broadcast(probeFrom, "post-heal-probe-a2")
	if !cluster.WaitDelivered(bid, correct, 30*time.Second) {
		fmt.Printf("  FAIL: post-heal broadcast reached %d/%d processes\n",
			cluster.DeliveredCount(bid), correct)
		good = false
	}
	mid := cluster.Multicast(probeFrom, "post-heal-probe-a1", 0, 1)
	if !cluster.WaitDelivered(mid, 2*cfg.PerGroup, 30*time.Second) {
		fmt.Printf("  FAIL: post-heal multicast reached %d/%d processes\n",
			cluster.DeliveredCount(mid), 2*cfg.PerGroup)
		good = false
	}

	// §2.2 over the whole run, faults included.
	if v := cluster.WaitPropertiesClean(30 * time.Second); len(v) > 0 {
		fmt.Printf("  FAIL: %d property violations, first: %s\n", len(v), v[0])
		good = false
	} else {
		t0 := time.Now()
		cluster.CheckProperties() // the clean verdict once more, timed without the polling waits
		fmt.Printf("  properties: uniform integrity, validity, uniform agreement, uniform prefix order: OK (check took %v)\n",
			time.Since(t0).Round(time.Microsecond))
	}
	// Lease-safety pin: the isolated holder's lease must have lapsed
	// strictly before the successor's activated, so no read the old holder
	// served could land after the successor started serving — the fenced
	// window never overlaps.
	if leasing {
		victim := topo.Members(0)[0]
		succ := topo.Members(0)[1]
		succLease := cluster.ReadLease(succ)
		if succLease.Activations() == 0 {
			fmt.Println("  FAIL: successor never earned a lease — the failover path was not exercised")
			good = false
		} else {
			old := cluster.ReadLease(victim)
			// ExpiredAt is frozen lazily (on the next extend/revoke); if the
			// victim has not re-earned its lease yet, its still-frozen
			// ValidUntil IS the old incarnation's end.
			oldEnd := old.ExpiredAt()
			if oldEnd.IsZero() {
				oldEnd = old.ValidUntil()
			}
			gap := succLease.ActivatedAt().Sub(oldEnd)
			if gap <= 0 {
				fmt.Printf("  FAIL: lease overlap — old holder valid until %v, successor active from %v\n",
					oldEnd, succLease.ActivatedAt())
				good = false
			} else {
				fmt.Printf("  lease hand-off: old holder lapsed %v before the successor activated (stale-reads rejected: %d, lease reads denied: %d)\n",
					gap.Round(time.Millisecond), stats.Snapshot().StaleReads, stats.Snapshot().LeaseDenied)
			}
		}
	}
	st := cluster.Stats()
	fmt.Printf("  fd: suspicions=%d trust-restored=%d leader-changes=%d\n",
		st.Suspicions, st.TrustRestorations, st.LeaderChanges)
	return good
}

// runSim replays one scenario deterministically on the simulated runtime
// under a Poisson workload.
func runSim(sc scenario.Scenario, f *flags) bool {
	cfg, seed := f.cfg, f.seed
	s := harness.Build(harness.Algo(f.algo), harness.Options{
		Groups: cfg.Groups, PerGroup: cfg.PerGroup, Inter: cfg.WANDelay, Intra: cfg.LANDelay, Seed: seed,
		MaxBatch: cfg.MaxBatch, Pipeline: cfg.Pipeline,
		Bandwidth: cfg.Bandwidth, Lanes: cfg.Lanes,
	})
	funcs := s.Chaos()
	if f.verbose {
		funcs.Logf = func(format string, args ...any) {
			fmt.Printf("  chaos: "+format+"\n", args...)
		}
	}
	scenario.Apply(funcs, sc)

	crashed := make(map[types.ProcessID]bool)
	for _, e := range sc.Events {
		if e.Kind == scenario.Crash {
			for _, p := range e.Procs {
				crashed[p] = true
			}
		}
	}
	casts := workload.Generate(s.Topo, workload.Spec{
		Casts:      40,
		MeanPeriod: sc.Horizon() / 30,
		Poisson:    true,
		Seed:       seed,
	})
	for _, c := range casts {
		c := c
		s.RT.Scheduler().At(c.At, func() {
			if !crashed[c.From] {
				s.Cast(c.From, c.Payload, c.Dest)
			}
		})
	}
	probeAt := sc.Horizon() + 100*time.Millisecond
	s.RT.Scheduler().At(probeAt, func() {
		s.Cast(s.Topo.Members(1)[0], "post-heal-probe", s.Topo.AllGroups())
	})
	s.RT.Scheduler().MaxSteps = 50_000_000
	s.Run()

	good := true
	t0 := time.Now()
	if v := s.Check(); len(v) > 0 {
		fmt.Printf("  FAIL: %d property violations, first: %s\n", len(v), v[0])
		good = false
	} else {
		fmt.Printf("  properties: uniform integrity, validity, uniform agreement, uniform prefix order: OK (check took %v)\n",
			time.Since(t0).Round(time.Microsecond))
	}
	probes := 0
	for _, del := range s.Deliveries {
		if del.Payload == "post-heal-probe" {
			probes++
		}
	}
	want := 0
	for _, p := range s.Topo.AllProcesses() {
		if !crashed[p] {
			want++
		}
	}
	if probes != want {
		fmt.Printf("  FAIL: post-heal probe delivered %d/%d times\n", probes, want)
		good = false
	} else {
		fmt.Printf("  post-heal probe delivered by all %d correct processes at t=%v\n", want, s.RT.Now())
	}
	fmt.Printf("  stats: %v\n", s.Col.Snapshot())
	return good
}

// measureLatencies records the EXPERIMENTS.md "partition & heal" numbers:
// how long after isolating the rank-0 leader its group re-elects, how
// long after the heal trust (and leadership) is restored, and how long
// after healing a full inter-group partition a stalled broadcast resumes
// and completes delivery.
func measureLatencies(cfg config.Config, verbose bool) int {
	cfg = cfg.WithDefaults()
	groups, d := cfg.Groups, cfg.PerGroup
	hbEvery, suspAft, wan := cfg.HeartbeatEvery, cfg.SuspectAfter, cfg.WANDelay
	cluster := wanamcast.NewLiveCluster(cfg)
	leader := cluster.Process(0, 0)
	watcher := cluster.Process(0, 1)
	changes := make(chan wanamcast.ProcessID, 16)
	cluster.SubscribeLeader(watcher, func(_ wanamcast.GroupID, l wanamcast.ProcessID) {
		changes <- l
	})
	if err := cluster.Start(); err != nil {
		fmt.Fprintln(os.Stderr, "wanchaos:", err)
		return 1
	}
	defer cluster.Stop()
	time.Sleep(4 * hbEvery) // let the detectors see everyone first

	waitLeader := func(want wanamcast.ProcessID) bool {
		deadline := time.After(30 * time.Second)
		for {
			select {
			case l := <-changes:
				if verbose {
					fmt.Printf("  (leader change at watcher -> %v)\n", l)
				}
				if l == want {
					return true
				}
			case <-deadline:
				return false
			}
		}
	}

	// Leader re-election: isolate the rank-0 leader inside its group.
	t0 := time.Now()
	cluster.Fabric().Isolate(leader)
	if !waitLeader(watcher) {
		fmt.Fprintln(os.Stderr, "wanchaos: group never re-elected after isolating its leader")
		return 1
	}
	reelect := time.Since(t0)

	// Trust restoration: heal and wait for the old leader to return.
	t1 := time.Now()
	cluster.Fabric().HealIsolate(leader)
	if !waitLeader(leader) {
		fmt.Fprintln(os.Stderr, "wanchaos: trust never restored after heal")
		return 1
	}
	restore := time.Since(t1)

	// Time-to-resume-delivery: broadcast into a group partition, heal,
	// and time the full fan-in from the heal instant.
	cluster.Fabric().Partition([]wanamcast.GroupID{0}, allOtherGroups(groups), true)
	id := cluster.Broadcast(leader, "stalled-until-heal")
	time.Sleep(500 * time.Millisecond) // let the cast stall mid-protocol
	partial := cluster.DeliveredCount(id)
	t2 := time.Now()
	cluster.Fabric().HealAll()
	if !cluster.WaitDelivered(id, groups*d, 30*time.Second) {
		fmt.Fprintln(os.Stderr, "wanchaos: delivery never resumed after heal")
		return 1
	}
	resume := time.Since(t2)
	if verbose {
		fmt.Printf("  (deliveries during partition: %d of %d)\n", partial, groups*d)
	}

	fmt.Printf("suspectafter=%v heartbeat=%v wan=%v: reelect=%v trust-restore=%v resume-delivery=%v\n",
		suspAft, hbEvery, wan,
		reelect.Round(time.Millisecond), restore.Round(time.Millisecond), resume.Round(time.Millisecond))
	return 0
}

func allOtherGroups(groups int) []wanamcast.GroupID {
	out := make([]wanamcast.GroupID, 0, groups-1)
	for g := 1; g < groups; g++ {
		out = append(out, wanamcast.GroupID(g))
	}
	return out
}
