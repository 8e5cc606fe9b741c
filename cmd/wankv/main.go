// Command wankv runs the client-facing replicated key-value service: a
// live wide-area cluster (real TCP, injected WAN delay) whose every
// replica also serves clients through the exactly-once session protocol of
// internal/svc. Keys of the form "g<N>/..." live on shard N; a put
// touching several shards is one cross-shard command, genuinely multicast
// to exactly those shards (Algorithm A1).
//
// Serve mode (default) keeps the service up until interrupted:
//
//	wankv -groups 3 -d 3 -svcport 20000
//
// Load mode drives a closed-loop multi-client workload against the
// service, prints the client-observed latency by shard fan-out, verifies
// the §2.2 properties over the run, and exits non-zero on any violation
// or failed operation:
//
//	wankv -groups 3 -d 3 -clients 100 -ops 5 -check
//
// The read tier serves a read-heavy mix without a WAN round trip per
// read: -reads sets the read fraction and -consistency picks the mode —
// ordered (a full total-order round), lease (linearizable at the leader
// under a leader lease, enabled by -leasems and guarded by -skewms), or
// watermark (monotonic session reads at any replica):
//
//	wankv -groups 4 -d 3 -clients 64 -ops 50 -reads 0.95 -consistency lease -leasems 250
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
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
		harness.Usagef("wankv", "%v", err)
	}
	os.Exit(run(f))
}

// flags is wankv's command line: the shared cluster knobs plus its own
// service and workload flags.
type flags struct {
	cfg       config.Config
	telemetry *string                // -telemetry address
	startProf func() (func(), error) // starts the -*profile outputs
	svcPort   int
	clients   int
	ops       int
	timeout   time.Duration
	seed      int64
	reads     float64
	consist   string
	mode      svc.Consistency // parsed consist
	scenario  string
	sc        scenario.Scenario // resolved scenario, when one is named
	unit      time.Duration
}

// parseFlags registers wankv's flags on fs, parses args, and validates
// everything before anything is built.
func parseFlags(fs *flag.FlagSet, args []string) (*flags, error) {
	f := &flags{cfg: config.Config{Groups: 3, PerGroup: 3, BasePort: 19000,
		WANDelay: 100 * time.Millisecond, MaxBatch: 64, Pipeline: 4}}
	f.cfg.Bind(fs)
	f.telemetry = harness.TelemetryFlag(fs, &f.cfg.TraceSpans)
	f.startProf = harness.ProfileFlags(fs)
	fs.BoolVar(&f.cfg.Check, "check", false, "verify the §2.2 properties over the run (unbounded memory)")
	fs.IntVar(&f.svcPort, "svcport", 20000, "client-facing base port (replica p serves on svcport+p)")
	fs.IntVar(&f.clients, "clients", 0, "closed-loop client sessions; 0 = serve until interrupted")
	fs.IntVar(&f.ops, "ops", 5, "operations per client (load mode)")
	fs.DurationVar(&f.timeout, "timeout", time.Second, "client first-attempt reply timeout (doubles per retry)")
	fs.Int64Var(&f.seed, "seed", 1, "workload seed")
	fs.Float64Var(&f.reads, "reads", 0, "read fraction of the load in [0,1] (load mode; 0 = write-only)")
	fs.StringVar(&f.consist, "consistency", "ordered", "read consistency: ordered (full total-order round), lease (leader-local linearizable; needs -leasems), watermark (any-replica monotonic)")
	fs.StringVar(&f.scenario, "scenario", "", "chaos scenario to run under the load (partition-heal, asym-partition, leader-flap, delay-spike, partition-recovery, lease-partition); load mode only")
	fs.DurationVar(&f.unit, "unit", 500*time.Millisecond, "chaos scenario time step (with -scenario)")
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	if err := f.cfg.Validate(); err != nil {
		return nil, err
	}
	if err := config.PortRange(f.svcPort, f.cfg.Groups*f.cfg.PerGroup); err != nil {
		return nil, fmt.Errorf("-svcport: %v", err)
	}
	var err error
	switch {
	case f.clients < 0 || (f.clients > 0 && f.ops < 1):
		return nil, fmt.Errorf("-clients must be non-negative and -ops at least 1 in load mode")
	case f.timeout <= 0:
		return nil, fmt.Errorf("-timeout must be positive")
	case f.reads < 0 || f.reads > 1:
		return nil, fmt.Errorf("-reads must be within [0,1]: %v", f.reads)
	}
	if f.mode, err = svc.ParseConsistency(f.consist); err != nil {
		return nil, fmt.Errorf("-consistency: %v", err)
	}
	if f.mode == svc.ConsistencyLease && f.cfg.LeaseDuration == 0 {
		return nil, fmt.Errorf("lease-consistent reads need leader leases enabled (set -leasems)")
	}
	if f.scenario != "" {
		switch {
		case f.clients < 1:
			return nil, fmt.Errorf("-scenario needs load mode (-clients >= 1)")
		case f.cfg.Groups < 2:
			return nil, fmt.Errorf("-scenario needs at least 2 shards to partition")
		case f.unit <= 0:
			return nil, fmt.Errorf("-unit must be positive")
		}
		var ok bool
		topo := types.NewTopology(f.cfg.Groups, f.cfg.PerGroup)
		if f.sc, ok = scenario.ByName(topo, scenario.SuiteConfig{Unit: f.unit}, f.scenario); !ok {
			return nil, fmt.Errorf("unknown -scenario %q (have %v)", f.scenario, scenario.Names())
		}
	}
	return f, nil
}

// run holds the real main so deferred shutdowns survive the explicit exit
// code.
func run(f *flags) int {
	cfg := f.cfg
	stopProf, err := f.startProf()
	if err != nil {
		fmt.Fprintln(os.Stderr, "wankv:", err)
		return 1
	}
	defer stopProf()

	if f.scenario != "" && cfg.DataDir == "" {
		// Crash/restart scenarios need a durable store per replica; without
		// a data dir, in-memory stores keep the run volatile but
		// restartable.
		stores := make([]storage.Store, cfg.Groups*cfg.PerGroup)
		for i := range stores {
			stores[i] = storage.NewMem()
		}
		cfg.StoreFor = func(p wanamcast.ProcessID) storage.Store { return stores[p] }
	}
	cluster := wanamcast.NewLiveCluster(cfg)
	if err := cluster.Start(); err != nil {
		fmt.Fprintln(os.Stderr, "wankv:", err)
		return 1
	}
	defer cluster.Stop()

	topo := cluster.Topology()
	route := svc.PrefixRoute(cfg.Groups)
	stats := &metrics.Service{}
	svcCfg := svc.ServiceConfig{
		BasePort: f.svcPort,
		NewMachine: func(p types.ProcessID, g types.GroupID) svc.StateMachine {
			return svc.NewKVMachine(g, route)
		},
		Stats:  stats,
		Tracer: cluster.Tracer(),
	}
	if cfg.LeaseDuration > 0 {
		svcCfg.LeaseFor = func(p types.ProcessID) *fd.Lease { return cluster.ReadLease(p) }
	}
	service, err := svc.ServeCluster(cluster, topo, svcCfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "wankv:", err)
		return 1
	}
	defer service.Stop()

	fmt.Printf("wankv: %d shards x %d replicas, wan=%v lan=%v maxbatch=%d pipeline=%d lanes=%d\n",
		cfg.Groups, cfg.PerGroup, cfg.WANDelay, cfg.LANDelay, cfg.MaxBatch, cfg.Pipeline, cfg.WithDefaults().Lanes)
	if cfg.Bandwidth > 0 {
		fmt.Printf("  bandwidth: %d B/s per link (heartbeats exempt)\n", cfg.Bandwidth)
	}
	if cfg.DataDir != "" {
		mode := "fsync per batch"
		if cfg.NoFsync {
			mode = "fsync OFF"
		}
		fmt.Printf("  durability: %s (%s)\n", cfg.DataDir, mode)
	}
	for g := 0; g < cfg.Groups; g++ {
		fmt.Printf("  shard g%d: %v\n", g, service.Addrs()[types.GroupID(g)])
	}
	if *f.telemetry != "" {
		tsrv, err := harness.ServeTelemetry(*f.telemetry, cluster.TelemetrySource("wankv", stats))
		if err != nil {
			fmt.Fprintln(os.Stderr, "wankv:", err)
			return 1
		}
		defer tsrv.Close()
		fmt.Printf("  telemetry: http://%s/metrics\n", tsrv.Addr())
	}

	if f.clients == 0 {
		fmt.Println("serving; keys \"g<N>/...\" live on shard N; Ctrl-C to stop")
		ch := make(chan os.Signal, 1)
		signal.Notify(ch, os.Interrupt)
		<-ch
		return 0
	}

	if f.scenario != "" {
		funcs := cluster.Chaos()
		funcs.RestartFn = service.RestartReplica
		funcs.Logf = func(format string, args ...any) {
			fmt.Printf("chaos: "+format+"\n", args...)
		}
		scenario.Apply(funcs, f.sc)
		fmt.Printf("chaos: scenario %s armed (unit %v, horizon %v)\n", f.sc.Name, f.unit, f.sc.Horizon())
	}

	if f.reads > 0 {
		fmt.Printf("load: %d closed-loop clients x %d ops, %.0f%% reads at %s consistency (seed %d, timeout %v)\n",
			f.clients, f.ops, f.reads*100, f.consist, f.seed, f.timeout)
	} else {
		fmt.Printf("load: %d closed-loop clients x %d ops (seed %d, timeout %v)\n", f.clients, f.ops, f.seed, f.timeout)
	}
	res := svc.RunKVLoad(topo, service.Addrs(), svc.LoadSpec{
		Clients:      f.clients,
		Ops:          f.ops,
		Mix:          workload.DefaultMix(),
		Timeout:      f.timeout,
		Seed:         f.seed,
		ReadFraction: f.reads,
		Consistency:  f.mode,
	}, stats)

	fmt.Printf("\nops            %d ok, %d failed in %v (%.1f ops/s)\n",
		res.Ops, res.Errors, res.Elapsed.Round(time.Millisecond),
		float64(res.Ops)/res.Elapsed.Seconds())
	if res.Reads > 0 {
		fmt.Printf("read tier      %d reads, %d writes (%.1f reads/s at %s consistency)\n",
			res.Reads, res.Writes, float64(res.Reads)/res.Elapsed.Seconds(), f.consist)
	}
	fmt.Printf("service        %v\n", res.Stats)
	if st := cluster.Stats(); st.Suspicions > 0 || st.TrustRestorations > 0 || st.LeaderChanges > 0 {
		fmt.Printf("fd             suspicions=%d trust-restored=%d leader-changes=%d\n",
			st.Suspicions, st.TrustRestorations, st.LeaderChanges)
	}
	if fs := cluster.FsyncStats(); fs.Fsyncs > 0 || fs.Barriers > 0 {
		fmt.Printf("durability     fsyncs=%d gc-barriers=%d gc-windows=%d\n",
			fs.Fsyncs, fs.Barriers, fs.Windows)
	}
	if w := cluster.Stats().Wire; w.BytesOut > 0 && res.Ops > 0 {
		fmt.Printf("wire           %d B out, %.0f B/op, %.1f frames/write",
			w.BytesOut, float64(w.BytesOut)/float64(res.Ops), w.FramesPerEnvelope())
		if cr := w.CompressionRatio(); cr > 0 {
			fmt.Printf(", compression %.2fx", cr)
		}
		fmt.Println()
	}

	exit := 0
	if res.Errors > 0 {
		exit = 1
	}
	if cfg.Check {
		// In-flight duplicates of retried commands may still be draining;
		// wait until the §2.2 checker is clean or the grace period ends.
		violations := cluster.WaitPropertiesClean(30 * time.Second)
		if len(violations) > 0 {
			fmt.Printf("\nPROPERTY VIOLATIONS (%d):\n", len(violations))
			for _, v := range violations {
				fmt.Println(" ", v)
			}
			exit = 1
		} else {
			t0 := time.Now()
			cluster.CheckProperties() // the clean verdict once more, timed without the polling waits
			fmt.Printf("properties     uniform integrity, validity, uniform agreement, uniform prefix order: OK (check took %v)\n",
				time.Since(t0).Round(time.Microsecond))
		}
	}
	return exit
}
