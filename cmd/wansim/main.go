// Command wansim runs a configurable wide-area workload through any of the
// nine algorithms and prints per-run statistics: latency-degree
// distribution, inter-group message counts, wall latencies, and the §2.2
// property-check verdict.
//
// Examples:
//
//	wansim -algo a1 -groups 3 -d 3 -casts 50 -spread 2
//	wansim -algo a2 -groups 2 -d 3 -casts 100 -rate 20 -crash 1
//	wansim -algo delporte -groups 4 -casts 20 -seed 7
//	wansim -algo all -groups 3 -casts 30        # one comparison table
//	wansim -sweep 50x3,200x5 -casts 1000        # the simulator's own throughput by shape
//	wansim -figures                             # every table and figure of the paper
//	wansim -scenario partition-recovery -seed 7 # a fault schedule under the workload
package main

import (
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"strings"
	"time"

	"wanamcast/internal/config"
	"wanamcast/internal/harness"
	"wanamcast/internal/scenario"
	"wanamcast/internal/types"
)

func main() {
	f, err := parseFlags(flag.CommandLine, os.Args[1:])
	if err != nil {
		harness.Usagef("wansim", "%v", err)
	}
	run(f)
}

// flags is wansim's command line: the shared cluster knobs the simulator
// models (topology, delays, batching, bandwidth, lane count) plus its own
// workload flags.
type flags struct {
	cfg       config.Config
	startProf func() (func(), error) // starts the -*profile outputs
	algo      string
	procs     int
	shapes    []harness.Shape // -sweep
	jitter    time.Duration
	casts     int
	rate      float64
	spread    int
	crash     int
	seed      int64
	figures   bool
	scenario  string
	sc        scenario.Scenario // resolved scenario, when one is named
	unit      time.Duration
	verbose   bool
}

// parseFlags registers wansim's flags on fs, parses args, and validates
// everything before anything is built: a bad topology or workload is a
// usage error, not a mid-run panic.
func parseFlags(fs *flag.FlagSet, args []string) (*flags, error) {
	f := &flags{cfg: config.Config{Groups: 3, PerGroup: 3,
		WANDelay: 100 * time.Millisecond, LANDelay: time.Millisecond, Pipeline: 1}}
	// What only a live cluster has — sockets, the failure detector, leases,
	// ordering lanes, stores, span rings — the simulator cannot honour.
	f.cfg.Bind(fs, "port", "heartbeat", "suspectafter", "leasems", "skewms", "lanes",
		"datadir", "nofsync", "snapevery", "spanbuf", "flightdump")
	f.startProf = harness.ProfileFlags(fs)
	fs.Var(fs.Lookup("wan").Value, "inter", "inter-group one-way delay (alias of -wan)")
	fs.Var(fs.Lookup("lan").Value, "intra", "intra-group one-way delay (alias of -lan)")
	fs.IntVar(&f.procs, "procs", 0, "processes per group (alias of -d; 0 defers to -d)")
	fs.StringVar(&f.algo, "algo", "a1", "algorithm: a1, a2, skeen, fritzke, delporte, rodrigues, detmerge, sousa, vicente, or all for one comparison table")
	fs.Func("sweep", "run a scale sweep over these topology `shapes` instead of one run, e.g. 50x3,100x3,200x5",
		func(s string) (err error) { f.shapes, err = harness.ParseSweep(s); return err })
	fs.DurationVar(&f.jitter, "jitter", 0, "uniform extra delay in [0,jitter)")
	fs.IntVar(&f.casts, "casts", 20, "number of messages to cast")
	fs.Float64Var(&f.rate, "rate", 10, "casts per second (virtual time)")
	fs.IntVar(&f.spread, "spread", 2, "destination groups per multicast (ignored by broadcasts)")
	fs.IntVar(&f.crash, "crash", 0, "crash this many processes (one per group, minority) mid-run")
	fs.Int64Var(&f.seed, "seed", 1, "simulation seed")
	fs.BoolVar(&f.figures, "figures", false, "regenerate every table and figure of the paper's evaluation (reads -d and -inter only)")
	fs.StringVar(&f.scenario, "scenario", "", "chaos scenario to run under the workload ("+strings.Join(scenario.Names(), ", ")+")")
	fs.DurationVar(&f.unit, "unit", 500*time.Millisecond, "chaos scenario time step (with -scenario)")
	fs.BoolVar(&f.verbose, "v", false, "print every delivery")
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	if f.procs != 0 {
		dSet := false
		fs.Visit(func(fl *flag.Flag) { dSet = dSet || fl.Name == "d" })
		if dSet && f.cfg.PerGroup != f.procs {
			return nil, fmt.Errorf("-procs is an alias of -d; got conflicting values %d and %d", f.procs, f.cfg.PerGroup)
		}
		f.cfg.PerGroup = f.procs
	}
	// The simulator opens no socket: a 15000x3 shape must not be refused for
	// want of 45000 ports.
	if err := f.cfg.ValidateModel(); err != nil {
		return nil, err
	}
	switch {
	case f.jitter < 0:
		return nil, fmt.Errorf("-jitter must be non-negative (got %v)", f.jitter)
	case f.casts < 0:
		return nil, fmt.Errorf("-casts must be non-negative (got %d)", f.casts)
	case f.rate <= 0:
		return nil, fmt.Errorf("-rate must be positive (got %g)", f.rate)
	case f.spread < 1:
		return nil, fmt.Errorf("-spread must be at least 1 (got %d)", f.spread)
	case f.crash < 0:
		return nil, fmt.Errorf("-crash must be non-negative (got %d)", f.crash)
	case f.algo != "all" && !harness.Algo(f.algo).Known():
		return nil, fmt.Errorf("unknown -algo %q", f.algo)
	case len(f.shapes) > 0 && f.scenario != "":
		return nil, fmt.Errorf("-sweep and -scenario are mutually exclusive")
	case f.figures && (len(f.shapes) > 0 || f.scenario != "" || f.algo == "all"):
		return nil, fmt.Errorf("-figures runs the paper's own workloads: it excludes -sweep, -scenario and -algo all")
	}
	if f.scenario != "" {
		switch {
		case f.cfg.Groups < 2:
			return nil, fmt.Errorf("-scenario needs at least 2 groups to partition")
		case f.unit <= 0:
			return nil, fmt.Errorf("-unit must be positive")
		}
		var ok bool
		topo := types.NewTopology(f.cfg.Groups, f.cfg.PerGroup)
		if f.sc, ok = scenario.ByName(topo, scenario.SuiteConfig{Unit: f.unit}, f.scenario); !ok {
			return nil, fmt.Errorf("unknown -scenario %q (have %v)", f.scenario, scenario.Names())
		}
	}
	if f.spread > f.cfg.Groups {
		f.spread = f.cfg.Groups
	}
	return f, nil
}

func run(f *flags) {
	cfg, groups := f.cfg, f.cfg.Groups
	if f.figures {
		figures(os.Stdout, cfg.PerGroup, cfg.WANDelay)
		return
	}
	if f.algo == "all" {
		compareAll(os.Stdout, f)
		return
	}
	algo := harness.Algo(f.algo)
	opts := harness.Options{
		Groups: groups, PerGroup: cfg.PerGroup,
		Inter: cfg.WANDelay, Intra: cfg.LANDelay, Jitter: f.jitter, Seed: f.seed,
		MaxBatch: cfg.MaxBatch, Pipeline: cfg.Pipeline,
		Bandwidth: cfg.Bandwidth,
	}
	stopProf, err := f.startProf()
	if err != nil {
		fatalf("%v", err)
	}
	if len(f.shapes) > 0 {
		runSweep(algo, opts, f.shapes, f.casts)
		stopProf()
		return
	}
	s := harness.Build(algo, opts)
	rng := rand.New(rand.NewSource(f.seed))
	period := time.Duration(float64(time.Second) / f.rate)

	if f.scenario != "" {
		funcs := s.Chaos()
		funcs.Logf = func(format string, args ...any) {
			fmt.Printf("chaos: "+format+"\n", args...)
		}
		scenario.Apply(funcs, f.sc)
	}

	// Warm A2's rounds so the steady-state latency is measured.
	if algo == harness.AlgoA2 {
		for g := 0; g < groups; g++ {
			s.CastAt(0, s.Topo.Members(types.GroupID(g))[0], "warm", s.Topo.AllGroups())
		}
	}

	for i := 0; i < f.crash && i < groups; i++ {
		// Crash the last member of group i (never the consensus leader's
		// whole majority).
		members := s.Topo.Members(types.GroupID(i))
		if len(members) < 3 {
			fmt.Fprintln(os.Stderr, "wansim: refusing to crash in groups smaller than 3 (consensus needs a majority)")
			break
		}
		victim := members[len(members)-1]
		at := time.Duration(i+1) * period
		s.CrashAt(victim, at)
		fmt.Printf("crash: %v at %v\n", victim, at)
	}

	// A crashed process casts nothing (the simulator cannot restart it).
	casts := 0
	harness.RandomCasts(rng, s.Topo, f.casts, f.spread, func(i int, from types.ProcessID, dest types.GroupSet) {
		s.RT.Scheduler().At(time.Duration(i+1)*period, func() {
			if !s.RT.Proc(from).Crashed() {
				s.Cast(from, fmt.Sprintf("msg-%d", i), dest)
				casts++
			}
		})
	})

	s.Run()
	stopProf()

	if f.verbose {
		for _, del := range s.Deliveries {
			fmt.Printf("deliver %v at %v t=%v\n", del.ID, del.Process, del.At)
		}
	}

	st := s.Col.Snapshot()
	fmt.Printf("\nalgorithm      %s\n", algo)
	fmt.Printf("topology       %d groups x %d processes, inter=%v intra=%v jitter=%v\n", groups, cfg.PerGroup, cfg.WANDelay, cfg.LANDelay, f.jitter)
	fmt.Printf("casts          %d (plus warm-ups where applicable)\n", casts)
	fmt.Printf("virtual time   %v\n", s.RT.Now())
	fmt.Printf("stats          %v\n", st)
	if v := s.Check(); len(v) != 0 {
		fmt.Printf("\nPROPERTY VIOLATIONS (%d):\n", len(v))
		for _, x := range v {
			fmt.Println(" ", x)
		}
		os.Exit(1)
	}
	fmt.Println("properties     uniform integrity, validity, uniform agreement, uniform prefix order: OK")
}

// runSweep measures the simulation runtime itself across topology shapes:
// one full workload per shape, reporting events/s, allocs/event, wall
// clock, and peak heap. bench/'s sim-scale workload records the same
// measurement.
func runSweep(algo harness.Algo, opts harness.Options, shapes []harness.Shape, casts int) {
	fmt.Printf("scale sweep: algo=%s casts=%d seed=%d inter=%v intra=%v jitter=%v\n",
		algo, casts, opts.Seed, opts.Inter, opts.Intra, opts.Jitter)
	fmt.Printf("%-8s %-6s %-10s %-12s %-14s %-10s %-10s %-12s %s\n",
		"shape", "procs", "casts", "events", "events/s", "run", "check", "allocs/ev", "peak heap")
	for _, sh := range shapes {
		p := harness.RunScaleSweep(algo, opts, []harness.Shape{sh}, casts)[0]
		fmt.Printf("%-8s %-6d %-10d %-12d %-14.0f %-10v %-10v %-12.2f %.1f MiB\n",
			p.Shape, p.Shape.N(), p.Casts, p.Events, p.EventsPerSec,
			p.RunWall.Round(time.Millisecond), p.CheckWall.Round(10*time.Microsecond), p.AllocsPerEvent,
			float64(p.PeakHeapBytes)/(1<<20))
		if p.Violations != 0 {
			fatalf("%d property violations at %v", p.Violations, p.Shape)
		}
	}
}

// fatalf reports a failed run (exit 1; a bad command line exits 2 before
// anything runs).
func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "wansim: "+format+"\n", args...)
	os.Exit(1)
}

// compareAll runs the same workload through every algorithm and prints one
// row per contender: mean latency degree, inter-group messages, and wall
// latency percentiles. The output is pinned by testdata/compare.golden.
func compareAll(w io.Writer, f *flags) {
	groups, period := f.cfg.Groups, time.Duration(float64(time.Second)/f.rate)
	algos := append(harness.MulticastAlgos(), harness.AlgoSkeen)
	algos = append(algos, harness.BroadcastAlgos()[:3]...) // det-merge already listed
	fmt.Fprintf(w, "workload: %d casts, period %v, %d of %d groups per cast, seed %d\n", f.casts, period, f.spread, groups, f.seed)
	fmt.Fprintf(w, "%-11s %-6s %-12s %-12s %-10s %-10s %s\n", "algorithm", "kind", "mean degree", "inter-group", "p50 wall", "p99 wall", "properties")
	seen := map[harness.Algo]bool{}
	for _, algo := range algos {
		if seen[algo] {
			continue
		}
		seen[algo] = true
		s := harness.Build(algo, harness.Options{
			Groups: groups, PerGroup: f.cfg.PerGroup, Inter: f.cfg.WANDelay, Intra: f.cfg.LANDelay,
			Jitter: f.jitter, Seed: f.seed,
			DetMergeInterval: f.cfg.WANDelay / 2, DetMergeStop: time.Duration(f.casts+4) * period,
		})
		if algo == harness.AlgoA2 {
			for g := 0; g < groups; g++ {
				s.CastAt(0, s.Topo.Members(types.GroupID(g))[0], "warm", s.Topo.AllGroups())
			}
		}
		rng := rand.New(rand.NewSource(f.seed))
		harness.RandomCasts(rng, s.Topo, f.casts, f.spread, func(i int, from types.ProcessID, dest types.GroupSet) {
			s.CastAt(time.Duration(i+1)*period, from, fmt.Sprintf("m%d", i), dest)
		})
		s.Run()
		st := s.Col.Snapshot()
		kind := "mcast"
		if s.IsBroadcast() {
			kind = "bcast"
		}
		verdict := "OK"
		if v := s.Check(); len(v) != 0 {
			verdict = fmt.Sprintf("%d VIOLATIONS", len(v))
		}
		fmt.Fprintf(w, "%-11s %-6s %-12.2f %-12d %-10v %-10v %s\n",
			algo, kind, st.MeanDegree, st.InterGroupMessages,
			st.P50Wall.Round(time.Millisecond), st.P99Wall.Round(time.Millisecond), verdict)
	}
	fmt.Fprintln(w, "\nnote: mean degrees exceed the single-message optima under contention —")
	fmt.Fprintln(w, "concurrent messages extend each other's causal paths; see EXPERIMENTS.md.")
}
