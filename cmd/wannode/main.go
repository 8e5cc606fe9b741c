// Command wannode runs ONE process of a wide-area system as its own OS
// process, talking real TCP to the other wannode instances. Start one per
// process ID (the topology and base port must agree across instances),
// then type commands on stdin:
//
//	bcast <text>          atomic broadcast (Algorithm A2)
//	mcast <g0,g1> <text>  genuine atomic multicast (Algorithm A1)
//	quit
//
// Example, a 2×2 system in four shells:
//
//	wannode -id 0 -groups 2 -d 2 &
//	wannode -id 1 -groups 2 -d 2 &
//	wannode -id 2 -groups 2 -d 2 &
//	wannode -id 3 -groups 2 -d 2
//
// Deliveries print as they happen; every instance prints the same order.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"wanamcast/internal/config"
	"wanamcast/internal/durable"
	"wanamcast/internal/harness"
	"wanamcast/internal/storage"
	"wanamcast/internal/transport/tcp"
	"wanamcast/internal/types"
)

// flags is wannode's command line: the shared cluster knobs plus its own.
type flags struct {
	cfg   config.Config
	id    int
	trace bool
}

// parseFlags registers wannode's flags on fs, parses args, and validates
// everything up front: a bad flag must die with a usage message, not as a
// topology panic or socket error mid-run.
func parseFlags(fs *flag.FlagSet, args []string) (*flags, error) {
	f := &flags{cfg: config.Config{Groups: 2, PerGroup: 2, BasePort: 19000, WANDelay: 100 * time.Millisecond}}
	// wannode runs the paper's sequential endpoints and keeps no tracer.
	f.cfg.Bind(fs, "maxbatch", "pipeline", "spanbuf", "flightdump")
	fs.IntVar(&f.id, "id", 0, "this process's ID (0..groups*d-1)")
	fs.BoolVar(&f.trace, "trace", false, "print transport trace lines to stderr")
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	if err := f.cfg.Validate(); err != nil {
		return nil, err
	}
	if n := f.cfg.Groups * f.cfg.PerGroup; f.id < 0 || f.id >= n {
		return nil, fmt.Errorf("-id must be in [0,%d) (got %d)", n, f.id)
	}
	return f, nil
}

func main() {
	f, err := parseFlags(flag.CommandLine, os.Args[1:])
	if err != nil {
		harness.Usagef("wannode", "%v", err)
	}
	cfg, id := f.cfg, f.id
	topo := types.NewTopology(cfg.Groups, cfg.PerGroup)
	self := types.ProcessID(id)

	var tracer func(format string, args ...any)
	if f.trace {
		tracer = func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, "TRACE "+format+"\n", args...)
		}
	}
	rt := tcp.New(tcp.Config{Config: cfg, Topo: topo, Local: []types.ProcessID{self}, Trace: tracer})

	var store storage.Store
	if cfg.DataDir != "" {
		d, err := storage.OpenDisk(cfg.DataDir, storage.DiskOptions{NoFsync: cfg.NoFsync})
		if err != nil {
			fmt.Fprintln(os.Stderr, "wannode:", err)
			os.Exit(1)
		}
		store = d
		defer store.Close()
	}
	proc := rt.Proc(self)
	kinds := map[string]string{"a1": "mcast", "a2": "bcast"}
	host := durable.New(durable.Config{
		Proc:     proc,
		Detector: rt.Detector(self).Oracle,
		Store:    store,
		Knobs:    cfg.WithDefaults(),
		Async:    func(fn func()) { rt.Async(self, fn) },
		Deliver: func(proto string, mid types.MessageID, payload []byte) {
			if !proc.Recovering() {
				fmt.Printf("[%v] A-Deliver %s %v: %s\n", self, kinds[proto], mid, payload)
			}
		},
		Logf: func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, "wannode: "+format+"\n", args...)
		},
	})
	a1, a2 := host.A1, host.A2

	// Recover before the transport starts; the loops are not running yet, so
	// this is safe on the main goroutine (see package durable for the order).
	if err := host.Recover(); err != nil {
		fmt.Fprintln(os.Stderr, "wannode: recovery:", err)
		os.Exit(1)
	}
	delivered, round := a1.Delivered(), a2.Round()

	if err := rt.Start(); err != nil {
		fmt.Fprintln(os.Stderr, "wannode:", err)
		os.Exit(1)
	}
	defer rt.Stop()
	if store != nil {
		rt.Run(self, host.StartSync)
		if delivered > 0 || round > 1 {
			fmt.Printf("[%v] recovered from %s (a1 deliveries=%d, a2 round=%d); syncing with group peers\n",
				self, cfg.DataDir, delivered, round)
		}
	}
	fmt.Printf("[%v] up: group %v, listening on %d, peers on %d..%d\n",
		self, topo.GroupOf(self), cfg.BasePort+id, cfg.BasePort, cfg.BasePort+topo.N()-1)

	sc := bufio.NewScanner(os.Stdin)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		switch {
		case line == "":
		case line == "quit":
			// Parting snapshot: the next incarnation recovers from it instead
			// of replaying the whole WAL tail.
			rt.Run(self, func() {
				if err := host.Snapshot(); err != nil {
					fmt.Fprintln(os.Stderr, "wannode: snapshot:", err)
				}
			})
			return
		case strings.HasPrefix(line, "bcast "):
			text := strings.TrimPrefix(line, "bcast ")
			rt.Run(self, func() { a2.ABCast([]byte(text)) })
		case strings.HasPrefix(line, "mcast "):
			rest := strings.TrimPrefix(line, "mcast ")
			parts := strings.SplitN(rest, " ", 2)
			if len(parts) != 2 {
				fmt.Println("usage: mcast <g0,g1,...> <text>")
				continue
			}
			var dest []types.GroupID
			ok := true
			for _, s := range strings.Split(parts[0], ",") {
				g, err := strconv.Atoi(strings.TrimSpace(s))
				if err != nil || g < 0 || g >= cfg.Groups {
					ok = false
					break
				}
				dest = append(dest, types.GroupID(g))
			}
			if !ok || len(dest) == 0 {
				fmt.Println("usage: mcast <g0,g1,...> <text>")
				continue
			}
			text := parts[1]
			rt.Run(self, func() { a1.AMCast([]byte(text), types.NewGroupSet(dest...)) })
		default:
			fmt.Println("commands: bcast <text> | mcast <g0,g1> <text> | quit")
		}
	}
}
