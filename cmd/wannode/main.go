// Command wannode runs ONE process of a wide-area system as its own OS
// process: a LiveCluster that hosts only that process (LiveConfig.Local),
// talking real TCP to the other wannode instances. Start one per process ID
// (the topology, base port and ordering flags must agree across instances),
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
// With -datadir D the process keeps its WAL and snapshots under D/p<id>; its
// i-th run over D casts as m(id, i<<40|n) and, from the second, recovers and
// catches up from its group peers. WANAMCAST_TCP_DEBUG=1 prints debug lines.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"wanamcast"
	"wanamcast/internal/config"
	"wanamcast/internal/harness"
)

// flags is wannode's command line: the shared cluster knobs plus its own.
type flags struct {
	cfg config.Config
	id  int
}

// parseFlags registers wannode's flags on fs, parses args, and validates
// everything up front: a bad flag must die with a usage message, not as a
// topology panic or socket error mid-run.
func parseFlags(fs *flag.FlagSet, args []string) (*flags, error) {
	f := &flags{cfg: config.Config{Groups: 2, PerGroup: 2, BasePort: 19000, WANDelay: 100 * time.Millisecond}}
	f.cfg.Bind(fs)
	fs.IntVar(&f.id, "id", 0, "this process's ID (0..groups*d-1)")
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	if n := f.cfg.Groups * f.cfg.PerGroup; f.id < 0 || f.id >= n {
		return nil, fmt.Errorf("-id must be in [0,%d) (got %d)", n, f.id)
	}
	f.cfg.Local = []wanamcast.ProcessID{wanamcast.ProcessID(f.id)}
	if err := f.cfg.Validate(); err != nil {
		return nil, err
	}
	return f, nil
}

func main() {
	f, err := parseFlags(flag.CommandLine, os.Args[1:])
	if err != nil {
		harness.Usagef("wannode", "%v", err)
	}
	self := wanamcast.ProcessID(f.id)
	cl := wanamcast.NewLiveCluster(f.cfg)
	cl.OnDeliver(func(p wanamcast.ProcessID, id wanamcast.MessageID, payload any) {
		fmt.Printf("[%v] A-Deliver %v: %v\n", p, id, payload)
	})
	if err := cl.Start(); err != nil {
		fmt.Fprintln(os.Stderr, "wannode:", err)
		cl.Stop()
		os.Exit(1)
	}
	defer cl.Stop()
	topo, port := cl.Topology(), f.cfg.BasePort
	fmt.Printf("[%v] up: group %v, listening on %d, peers on %d..%d\n",
		self, topo.GroupOf(self), port+f.id, port, port+topo.N()-1)

	sc := bufio.NewScanner(os.Stdin)
	for sc.Scan() {
		cmd, rest, _ := strings.Cut(strings.TrimSpace(sc.Text()), " ")
		switch {
		case cmd == "":
		case cmd == "quit":
			// Parting snapshot: the next run recovers from it instead of
			// replaying the whole WAL tail.
			cl.Snapshot(self)
			return
		case cmd == "bcast" && rest != "":
			cl.Broadcast(self, rest)
		case cmd == "mcast":
			groups, text, _ := strings.Cut(rest, " ")
			var dest []wanamcast.GroupID
			for _, s := range strings.Split(groups, ",") {
				g, err := strconv.Atoi(s)
				if err != nil || g < 0 || g >= f.cfg.Groups || text == "" {
					dest = nil
					break
				}
				dest = append(dest, wanamcast.GroupID(g))
			}
			if dest == nil {
				fmt.Println("usage: mcast <g0,g1,...> <text>")
				continue
			}
			cl.Multicast(self, text, dest...)
		default:
			fmt.Println("commands: bcast <text> | mcast <g0,g1> <text> | quit")
		}
	}
}
