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
	"encoding/binary"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"wanamcast/internal/abcast"
	"wanamcast/internal/amcast"
	"wanamcast/internal/config"
	"wanamcast/internal/durable"
	"wanamcast/internal/harness"
	"wanamcast/internal/rmcast"
	"wanamcast/internal/storage"
	"wanamcast/internal/transport/tcp"
	"wanamcast/internal/types"
)

// snapshotNode persists one snapshot, reporting failure without dying:
// a failed snapshot costs replay time, not correctness.
func snapshotNode(n *durable.Node) {
	if err := n.Snapshot(); err != nil {
		fmt.Fprintln(os.Stderr, "wannode: snapshot:", err)
	}
}

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
	// wannode builds its own endpoints, the paper's sequential ones, and
	// keeps no tracer.
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
	log := storage.NewLog(store)
	snapEvery := cfg.WithDefaults().SnapshotEvery

	var seq uint64
	nextID := func() types.MessageID {
		seq++
		return types.MessageID{Origin: self, Seq: seq}
	}
	var dnode *durable.Node
	var sinceSnap int
	deliver := func(kind string) func(mid types.MessageID, payload any) {
		return func(mid types.MessageID, payload any) {
			if !rt.Proc(self).Recovering() {
				fmt.Printf("[%v] A-Deliver %s %v: %v\n", self, kind, mid, payload)
			}
			if store != nil && snapEvery > 0 {
				sinceSnap++
				if sinceSnap >= snapEvery {
					sinceSnap = 0
					rt.Async(self, func() { snapshotNode(dnode) })
				}
			}
		}
	}
	var onSynced func()
	if store != nil {
		onSynced = func() { rt.Async(self, func() { snapshotNode(dnode) }) }
	}
	a1 := amcast.New(amcast.Config{
		Host:       rt.Proc(self),
		Detector:   rt.Detector(self),
		SkipStages: true,
		NextID:     nextID,
		Log:        log,
		OnSynced:   onSynced,
		OnDeliver:  func(m rmcast.Message) { deliver("mcast")(m.ID, m.Payload) },
	})
	a2 := abcast.New(abcast.Config{
		Host:      rt.Proc(self),
		Detector:  rt.Detector(self),
		NextID:    nextID,
		Log:       log,
		OnSynced:  onSynced,
		OnDeliver: deliver("bcast"),
	})
	dnode = &durable.Node{Store: store, A1: a1, A2: a2, Extra: []durable.Section{{
		Name: "wannode",
		Save: func() ([]byte, error) { return binary.AppendUvarint(nil, seq), nil },
		Restore: func(data []byte) error {
			s, n := binary.Uvarint(data)
			if n <= 0 {
				// A silent seq=0 here could re-issue MessageIDs the old
				// incarnation already used: fail the recovery instead.
				return fmt.Errorf("corrupt wannode section")
			}
			seq = s
			return nil
		},
	}}}

	// Recover durable state before the transport starts: the acceptor must
	// never answer a Prepare or Accept with amnesia. Runs with sends and
	// prints suppressed; the loops are not running yet, so this is safe on
	// the main goroutine.
	recovered := false
	if store != nil {
		proc := rt.Proc(self)
		proc.SetRecovering(true)
		if err := dnode.Recover(); err != nil {
			fmt.Fprintln(os.Stderr, "wannode: recovery:", err)
			os.Exit(1)
		}
		proc.SetRecovering(false)
		recovered = a1.Delivered() > 0 || a2.Round() > 1 || seq > 0
		if recovered {
			// A fresh incarnation must never reuse a MessageID: casts
			// since the last snapshot are not individually logged.
			seq += 1 << 20
		}
	}

	if err := rt.Start(); err != nil {
		fmt.Fprintln(os.Stderr, "wannode:", err)
		os.Exit(1)
	}
	defer rt.Stop()
	if store != nil {
		// Catch up whatever the group ordered while this instance was
		// down. This must run for a COLD start too: recovery leaves
		// delivery gated until the state transfer confirms the group's
		// prefix (a wiped data dir on a running cluster is just "very far
		// behind"), and on a cluster-wide cold start every member answers
		// Busy-with-nothing-newer, so the group concludes nobody holds
		// more and resumes — skipping the sync here would leave the gate
		// armed forever.
		rt.Run(self, func() {
			a1.StartSync()
			a2.StartSync()
		})
		if recovered {
			fmt.Printf("[%v] recovered from %s (a1 deliveries=%d, a2 round=%d); syncing with group peers\n",
				self, cfg.DataDir, a1.Delivered(), a2.Round())
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
			if store != nil {
				// Parting snapshot: the next incarnation recovers from it
				// instead of replaying the whole WAL tail.
				rt.Run(self, func() { snapshotNode(dnode) })
			}
			return
		case strings.HasPrefix(line, "bcast "):
			text := strings.TrimPrefix(line, "bcast ")
			rt.Run(self, func() { a2.ABCast(text) })
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
			rt.Run(self, func() { a1.AMCast(text, types.NewGroupSet(dest...)) })
		default:
			fmt.Println("commands: bcast <text> | mcast <g0,g1> <text> | quit")
		}
	}
}
