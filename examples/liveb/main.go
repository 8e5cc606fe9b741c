// liveb runs Algorithm A2 over real TCP sockets on localhost with an
// injected wide-area delay: two "sites" of three processes each, every
// frame between sites held back 100 ms one-way. It streams broadcasts
// fast enough to keep rounds useful (§5.3), prints the measured wall
// latency of each message's full delivery, and then stops casting to show
// quiescence: after the stream ends, protocol traffic ceases.
//
//	go run ./examples/liveb [-wan 100ms] [-casts 10] [-period 50ms]
package main

import (
	"flag"
	"fmt"
	"strings"
	"sync"
	"time"

	"wanamcast/internal/abcast"
	"wanamcast/internal/config"
	"wanamcast/internal/metrics"
	"wanamcast/internal/transport/tcp"
	"wanamcast/internal/types"
)

// a2Sends counts the A2-family protocol sends recorded so far.
func a2Sends(col *metrics.Collector) (n uint64) {
	for proto, pc := range col.Snapshot().PerProtocol {
		if strings.HasPrefix(proto, "a2") {
			n += pc.Total
		}
	}
	return n
}

func main() {
	wan := flag.Duration("wan", 100*time.Millisecond, "one-way inter-site delay")
	casts := flag.Int("casts", 10, "number of broadcasts")
	period := flag.Duration("period", 50*time.Millisecond, "time between broadcasts")
	flag.Parse()

	topo := types.NewTopology(2, 3)
	col := &metrics.Collector{}

	rt := tcp.New(tcp.Config{
		Config:   config.Config{BasePort: 23000, WANDelay: *wan},
		Topo:     topo,
		Recorder: col,
	})

	type delivery struct {
		p  types.ProcessID
		id types.MessageID
		at time.Duration
	}
	var mu sync.Mutex
	delivered := make(map[types.MessageID][]delivery)

	eps := make([]*abcast.Bcast, topo.N())
	for _, id := range topo.AllProcesses() {
		id := id
		eps[id] = abcast.New(abcast.Config{
			Host:     rt.Proc(id),
			Detector: rt.Detector(id),
			OnDeliver: func(mid types.MessageID, _ any) {
				mu.Lock()
				delivered[mid] = append(delivered[mid], delivery{p: id, id: mid, at: rt.Now()})
				mu.Unlock()
			},
		})
	}
	if err := rt.Start(); err != nil {
		fmt.Println("start:", err)
		return
	}
	defer rt.Stop()

	fmt.Printf("two sites x three processes over TCP localhost, %v one-way WAN delay\n", *wan)
	fmt.Printf("streaming %d broadcasts every %v (round time ≈ %v, so rounds stay hot)\n\n", *casts, *period, *wan)

	castTimes := make(map[types.MessageID]time.Duration)
	for i := 0; i < *casts; i++ {
		from := types.ProcessID((i % 2) * 3) // alternate sites
		var id types.MessageID
		rt.Run(from, func() {
			id = eps[from].ABCast(fmt.Sprintf("update-%d", i))
		})
		mu.Lock()
		castTimes[id] = rt.Now()
		mu.Unlock()
		time.Sleep(*period)
	}

	// Wait for full delivery everywhere.
	deadline := time.Now().Add(30 * time.Second)
	for {
		mu.Lock()
		done := len(delivered) >= *casts
		for _, ds := range delivered {
			if len(ds) < topo.N() {
				done = false
			}
		}
		mu.Unlock()
		if done || time.Now().After(deadline) {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}

	mu.Lock()
	fmt.Println("message            cast→last-delivery (wall)")
	for id, when := range castTimes {
		ds := delivered[id]
		var last time.Duration
		for _, d := range ds {
			if d.at > last {
				last = d.at
			}
		}
		fmt.Printf("  %-16v %8v   (%d/%d processes)\n", id, (last - when).Round(time.Millisecond), len(ds), topo.N())
	}
	mu.Unlock()

	// Quiescence: watch protocol traffic stop (heartbeats continue; they
	// are failure-detector infrastructure, not A2 traffic).
	before := a2Sends(col)
	time.Sleep(800 * time.Millisecond)
	after := a2Sends(col)
	fmt.Printf("\nquiescence: A2 traffic after the stream ended: %d messages in 800ms", after-before)
	if after == before {
		fmt.Printf(" — quiescent (Prop. A.9)\n")
	} else {
		fmt.Printf(" — still draining\n")
	}
}
