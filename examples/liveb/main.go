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

	"wanamcast"
)

// a2Sends counts the A2-family protocol sends recorded so far.
func a2Sends(l *wanamcast.LiveCluster) (n uint64) {
	for proto, pc := range l.Stats().PerProtocol {
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

	l := wanamcast.NewLiveCluster(wanamcast.LiveConfig{Groups: 2, PerGroup: 3, BasePort: 23000, WANDelay: *wan})
	begin := time.Now()
	var mu sync.Mutex
	last := make(map[wanamcast.MessageID]time.Duration) // each message's latest delivery
	l.OnDeliver(func(_ wanamcast.ProcessID, id wanamcast.MessageID, _ any) {
		at := time.Since(begin)
		mu.Lock()
		last[id] = max(last[id], at)
		mu.Unlock()
	})
	if err := l.Start(); err != nil {
		fmt.Println("start:", err)
		return
	}
	defer l.Stop()
	n := l.Topology().N()

	fmt.Printf("two sites x three processes over TCP localhost, %v one-way WAN delay\n", *wan)
	fmt.Printf("streaming %d broadcasts every %v (round time ≈ %v, so rounds stay hot)\n\n", *casts, *period, *wan)

	ids := make([]wanamcast.MessageID, *casts)
	castAt := make([]time.Duration, *casts)
	for i := range ids {
		from := l.Process(wanamcast.GroupID(i%2), 0) // alternate sites
		ids[i] = l.Broadcast(from, fmt.Sprintf("update-%d", i))
		castAt[i] = time.Since(begin)
		time.Sleep(*period)
	}
	for _, id := range ids {
		l.WaitDelivered(id, n, 30*time.Second) // full delivery everywhere
	}

	mu.Lock()
	defer mu.Unlock()
	fmt.Println("message            cast→last-delivery (wall)")
	for i, id := range ids {
		fmt.Printf("  %-16v %8v   (%d/%d processes)\n", id, (last[id] - castAt[i]).Round(time.Millisecond), l.DeliveredCount(id), n)
	}

	// Quiescence: watch protocol traffic stop (heartbeats continue; they
	// are failure-detector infrastructure, not A2 traffic).
	before := a2Sends(l)
	time.Sleep(800 * time.Millisecond)
	after := a2Sends(l)
	fmt.Printf("\nquiescence: A2 traffic after the stream ended: %d messages in 800ms", after-before)
	if after == before {
		fmt.Printf(" — quiescent (Prop. A.9)\n")
	} else {
		fmt.Printf(" — still draining\n")
	}
}
