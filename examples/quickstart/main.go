// Quickstart: three groups of three processes on a simulated WAN, one
// atomic broadcast (Algorithm A2) and one genuine atomic multicast
// (Algorithm A1), printing who delivered what, in which order, and at what
// measured latency degree.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"time"

	"wanamcast"
)

func main() {
	c := wanamcast.NewCluster(wanamcast.Config{
		Groups:   3,
		PerGroup: 3,
		Inter:    100 * time.Millisecond, // the paper's WAN figure
	})
	c.OnDeliver(func(p wanamcast.ProcessID, id wanamcast.MessageID, payload any) {
		fmt.Printf("  %v delivers %v (%v) at t=%v\n", p, id, payload, c.Now())
	})

	fmt.Println("== Atomic broadcast (A2): every process, same order ==")
	bid := c.Broadcast(c.Process(0, 0), "deploy configuration v42")
	c.Run()
	deg, _ := c.LatencyDegree(bid)
	fmt.Printf("broadcast latency degree: %d (cold start: Theorem 5.2's two hops)\n\n", deg)

	fmt.Println("== Genuine atomic multicast (A1): groups 0 and 1 only ==")
	mid := c.Multicast(c.Process(0, 1), "rebalance shard 7", 0, 1)
	c.Run()
	deg, _ = c.LatencyDegree(mid)
	fmt.Printf("multicast latency degree: %d (Theorem 4.1's optimum; group 2 stayed silent)\n\n", deg)

	if v := c.CheckProperties(); len(v) != 0 {
		fmt.Println("PROPERTY VIOLATIONS:", v)
		return
	}
	fmt.Println("properties verified: uniform integrity, validity, uniform agreement, uniform prefix order")
	fmt.Println()
	fmt.Println(c.Stats())
}
