// ledger is a wide-area bank: accounts are partitioned across three
// continental sites (groups), transfers between accounts are genuine
// atomic multicasts (Algorithm A1) addressed to exactly the two sites
// involved, and a global audit snapshot marker is an A1 multicast to all
// three sites. Mid-run, one replica of the European site crashes; uniform
// agreement keeps every surviving replica's ledger consistent.
//
// The audit must travel through the same primitive as the transfers: A1's
// uniform prefix order then places the marker consistently against every
// transfer at every process that sees both, so each site's snapshot at the
// marker forms a consistent cut — the three local snapshots sum exactly to
// the initial total, with no transfer caught halfway. (A1 and A2 are
// independent total orders; a marker broadcast through A2 would not be
// ordered against A1 transfers. A2 is used here for what it is good at:
// an ordering-independent, latency-degree-1 announcement to everyone.)
//
//	go run ./examples/ledger
package main

import (
	"encoding/gob"
	"fmt"
	"time"

	"wanamcast"
)

const initialBalance = 1000

// transfer moves Amount from From to To (accounts live on possibly
// different sites).
type transfer struct {
	From, To string
	Amount   int
}

// audit asks every site to snapshot its balances when it delivers the
// marker.
type audit struct{ Name string }

// A cast value travels in its wire encoding, the simulator's casts too: a
// type without a codec of its own goes through gob, which must know it.
func init() {
	gob.Register(transfer{})
	gob.Register(audit{})
}

var sites = []string{"america", "europe", "asia"}

// siteOf maps an account to its home site.
func siteOf(account string) wanamcast.GroupID {
	switch account[0] {
	case 'a': // alice, ann
		return 0
	case 'e': // erik, eva
		return 1
	default: // zoe, zhang, ...
		return 2
	}
}

// replica is one process's ledger state for its site's accounts.
type replica struct {
	site      wanamcast.GroupID
	balances  map[string]int
	snapshots map[string]map[string]int
}

func newReplica(site wanamcast.GroupID) *replica {
	r := &replica{site: site, balances: make(map[string]int), snapshots: make(map[string]map[string]int)}
	for _, acct := range accountsOf(site) {
		r.balances[acct] = initialBalance
	}
	return r
}

func accountsOf(site wanamcast.GroupID) []string {
	switch site {
	case 0:
		return []string{"alice", "ann"}
	case 1:
		return []string{"erik", "eva"}
	default:
		return []string{"zoe", "zhang"}
	}
}

func (r *replica) apply(payload any) {
	switch op := payload.(type) {
	case transfer:
		if siteOf(op.From) == r.site {
			r.balances[op.From] -= op.Amount
		}
		if siteOf(op.To) == r.site {
			r.balances[op.To] += op.Amount
		}
	case audit:
		snap := make(map[string]int, len(r.balances))
		for k, v := range r.balances {
			snap[k] = v
		}
		r.snapshots[op.Name] = snap
	}
}

func main() {
	c := wanamcast.NewCluster(wanamcast.Config{
		Groups:   3,
		PerGroup: 3,
		Inter:    80 * time.Millisecond,
	})
	replicas := make(map[wanamcast.ProcessID]*replica)
	for g := 0; g < 3; g++ {
		for i := 0; i < 3; i++ {
			replicas[c.Process(wanamcast.GroupID(g), i)] = newReplica(wanamcast.GroupID(g))
		}
	}
	c.OnDeliver(func(p wanamcast.ProcessID, _ wanamcast.MessageID, payload any) {
		replicas[p].apply(payload)
	})

	send := func(at time.Duration, from wanamcast.ProcessID, t transfer) {
		gs := wanamcast.NewGroupSet(siteOf(t.From), siteOf(t.To))
		c.MulticastAt(at, from, t, gs.Groups()...)
	}

	// A stream of transfers, an audit marker racing them through the same
	// A1 order, and a crash of one European replica in the middle.
	send(0, c.Process(0, 0), transfer{From: "alice", To: "erik", Amount: 100})
	send(10*time.Millisecond, c.Process(1, 1), transfer{From: "eva", To: "zoe", Amount: 250})
	send(20*time.Millisecond, c.Process(2, 2), transfer{From: "zhang", To: "ann", Amount: 75})
	c.MulticastAt(30*time.Millisecond, c.Process(0, 1), audit{Name: "q2-close"}, 0, 1, 2)
	send(40*time.Millisecond, c.Process(1, 0), transfer{From: "erik", To: "zhang", Amount: 30})
	send(55*time.Millisecond, c.Process(0, 2), transfer{From: "ann", To: "eva", Amount: 60})
	c.CrashAt(c.Process(1, 2), 90*time.Millisecond) // one European replica dies
	// An ordering-independent announcement to everyone via A2.
	c.BroadcastAt(120*time.Millisecond, c.Process(2, 0), "audit q2-close scheduled: books closing")

	c.Run()

	fmt.Println("== final balances per site (from the first live replica) ==")
	total := 0
	for g := 0; g < 3; g++ {
		rep := replicas[c.Process(wanamcast.GroupID(g), 0)]
		fmt.Printf("  %-8s %v\n", sites[g], rep.balances)
		for _, v := range rep.balances {
			total += v
		}
	}
	fmt.Printf("  grand total: %d (must be %d)\n\n", total, 6*initialBalance)

	// Surviving replicas of each site agree bit-for-bit.
	for g := 0; g < 3; g++ {
		live := []int{0, 1, 2}
		if g == 1 {
			live = []int{0, 1} // replica 2 crashed
		}
		ref := replicas[c.Process(wanamcast.GroupID(g), live[0])]
		for _, i := range live[1:] {
			rep := replicas[c.Process(wanamcast.GroupID(g), i)]
			if fmt.Sprint(rep.balances) != fmt.Sprint(ref.balances) {
				fmt.Printf("DIVERGENCE at site %s!\n", sites[g])
				return
			}
		}
	}
	fmt.Println("surviving replicas agree at every site (uniform agreement despite the crash)")

	fmt.Println("\n== audit snapshot 'q2-close' (consistent cut across sites) ==")
	auditTotal := 0
	for g := 0; g < 3; g++ {
		rep := replicas[c.Process(wanamcast.GroupID(g), 0)]
		snap := rep.snapshots["q2-close"]
		fmt.Printf("  %-8s %v\n", sites[g], snap)
		for _, v := range snap {
			auditTotal += v
		}
	}
	fmt.Printf("  audit total: %d — conserved, so the broadcast cut no transfer in half\n", auditTotal)

	if v := c.CheckProperties(); len(v) != 0 {
		fmt.Println("\nPROPERTY VIOLATIONS:", v)
		return
	}
	fmt.Println("\nproperties verified under the crash: integrity, validity, agreement, prefix order")
}
