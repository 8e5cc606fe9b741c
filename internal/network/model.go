// Package network models link delays for the simulated WAN.
//
// The paper's setting (§1): processes inside a group communicate over
// "high-end local links" while groups are interconnected through
// "high-latency communication links ... orders of magnitude slower". The
// model captures exactly that: one delay for intra-group links, one for
// inter-group links, and optional uniform jitter. Links are quasi-reliable
// (§2.1): no loss, no corruption, no duplication — delay is the only effect.
//
// Model is the static description; Fabric layers a mutable link table on
// top of it for per-link delays (irregular topologies, delay spikes) and
// runtime fault injection (partitions) while preserving quasi-reliability
// — a severed link withholds messages until it heals, which is still just
// delay.
package network

import (
	"math/rand"
	"time"

	"wanamcast/internal/types"
)

// Model describes link delays. The zero value gives a zero-latency network,
// which is still a valid asynchronous run (latency degrees are unaffected:
// they count hops via Lamport clocks, not wall time).
type Model struct {
	// IntraGroup is the one-way delay between processes of the same group.
	IntraGroup time.Duration
	// InterGroup is the one-way delay between processes of different groups.
	InterGroup time.Duration
	// Jitter, if positive, adds a uniformly distributed extra delay in
	// [0, Jitter) to every message, drawn from the run's seeded RNG.
	Jitter time.Duration
	// Bandwidth, if positive, caps every link at this many bytes per
	// second: each message additionally occupies its link for
	// TransmitTime(Bandwidth, size) and queues behind earlier traffic on
	// the same link (transmission delay on top of the propagation delay
	// above). Zero models infinitely fast links — the default, and the
	// paper's own abstraction, where only propagation delay exists.
	Bandwidth int64
}

// TransmitTime returns how long n bytes occupy a link capped at rate
// bytes/s — the transmission-delay term of a bandwidth-modeled link. A
// non-positive rate means an uncapped link: zero transmission time.
func TransmitTime(rate int64, n int) time.Duration {
	if rate <= 0 || n <= 0 {
		return 0
	}
	return time.Duration(n) * time.Second / time.Duration(rate)
}

// WAN returns the default wide-area model used across the benchmarks:
// 1 ms local links and interGroup one-way delay between groups.
func WAN(interGroup time.Duration) Model {
	return Model{IntraGroup: 1 * time.Millisecond, InterGroup: interGroup}
}

// Delay returns the one-way delay for a message from from to to.
//
// Contract: a model with Jitter > 0 needs an rng to draw from — passing a
// nil rng then is a wiring bug and panics. (It used to silently drop the
// jitter, turning a run the caller believed was jittered into a perfectly
// regular one.) rng may be nil only while Jitter is zero.
func (m Model) Delay(topo *types.Topology, from, to types.ProcessID, rng *rand.Rand) time.Duration {
	if m.Jitter > 0 && rng == nil {
		panic("network: Model.Delay needs an rng when Jitter > 0")
	}
	d := m.InterGroup
	if topo.SameGroup(from, to) {
		d = m.IntraGroup
	}
	if m.Jitter > 0 {
		d += time.Duration(rng.Int63n(int64(m.Jitter)))
	}
	return d
}
