package harness

// The property behind A1's delivery rule, explored: A-delivery in a group is
// a function of the group's decision sequence, so all correct members of a
// group deliver identical sequences, multi-group messages keep the paper's
// final-timestamp order in every group, and every §2.2 property holds —
// across topologies, pipeline depths, batch caps, link jitter and a crash.

import (
	"flag"
	"fmt"
	"slices"
	"testing"
	"time"

	"wanamcast/internal/amcast"
	"wanamcast/internal/node/clocktest"
	"wanamcast/internal/types"
	"wanamcast/internal/workload"
)

// sweepSeeds is how many seeds TestA1DecisionOrderSweep explores. The
// default is the slice that rides `go test ./...` (and the CI race job); CI
// runs the full sweep as its own job with -sweepseeds 2000.
var sweepSeeds = flag.Int("sweepseeds", 40, "seeds explored by TestA1DecisionOrderSweep")

func TestA1DecisionOrderSweep(t *testing.T) {
	for seed := int64(0); seed < int64(*sweepSeeds); seed++ {
		sweepSeed(t, seed, clocktest.Clock{Name: "true"})
	}
}

// TestA1DecisionOrderSweepLyingClocks runs the sweep's configuration cube
// once more under each wrong physical clock. A1's hybrid timestamps take hints
// from that clock; a hint may cost latency and never a property.
func TestA1DecisionOrderSweepLyingClocks(t *testing.T) {
	for _, c := range clocktest.Lying {
		for seed := int64(0); seed < 16; seed++ {
			sweepSeed(t, seed, c)
		}
	}
}

// sweepSeed runs one seed of the sweep under a physical clock.
func sweepSeed(t *testing.T, seed int64, clock clocktest.Clock) {
	// Every seed fixes one corner of the configuration cube, so 16
	// consecutive seeds cover it.
	opts := Options{
		Groups: 3 + int(seed&1), PerGroup: 3,
		Inter: 20 * time.Millisecond, Intra: time.Millisecond,
		Jitter: 12 * time.Millisecond, Seed: seed, LogSends: true,
		Pipeline: 1 + 3*int(seed>>1&1), MaxBatch: 64 * int(seed>>2&1),
	}
	crash := seed>>3&1 == 1
	name := fmt.Sprintf("seed=%d/%dx3/p%d/b%d/crash=%v/clock=%s", seed, opts.Groups, opts.Pipeline, opts.MaxBatch, crash, clock.Name)
	s := Build(AlgoA1, opts)
	s.RT.Skew = clock.Of
	casts := workload.Generate(s.Topo, workload.Spec{
		Casts: 80, MeanPeriod: 2 * time.Millisecond, Poisson: true, Seed: seed, // the §1 mix
	})
	victim := types.ProcessID(-1)
	if crash {
		// One crash per run, at a seeded instant inside the load: any
		// member, leaders included.
		victim = types.ProcessID(int(seed>>4) % s.Topo.N())
		s.CrashAt(victim, time.Duration(20+seed%120)*time.Millisecond)
	}
	for _, c := range casts {
		c := c
		s.RT.Scheduler().At(c.At, func() {
			if !s.RT.Proc(c.From).Crashed() {
				s.Cast(c.From, c.Payload, c.Dest)
			}
		})
	}
	s.Run()

	v := s.Check()
	v = append(v, groupSequenceViolations(s, victim)...)
	for p, h := range s.Hosts {
		v = append(v, timestampOrderViolations(types.ProcessID(p), h.A1.Archive())...)
	}
	v = append(v, s.Checker.GenuinenessViolations(s.Col.Sends(), "a1")...)
	if len(v) != 0 {
		t.Fatalf("%s: %d violations, first: %v", name, len(v), v[0])
	}
	if len(s.Deliveries) < 80 {
		t.Fatalf("%s: only %d deliveries for 80 casts", name, len(s.Deliveries))
	}
}

// groupSequenceViolations checks that all correct members of a group
// A-Delivered identical sequences — what uniform prefix order and agreement
// imply for a finished run, stated directly.
func groupSequenceViolations(s *System, victim types.ProcessID) []string {
	var out []string
	for _, g := range s.Topo.AllGroups().Groups() {
		ref := types.ProcessID(-1)
		for _, p := range s.Topo.Members(g) {
			if p == victim {
				continue
			}
			if ref < 0 {
				ref = p
			} else if !slices.Equal(s.Checker.Sequence(ref), s.Checker.Sequence(p)) {
				out = append(out, fmt.Sprintf("group order: correct members %v and %v of group %v delivered different sequences", ref, p, g))
			}
		}
	}
	return out
}

// timestampOrderViolations checks one process's deliveries, in delivery
// order with the timestamp each was delivered under: the multi-group
// messages must appear in increasing (timestamp, id) order.
func timestampOrderViolations(p types.ProcessID, recs []amcast.DeliverRec) []string {
	var out []string
	var last *amcast.DeliverRec
	for i := range recs {
		dr := &recs[i]
		if dr.Dest.Size() < 2 {
			continue
		}
		if last != nil && (dr.TS < last.TS || (dr.TS == last.TS && !last.ID.Less(dr.ID))) {
			out = append(out, fmt.Sprintf("timestamp order: %v delivered %v (ts %d) after %v (ts %d)", p, dr.ID, dr.TS, last.ID, last.TS))
		}
		last = dr
	}
	return out
}
