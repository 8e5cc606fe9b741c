package harness

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"wanamcast/internal/types"
)

// bandwidthRun drives one deterministic simulated A1 workload and returns
// the finished System for accounting inspection.
func bandwidthRun(t *testing.T, bandwidth int64) *System {
	t.Helper()
	s := Build(AlgoA1, Options{
		Groups: 3, PerGroup: 3,
		Inter: 20 * time.Millisecond, Intra: time.Millisecond,
		Seed: 11, MaxBatch: 4, Pipeline: 2,
		Bandwidth: bandwidth,
	})
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 30; i++ {
		from := types.ProcessID(rng.Intn(s.Topo.N()))
		ga, gb := types.GroupID(rng.Intn(3)), types.GroupID(rng.Intn(3))
		s.CastAt(time.Duration(i+1)*5*time.Millisecond, from, fmt.Sprintf("m%d", i), types.NewGroupSet(ga, gb))
	}
	s.Run()
	if v := s.Check(); len(v) != 0 {
		t.Fatalf("§2.2 violations under bandwidth modeling: %v", v)
	}
	return s
}

// TestSimWireByteAccounting pins the wire metrics of a bandwidth-modeled
// run: the byte total, one envelope per frame, per-kind bytes that tile the
// total — and the whole accounting must be a pure function of the seed.
func TestSimWireByteAccounting(t *testing.T) {
	s := bandwidthRun(t, 1_000_000)

	w := s.Col.Snapshot().Wire
	// Each copy is sized as the plain frame the live wire would carry: the
	// total the simulator counted when it encoded a whole frame per receiver.
	if w.BytesOut != 24094 {
		t.Fatalf("counted %d wire bytes, want 24094", w.BytesOut)
	}
	if w.FramesOut != w.EnvelopesOut {
		// The simulator models each message as its own envelope.
		t.Fatalf("sim accounting: %d frames vs %d envelopes", w.FramesOut, w.EnvelopesOut)
	}
	var byKind uint64
	for _, n := range w.ByKindOut {
		byKind += n
	}
	if byKind != w.BytesOut {
		// Sim frames carry no envelope overhead, so per-kind attribution
		// must tile the byte total exactly.
		t.Fatalf("per-kind bytes %d != total %d", byKind, w.BytesOut)
	}

	// Same seed, same accounting: the byte counters are deterministic.
	again := bandwidthRun(t, 1_000_000).Col.Snapshot().Wire
	if again.BytesOut != w.BytesOut || !reflect.DeepEqual(again.ByKindOut, w.ByKindOut) {
		t.Fatalf("same-seed runs disagree on wire bytes: %d %v vs %d %v", again.BytesOut, again.ByKindOut, w.BytesOut, w.ByKindOut)
	}

	// With modeling off the counters stay silent and the run is untouched
	// (the golden-trace pins check byte-identity; here: zero accounting).
	off := bandwidthRun(t, 0)
	if w := off.Col.Snapshot().Wire; w.BytesOut != 0 {
		t.Fatalf("uncapped run counted %d wire bytes", w.BytesOut)
	}
	if len(off.Deliveries) != len(s.Deliveries) {
		t.Fatalf("bandwidth modeling changed delivery count: %d vs %d", len(s.Deliveries), len(off.Deliveries))
	}
}

// TestSimParkedSendsAreSized: sends parked on a severed link are sized when
// the link heals and they leave, as the plain frames the wire would carry.
func TestSimParkedSendsAreSized(t *testing.T) {
	s := Build(AlgoA1, Options{Groups: 3, PerGroup: 3, Inter: 20 * time.Millisecond, Intra: time.Millisecond,
		Seed: 11, MaxBatch: 4, Pipeline: 2, Bandwidth: 1_000_000})
	s.RT.Fabric().SeverBidi(0, 3)
	for i := 0; i < 10; i++ {
		s.CastAt(time.Duration(i+1)*5*time.Millisecond, 0, fmt.Sprintf("m%d", i), s.Topo.AllGroups())
	}
	s.RunUntil(40 * time.Millisecond)
	s.RT.Fabric().HealBidi(0, 3)
	s.Run()
	if v := s.Check(); len(v) != 0 {
		t.Fatalf("§2.2 violations: %v", v)
	}
	w := s.Col.Snapshot().Wire
	if w.BytesOut != 17954 || len(s.Deliveries) != 90 {
		t.Fatalf("counted %d wire bytes and %d deliveries, want 17954 and 90", w.BytesOut, len(s.Deliveries))
	}
}

// TestSimBandwidthSlowsDelivery: a capped link actually costs virtual time —
// the same workload finishes later under a tight cap than uncapped, and
// still delivers everything.
func TestSimBandwidthSlowsDelivery(t *testing.T) {
	fast := bandwidthRun(t, 0)
	slow := bandwidthRun(t, 100_000)
	if len(slow.Deliveries) != len(fast.Deliveries) {
		t.Fatalf("cap lost deliveries: %d vs %d", len(slow.Deliveries), len(fast.Deliveries))
	}
	last := func(s *System) time.Duration {
		var m time.Duration
		for _, d := range s.Deliveries {
			if d.At > m {
				m = d.At
			}
		}
		return m
	}
	if lf, ls := last(fast), last(slow); ls <= lf {
		t.Fatalf("100kb cap did not slow the run: capped last delivery %v vs uncapped %v", ls, lf)
	}
}
