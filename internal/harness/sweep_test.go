package harness

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"wanamcast/internal/types"
)

func TestParseShape(t *testing.T) {
	good := map[string]Shape{
		"200x5":  {Groups: 200, PerGroup: 5},
		" 50x3 ": {Groups: 50, PerGroup: 3},
		"1x1":    {Groups: 1, PerGroup: 1},
	}
	for spec, want := range good {
		got, err := ParseShape(spec)
		if err != nil {
			t.Fatalf("ParseShape(%q): %v", spec, err)
		}
		if got != want {
			t.Fatalf("ParseShape(%q) = %v, want %v", spec, got, want)
		}
	}
	for _, spec := range []string{"", "200", "x5", "200x", "0x3", "3x0", "-1x3", "3x-1", "axb", "3x3x3"} {
		if _, err := ParseShape(spec); err == nil {
			t.Fatalf("ParseShape(%q) accepted a bad shape", spec)
		}
	}
}

func TestParseSweep(t *testing.T) {
	shapes, err := ParseSweep("4x3,50x3,200x5")
	if err != nil {
		t.Fatal(err)
	}
	want := []Shape{{4, 3}, {50, 3}, {200, 5}}
	if len(shapes) != len(want) {
		t.Fatalf("got %d shapes, want %d", len(shapes), len(want))
	}
	for i := range want {
		if shapes[i] != want[i] {
			t.Fatalf("shape %d = %v, want %v", i, shapes[i], want[i])
		}
	}
	if _, err := ParseSweep("4x3,,50x3"); err == nil {
		t.Fatal("ParseSweep accepted an empty element")
	}
}

// TestRunScaleSweepMeasures smokes one small sweep point end to end: the
// run must execute events, report a positive throughput and wall clock,
// and pass the §2.2 property checks.
func TestRunScaleSweepMeasures(t *testing.T) {
	pts := RunScaleSweep(AlgoA1, Options{
		Inter: 20 * time.Millisecond, Intra: time.Millisecond, Seed: 1,
	}, []Shape{{Groups: 3, PerGroup: 3}}, 10)
	if len(pts) != 1 {
		t.Fatalf("got %d points, want 1", len(pts))
	}
	p := pts[0]
	if p.Events == 0 || p.EventsPerSec <= 0 || p.Wall <= 0 {
		t.Fatalf("sweep point measured nothing: %+v", p)
	}
	if p.Violations != 0 {
		t.Fatalf("sweep run violated ordering properties: %+v", p)
	}
}

// TestSimScaleCountsPinned pins the runs of bench's sim-scale workload at
// seed 1, event for event: A1 at 200 groups of 5 with 10 000 casts, then A2
// at 50 groups of 3 with 1 500, 4 986 498 events together, each run clean
// under the §2.2 checker. The counts are virtual-time behaviour: a change to
// CPU work or allocations alone leaves them as they are.
func TestSimScaleCountsPinned(t *testing.T) {
	for _, c := range []struct {
		algo   Algo
		shape  Shape
		casts  int
		events uint64
	}{
		{AlgoA1, Shape{200, 5}, 10000, 1561598},
		{AlgoA2, Shape{50, 3}, 1500, 3424900},
	} {
		p := RunScaleSweep(c.algo, Options{Seed: 1}, []Shape{c.shape}, c.casts)[0]
		if p.Events != c.events || p.Violations != 0 {
			t.Errorf("%s %v, %d casts: %d events, %d violations; want %d, 0", c.algo, c.shape, c.casts, p.Events, p.Violations, c.events)
		}
	}
}

// TestJitterFreeSweepPinned pins the event count and the delivery log of
// small sweep runs at sim-scale's delays (no jitter): the runs in which the
// simulator schedules a multicast as runs of receivers sharing an arrival
// instant. Both were recorded with one scheduler entry per receiver.
func TestJitterFreeSweepPinned(t *testing.T) {
	cases := []struct {
		algo    Algo
		shape   Shape
		events  uint64
		wantLog string
	}{
		{AlgoA1, Shape{20, 3}, 23332, "f9885e64b903baba07612ec981c0bba72867ed059158f656ae35c38af87573d8"},
		{AlgoA2, Shape{8, 3}, 22176, "05734d521162543ccfbcfac297a159674bf2783d8e8b32f3204829318415b25e"},
	}
	for _, tc := range cases {
		sys := sweepRun(tc.algo, Options{Seed: 1}, tc.shape, 300)
		h := sha256.New()
		for _, d := range sys.Deliveries {
			fmt.Fprintf(h, "DELIVER %v %v at %v\n", d.ID, d.Process, d.At)
		}
		events, log := sys.RT.Scheduler().Steps(), hex.EncodeToString(h.Sum(nil))
		if events != tc.events || log != tc.wantLog {
			t.Errorf("%s %v: %d events, delivery log %s; want %d, %s", tc.algo, tc.shape, events, log, tc.events, tc.wantLog)
		}
		if v := sys.Check(); len(v) > 0 {
			t.Errorf("%s %v: §2.2 violated: %v", tc.algo, tc.shape, v)
		}
	}
}

// TestPartialBatchesWaitCountsPinned is the box-independent record of what a
// Batcher saves by proposing a partial batch only while none of its own
// instances is undecided. It is `wansim -pipeline 4 -maxbatch 64 -casts 3000
// -rate 5000 -wan 5ms -lan 1ms -seed 1`, jitter-free, for A1 and A2. While a
// partial batch opened the next instance on every arrival, the runs counted
// A1 10 965 instances in 64 747 messages (mean virtual latency 15.88 ms) and
// A2 3 168 in 39 786 (8.86 ms). The rule changes intra-group consensus only:
// A1's 30 051 inter-group messages stay, A2's fall with the rounds it ships.
// The A1 latency cost is real on a CPU-free simulator: about one consensus
// round more (17.48 ms).
func TestPartialBatchesWaitCountsPinned(t *testing.T) {
	cases := []struct {
		algo                Algo
		instances, messages uint64
		meanWall            time.Duration
	}{
		{AlgoA1, 2763, 41745, 17476866 * time.Nanosecond},
		{AlgoA2, 2781, 36918, 8899100 * time.Nanosecond},
	}
	for _, tc := range cases {
		s := Build(tc.algo, Options{Groups: 3, PerGroup: 3, Inter: 5 * time.Millisecond,
			Intra: time.Millisecond, Seed: 1, MaxBatch: 64, Pipeline: 4})
		if tc.algo == AlgoA2 { // wansim warms A2's rounds
			for _, g := range s.Topo.AllGroups().Groups() {
				s.CastAt(0, s.Topo.Members(g)[0], "warm", s.Topo.AllGroups())
			}
		}
		RandomCasts(rand.New(rand.NewSource(1)), s.Topo, 3000, 2, func(i int, from types.ProcessID, dest types.GroupSet) {
			s.CastAt(time.Duration(i+1)*200*time.Microsecond, from, fmt.Sprintf("msg-%d", i), dest)
		})
		s.Run()
		st := s.Col.Snapshot()
		if st.ConsensusInstances != tc.instances || st.TotalMessages != tc.messages || st.MeanWallLatency != tc.meanWall {
			t.Errorf("%s: %d instances, %d messages, mean %v; want %d, %d, %v",
				tc.algo, st.ConsensusInstances, st.TotalMessages, st.MeanWallLatency, tc.instances, tc.messages, tc.meanWall)
		}
		if v := s.Check(); len(v) > 0 {
			t.Errorf("%s: §2.2 violated: %v", tc.algo, v)
		}
	}
}

// BenchmarkSimScale reports the simulation runtime's whole-run throughput
// at the sweep's canonical shapes. b.N counts casts; custom metrics carry
// what the sweep table prints: events/s and allocs/event.
func BenchmarkSimScale(b *testing.B) {
	for _, sh := range []Shape{{4, 3}, {50, 3}, {200, 5}} {
		b.Run(sh.String(), func(b *testing.B) {
			opts := Options{Inter: 100 * time.Millisecond, Intra: time.Millisecond,
				Jitter: 10 * time.Millisecond, Seed: 1}
			b.ReportAllocs()
			b.ResetTimer()
			pts := RunScaleSweep(AlgoA1, opts, []Shape{sh}, b.N)
			b.StopTimer()
			p := pts[0]
			b.ReportMetric(p.EventsPerSec, "events/s")
			b.ReportMetric(p.AllocsPerEvent, "allocs/event")
			b.ReportMetric(float64(p.Events)/float64(b.N), "events/cast")
		})
	}
}
