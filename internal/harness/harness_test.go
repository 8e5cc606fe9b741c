package harness

import (
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"

	"wanamcast/internal/types"
	"wanamcast/internal/wire"
)

// TestSkippingSavesOneInstancePerMember: stage skipping saves the second
// consensus of a single-group message, so one cast to one group of two costs
// A1 two consensus learns and the Fritzke et al. [5] pipeline, which runs all
// four stages, four (one vs two instances x two members).
func TestSkippingSavesOneInstancePerMember(t *testing.T) {
	learns := func(algo Algo) uint64 {
		s := Build(algo, Options{Groups: 2, PerGroup: 2})
		s.Cast(s.Topo.Members(0)[0], "x", types.NewGroupSet(0))
		s.Run()
		if v := s.Check(); len(v) != 0 {
			t.Fatalf("%s: violations %v", algo, v)
		}
		return s.Col.Snapshot().ConsensusInstances
	}
	if a1, fritzke := learns(AlgoA1), learns(AlgoFritzke); a1 != 2 || fritzke != 4 {
		t.Errorf("single-group cast: %d consensus learns under a1, %d under fritzke, want 2 and 4", a1, fritzke)
	}
}

// TestFigure1aLatencyDegrees drives one multicast to k groups through each
// Figure 1(a) algorithm and checks the measured latency degree against the
// paper's row. The caster sits in the last destination group, the generic
// placement under which Delporte's chain costs its full k+1 hops.
func TestFigure1aLatencyDegrees(t *testing.T) {
	for _, k := range []int{2, 3, 4} {
		for _, tc := range []struct {
			algo Algo
			want func(k int) int64
		}{
			{AlgoDelporte, func(k int) int64 { return int64(k) + 1 }},
			{AlgoRodrigues, func(int) int64 { return 4 }},
			{AlgoFritzke, func(int) int64 { return 2 }},
			{AlgoA1, func(int) int64 { return 2 }},
			{AlgoSkeen, func(int) int64 { return 2 }},
			{AlgoDetMerge, func(int) int64 { return 1 }},
		} {
			// DetMerge's Δ=1 run follows [1]'s slotted model: every
			// publisher casts in the same slot, so each message's merge is
			// enabled by concurrent casts rather than by later (causally
			// dependent) heartbeats. Latency degree is a minimum over
			// admissible runs, and this is the witness run.
			s := Build(tc.algo, Options{
				Groups: k, PerGroup: 3,
				DetMergeInterval: time.Second,
				DetMergeStop:     500 * time.Millisecond,
			})
			dest := make([]types.GroupID, k)
			for i := range dest {
				dest[i] = types.GroupID(i)
			}
			members := s.Topo.Members(types.GroupID(k - 1))
			caster := members[len(members)-1]
			var id types.MessageID
			s.RT.Scheduler().At(15*time.Millisecond, func() {
				id = s.Cast(caster, "payload", types.NewGroupSet(dest...))
				if tc.algo == AlgoDetMerge {
					for _, p := range s.Topo.AllProcesses() {
						if p != caster {
							s.Cast(p, "slot-fill", types.NewGroupSet(dest...))
						}
					}
				}
			})
			s.Run()
			deg, ok := s.DegreeOf(id)
			if !ok {
				t.Fatalf("%s k=%d: message not delivered", tc.algo, k)
			}
			if want := tc.want(k); deg != want {
				t.Errorf("%s k=%d: latency degree = %d, want %d", tc.algo, k, deg, want)
			}
			if v := s.Check(); len(v) != 0 {
				t.Errorf("%s k=%d: property violations: %v", tc.algo, k, v)
			}
			wantDeliveries := k * 3
			got := 0
			for _, d := range s.Deliveries {
				if d.ID == id {
					got++
				}
			}
			if got != wantDeliveries {
				t.Errorf("%s k=%d: %d deliveries of the cast, want %d", tc.algo, k, got, wantDeliveries)
			}
		}
	}
}

// TestFigure1bLatencyDegrees drives a broadcast through each Figure 1(b)
// algorithm. A2 is probed while synchronized rounds run (its latency-1
// regime); the others are cold-started.
func TestFigure1bLatencyDegrees(t *testing.T) {
	for _, tc := range []struct {
		algo Algo
		want int64
	}{
		{AlgoSousa, 2},
		{AlgoVicente, 2},
		{AlgoA2, 1},
		{AlgoDetMerge, 1},
	} {
		s := Build(tc.algo, Options{
			Groups: 3, PerGroup: 3,
			DetMergeInterval: time.Second,
			DetMergeStop:     500 * time.Millisecond,
		})
		all := s.Topo.AllGroups()
		if tc.algo == AlgoA2 {
			// Synchronize rounds: one warm-up broadcast per group at t=0.
			for g := 0; g < 3; g++ {
				s.CastAt(0, s.Topo.Members(types.GroupID(g))[0], "warm", all)
			}
		}
		caster := s.Topo.Members(0)[1]
		var id types.MessageID
		s.RT.Scheduler().At(15*time.Millisecond, func() {
			id = s.Cast(caster, "probe", all)
			if tc.algo == AlgoDetMerge {
				// [1]'s slotted model: every publisher casts in the slot.
				for _, p := range s.Topo.AllProcesses() {
					if p != caster {
						s.Cast(p, "slot-fill", all)
					}
				}
			}
		})
		s.Run()
		deg, ok := s.DegreeOf(id)
		if !ok {
			t.Fatalf("%s: probe not delivered", tc.algo)
		}
		if deg != tc.want {
			t.Errorf("%s: latency degree = %d, want %d", tc.algo, deg, tc.want)
		}
		if v := s.Check(); len(v) != 0 {
			t.Errorf("%s: property violations: %v", tc.algo, v)
		}
	}
}

// TestCheckBeforeScheduledCrash: a crash still to come does not make its
// victim faulty. At 1 ms nobody has delivered p's cast yet, so with p correct
// so far Check owes validity at all six processes, as it would with no crash
// scheduled at all.
func TestCheckBeforeScheduledCrash(t *testing.T) {
	s := Build(AlgoA1, Options{Groups: 2, PerGroup: 3})
	p := s.Topo.Members(0)[0]
	s.Cast(p, "m", types.NewGroupSet(0, 1))
	s.CrashAt(p, 10*time.Second)
	s.RunUntil(time.Millisecond)
	if v := s.Check(); len(v) != 6 {
		t.Errorf("Check at 1 ms: %d violations, want 6 (validity at every process): %v", len(v), v)
	}
}

// TestBuildHeapPerProcessIndependentOfGroups: a freshly built A1 system
// holds as much per process at 4000 groups as at 200, so wansim's
// 15000x3 and 30000x2 shapes fit in a few hundred MB. A per-process list
// over the groups or their members (an idle A2's addressees, A1's leads by
// group) makes the larger system cost several times more per process.
func TestBuildHeapPerProcessIndependentOfGroups(t *testing.T) {
	perProc := func(groups int) float64 {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		s := Build(AlgoA1, Options{Groups: groups, PerGroup: 3})
		runtime.GC()
		runtime.ReadMemStats(&after)
		runtime.KeepAlive(s)
		return float64(int64(after.HeapAlloc)-int64(before.HeapAlloc)) / float64(s.Topo.N())
	}
	small, large := perProc(200), perProc(4000)
	t.Logf("heap per process: %.0f B at 200x3, %.0f B at 4000x3", small, large)
	if large > 1.5*small {
		t.Errorf("heap per process grows with the system: %.0f B at 200x3, %.0f B at 4000x3", small, large)
	}
}

// TestUndecodablePayloadIsReportedOnce: a simulated system decodes a
// delivered payload once per message, at its first delivery, however many
// processes deliver it. Bytes that DecodeValue rejects — a gob blob garbled
// past its length, cast around System.Cast's encoding — are delivered like
// any other, reported once through the trace hook and recorded as nil; the
// run goes on and the next cast is delivered with its value.
func TestUndecodablePayloadIsReportedOnce(t *testing.T) {
	var lines []string
	s := Build(AlgoA1, Options{Groups: 2, PerGroup: 3, Trace: func(format string, args ...any) {
		lines = append(lines, fmt.Sprintf(format, args...))
	}})
	garbled := wire.AppendValue(nil, []int{1, 2, 3, 4, 5, 6, 7, 8}) // a gob blob
	for i := len(garbled) / 2; i < len(garbled); i++ {
		garbled[i] = 0xFF
	}
	dest := types.NewGroupSet(0, 1)
	bad := s.Hosts[0].A1.AMCast(garbled, dest)
	s.Checker.RecordCast(bad, dest)
	good := s.Cast(4, "after", dest)
	s.Run()
	if v := s.Check(); len(v) != 0 {
		t.Fatalf("violations %v", v)
	}
	n := 0
	for _, d := range s.Deliveries {
		switch {
		case d.ID == bad && d.Payload != nil, d.ID == good && d.Payload != "after":
			t.Errorf("%v delivered %v at %v", d.ID, d.Payload, d.Process)
		case d.ID == bad:
			n++
		}
	}
	reports := 0
	for _, l := range lines {
		if strings.Contains(l, "does not decode") {
			reports++
		}
	}
	if n != 6 || reports != 1 {
		t.Errorf("the garbled payload was delivered %d times and reported %d times, want 6 and once", n, reports)
	}
}
