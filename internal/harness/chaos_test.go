package harness

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"wanamcast/internal/types"
	"wanamcast/internal/workload"
)

// faultTolerant lists the algorithms that claim crash-stop tolerance with
// a correct majority per group; the chaos suite hammers exactly those.
// (Skeen is failure-free by design; Rodrigues and det-merge are modeled
// failure-free, as in the paper's Figure 1 accounting.)
func faultTolerant() []Algo {
	return []Algo{AlgoA1, AlgoA2, AlgoFritzke, AlgoDelporte}
}

// TestChaosRandomCrashes drives randomized workloads with randomized
// minority crash schedules through every fault-tolerant algorithm and
// verifies the §2.2 properties on every trace.
func TestChaosRandomCrashes(t *testing.T) {
	for _, algo := range faultTolerant() {
		algo := algo
		for seed := int64(0); seed < 5; seed++ {
			seed := seed
			t.Run(fmt.Sprintf("%s/seed=%d", algo, seed), func(t *testing.T) {
				t.Parallel()
				s := Build(algo, Options{Groups: 3, PerGroup: 3, Seed: seed, Jitter: 5 * time.Millisecond})
				rng := rand.New(rand.NewSource(seed * 31))
				crashed := make(map[types.ProcessID]bool)
				// One random victim per group, at a random moment.
				for g := 0; g < 3; g++ {
					victim := s.Topo.Members(types.GroupID(g))[rng.Intn(3)]
					crashed[victim] = true
					s.CrashAt(victim, time.Duration(rng.Intn(400))*time.Millisecond)
				}
				casts := workload.Generate(s.Topo, workload.Spec{
					Casts:      20,
					MeanPeriod: 25 * time.Millisecond,
					Poisson:    true,
					Seed:       seed,
				})
				for _, c := range casts {
					c := c
					s.RT.Scheduler().At(c.At, func() {
						if !crashed[c.From] {
							s.Cast(c.From, c.Payload, c.Dest)
						}
					})
				}
				s.RT.Scheduler().MaxSteps = 5_000_000
				s.Run()
				if v := s.Check(); len(v) != 0 {
					t.Fatalf("violations:\n%v", v)
				}
			})
		}
	}
}

// TestChaosLargeScale is a 6-group × 5-process (30-process) stress run
// with 100 messages through A1 and A2: scale shakes out quadratic-state
// bugs that 2×3 topologies cannot.
func TestChaosLargeScale(t *testing.T) {
	for _, algo := range []Algo{AlgoA1, AlgoA2} {
		algo := algo
		t.Run(string(algo), func(t *testing.T) {
			t.Parallel()
			s := Build(algo, Options{Groups: 6, PerGroup: 5, Seed: 99})
			casts := workload.Generate(s.Topo, workload.Spec{
				Casts:      100,
				MeanPeriod: 10 * time.Millisecond,
				Poisson:    true,
				Seed:       7,
			})
			for _, c := range casts {
				c := c
				s.RT.Scheduler().At(c.At, func() { s.Cast(c.From, c.Payload, c.Dest) })
			}
			s.RT.Scheduler().MaxSteps = 20_000_000
			s.Run()
			if v := s.Check(); len(v) != 0 {
				t.Fatalf("violations (first 5):\n%v", v[:min(5, len(v))])
			}
			// Everyone addressed must have delivered all 100.
			st := s.Col.Snapshot()
			if st.MessagesDelivered != 100 {
				t.Fatalf("delivered %d of 100 casts", st.MessagesDelivered)
			}
		})
	}
}

// TestChaosCrashAtCastInstant crashes casters exactly when they cast —
// the worst moment for validity/agreement bookkeeping.
func TestChaosCrashAtCastInstant(t *testing.T) {
	for _, algo := range faultTolerant() {
		algo := algo
		t.Run(string(algo), func(t *testing.T) {
			t.Parallel()
			s := Build(algo, Options{Groups: 2, PerGroup: 3, Seed: 5})
			dest := types.NewGroupSet(0, 1)
			// Two casters die at their cast instants; one survives.
			s.CastAt(10*time.Millisecond, s.Topo.Members(0)[2], "doomed-1", dest)
			s.CrashAt(s.Topo.Members(0)[2], 10*time.Millisecond)
			s.CastAt(150*time.Millisecond, s.Topo.Members(1)[2], "doomed-2", dest)
			s.CrashAt(s.Topo.Members(1)[2], 150*time.Millisecond)
			s.CastAt(300*time.Millisecond, s.Topo.Members(0)[0], "survivor", dest)
			s.RT.Scheduler().MaxSteps = 5_000_000
			s.Run()
			if v := s.Check(); len(v) != 0 {
				t.Fatalf("violations:\n%v", v)
			}
			// The survivor's message must be everywhere.
			count := 0
			for _, d := range s.Deliveries {
				if d.Payload == "survivor" {
					count++
				}
			}
			if count != 4 {
				t.Fatalf("survivor delivered %d times, want 4 (correct processes)", count)
			}
		})
	}
}
