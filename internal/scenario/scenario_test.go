package scenario_test

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"wanamcast/internal/harness"
	"wanamcast/internal/scenario"
	"wanamcast/internal/types"
	"wanamcast/internal/workload"
)

// runSuiteScenario drives one scenario against a simulated A1 system
// under a Poisson workload and returns the system for inspection.
func runSuiteScenario(t *testing.T, algo harness.Algo, sc scenario.Scenario, seed int64) *harness.System {
	t.Helper()
	// Jitter makes every link delay a draw from the seeded rng, so any
	// nondeterminism in the fault engine (e.g. a map-ordered heal sweep
	// desynchronising the rng) shows up as a diverging trace.
	s := harness.Build(algo, harness.Options{
		Groups: 3, PerGroup: 3, Seed: seed,
		Inter: 50 * time.Millisecond, Intra: time.Millisecond,
		Jitter: 2 * time.Millisecond,
	})
	scenario.Apply(s.Chaos(), sc)
	casts := workload.Generate(s.Topo, workload.Spec{
		Casts:      40,
		MeanPeriod: 40 * time.Millisecond,
		Poisson:    true,
		Seed:       seed,
	})
	crashed := crashSet(sc)
	for _, c := range casts {
		c := c
		s.RT.Scheduler().At(c.At, func() {
			if !crashed[c.From] {
				s.Cast(c.From, c.Payload, c.Dest)
			}
		})
	}
	// Post-heal progress probe: a fresh cast after the last scenario event
	// must still be delivered everywhere.
	probeAt := sc.Horizon() + 100*time.Millisecond
	s.RT.Scheduler().At(probeAt, func() {
		s.Cast(s.Topo.Members(1)[0], "post-heal-probe", s.Topo.AllGroups())
	})
	s.RT.Scheduler().MaxSteps = 20_000_000
	s.Run()
	return s
}

// crashSet collects processes a scenario crashes (sim restarts are
// permanent crashes).
func crashSet(sc scenario.Scenario) map[types.ProcessID]bool {
	out := make(map[types.ProcessID]bool)
	for _, e := range sc.Events {
		if e.Kind == scenario.Crash {
			for _, p := range e.Procs {
				out[p] = true
			}
		}
	}
	return out
}

// TestSuiteOnSimulator: every suite scenario — symmetric partition+heal,
// asymmetric partition, leader flap ×3, delay spike, partition during
// crash-recovery, lease-holder isolation — satisfies §2.2 under load on
// the simulated runtime,
// and the post-heal probe is delivered everywhere (liveness resumed).
func TestSuiteOnSimulator(t *testing.T) {
	topo := types.NewTopology(3, 3)
	cfg := scenario.SuiteConfig{Unit: 300 * time.Millisecond, Spike: 400 * time.Millisecond}
	for _, sc := range scenario.Suite(topo, cfg) {
		sc := sc
		for _, algo := range []harness.Algo{harness.AlgoA1, harness.AlgoA2} {
			algo := algo
			t.Run(fmt.Sprintf("%s/%s", sc.Name, algo), func(t *testing.T) {
				t.Parallel()
				s := runSuiteScenario(t, algo, sc, 42)
				if v := s.Check(); len(v) != 0 {
					t.Fatalf("§2.2 violations under %s:\n%v", sc.Name, v)
				}
				probes := 0
				for _, d := range s.Deliveries {
					if d.Payload == "post-heal-probe" {
						probes++
					}
				}
				want := 0
				crashed := crashSet(sc)
				for _, p := range s.Topo.AllProcesses() {
					if !crashed[p] {
						want++
					}
				}
				if probes != want {
					t.Fatalf("post-heal probe delivered %d times, want %d (delivery did not resume)", probes, want)
				}
			})
		}
	}
}

// TestScenarioDeterministicTrace: the same scenario and seed yield
// byte-identical delivery traces across two independent sim runs — chaos
// stays reproducible.
func TestScenarioDeterministicTrace(t *testing.T) {
	topo := types.NewTopology(3, 3)
	cfg := scenario.SuiteConfig{Unit: 200 * time.Millisecond}
	for _, name := range scenario.Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			sc, ok := scenario.ByName(topo, cfg, name)
			if !ok {
				t.Fatalf("unknown suite scenario %q", name)
			}
			trace := func() string {
				s := runSuiteScenario(t, harness.AlgoA1, sc, 7)
				var b strings.Builder
				for _, d := range s.Deliveries {
					fmt.Fprintf(&b, "%v %v %v %v\n", d.At, d.Process, d.ID, d.Payload)
				}
				return b.String()
			}
			first, second := trace(), trace()
			if first != second {
				t.Fatalf("scenario %q not deterministic:\nrun1:\n%s\nrun2:\n%s", name, first, second)
			}
			if len(first) == 0 {
				t.Fatalf("scenario %q delivered nothing", name)
			}
		})
	}
}

// TestApplyRequiresWiring pins the Funcs contract.
func TestApplyRequiresWiring(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Apply with missing Funcs did not panic")
		}
	}()
	scenario.Apply(scenario.Funcs{}, scenario.Scenario{})
}

// TestNamesListTheSuiteInOrder pins the one scenario vocabulary the
// commands' -scenario flags and usage strings are built from.
func TestNamesListTheSuiteInOrder(t *testing.T) {
	want := "partition-heal asym-partition leader-flap delay-spike partition-recovery lease-partition"
	if got := strings.Join(scenario.Names(), " "); got != want {
		t.Fatalf("Names() = %s, want %s", got, want)
	}
	// The names do not depend on the topology the suite is built over.
	for i, sc := range scenario.Suite(types.NewTopology(4, 5), scenario.SuiteConfig{}) {
		if sc.Name != scenario.Names()[i] {
			t.Errorf("4x5 suite[%d] = %q, Names()[%d] = %q", i, sc.Name, i, scenario.Names()[i])
		}
	}
}

// TestSuiteShape sanity-checks the preset suite: six scenarios, the
// advertised names, and every partition or isolation eventually healed.
func TestSuiteShape(t *testing.T) {
	topo := types.NewTopology(2, 3)
	suite := scenario.Suite(topo, scenario.SuiteConfig{})
	if len(suite) != len(scenario.Names()) {
		t.Fatalf("suite has %d scenarios, names list %d", len(suite), len(scenario.Names()))
	}
	for i, sc := range suite {
		if sc.Name != scenario.Names()[i] {
			t.Fatalf("suite[%d] = %q, want %q", i, sc.Name, scenario.Names()[i])
		}
		partitions, heals, isolates, deisolates := 0, 0, 0, 0
		for _, e := range sc.Events {
			switch e.Kind {
			case scenario.Partition:
				partitions++
			case scenario.Heal, scenario.HealAll:
				heals++
			case scenario.Isolate:
				isolates++
			case scenario.HealIsolate:
				deisolates++
			}
		}
		if partitions > 0 && heals == 0 {
			t.Fatalf("scenario %q partitions without healing", sc.Name)
		}
		if isolates > 0 && deisolates == 0 {
			t.Fatalf("scenario %q isolates without healing", sc.Name)
		}
	}
}
