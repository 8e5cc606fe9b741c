package scenario_test

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"wanamcast/internal/harness"
	"wanamcast/internal/scenario"
	"wanamcast/internal/types"
)

// TestLanesDeterministicTrace: the live runtime orders each group on a lane
// of its own, and those lanes race; the simulator runs every process on its
// one scheduler goroutine, whose (time, priority, sequence) merge order is
// the interleaving. So a simulated run is a function of its seed whatever
// lane layout a live deployment would use. This pins it for A2 under the
// six-scenario suite (TestScenarioDeterministicTrace pins A1): two same-seed
// runs yield byte-identical delivery traces.
func TestLanesDeterministicTrace(t *testing.T) {
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
				s := runSuiteScenario(t, harness.AlgoA2, sc, 7)
				var b strings.Builder
				for _, d := range s.Deliveries {
					fmt.Fprintf(&b, "%v %v %v %v\n", d.At, d.Process, d.ID, d.Payload)
				}
				return b.String()
			}
			first, second := trace(), trace()
			if first != second {
				t.Fatalf("scenario %q not deterministic under A2:\nrun1:\n%s\nrun2:\n%s", name, first, second)
			}
			if len(first) == 0 {
				t.Fatalf("scenario %q delivered nothing under A2", name)
			}
		})
	}
}
