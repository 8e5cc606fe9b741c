package abcast

import (
	"fmt"
	"testing"
	"time"

	"wanamcast/internal/types"
)

// TestRoundStateDrains: a quiescent run leaves no residue in the per-round
// or R-Delivery working sets. Late bundle copies for completed rounds must
// be dropped rather than re-stored, and delivered records must be pruned
// from rdelivered/rdOrder — both would otherwise grow with every round of
// a long-lived cluster, and fillBundle would rescan the full history on
// every Pump.
func TestRoundStateDrains(t *testing.T) {
	for _, pipeline := range []int{1, 3} {
		t.Run(fmt.Sprintf("pipeline=%d", pipeline), func(t *testing.T) {
			r := newRigKnobs(t, 3, 2, 5, 0, pipeline)
			for i := 0; i < 12; i++ {
				r.castAt(time.Duration(i*40)*time.Millisecond, types.ProcessID(i%6))
			}
			r.rt.Run()
			r.verify(t)
			for _, p := range r.topo.AllProcesses() {
				ep := r.eps[p]
				for _, s := range ep.ring {
					if s.round != 0 {
						t.Errorf("p%v: round %d's bundles retained", p, s.round)
					}
				}
				if n := len(ep.inDecided); n != 0 {
					t.Errorf("p%v: %d stale inDecided records retained", p, n)
				}
				if n := len(ep.rdelivered); n != 0 {
					t.Errorf("p%v: rdelivered retains %d delivered records", p, n)
				}
				if n := len(ep.rdOrder); n != 0 {
					t.Errorf("p%v: rdOrder retains %d entries", p, n)
				}
			}
		})
	}
}
