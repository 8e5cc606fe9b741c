package consensus

import (
	"fmt"
	"testing"
	"testing/quick"
	"time"

	"wanamcast/internal/network"
	"wanamcast/internal/node"
	"wanamcast/internal/types"
)

// TestConsensusPropertiesQuick: for random group sizes, proposer sets,
// instance counts, proposal timings, and one optional minority crash,
// uniform consensus holds: every correct process decides every proposed
// instance, decisions agree, and each decision was proposed.
func TestConsensusPropertiesQuick(t *testing.T) {
	f := func(seed int64, dRaw, instRaw uint8, plan []uint16) bool {
		d := 1 + int(dRaw)%5        // group of 1..5
		insts := 1 + int(instRaw)%6 // 1..6 instances
		if len(plan) > 24 {
			plan = plan[:24]
		}
		topo := types.NewTopology(1, d)
		rt := node.NewRuntime(topo, network.Model{IntraGroup: time.Millisecond}, seed, nil)
		decs := make([]map[uint64]string, d)
		cons := make([]*Consensus, d)
		for i := 0; i < d; i++ {
			i := i
			decs[i] = make(map[uint64]string)
			cons[i] = New(Config{
				API:      rt.Proc(types.ProcessID(i)),
				Detector: rt.Oracle(),
				OnDecide: func(k uint64, v Value) {
					if _, dup := decs[i][k]; dup {
						t.Errorf("p%d decided %d twice", i, k)
					}
					decs[i][k] = string(v)
				},
			})
			rt.Proc(types.ProcessID(i)).Register(cons[i])
		}
		rt.Start()

		proposed := make(map[uint64]map[string]bool)
		planned := make(map[uint64]bool)
		for _, move := range plan {
			proposer := int(move) % d
			inst := uint64(int(move>>4)%insts) + 1
			at := time.Duration(int(move>>8)%50) * time.Millisecond
			val := fmt.Sprintf("p%d-i%d", proposer, inst)
			if proposed[inst] == nil {
				proposed[inst] = make(map[string]bool)
			}
			rt.Scheduler().At(at, func() {
				cons[proposer].Propose(inst, Value(val))
			})
			// Record the value as potentially proposed; Propose dedups
			// locally, but the first call per (proposer, inst) wins and
			// any of the recorded values is a legal decision.
			proposed[inst][val] = true
			planned[inst] = true
		}
		// Optionally crash one process (keep a majority) mid-run.
		crashed := -1
		if d >= 3 && seed%2 == 0 {
			crashed = int((seed / 2) % int64(d))
			if crashed < 0 {
				crashed += d
			}
			at := time.Duration(seed%40) * time.Millisecond
			if at < 0 {
				at = -at
			}
			rt.CrashAt(types.ProcessID(crashed), at)
		}
		rt.Scheduler().MaxSteps = 2_000_000
		rt.Run()

		for inst := range planned {
			// A crashed sole proposer may legally leave an instance
			// undecided; skip instances only the crashed process proposed.
			var ref string
			decidedBy := 0
			for i := 0; i < d; i++ {
				if i == crashed {
					continue
				}
				v, ok := decs[i][inst]
				if !ok {
					continue
				}
				if decidedBy == 0 {
					ref = v
				} else if v != ref {
					return false // uniform agreement broken
				}
				decidedBy++
			}
			if decidedBy > 0 {
				if !proposed[inst][ref] {
					return false // uniform integrity broken
				}
				// Termination: all correct processes decided.
				want := d
				if crashed >= 0 {
					want--
				}
				if decidedBy != want {
					return false
				}
			} else {
				// Nobody decided: legal only if every proposer of this
				// instance crashed, i.e. the only proposer was `crashed`.
				for i := 0; i < d; i++ {
					if i == crashed {
						continue
					}
					if _, stillHas := decs[i][inst]; stillHas {
						return false
					}
				}
				// Check no correct process proposed it.
				onlyCrashedProposed := true
				for _, move := range plan {
					proposer := int(move) % d
					pinst := uint64(int(move>>4)%insts) + 1
					if pinst == inst && proposer != crashed {
						onlyCrashedProposed = false
					}
				}
				if !onlyCrashedProposed {
					return false // a correct proposal must terminate
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}
