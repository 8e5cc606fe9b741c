package node

import (
	"testing"
	"testing/quick"
	"time"

	"wanamcast/internal/network"
	"wanamcast/internal/types"
)

// TestClockLawsQuick drives random send schedules through the runtime and
// checks the §2.3 clock laws as invariants:
//
//  1. clocks never decrease;
//  2. a process's clock equals the number of inter-group send events it
//     performed plus what it absorbed via receives (so a process that
//     neither sends inter-group nor receives stays at zero);
//  3. causality: a receive's clock is ≥ the carried send timestamp.
type clockProbe struct {
	api     *Proc
	label   string
	maxSeen int64
	bad     bool
}

func (c *clockProbe) Proto() string       { return c.label }
func (c *clockProbe) Start()              {}
func (c *clockProbe) Handlers() []Handler { return []Handler{On((*clockProbe).Receive)} }
func (c *clockProbe) Receive(from types.ProcessID, ts int64) {
	if c.api.Clock() < ts { // law 3: receive takes the max
		c.bad = true
	}
	if c.api.Clock() < c.maxSeen { // law 1: monotone
		c.bad = true
	}
	c.maxSeen = c.api.Clock()
}

func TestClockLawsQuick(t *testing.T) {
	f := func(seed int64, plan []uint16) bool {
		if len(plan) > 40 {
			plan = plan[:40]
		}
		topo := types.NewTopology(3, 2)
		rt := NewRuntime(topo, network.Model{IntraGroup: time.Millisecond, InterGroup: 20 * time.Millisecond}, seed, nil)
		probes := make([]*clockProbe, topo.N())
		for _, id := range topo.AllProcesses() {
			probes[id] = &clockProbe{api: rt.Proc(id), label: "probe"}
			rt.Proc(id).Register(probes[id])
		}
		rt.Start()
		interSends := make([]int64, topo.N())
		for i, move := range plan {
			from := types.ProcessID(int(move) % topo.N())
			to := types.ProcessID(int(move>>4) % topo.N())
			at := time.Duration(int(move>>8)+i) * time.Millisecond
			rt.Scheduler().At(at, func() {
				p := rt.Proc(from)
				before := p.Clock()
				Send(p, to, "probe", before+boolToInt(!topo.SameGroup(from, to)))
				// law 2 (send side): inter-group send ticks exactly once.
				if !topo.SameGroup(from, to) && from != to {
					interSends[from]++
					if p.Clock() != before+1 {
						probes[from].bad = true
					}
				} else if p.Clock() != before {
					probes[from].bad = true
				}
			})
		}
		rt.Run()
		for _, pr := range probes {
			if pr.bad {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func boolToInt(b bool) int64 {
	if b {
		return 1
	}
	return 0
}
