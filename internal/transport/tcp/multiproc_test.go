package tcp

import (
	"testing"
	"time"

	"wanamcast/internal/abcast"
	"wanamcast/internal/config"
	"wanamcast/internal/types"
)

// TestMultiRuntimeBroadcast splits a 2×2 system across two separate
// Runtime instances (the cmd/wannode deployment shape, in-process here)
// and checks that a broadcast crosses the runtime boundary and totally
// orders everywhere.
func TestMultiRuntimeBroadcast(t *testing.T) {
	topo := types.NewTopology(2, 2)
	log := newLog()

	mk := func(local []types.ProcessID) (*Runtime, map[types.ProcessID]*abcast.Bcast) {
		rt := New(Config{
			Topo:   topo,
			Local:  local,
			Config: config.Config{BasePort: 21500, WANDelay: 15 * time.Millisecond},
		})
		eps := make(map[types.ProcessID]*abcast.Bcast)
		for _, id := range local {
			id := id
			eps[id] = abcast.New(abcast.Config{
				Host:     rt.Proc(id),
				Detector: rt.Detector(id),
				OnDeliver: func(mid types.MessageID, _ []byte) {
					log.add(id, mid)
				},
			})
		}
		return rt, eps
	}

	// Group 0 lives in runtime A, group 1 in runtime B.
	rtA, epsA := mk([]types.ProcessID{0, 1})
	rtB, epsB := mk([]types.ProcessID{2, 3})
	if err := rtA.Start(); err != nil {
		t.Fatal(err)
	}
	defer rtA.Stop()
	if err := rtB.Start(); err != nil {
		t.Fatal(err)
	}
	defer rtB.Stop()

	var first, second types.MessageID
	rtA.Run(0, func() { first = epsA[0].ABCast([]byte("from-runtime-A")) })
	time.Sleep(20 * time.Millisecond)
	rtB.Run(3, func() { second = epsB[3].ABCast([]byte("from-runtime-B")) })

	waitFor(t, 15*time.Second, func() bool {
		for _, p := range topo.AllProcesses() {
			if len(log.seq(p)) < 2 {
				return false
			}
		}
		return true
	})
	for _, p := range topo.AllProcesses() {
		seq := log.seq(p)
		if seq[0] != log.seq(0)[0] || seq[1] != log.seq(0)[1] {
			t.Fatalf("cross-runtime order diverges at p%v: %v vs %v", p, seq, log.seq(0))
		}
	}
	_ = first
	_ = second
}

// TestProcPanicsForRemote: asking a runtime for a process it does not host
// is a wiring bug and must panic.
func TestProcPanicsForRemote(t *testing.T) {
	topo := types.NewTopology(2, 1)
	rt := New(Config{Topo: topo, Local: []types.ProcessID{0}, Config: config.Config{BasePort: 21600}})
	defer func() {
		if recover() == nil {
			t.Error("expected panic for non-local process")
		}
	}()
	rt.Proc(1)
}
