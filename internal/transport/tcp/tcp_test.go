package tcp

import (
	"sync"
	"testing"
	"time"

	"wanamcast/internal/abcast"
	"wanamcast/internal/amcast"
	"wanamcast/internal/config"
	"wanamcast/internal/metrics"
	"wanamcast/internal/types"
)

// deliveryLog collects A-Deliver events safely across process loops.
type deliveryLog struct {
	mu   sync.Mutex
	seqs map[types.ProcessID][]types.MessageID
}

func newLog() *deliveryLog {
	return &deliveryLog{seqs: make(map[types.ProcessID][]types.MessageID)}
}

func (l *deliveryLog) add(p types.ProcessID, id types.MessageID) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.seqs[p] = append(l.seqs[p], id)
}

func (l *deliveryLog) seq(p types.ProcessID) []types.MessageID {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]types.MessageID(nil), l.seqs[p]...)
}

func waitFor(t *testing.T, timeout time.Duration, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatal("condition not reached before timeout")
}

func TestLiveBroadcastTotalOrder(t *testing.T) {
	topo := types.NewTopology(2, 2)
	col := &metrics.Collector{}
	rt := New(Config{
		Topo:     topo,
		Recorder: col,
		Config:   config.Config{BasePort: 21100, WANDelay: 20 * time.Millisecond},
	})
	log := newLog()
	eps := make([]*abcast.Bcast, topo.N())
	for _, id := range topo.AllProcesses() {
		id := id
		eps[id] = abcast.New(abcast.Config{
			Host:     rt.Proc(id),
			Detector: rt.Detector(id),
			OnDeliver: func(mid types.MessageID, _ []byte) {
				log.add(id, mid)
			},
		})
	}
	if err := rt.Start(); err != nil {
		t.Fatal(err)
	}
	defer rt.Stop()

	const casts = 6
	for i := 0; i < casts; i++ {
		i := i
		from := types.ProcessID(i % topo.N())
		rt.Run(from, func() { eps[from].ABCast([]byte{byte(i)}) })
		time.Sleep(10 * time.Millisecond)
	}
	waitFor(t, 10*time.Second, func() bool {
		for _, p := range topo.AllProcesses() {
			if len(log.seq(p)) < casts {
				return false
			}
		}
		return true
	})
	ref := log.seq(0)
	for _, p := range topo.AllProcesses()[1:] {
		seq := log.seq(p)
		for i := 0; i < casts; i++ {
			if seq[i] != ref[i] {
				t.Fatalf("live total order diverges at %d: p0=%v p%v=%v", i, ref[i], p, seq[i])
			}
		}
	}
}

func TestLiveMulticastGenuine(t *testing.T) {
	topo := types.NewTopology(3, 2)
	col := &metrics.Collector{LogSends: true}
	rt := New(Config{
		Topo:     topo,
		Recorder: col,
		Config:   config.Config{BasePort: 21200, WANDelay: 20 * time.Millisecond},
	})
	log := newLog()
	eps := make([]*amcast.Mcast, topo.N())
	for _, id := range topo.AllProcesses() {
		id := id
		eps[id] = amcast.New(amcast.Config{
			Host:     rt.Proc(id),
			Detector: rt.Detector(id),
			OnDeliver: func(mid types.MessageID, _ []byte) {
				log.add(id, mid)
			},
		})
	}
	if err := rt.Start(); err != nil {
		t.Fatal(err)
	}
	defer rt.Stop()

	var id types.MessageID
	rt.Run(0, func() { id = eps[0].AMCast([]byte("live"), types.NewGroupSet(0, 1)) })
	waitFor(t, 10*time.Second, func() bool {
		for _, p := range []types.ProcessID{0, 1, 2, 3} {
			seq := log.seq(p)
			if len(seq) != 1 || seq[0] != id {
				return false
			}
		}
		return true
	})
	// Group 2 delivered nothing and sent no a1 traffic (genuineness).
	if len(log.seq(4)) != 0 || len(log.seq(5)) != 0 {
		t.Fatal("uninvolved group delivered")
	}
	rt.Stop()
	for _, s := range col.Sends() {
		if s.Proto == "fd" {
			continue // heartbeats are infrastructure, not protocol traffic
		}
		if g := topo.GroupOf(s.From); g == 2 {
			t.Fatalf("uninvolved group 2 sent %s traffic", s.Proto)
		}
	}
}

func TestLiveLeaderCrashRecovers(t *testing.T) {
	topo := types.NewTopology(2, 3)
	rt := New(Config{
		Topo:   topo,
		Config: config.Config{BasePort: 21300, WANDelay: 10 * time.Millisecond, HeartbeatEvery: 20 * time.Millisecond, SuspectAfter: 100 * time.Millisecond},
	})
	log := newLog()
	eps := make([]*abcast.Bcast, topo.N())
	for _, id := range topo.AllProcesses() {
		id := id
		eps[id] = abcast.New(abcast.Config{
			Host:     rt.Proc(id),
			Detector: rt.Detector(id),
			OnDeliver: func(mid types.MessageID, _ []byte) {
				log.add(id, mid)
			},
		})
	}
	if err := rt.Start(); err != nil {
		t.Fatal(err)
	}
	defer rt.Stop()

	// Crash group 0's leader, then broadcast from a survivor: the new
	// leader must drive the round.
	rt.Crash(0)
	var id types.MessageID
	rt.Run(1, func() { id = eps[1].ABCast([]byte("after-crash")) })
	waitFor(t, 15*time.Second, func() bool {
		for _, p := range []types.ProcessID{1, 2, 3, 4, 5} {
			found := false
			for _, got := range log.seq(p) {
				if got == id {
					found = true
				}
			}
			if !found {
				return false
			}
		}
		return true
	})
}
