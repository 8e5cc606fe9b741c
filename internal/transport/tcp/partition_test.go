package tcp

import (
	"sync"
	"testing"
	"time"

	"wanamcast/internal/config"
	"wanamcast/internal/node"
	"wanamcast/internal/types"
)

// sink is a minimal protocol that records received string payloads.
type sink struct {
	mu  sync.Mutex
	got []string
}

func (s *sink) Proto() string            { return "sink" }
func (s *sink) Start()                   {}
func (s *sink) Handlers() []node.Handler { return []node.Handler{node.On((*sink).Receive)} }
func (s *sink) Receive(from types.ProcessID, body string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.got = append(s.got, body)
}

func (s *sink) snapshot() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]string(nil), s.got...)
}

// TestPartitionHoldsFramesUntilHeal: frames sent while a link is severed
// are parked by the writer (the stand-in for TCP retransmission across a
// real partition) and delivered after the heal — without any further
// traffic on the link, so this also pins the heal wake-up path.
func TestPartitionHoldsFramesUntilHeal(t *testing.T) {
	topo := types.NewTopology(2, 1)
	rt := New(Config{Topo: topo, Config: config.Config{BasePort: 26000, WANDelay: time.Millisecond}})
	s := &sink{}
	rt.Proc(0).Register(&sink{})
	rt.Proc(1).Register(s)
	if err := rt.Start(); err != nil {
		t.Fatal(err)
	}
	defer rt.Stop()

	rt.Fabric().Sever(0, 1)
	rt.Run(0, func() { node.Send(rt.Proc(0), 1, "sink", "across-the-partition") })
	time.Sleep(200 * time.Millisecond)
	if got := s.snapshot(); len(got) != 0 {
		t.Fatalf("frame crossed a severed link: %v", got)
	}

	rt.Fabric().Heal(0, 1)
	waitFor(t, 5*time.Second, func() bool { return len(s.snapshot()) == 1 })
	if got := s.snapshot(); got[0] != "across-the-partition" {
		t.Fatalf("released frame = %v", got)
	}
}

// TestPartitionIsDirectional: severing 0→1 leaves 1→0 delivering.
func TestPartitionIsDirectional(t *testing.T) {
	topo := types.NewTopology(2, 1)
	rt := New(Config{Topo: topo, Config: config.Config{BasePort: 26010, WANDelay: time.Millisecond}})
	s0 := &sink{}
	rt.Proc(0).Register(s0)
	rt.Proc(1).Register(&sink{})
	if err := rt.Start(); err != nil {
		t.Fatal(err)
	}
	defer rt.Stop()

	rt.Fabric().Sever(0, 1)
	rt.Run(1, func() { node.Send(rt.Proc(1), 0, "sink", "reverse-ok") })
	waitFor(t, 5*time.Second, func() bool { return len(s0.snapshot()) == 1 })
}

// TestPartitionSuspicionAndTrustRestore: an intra-group partition stops
// the heartbeats, so the peers demote the leader after SuspectAfter; the
// heal lets beats resume, trust is restored, and the old leader is
// re-elected — subscribers see both changes.
func TestPartitionSuspicionAndTrustRestore(t *testing.T) {
	topo := types.NewTopology(1, 2)
	rt := New(Config{
		Topo:   topo,
		Config: config.Config{BasePort: 26020, HeartbeatEvery: 10 * time.Millisecond, SuspectAfter: 60 * time.Millisecond},
	})
	for _, id := range topo.AllProcesses() {
		rt.Proc(id).Register(&sink{})
	}
	var mu sync.Mutex
	var leaders []types.ProcessID
	rt.Detector(1).Subscribe(func(_ types.GroupID, l types.ProcessID) {
		mu.Lock()
		defer mu.Unlock()
		leaders = append(leaders, l)
	})
	if err := rt.Start(); err != nil {
		t.Fatal(err)
	}
	defer rt.Stop()

	// Let the detectors see each other first.
	time.Sleep(100 * time.Millisecond)
	rt.Fabric().SeverBidi(0, 1)
	waitFor(t, 5*time.Second, func() bool {
		var l types.ProcessID
		rt.Run(1, func() { l = rt.Detector(1).Leader(0) })
		return l == 1
	})

	rt.Fabric().HealBidi(0, 1)
	waitFor(t, 5*time.Second, func() bool {
		var l types.ProcessID
		rt.Run(1, func() { l = rt.Detector(1).Leader(0) })
		return l == 0
	})
	mu.Lock()
	defer mu.Unlock()
	if len(leaders) < 2 || leaders[len(leaders)-1] != 0 {
		t.Fatalf("leader notifications at p1 = %v, want demotion then re-election of p0", leaders)
	}
}

// TestDelaySpikeOverride: a per-link fabric delay override replaces the
// static injected delay at dispatch time.
func TestDelaySpikeOverride(t *testing.T) {
	topo := types.NewTopology(2, 1)
	rt := New(Config{Topo: topo, Config: config.Config{BasePort: 26030, WANDelay: time.Millisecond}})
	s := &sink{}
	rt.Proc(0).Register(&sink{})
	rt.Proc(1).Register(s)
	if err := rt.Start(); err != nil {
		t.Fatal(err)
	}
	defer rt.Stop()

	rt.Fabric().SetDelay(0, 1, 400*time.Millisecond)
	begin := time.Now()
	rt.Run(0, func() { node.Send(rt.Proc(0), 1, "sink", "slow") })
	time.Sleep(150 * time.Millisecond)
	if got := s.snapshot(); len(got) != 0 {
		t.Fatalf("frame beat the delay spike: %v", got)
	}
	waitFor(t, 5*time.Second, func() bool { return len(s.snapshot()) == 1 })
	if since := time.Since(begin); since < 350*time.Millisecond {
		t.Fatalf("spiked frame arrived after %v, want ≥ ~400ms", since)
	}

	// Clearing the override restores the base delay.
	rt.Fabric().ClearDelay(0, 1)
	rt.Run(0, func() { node.Send(rt.Proc(0), 1, "sink", "fast") })
	waitFor(t, 2*time.Second, func() bool { return len(s.snapshot()) == 2 })
}

// TestSuspicionFiresAtItsDeadline: a silent peer is suspected when its
// silence reaches SuspectAfter, not at the observer's next beat after that.
// Both detectors beat in phase here (they start together), so with the check
// riding the beat the silence at suspicion would be two whole periods, 400 ms.
func TestSuspicionFiresAtItsDeadline(t *testing.T) {
	const every, suspectAfter, slack = 200 * time.Millisecond, 300 * time.Millisecond, 80 * time.Millisecond
	topo := types.NewTopology(1, 2)
	rt := New(Config{
		Topo:   topo,
		Config: config.Config{BasePort: 26040, HeartbeatEvery: every, SuspectAfter: suspectAfter},
	})
	for _, id := range topo.AllProcesses() {
		rt.Proc(id).Register(&sink{})
	}
	silence := make(chan time.Duration, 8)
	rt.Detector(1).Subscribe(func(_ types.GroupID, l types.ProcessID) {
		if l == 1 { // runs on p1's loop, inside the check that suspected p0
			silence <- rt.Proc(1).Now() - rt.fds[1].lastSeen[0]
		}
	})
	if err := rt.Start(); err != nil {
		t.Fatal(err)
	}
	defer rt.Stop()

	for cycle, lead := range []time.Duration{260 * time.Millisecond, 340 * time.Millisecond} {
		time.Sleep(lead) // sever at a different point of the beat period each cycle
		rt.Fabric().SeverBidi(0, 1)
		select {
		case got := <-silence:
			if got < suspectAfter || got > suspectAfter+slack {
				t.Fatalf("cycle %d: p0 suspected after %v of silence, want %v to %v", cycle, got, suspectAfter, suspectAfter+slack)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("cycle %d: p0 never suspected", cycle)
		}
		rt.Fabric().HealBidi(0, 1)
		waitFor(t, 5*time.Second, func() bool {
			var l types.ProcessID
			rt.Run(1, func() { l = rt.Detector(1).Leader(0) })
			return l == 0
		})
	}
}
