package tcp

// Tests for the asynchronous buffered transport: a dead or wedged peer
// must never stall a process loop, crashed owners' timers must be dropped
// at fire time, and tracing must flow through Config.Trace.

import (
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"wanamcast/internal/abcast"
	"wanamcast/internal/config"
	"wanamcast/internal/node"
	"wanamcast/internal/types"
)

// sinkProto records every receive for one process.
type sinkProto struct {
	mu   sync.Mutex
	got  []string
	name string
}

func (s *sinkProto) Proto() string            { return s.name }
func (s *sinkProto) Start()                   {}
func (s *sinkProto) Handlers() []node.Handler { return []node.Handler{node.On((*sinkProto).Receive)} }
func (s *sinkProto) Receive(_ types.ProcessID, body string) {
	s.mu.Lock()
	s.got = append(s.got, body)
	s.mu.Unlock()
}
func (s *sinkProto) count() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.got)
}

// TestDeadPeerDoesNotStallLoop is the acceptance test for the async
// transport: with one peer wedged (accepting but never reading, so TCP
// backpressure eventually blocks writes) and another peer's port dead, a
// burst of sends from the process loop must return immediately, and a
// frame to a live peer must still arrive promptly.
func TestDeadPeerDoesNotStallLoop(t *testing.T) {
	topo := types.NewTopology(1, 4) // p0 sender, p1 live, p2 wedged, p3 dead
	const basePort = 21700

	// p2: a wedged peer — accepts connections and never reads them.
	wedged, err := net.Listen("tcp", "127.0.0.1:21702")
	if err != nil {
		t.Fatal(err)
	}
	defer wedged.Close()
	var wedgedConns []net.Conn
	var wedgedMu sync.Mutex
	go func() {
		for {
			c, err := wedged.Accept()
			if err != nil {
				return
			}
			wedgedMu.Lock()
			wedgedConns = append(wedgedConns, c)
			wedgedMu.Unlock()
		}
	}()
	defer func() {
		wedgedMu.Lock()
		for _, c := range wedgedConns {
			_ = c.Close()
		}
		wedgedMu.Unlock()
	}()
	// p3's port is simply never opened: dials fail outright.

	rtA := New(Config{Topo: topo, Config: config.Config{BasePort: basePort, Local: []types.ProcessID{0}}})
	rtB := New(Config{Topo: topo, Config: config.Config{BasePort: basePort, Local: []types.ProcessID{1}}})
	sink := &sinkProto{name: "t"}
	rtB.Proc(1).Register(sink)
	// Start the receiver first so p0's link to p1 connects on its first
	// dial: this test times its one-shot sends, and a frame sent before
	// the peer listens waits out the dial backoff.
	if err := rtB.Start(); err != nil {
		t.Fatal(err)
	}
	defer rtB.Stop()
	if err := rtA.Start(); err != nil {
		t.Fatal(err)
	}
	defer rtA.Stop()

	// Warm the p0→p1 link: ping until the sink sees one, so the later
	// one-shot latency measurement starts from an established connection.
	warmDeadline := time.Now().Add(5 * time.Second)
	for sink.count() == 0 {
		if time.Now().After(warmDeadline) {
			t.Fatal("could not establish the p0→p1 link")
		}
		rtA.Run(0, func() { node.Send(rtA.Proc(0), 1, "t", "warm") })
		time.Sleep(5 * time.Millisecond)
	}
	warm := sink.count()

	// Burst enough bytes at the wedged and dead peers to exhaust any
	// kernel buffering many times over, all from p0's event loop. The loop
	// must come back essentially immediately: it encodes each send once,
	// and dials and writes happen on writer goroutines.
	payload := make([]byte, 64<<10)
	start := time.Now()
	rtA.Run(0, func() {
		for i := 0; i < 300; i++ {
			node.Multicast(rtA.Proc(0), []types.ProcessID{2, 3}, "t", payload)
		}
	})
	if stall := time.Since(start); stall > 500*time.Millisecond {
		t.Fatalf("process loop stalled %v bursting at dead peers", stall)
	}

	// Sends to the live peer keep flowing while p2 stays wedged and p3
	// stays dead.
	sent := time.Now()
	rtA.Run(0, func() { node.Send(rtA.Proc(0), 1, "t", "alive?") })
	deadline := time.Now().Add(2 * time.Second)
	for sink.count() <= warm && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if sink.count() <= warm {
		t.Fatal("live peer did not receive while dead peers were wedged")
	}
	if lat := time.Since(sent); lat > time.Second {
		t.Fatalf("live-peer delivery took %v with dead peers in the system", lat)
	}
}

// TestLaterDropsCrashedOwnerTimers: a timer scheduled through the env-level
// Later must not fire once its owning process has crashed — the same
// guarantee node.Runtime.Later gives the simulator.
func TestLaterDropsCrashedOwnerTimers(t *testing.T) {
	topo := types.NewTopology(1, 2)
	rt := New(Config{Topo: topo, Config: config.Config{BasePort: 21850}})
	if err := rt.Start(); err != nil {
		t.Fatal(err)
	}
	defer rt.Stop()

	var mu sync.Mutex
	fired := map[string]bool{}
	mark := func(k string) func() {
		return func() {
			mu.Lock()
			fired[k] = true
			mu.Unlock()
		}
	}
	rt.Later(rt.Proc(0), 80*time.Millisecond, mark("crashed-owner"))
	rt.Later(rt.Proc(1), 80*time.Millisecond, mark("live-owner"))
	rt.Crash(0)
	time.Sleep(300 * time.Millisecond)
	mu.Lock()
	defer mu.Unlock()
	if fired["crashed-owner"] {
		t.Fatal("timer of a crashed owner fired")
	}
	if !fired["live-owner"] {
		t.Fatal("timer of a live owner did not fire")
	}
}

// TestTraceCapturesTransportEvents: Config.Trace receives receive-path
// trace lines, so live tracing behaves like the simulator's.
func TestTraceCapturesTransportEvents(t *testing.T) {
	topo := types.NewTopology(1, 2)
	var mu sync.Mutex
	var lines []string
	rt := New(Config{
		Topo:   topo,
		Config: config.Config{BasePort: 21800},
		Trace: func(format string, args ...any) {
			mu.Lock()
			lines = append(lines, format)
			mu.Unlock()
		},
	})
	log := newLog()
	eps := make([]*abcast.Bcast, topo.N())
	for _, id := range topo.AllProcesses() {
		id := id
		eps[id] = abcast.New(abcast.Config{
			Host:      rt.Proc(id),
			Detector:  rt.Detector(id).Oracle,
			OnDeliver: func(mid types.MessageID, _ []byte) { log.add(id, mid) },
		})
	}
	if err := rt.Start(); err != nil {
		t.Fatal(err)
	}
	defer rt.Stop()
	rt.Run(0, func() { eps[0].ABCast([]byte("traced")) })
	waitFor(t, 10*time.Second, func() bool {
		return len(log.seq(0)) >= 1 && len(log.seq(1)) >= 1
	})
	mu.Lock()
	defer mu.Unlock()
	found := false
	for _, l := range lines {
		if strings.Contains(l, "recv") {
			found = true
			break
		}
	}
	if !found {
		t.Fatalf("no receive trace lines captured (got %d lines)", len(lines))
	}
}

var _ node.Protocol = (*sinkProto)(nil)
