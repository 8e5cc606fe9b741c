package tcp

import (
	"sync"
	"testing"
	"time"

	"wanamcast/internal/abcast"
	"wanamcast/internal/config"
	"wanamcast/internal/types"
)

// LaneCount returns how many lane goroutines this runtime runs.
func (rt *Runtime) LaneCount() int { return len(rt.lanes) }

// SameLane reports whether two hosted processes share a lane.
func (rt *Runtime) SameLane(p, q types.ProcessID) bool {
	return rt.laneOf[p] != nil && rt.laneOf[p] == rt.laneOf[q]
}

// TestLaneLayout pins the lane-assignment contract: Lanes=0 means one lane
// per hosted group, Lanes=N shards by group mod N, and Lanes=1 serialises
// everything onto a single goroutine.
func TestLaneLayout(t *testing.T) {
	topo := types.NewTopology(4, 2) // groups {0,1},{2,3},{4,5},{6,7}

	def := New(Config{Topo: topo, Config: config.Config{BasePort: 22000}})
	if got := def.LaneCount(); got != topo.NumGroups() {
		t.Fatalf("Lanes=0: %d lanes, want %d (one per group)", got, topo.NumGroups())
	}
	if !def.SameLane(0, 1) || def.SameLane(1, 2) {
		t.Fatal("Lanes=0: group peers must share a lane, different groups must not")
	}
	// Hosting a subset starts lanes for the hosted groups only.
	part := New(Config{Topo: topo, Local: []types.ProcessID{2, 6, 7}, Config: config.Config{BasePort: 22000}})
	if got := part.LaneCount(); got != 2 {
		t.Fatalf("Lanes=0 hosting groups 1 and 3: %d lanes, want 2", got)
	}

	two := New(Config{Topo: topo, Config: config.Config{BasePort: 22000, Lanes: 2}})
	if got := two.LaneCount(); got != 2 {
		t.Fatalf("Lanes=2: %d lanes, want 2", got)
	}
	for _, id := range topo.AllProcesses() {
		// Same group ⇒ same lane, always.
		for _, peer := range topo.Members(topo.GroupOf(id)) {
			if !two.SameLane(id, peer) {
				t.Fatalf("Lanes=2: %v and %v share group %v but not a lane", id, peer, topo.GroupOf(id))
			}
		}
	}
	// group mod 2: groups 0,2 on one lane; 1,3 on the other.
	if !two.SameLane(0, 4) || !two.SameLane(2, 6) {
		t.Fatal("Lanes=2: groups with equal index mod 2 must share a lane")
	}
	if two.SameLane(0, 2) {
		t.Fatal("Lanes=2: groups 0 and 1 must be on different lanes")
	}

	one := New(Config{Topo: topo, Config: config.Config{BasePort: 22000, Lanes: 1}})
	if got := one.LaneCount(); got != 1 {
		t.Fatalf("Lanes=1: %d lanes, want 1", got)
	}
	if !one.SameLane(0, 7) {
		t.Fatal("Lanes=1: every process must share the single lane")
	}
}

// TestLaneInboxOverflowParks holds a lane busy while several concurrent
// producers drive its inbox ring to twice its capacity, and checks the
// back-pressure contract: the overflow parks, and once the lane runs again
// every event executes, in per-producer order — parked, never dropped.
func TestLaneInboxOverflowParks(t *testing.T) {
	topo := types.NewTopology(1, 2)
	rt := New(Config{Topo: topo, Config: config.Config{BasePort: 22010, Lanes: 1}})
	if err := rt.Start(); err != nil {
		t.Fatal(err)
	}
	defer rt.Stop()
	release := make(chan struct{})
	var once sync.Once
	unblock := func() { once.Do(func() { close(release) }) }
	defer unblock() // before Stop, which waits for the lane
	rt.Async(0, func() { <-release })

	const producers = 4
	const perProducer = inboxSize / 2
	var mu sync.Mutex
	got := make([][]int, producers)

	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		p := p
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perProducer; i++ {
				i := i
				rt.Async(types.ProcessID(p%topo.N()), func() {
					mu.Lock()
					got[p] = append(got[p], i)
					mu.Unlock()
				})
			}
		}()
	}
	wg.Wait()
	ln := rt.laneOf[0]
	ln.ovMu.Lock()
	parked := len(ln.ov)
	ln.ovMu.Unlock()
	if parked == 0 {
		t.Fatal("the inbox ring never filled: nothing parked")
	}
	unblock()
	waitFor(t, 10*time.Second, func() bool {
		mu.Lock()
		defer mu.Unlock()
		for p := 0; p < producers; p++ {
			if len(got[p]) != perProducer {
				return false
			}
		}
		return true
	})
	mu.Lock()
	defer mu.Unlock()
	for p := 0; p < producers; p++ {
		for i, v := range got[p] {
			if v != i {
				t.Fatalf("producer %d: event %d executed at position %d — per-producer FIFO broken", p, v, i)
			}
		}
	}
}

// TestLiveBroadcastLanesShared runs the total-order broadcast check with
// four processes multiplexed onto two lanes over real sockets: sharing a
// lane must be invisible to the protocols.
func TestLiveBroadcastLanesShared(t *testing.T) {
	topo := types.NewTopology(2, 2)
	rt := New(Config{
		Topo:   topo,
		Config: config.Config{BasePort: 22020, WANDelay: 5 * time.Millisecond, Lanes: 2},
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

	const casts = 8
	for i := 0; i < casts; i++ {
		i := i
		from := types.ProcessID(i % topo.N())
		rt.Run(from, func() { eps[from].ABCast([]byte{byte(i)}) })
	}
	waitFor(t, 15*time.Second, func() bool {
		for _, id := range topo.AllProcesses() {
			if len(log.seq(id)) < casts {
				return false
			}
		}
		return true
	})
	ref := log.seq(0)
	for _, id := range topo.AllProcesses()[1:] {
		seq := log.seq(id)
		for i := range ref {
			if seq[i] != ref[i] {
				t.Fatalf("process %v delivery %d = %v, want %v (total order broken across shared lanes)", id, i, seq[i], ref[i])
			}
		}
	}
}

// TestDelayLineKeepsLinkFIFO pins the delay line's contract: 10 000 envelopes
// of one delayed link are posted in send order — including across a moment
// where the fabric shortens the link's delay, which gives later envelopes an
// earlier due time — while an envelope of another link is free to overtake.
func TestDelayLineKeepsLinkFIFO(t *testing.T) {
	topo := types.NewTopology(2, 2)
	rt := New(Config{Topo: topo, Config: config.Config{BasePort: 22100, Lanes: 1, WANDelay: 20 * time.Millisecond}})
	const frames = 10_000
	from, to := types.ProcessID(2), types.ProcessID(0)
	for i := 0; i < frames; i++ {
		if i == frames/2 {
			rt.Fabric().SetDelay(from, to, time.Millisecond)
		}
		rt.dispatch(from, to, &envelope{n: i}) // n numbers the envelopes here
	}
	rt.dispatch(3, 1, &envelope{n: -1}) // another link, 20 ms
	ln := rt.laneOf[to]
	deadline := time.Now().Add(10 * time.Second)
	for ln.depth.Load() < frames+1 {
		if time.Now().After(deadline) {
			t.Fatalf("only %d of %d frames were released", ln.depth.Load(), frames+1)
		}
		time.Sleep(time.Millisecond)
	}
	// No lane loop runs (the runtime was never started): drain by hand, ring
	// first, then the overflow list, which is the order the loop uses.
	var got []laneEvent
	for ev, ok := ln.in.TryPop(); ok; ev, ok = ln.in.TryPop() {
		got = append(got, ev)
	}
	ln.ovMu.Lock()
	got = append(got, ln.ov...)
	ln.ovMu.Unlock()
	next := 0
	for _, ev := range got {
		if ev.from != from {
			continue
		}
		if ev.env.n != next {
			t.Fatalf("envelope %d was posted where envelope %d was due: link order broken", ev.env.n, next)
		}
		next++
	}
	if next != frames {
		t.Fatalf("saw %d of %d envelopes", next, frames)
	}
	if last := got[len(got)-1]; last.from != 3 {
		t.Errorf("the other link's envelope (due last) was posted before %d later-due envelopes", len(got)-1)
	}
}
