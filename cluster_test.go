package wanamcast

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
	"time"
)

func TestClusterDefaults(t *testing.T) {
	c := NewCluster(Config{})
	if c.Groups().Size() != 2 {
		t.Errorf("default groups = %d, want 2", c.Groups().Size())
	}
	id := c.Broadcast(c.Process(0, 0), "x")
	c.Run()
	if _, ok := c.LatencyDegree(id); !ok {
		t.Error("default cluster did not deliver")
	}
}

func TestClusterOnDeliverOrder(t *testing.T) {
	c := NewCluster(Config{Groups: 2, PerGroup: 2})
	var order []string
	c.OnDeliver(func(p ProcessID, id MessageID, payload any) {
		order = append(order, fmt.Sprintf("%v:%v", p, payload))
	})
	c.Broadcast(c.Process(0, 0), "a")
	c.Run()
	if len(order) != 4 {
		t.Fatalf("callback fired %d times, want 4", len(order))
	}
}

func TestClusterSequences(t *testing.T) {
	c := NewCluster(Config{Groups: 2, PerGroup: 2})
	a := c.Broadcast(c.Process(0, 0), "a")
	c.Run()
	b := c.Broadcast(c.Process(1, 0), "b")
	c.Run()
	for _, p := range []ProcessID{0, 1, 2, 3} {
		seq := c.SequenceAt(p)
		if len(seq) != 2 || seq[0] != a || seq[1] != b {
			t.Fatalf("p%v sequence %v, want [%v %v]", p, seq, a, b)
		}
	}
}

func TestClusterMulticastNoGroupsPanics(t *testing.T) {
	c := NewCluster(Config{})
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	c.Multicast(0, "x")
}

func TestClusterGenuinenessRequiresLogSends(t *testing.T) {
	c := NewCluster(Config{})
	defer func() {
		if recover() == nil {
			t.Error("expected panic without LogSends")
		}
	}()
	c.CheckGenuineness()
}

func TestClusterGenuinenessClean(t *testing.T) {
	c := NewCluster(Config{Groups: 3, PerGroup: 2, LogSends: true})
	c.Multicast(c.Process(0, 0), "x", 0, 1)
	c.Run()
	if v := c.CheckGenuineness(); len(v) != 0 {
		t.Fatalf("violations: %v", v)
	}
}

func TestClusterWallLatency(t *testing.T) {
	c := NewCluster(Config{Groups: 2, PerGroup: 2, InterGroupDelay: 50 * time.Millisecond})
	id := c.Multicast(c.Process(0, 0), "x", 0, 1)
	c.Run()
	wall, ok := c.WallLatency(id)
	if !ok || wall < 100*time.Millisecond || wall > 130*time.Millisecond {
		t.Errorf("wall = %v ok=%v, want ~100ms (two WAN hops)", wall, ok)
	}
}

func TestClusterDisableSkipping(t *testing.T) {
	on := NewCluster(Config{Groups: 2, PerGroup: 2})
	off := NewCluster(Config{Groups: 2, PerGroup: 2, DisableSkipping: true})
	// Skipping saves the second consensus of a single-group message only: a
	// multi-group one takes two instances per group either way.
	on.Multicast(on.Process(0, 0), "x", 0)
	off.Multicast(off.Process(0, 0), "x", 0)
	on.Run()
	off.Run()
	if onN, offN := on.Stats().ConsensusInstances, off.Stats().ConsensusInstances; onN != 2 || offN != 4 {
		t.Errorf("single-group cast: skipping on %d consensus learns, off %d — want 2 and 4 (one vs two instances x two members)", onN, offN)
	}
}

func TestClusterJitterStillCorrect(t *testing.T) {
	// A1-only workload: mixing A1 and A2 messages is legal but their
	// relative delivery order is unconstrained (independent primitives),
	// so the cross-primitive prefix check would be vacuously violated.
	for seed := int64(0); seed < 5; seed++ {
		c := NewCluster(Config{Groups: 3, PerGroup: 2, Jitter: 30 * time.Millisecond, Seed: seed})
		rng := rand.New(rand.NewSource(seed))
		for i := 0; i < 10; i++ {
			from := c.Process(GroupID(rng.Intn(3)), rng.Intn(2))
			if rng.Intn(2) == 0 {
				c.MulticastAt(time.Duration(rng.Intn(300))*time.Millisecond, from, i, 0, 1, 2)
			} else {
				g1, g2 := GroupID(rng.Intn(3)), GroupID(rng.Intn(3))
				c.MulticastAt(time.Duration(rng.Intn(300))*time.Millisecond, from, i, g1, g2)
			}
		}
		c.Run()
		if v := c.CheckProperties(); len(v) != 0 {
			t.Fatalf("seed %d: violations %v", seed, v)
		}
	}
}

// TestClusterBroadcastJitterStillCorrect is the A2 counterpart.
func TestClusterBroadcastJitterStillCorrect(t *testing.T) {
	for seed := int64(0); seed < 5; seed++ {
		c := NewCluster(Config{Groups: 3, PerGroup: 2, Jitter: 30 * time.Millisecond, Seed: seed})
		rng := rand.New(rand.NewSource(seed))
		for i := 0; i < 10; i++ {
			from := c.Process(GroupID(rng.Intn(3)), rng.Intn(2))
			c.BroadcastAt(time.Duration(rng.Intn(300))*time.Millisecond, from, i)
		}
		c.Run()
		if v := c.CheckProperties(); len(v) != 0 {
			t.Fatalf("seed %d: violations %v", seed, v)
		}
	}
}

func TestClusterCrashMinority(t *testing.T) {
	c := NewCluster(Config{Groups: 2, PerGroup: 3})
	c.CrashAt(c.Process(0, 2), 10*time.Millisecond)
	c.CrashAt(c.Process(1, 2), 60*time.Millisecond)
	for i := 0; i < 6; i++ {
		c.BroadcastAt(time.Duration(i*40)*time.Millisecond, c.Process(GroupID(i%2), i%2), i)
	}
	c.Run()
	if v := c.CheckProperties(); len(v) != 0 {
		t.Fatalf("violations: %v", v)
	}
}

func TestClusterLastSend(t *testing.T) {
	c := NewCluster(Config{Groups: 2, PerGroup: 2})
	if _, any := c.LastSend(); any {
		t.Error("fresh cluster reports sends")
	}
	c.Broadcast(c.Process(0, 0), "x")
	end := c.Run()
	last, any := c.LastSend()
	if !any || last > end {
		t.Errorf("last send %v beyond end %v", last, end)
	}
}

func TestClusterDeterministicAcrossRuns(t *testing.T) {
	trace := func() []Delivery {
		c := NewCluster(Config{Groups: 2, PerGroup: 3, Seed: 42, Jitter: 10 * time.Millisecond})
		for i := 0; i < 8; i++ {
			c.BroadcastAt(time.Duration(i*30)*time.Millisecond, c.Process(GroupID(i%2), i%3), i)
		}
		c.Run()
		return c.Deliveries()
	}
	a, b := trace(), trace()
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("runs diverge at %d: %+v vs %+v", i, a[i], b[i])
		}
	}
}

// TestClusterPrefixOrderQuick is the §2.2 prefix-order property under
// randomized A1 workloads, via testing/quick: for any seed and small cast
// schedule of multicasts (single-group, two-group, or spanning), the
// checker finds no violations. Broadcasts are excluded on purpose: A1 and
// A2 are independent total orders, so cross-primitive delivery orders are
// unconstrained (see the ledger example's audit discussion).
func TestClusterPrefixOrderQuick(t *testing.T) {
	f := func(seed int64, plan []uint8) bool {
		if len(plan) > 12 {
			plan = plan[:12]
		}
		c := NewCluster(Config{Groups: 3, PerGroup: 2, Seed: seed})
		for i, b := range plan {
			from := c.Process(GroupID(int(b)%3), int(b>>2)%2)
			at := time.Duration(int(b)*7+i*11) * time.Millisecond
			switch b % 3 {
			case 0:
				c.MulticastAt(at, from, i, 0, 1, 2)
			case 1:
				c.MulticastAt(at, from, i, GroupID(int(b)%3))
			default:
				c.MulticastAt(at, from, i, GroupID(int(b)%3), GroupID(int(b+1)%3))
			}
		}
		c.Run()
		return len(c.CheckProperties()) == 0
	}
	cfg := &quick.Config{MaxCount: 25}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestClusterString(t *testing.T) {
	c := NewCluster(Config{Groups: 2, PerGroup: 3})
	if s := c.String(); s == "" {
		t.Error("empty String()")
	}
}
