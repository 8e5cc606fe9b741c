package network

import (
	"math/rand"
	"testing"
	"time"

	"wanamcast/internal/types"
)

func TestBaseDelays(t *testing.T) {
	topo := types.NewTopology(2, 2)
	m := Model{IntraGroup: time.Millisecond, InterGroup: 100 * time.Millisecond}
	if d := m.Delay(topo, 0, 1, nil); d != time.Millisecond {
		t.Errorf("intra delay = %v", d)
	}
	if d := m.Delay(topo, 0, 2, nil); d != 100*time.Millisecond {
		t.Errorf("inter delay = %v", d)
	}
	if d := m.Delay(topo, 0, 0, nil); d != time.Millisecond {
		t.Errorf("self delay = %v (self counts as intra)", d)
	}
}

func TestZeroModel(t *testing.T) {
	topo := types.NewTopology(2, 2)
	var m Model
	if d := m.Delay(topo, 0, 3, nil); d != 0 {
		t.Errorf("zero model delay = %v", d)
	}
}

func TestJitterBounds(t *testing.T) {
	topo := types.NewTopology(2, 2)
	m := Model{IntraGroup: time.Millisecond, InterGroup: 10 * time.Millisecond, Jitter: 5 * time.Millisecond}
	rng := rand.New(rand.NewSource(1))
	sawNonBase := false
	for i := 0; i < 200; i++ {
		d := m.Delay(topo, 0, 2, rng)
		if d < 10*time.Millisecond || d >= 15*time.Millisecond {
			t.Fatalf("jittered delay %v out of [10ms,15ms)", d)
		}
		if d != 10*time.Millisecond {
			sawNonBase = true
		}
	}
	if !sawNonBase {
		t.Error("jitter never moved the delay")
	}
}

func TestJitterDeterministicPerSeed(t *testing.T) {
	topo := types.NewTopology(2, 2)
	m := Model{InterGroup: 10 * time.Millisecond, Jitter: 5 * time.Millisecond}
	sample := func(seed int64) []time.Duration {
		rng := rand.New(rand.NewSource(seed))
		out := make([]time.Duration, 20)
		for i := range out {
			out[i] = m.Delay(topo, 0, 2, rng)
		}
		return out
	}
	a, b := sample(7), sample(7)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("jitter not deterministic for equal seeds")
		}
	}
}

// TestJitterNeedsRNG pins the Delay contract: a jittered model with no rng
// is a wiring bug and panics rather than silently dropping the jitter.
func TestJitterNeedsRNG(t *testing.T) {
	topo := types.NewTopology(2, 2)
	m := Model{InterGroup: 10 * time.Millisecond, Jitter: 5 * time.Millisecond}
	defer func() {
		if recover() == nil {
			t.Fatal("Delay with Jitter>0 and nil rng did not panic")
		}
	}()
	m.Delay(topo, 0, 2, nil)
}

// TestPairDelayOverride: a per-pair delay is a fabric override of that one
// directed link, and the base model's jitter still applies on top of it.
func TestPairDelayOverride(t *testing.T) {
	topo := types.NewTopology(2, 2)
	f := NewFabric(topo, Model{IntraGroup: time.Millisecond, InterGroup: 100 * time.Millisecond, Jitter: 5 * time.Millisecond})
	f.SetDelay(0, 2, 7*time.Millisecond)
	rng := rand.New(rand.NewSource(1))
	jittered := false
	for i := 0; i < 100; i++ {
		d := f.Delay(0, 2, rng)
		if d < 7*time.Millisecond || d >= 12*time.Millisecond {
			t.Fatalf("overridden pair = %v, want [7ms,12ms)", d)
		}
		jittered = jittered || d != 7*time.Millisecond
		if d := f.Delay(2, 0, rng); d < 100*time.Millisecond || d >= 105*time.Millisecond {
			t.Fatalf("reverse pair = %v, want the jittered base [100ms,105ms)", d)
		}
	}
	if !jittered {
		t.Fatal("the base jitter never applied on top of the per-pair delay")
	}
}

func TestWANConstructor(t *testing.T) {
	m := WAN(50 * time.Millisecond)
	if m.IntraGroup != time.Millisecond || m.InterGroup != 50*time.Millisecond {
		t.Errorf("WAN model = %+v", m)
	}
}
