package network

import (
	"testing"
	"time"

	"wanamcast/internal/types"
)

func newTestFabric() *Fabric {
	topo := types.NewTopology(2, 2) // g0 = {0,1}, g1 = {2,3}
	return NewFabric(topo, Model{IntraGroup: time.Millisecond, InterGroup: 100 * time.Millisecond})
}

func TestFabricUntouchedFastPath(t *testing.T) {
	f := newTestFabric()
	if f.Severed(0, 2) {
		t.Fatal("fresh fabric reports a severed link")
	}
	if d := f.Delay(0, 2, nil); d != 100*time.Millisecond {
		t.Fatalf("base inter delay = %v", d)
	}
	if d := f.Delay(0, 1, nil); d != time.Millisecond {
		t.Fatalf("base intra delay = %v", d)
	}
}

func TestFabricSeverHealDirectional(t *testing.T) {
	f := newTestFabric()
	f.Sever(0, 2)
	if !f.Severed(0, 2) {
		t.Fatal("0→2 not severed")
	}
	if f.Severed(2, 0) {
		t.Fatal("sever is directional; 2→0 must stay up")
	}
	f.Heal(0, 2)
	if f.Severed(0, 2) {
		t.Fatal("0→2 still severed after Heal")
	}
}

func TestFabricPartitionGroups(t *testing.T) {
	f := newTestFabric()
	f.Partition([]types.GroupID{0}, []types.GroupID{1}, true)
	for _, p := range []types.ProcessID{0, 1} {
		for _, q := range []types.ProcessID{2, 3} {
			if !f.Severed(p, q) || !f.Severed(q, p) {
				t.Fatalf("link %v↔%v not severed by symmetric partition", p, q)
			}
		}
	}
	// Intra-group links untouched.
	if f.Severed(0, 1) || f.Severed(2, 3) {
		t.Fatal("partition severed an intra-group link")
	}
	f.HealAll()
	if f.Severed(0, 2) || f.Severed(3, 1) {
		t.Fatal("HealAll left a severed link")
	}
}

func TestFabricAsymmetricPartition(t *testing.T) {
	f := newTestFabric()
	f.Partition([]types.GroupID{0}, []types.GroupID{1}, false)
	if !f.Severed(0, 2) {
		t.Fatal("g0→g1 not severed")
	}
	if f.Severed(2, 0) {
		t.Fatal("asymmetric partition severed the reverse direction")
	}
}

func TestFabricIsolate(t *testing.T) {
	f := newTestFabric()
	f.Isolate(0)
	if !f.Severed(0, 1) || !f.Severed(1, 0) {
		t.Fatal("Isolate did not cut the intra-group pair both ways")
	}
	if f.Severed(0, 2) {
		t.Fatal("Isolate cut an inter-group link")
	}
	f.HealIsolate(0)
	if f.Severed(0, 1) || f.Severed(1, 0) {
		t.Fatal("HealIsolate left links severed")
	}
}

func TestFabricDelayOverrides(t *testing.T) {
	f := newTestFabric()
	f.SetDelay(0, 2, 300*time.Millisecond)
	if d := f.Delay(0, 2, nil); d != 300*time.Millisecond {
		t.Fatalf("per-link delay override = %v", d)
	}
	if d := f.Delay(2, 0, nil); d != 100*time.Millisecond {
		t.Fatalf("reverse direction must keep base delay, got %v", d)
	}
	f.ClearDelay(0, 2)
	if d := f.Delay(0, 2, nil); d != 100*time.Millisecond {
		t.Fatalf("cleared override still applies: %v", d)
	}

	f.SetGroupDelay([]types.GroupID{0}, []types.GroupID{1}, time.Second, true)
	if d := f.Delay(1, 3, nil); d != time.Second {
		t.Fatalf("group delay spike = %v", d)
	}
	if d := f.Delay(3, 0, nil); d != time.Second {
		t.Fatalf("symmetric spike reverse = %v", d)
	}
	if d := f.Delay(0, 1, nil); d != time.Millisecond {
		t.Fatalf("intra delay disturbed by group spike: %v", d)
	}
	f.ClearGroupDelay([]types.GroupID{0}, []types.GroupID{1}, true)
	if d := f.Delay(1, 3, nil); d != 100*time.Millisecond {
		t.Fatalf("cleared spike still applies: %v", d)
	}
}

func TestFabricTransitions(t *testing.T) {
	f := newTestFabric()
	type tr struct {
		l       Link
		severed bool
	}
	var seen []tr
	f.OnTransition(func(l Link, severed bool) { seen = append(seen, tr{l, severed}) })

	f.Sever(0, 2)
	f.Sever(0, 2) // no-op: already severed
	f.Heal(0, 2)
	f.Heal(0, 2) // no-op: already healed
	want := []tr{{Link{0, 2}, true}, {Link{0, 2}, false}}
	if len(seen) != len(want) {
		t.Fatalf("transitions = %v, want %v", seen, want)
	}
	for i := range want {
		if seen[i] != want[i] {
			t.Fatalf("transition %d = %v, want %v", i, seen[i], want[i])
		}
	}

	// HealAll notifies once per actually-severed link.
	seen = nil
	f.SeverBidi(1, 3)
	f.HealAll()
	if len(seen) != 4 {
		t.Fatalf("SeverBidi+HealAll produced %d transitions, want 4", len(seen))
	}
}
