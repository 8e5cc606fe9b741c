package tcp

import (
	"reflect"
	"testing"
	"time"

	"wanamcast/internal/config"
	"wanamcast/internal/types"
	"wanamcast/internal/wire"
)

// TestLeaseWireRoundTrip: the lease protocol's frames survive the binary
// codec exactly, including negative and large beats, and truncations
// error instead of panicking.
func TestLeaseWireRoundTrip(t *testing.T) {
	for _, v := range []any{
		heartbeatMsg{Beat: 0},
		heartbeatMsg{Beat: -5},
		heartbeatMsg{Beat: 1 << 40},
		leaseGrantMsg{Beat: 1 << 40},
		leaseGrantMsg{Beat: -1},
	} {
		buf := wire.AppendValue(nil, v)
		got, rest, err := wire.DecodeValue(buf)
		if err != nil {
			t.Fatalf("%#v: decode: %v", v, err)
		}
		if len(rest) != 0 {
			t.Fatalf("%#v: %d trailing bytes", v, len(rest))
		}
		if !reflect.DeepEqual(got, v) {
			t.Fatalf("round trip = %#v, want %#v", got, v)
		}
		for cut := 0; cut < len(buf); cut++ {
			if _, _, err := wire.DecodeValue(buf[:cut]); err == nil {
				// A strict prefix may cut before the varint begins, which
				// is only valid if it decodes to something else entirely;
				// the varint itself must never accept a truncation.
				if cut > 1 {
					t.Fatalf("%#v truncated to %d/%d bytes decoded without error", v, cut, len(buf))
				}
			}
		}
	}
}

// TestLeaderLeaseAcquireAndFence drives the live lease protocol through
// its full cycle on one group of three: the rank-0 leader earns a lease
// from a majority of grants; isolating it lets the grants age out and the
// successor take over; and the two incarnations never overlap — the old
// holder's lease lapses strictly before the successor's activates, which
// is the whole safety argument for serving reads under it.
func TestLeaderLeaseAcquireAndFence(t *testing.T) {
	topo := types.NewTopology(1, 3)
	rt := New(Config{
		Topo:   topo,
		Config: config.Config{BasePort: 27200, HeartbeatEvery: 10 * time.Millisecond, SuspectAfter: 60 * time.Millisecond, LeaseDuration: 80 * time.Millisecond},
	})
	if err := rt.Start(); err != nil {
		t.Fatal(err)
	}
	defer rt.Stop()

	old, succ := rt.Lease(0), rt.Lease(1)
	waitFor(t, 5*time.Second, func() bool { return old.Valid() })
	if succ.Valid() {
		t.Fatal("a follower holds a lease while the leader does")
	}

	rt.Fabric().Isolate(0)
	waitFor(t, 5*time.Second, func() bool { return succ.Valid() })
	// The successor only activates once every promise to the old holder
	// has expired, so the old lease must already have lapsed.
	if old.Valid() {
		t.Fatal("old holder's lease still valid after the successor activated")
	}
	oldEnd := old.ExpiredAt()
	if oldEnd.IsZero() {
		// Passive expiry is frozen lazily; an untouched lease still shows
		// its final deadline as ValidUntil.
		oldEnd = old.ValidUntil()
	}
	if !oldEnd.Before(succ.ActivatedAt()) {
		t.Fatalf("lease overlap: old holder held until %v, successor active from %v",
			oldEnd, succ.ActivatedAt())
	}

	// Heal: trust restores, leadership reverts to rank 0, the successor
	// revokes on demotion, and the old leader re-earns a fresh incarnation.
	rt.Fabric().HealIsolate(0)
	waitFor(t, 5*time.Second, func() bool { return old.Valid() })
	waitFor(t, 5*time.Second, func() bool { return !succ.Valid() })
	if old.Activations() < 2 {
		t.Fatalf("old leader re-earned its lease without a fresh activation (activations=%d)", old.Activations())
	}
}
