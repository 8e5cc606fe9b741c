package durable

import (
	"encoding/binary"
	"fmt"
	"slices"
	"strings"
	"testing"
	"time"

	"wanamcast/internal/config"
	"wanamcast/internal/network"
	"wanamcast/internal/node"
	"wanamcast/internal/storage"
	"wanamcast/internal/types"
)

const victim = types.ProcessID(1)

// system is a 2×3 simulated system of hosted processes; only the victim has
// a store. app counts the victim's deliveries the way a state machine
// would, and rides the victim's snapshots as an extra section.
type system struct {
	rt        *node.Runtime
	hosts     []*Node
	delivered []types.MessageID // at the victim, in order
	app       uint64
}

func newSystem(store storage.Store) *system {
	topo := types.NewTopology(2, 3)
	s := &system{rt: node.NewRuntime(topo, network.Model{IntraGroup: time.Millisecond, InterGroup: 50 * time.Millisecond}, 1, nil)}
	for _, p := range topo.AllProcesses() {
		cfg := Config{
			Proc:     s.rt.Proc(p),
			Detector: s.rt.Oracle(),
			Knobs:    config.Config{Pipeline: 2, MaxBatch: 8, SnapshotEvery: -1},
			Async:    func(fn func()) { s.rt.Scheduler().After(0, fn) },
			Deliver:  func(string, types.MessageID, []byte) {},
		}
		if p == victim {
			cfg.Store = store
			cfg.Deliver = func(_ string, id types.MessageID, _ []byte) {
				s.delivered = append(s.delivered, id)
				s.app++
			}
			cfg.Sections = func() []Section {
				return []Section{{
					Name:    "app",
					Save:    func() ([]byte, error) { return binary.AppendUvarint(nil, s.app), nil },
					Restore: func(data []byte) error { s.app, _ = binary.Uvarint(data); return nil },
				}}
			}
		}
		s.hosts = append(s.hosts, New(cfg))
	}
	return s
}

// load schedules n mixed casts from t0 on, 3 ms apart: multicasts to both
// groups and broadcasts, from every process in turn — the victim included.
// It returns the highest sequence number the victim's allocator issued.
func (s *system) load(t0 time.Duration, n int) (victimMax *uint64) {
	victimMax = new(uint64)
	for i := 0; i < n; i++ {
		from := types.ProcessID(i % len(s.hosts))
		s.rt.Scheduler().At(t0+time.Duration(i)*3*time.Millisecond, func() {
			var id types.MessageID
			if i%2 == 0 {
				id = s.hosts[from].A1.AMCast([]byte(fmt.Sprint("m", i)), types.NewGroupSet(0, 1))
			} else {
				id = s.hosts[from].A2.ABCast([]byte(fmt.Sprint("b", i)))
			}
			if from == victim {
				*victimMax = max(*victimMax, id.Seq)
			}
		})
	}
	return victimMax
}

// TestRecoverReplaysThePostSnapshotSuffix: a fresh host for the same
// process on the same store recovers to the state the first incarnation
// reached, re-emits exactly the deliveries the snapshot does not cover, in
// order, and can never re-issue a MessageID.
func TestRecoverReplaysThePostSnapshotSuffix(t *testing.T) {
	store := storage.NewMem()
	first := newSystem(store)
	first.rt.Start()
	issuedA := first.load(0, 24)
	cut := -1
	first.rt.Scheduler().At(400*time.Millisecond, func() {
		if err := first.hosts[victim].Snapshot(); err != nil {
			t.Errorf("snapshot: %v", err)
		}
		cut = len(first.delivered)
	})
	issuedB := first.load(500*time.Millisecond, 24)
	first.rt.Run()
	if cut <= 0 || cut >= len(first.delivered) || len(first.delivered) != 48 {
		t.Fatalf("construction broke: snapshot after %d of %d deliveries (want mid-run, 48 in all)", cut, len(first.delivered))
	}

	second := newSystem(store)
	if err := second.hosts[victim].Recover(); err != nil {
		t.Fatalf("recover: %v", err)
	}
	was, now := first.hosts[victim], second.hosts[victim]
	if now.A1.Delivered() != was.A1.Delivered() || now.A1.K() != was.A1.K() || now.A2.Round() != was.A2.Round() {
		t.Errorf("recovered to a1 delivered=%d K=%d, a2 round=%d; the first incarnation reached %d, %d, %d",
			now.A1.Delivered(), now.A1.K(), now.A2.Round(), was.A1.Delivered(), was.A1.K(), was.A2.Round())
	}
	if !slices.Equal(second.delivered, first.delivered[cut:]) {
		t.Errorf("replay re-emitted %v\nwant the post-snapshot suffix %v", second.delivered, first.delivered[cut:])
	}
	if second.app != first.app {
		t.Errorf("extra section + replay rebuilt app=%d, want %d", second.app, first.app)
	}
	if !now.A1.Syncing() || !now.A2.Syncing() || second.rt.Proc(victim).Recovering() {
		t.Error("after Recover the endpoints must be gated and the process out of recovering mode")
	}
	if id := now.A2.ABCast([]byte("after")); id.Seq <= max(*issuedA, *issuedB) {
		t.Errorf("recovered allocator issued %v; the first incarnation had reached seq %d", id, max(*issuedA, *issuedB))
	}
}

// TestVolatileHost: without a store Snapshot and Recover do nothing — in
// particular the allocator does not jump.
func TestVolatileHost(t *testing.T) {
	s := newSystem(nil)
	h := s.hosts[victim]
	before := h.A2.ABCast([]byte("x"))
	if err := h.Snapshot(); err != nil {
		t.Errorf("Snapshot: %v", err)
	}
	if err := h.Recover(); err != nil {
		t.Errorf("Recover: %v", err)
	}
	if after := h.A1.AMCast([]byte("y"), types.NewGroupSet(0)); after.Seq != before.Seq+1 || h.A1.Syncing() {
		t.Errorf("volatile Recover moved the allocator (%v then %v) or shut the gate", before, after)
	}
}

// TestRecoverNeedsTheAllocatorSection: a snapshot with ordering state and
// no allocator section must fail recovery, not restart the allocator at 0.
func TestRecoverNeedsTheAllocatorSection(t *testing.T) {
	donor := newSystem(nil).hosts[victim]
	store := storage.NewMem()
	blob := storage.AppendSection(nil, "a1", donor.A1.AppendSnapshot(nil))
	blob = storage.AppendSection(blob, "wannode", binary.AppendUvarint(nil, 7))
	if err := store.SaveSnapshot(blob); err != nil {
		t.Fatal(err)
	}
	err := newSystem(store).hosts[victim].Recover()
	if err == nil || !strings.Contains(err.Error(), sectionAlloc) {
		t.Fatalf("Recover = %v, want an error naming the missing %q section", err, sectionAlloc)
	}
}
