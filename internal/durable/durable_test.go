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

// TestRecoverNeedsTheIncarnationSection: a snapshot with ordering state
// and no incarnation section must fail recovery, not restart the
// incarnations at 1 and re-issue incarnation 1's IDs.
func TestRecoverNeedsTheIncarnationSection(t *testing.T) {
	donor := newSystem(nil).hosts[victim]
	store := storage.NewMem()
	blob := storage.AppendSection(nil, "a1", donor.A1.AppendSnapshot(nil))
	blob = storage.AppendSection(blob, "cluster", binary.AppendUvarint(nil, 7))
	if err := store.SaveSnapshot(blob); err != nil {
		t.Fatal(err)
	}
	err := newSystem(store).hosts[victim].Recover()
	if err == nil || !strings.Contains(err.Error(), sectionIncarnation) {
		t.Fatalf("Recover = %v, want an error naming the missing %q section", err, sectionIncarnation)
	}
}

// TestRecoverRefusesTheEarlierFormat: a data dir of the earlier format kept
// the incarnation in an "incarnation" section and a cast count in its A1 and
// A2 sections. Recovery must fail naming the section it lacks, never read
// those ordering sections as this format's.
func TestRecoverRefusesTheEarlierFormat(t *testing.T) {
	earlier := func(sec []byte) []byte { // the count followed two uvarints
		_, n1 := binary.Uvarint(sec)
		_, n2 := binary.Uvarint(sec[n1:])
		return append(binary.AppendUvarint(slices.Clone(sec[:n1+n2]), 6), sec[n1+n2:]...)
	}
	donor := newSystem(nil).hosts[victim]
	store := storage.NewMem()
	blob := storage.AppendSection(nil, "a1", earlier(donor.A1.AppendSnapshot(nil)))
	blob = storage.AppendSection(blob, "a2", earlier(donor.A2.AppendSnapshot(nil)))
	blob = storage.AppendSection(blob, "incarnation", binary.AppendUvarint(nil, 7))
	if err := store.SaveSnapshot(blob); err != nil {
		t.Fatal(err)
	}
	err := newSystem(store).hosts[victim].Recover()
	if err == nil || !strings.Contains(err.Error(), sectionIncarnation) {
		t.Fatalf("Recover = %v, want an error naming the missing %q section", err, sectionIncarnation)
	}
}

// up builds a system over store, recovers the victim and lets it catch up
// from its group peers, so that it can snapshot.
func up(t *testing.T, store storage.Store) (*system, *Node) {
	t.Helper()
	s := newSystem(store)
	h := s.hosts[victim]
	if err := h.Recover(); err != nil {
		t.Fatalf("recover: %v", err)
	}
	s.rt.Start()
	s.rt.Scheduler().At(0, h.StartSync)
	s.settle()
	return s, h
}

// settle runs the system for a second of virtual time: long enough for a
// catch-up or a few casts to run their course.
func (s *system) settle() { s.rt.RunUntil(s.rt.Scheduler().Now() + time.Second) }

// snapshot has the victim snapshot once its casts have run their course.
func snapshot(t *testing.T, s *system) {
	t.Helper()
	s.settle()
	if h := s.hosts[victim]; h.A1.Syncing() || h.A2.Syncing() {
		t.Fatal("construction broke: the victim is still catching up and cannot snapshot")
	} else if err := h.Snapshot(); err != nil {
		t.Fatalf("snapshot: %v", err)
	}
}

// casts has the victim cast n messages, A1 to the other group only (which
// its own store does not log) and A2 in turn, and returns their IDs.
func casts(h *Node, n int) []types.MessageID {
	ids := make([]types.MessageID, n)
	for i := range ids {
		if i%2 == 0 {
			ids[i] = h.A1.AMCast([]byte("m"), types.NewGroupSet(1))
		} else {
			ids[i] = h.A2.ABCast([]byte("b"))
		}
	}
	return ids
}

// TestNoIncarnationReissuesAnID: an incarnation that casts and crashes
// before it snapshots (here: before its catch-up ends) leaves its successor
// nothing but the snapshot its predecessor took. The successor must still
// cast under IDs no incarnation issued: the addressees would drop a
// re-issued one as delivered.
func TestNoIncarnationReissuesAnID(t *testing.T) {
	store := storage.NewMem()
	issued := make(map[types.MessageID]int)
	note := func(inc int, ids []types.MessageID) {
		for _, id := range ids {
			if was, dup := issued[id]; dup {
				t.Errorf("incarnation %d issued %v, which incarnation %d issued before", inc, id, was)
			}
			issued[id] = inc
		}
	}
	s, h := up(t, store)
	note(1, casts(h, 6))
	snapshot(t, s)

	s = newSystem(store)
	if err := s.hosts[victim].Recover(); err != nil {
		t.Fatalf("recover: %v", err)
	}
	s.rt.Start()
	note(2, casts(s.hosts[victim], 6))
	s.settle() // and crash with the catch-up not begun

	_, h = up(t, store)
	note(3, casts(h, 6))
}

// TestIncarnationSurvivesThePruning: a snapshot prunes the WAL, the
// incarnation records included, and carries the incarnation instead.
func TestIncarnationSurvivesThePruning(t *testing.T) {
	store := storage.NewMem()
	s, h := up(t, store)
	casts(h, 2)
	snapshot(t, s)
	_, from, _ := store.Load()
	left := 0
	_ = store.Replay(from, func(storage.Record) error { left++; return nil })
	if left != 0 {
		t.Fatalf("construction broke: the snapshot left %d records to replay", left)
	}
	_, h = up(t, store)
	if id := casts(h, 1)[0]; id.Seq>>node.CountBits != 2 || !h.Recovered() {
		t.Errorf("the incarnation after a pruning snapshot cast %v (incarnation %d, recovered %v), want incarnation 2",
			id, id.Seq>>node.CountBits, h.Recovered())
	}
}

// TestCastIDsCarryTheirIncarnation: every ID of incarnation i lies in
// [i<<40, (i+1)<<40) and counts from 1 (node.Proc.NewCast fails rather than
// reach the next one's IDs), and Recover fails rather than wrap.
func TestCastIDsCarryTheirIncarnation(t *testing.T) {
	store := storage.NewMem()
	for i := uint64(1); i <= 3; i++ {
		_, h := up(t, store)
		for k, id := range casts(h, 4) {
			if id.Seq != i<<node.CountBits|uint64(k+1) {
				t.Errorf("incarnation %d's cast %d is %v, want seq %d<<%d|%d", i, k+1, id, i, node.CountBits, k+1)
			}
		}
		if h.Recovered() != (i > 1) {
			t.Errorf("incarnation %d: Recovered() = %v", i, h.Recovered())
		}
	}

	last := storage.NewMem()
	blob := storage.AppendSection(nil, sectionIncarnation, binary.AppendUvarint(nil, maxIncarnation))
	if err := last.SaveSnapshot(blob); err != nil {
		t.Fatal(err)
	}
	if err := newSystem(last).hosts[victim].Recover(); err == nil || !strings.Contains(err.Error(), "incarnation") {
		t.Errorf("Recover over incarnation 2^24-1 = %v, want an error", err)
	}
}

// syncs is a store that counts completed Syncs and remembers the highest
// incarnation record that a completed Sync covered.
type syncs struct {
	*storage.Mem
	n, appended, durable uint64
}

func (s *syncs) Append(rec storage.Record) error {
	if rec.Kind == storage.KindIncarnation {
		s.appended = max(s.appended, rec.Inst)
	}
	return s.Mem.Append(rec)
}

func (s *syncs) Sync() error {
	err := s.Mem.Sync()
	if err == nil {
		s.n++
		s.durable = s.appended
	}
	return err
}

// TestIncarnationIsDurableBeforeItsFirstCast: Recover returns only after a
// Sync covered the new incarnation's number, so no ID of it leaves the
// process before a restart could read it back.
func TestIncarnationIsDurableBeforeItsFirstCast(t *testing.T) {
	store := &syncs{Mem: storage.NewMem()}
	for i := 0; i < 2; i++ {
		s := newSystem(store)
		h := s.hosts[victim]
		before := store.n
		if err := h.Recover(); err != nil {
			t.Fatal(err)
		}
		id := casts(h, 1)[0]
		if store.n == before || id.Seq>>node.CountBits > store.durable {
			t.Errorf("Recover completed %d Syncs, covering incarnation %d; its first cast is %v (incarnation %d)",
				store.n-before, store.durable, id, id.Seq>>node.CountBits)
		}
	}
}
