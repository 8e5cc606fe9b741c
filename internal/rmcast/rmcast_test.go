package rmcast

import (
	"testing"
	"time"

	"wanamcast/internal/metrics"
	"wanamcast/internal/network"
	"wanamcast/internal/node"
	"wanamcast/internal/types"
)

type rig struct {
	rt        *node.Runtime
	col       *metrics.Collector
	endpoints []*RMcast
	delivered []map[types.MessageID]int // per process: id -> count
}

func newRig(t *testing.T, groups, per int, mode Mode) *rig {
	t.Helper()
	topo := types.NewTopology(groups, per)
	col := &metrics.Collector{LogSends: true}
	rt := node.NewRuntime(topo, network.Model{IntraGroup: time.Millisecond, InterGroup: 100 * time.Millisecond}, 1, col)
	r := &rig{rt: rt, col: col}
	r.endpoints = make([]*RMcast, topo.N())
	r.delivered = make([]map[types.MessageID]int, topo.N())
	for _, id := range topo.AllProcesses() {
		id := id
		r.delivered[id] = make(map[types.MessageID]int)
		ep := New(Config{
			API:  rt.Proc(id),
			Mode: mode,
			OnDeliver: func(m Message) {
				r.delivered[id][m.ID]++
			},
		})
		rt.Proc(id).Register(ep)
		r.endpoints[id] = ep
	}
	rt.Start()
	return r
}

func msg(origin int, seq int, dest ...types.GroupID) Message {
	return Message{
		ID:      types.MessageID{Origin: types.ProcessID(origin), Seq: uint64(seq)},
		Dest:    types.NewGroupSet(dest...),
		Payload: []byte("payload"),
	}
}

func TestDirectDeliversToAllDest(t *testing.T) {
	r := newRig(t, 3, 2, ModeDirect)
	m := msg(0, 1, 0, 1)
	r.endpoints[0].MCast(m)
	r.rt.Run()
	for p := 0; p < 4; p++ {
		if r.delivered[p][m.ID] != 1 {
			t.Errorf("p%d delivered %d times, want 1", p, r.delivered[p][m.ID])
		}
	}
	for p := 4; p < 6; p++ {
		if r.delivered[p][m.ID] != 0 {
			t.Errorf("p%d (outside dest) delivered", p)
		}
	}
}

func TestDirectMessageCount(t *testing.T) {
	// Direct mode sends d·k − 1 copies (self copy uncounted); inter-group
	// copies are d·(k−1) — the paper's d(k−1) accounting for A1's R-MCast.
	r := newRig(t, 3, 3, ModeDirect)
	r.endpoints[0].MCast(msg(0, 1, 0, 1, 2))
	r.rt.Run()
	st := r.col.Snapshot()
	if st.TotalMessages != 8 {
		t.Errorf("total messages = %d, want 8", st.TotalMessages)
	}
	if st.InterGroupMessages != 6 {
		t.Errorf("inter-group messages = %d, want 6 = d(k-1)", st.InterGroupMessages)
	}
}

func TestEagerRelaysWithinGroup(t *testing.T) {
	r := newRig(t, 2, 3, ModeEager)
	r.endpoints[0].MCast(msg(0, 1, 0, 1))
	r.rt.Run()
	for p := 0; p < 6; p++ {
		if r.delivered[p][msg(0, 1, 0, 1).ID] != 1 {
			t.Errorf("p%d delivery count wrong", p)
		}
	}
	// Relays: each of the 6 receivers relays to its (up to 2) group peers
	// minus the original sender; all relays are intra-group.
	st := r.col.Snapshot()
	if st.InterGroupMessages != 3 {
		t.Errorf("inter-group = %d, want 3 (only the original fan-out)", st.InterGroupMessages)
	}
	if st.TotalMessages <= 5 {
		t.Errorf("total = %d, expected relay traffic on top of the 5 copies", st.TotalMessages)
	}
}

func TestEagerLatencyDegreeIsOne(t *testing.T) {
	r := newRig(t, 2, 3, ModeEager)
	m := msg(0, 1, 0, 1)
	m.ID = r.rt.Proc(0).NewCast()
	r.endpoints[0].MCast(m)
	r.rt.Run()
	// All deliverers' clocks must be exactly 1: relays are intra-group.
	for p := 0; p < 6; p++ {
		if got := r.rt.Proc(types.ProcessID(p)).Clock(); got != 1 {
			t.Errorf("p%d clock = %d, want 1", p, got)
		}
	}
}

func TestCasterOutsideDestDoesNotDeliver(t *testing.T) {
	r := newRig(t, 2, 2, ModeDirect)
	m := msg(0, 1, 1) // p0 is in group 0, casts to group 1 only
	r.endpoints[0].MCast(m)
	r.rt.Run()
	if r.delivered[0][m.ID] != 0 {
		t.Error("caster outside dest delivered")
	}
	if r.delivered[2][m.ID] != 1 || r.delivered[3][m.ID] != 1 {
		t.Error("dest group missed the message")
	}
}

func TestDuplicateReceptionDeliversOnce(t *testing.T) {
	r := newRig(t, 1, 3, ModeEager)
	m := msg(0, 1, 0)
	r.endpoints[0].MCast(m)
	r.rt.Run()
	// Eager relays mean each process hears m multiple times.
	for p := 0; p < 3; p++ {
		if r.delivered[p][m.ID] != 1 {
			t.Errorf("p%d delivered %d times", p, r.delivered[p][m.ID])
		}
	}
}

func TestEagerSurvivesCasterCrashAfterPartialSpread(t *testing.T) {
	// The caster's fan-out is atomic in the simulator, so crash the caster
	// immediately after casting and a relay target right away: agreement
	// among correct processes must still hold via relays.
	r := newRig(t, 2, 3, ModeEager)
	m := msg(0, 1, 0, 1)
	r.endpoints[0].MCast(m)
	r.rt.Crash(0)
	r.rt.CrashAt(3, 500*time.Microsecond)
	r.rt.Run()
	for _, p := range []int{1, 2, 4, 5} {
		if r.delivered[p][m.ID] != 1 {
			t.Errorf("correct p%d did not deliver", p)
		}
	}
}

func TestEmptyDestPanics(t *testing.T) {
	r := newRig(t, 1, 1, ModeDirect)
	defer func() {
		if recover() == nil {
			t.Error("expected panic on empty destination")
		}
	}()
	r.endpoints[0].MCast(Message{ID: types.MessageID{Origin: 0, Seq: 1}})
}

func TestInvalidModePanics(t *testing.T) {
	topo := types.NewTopology(1, 1)
	rt := node.NewRuntime(topo, network.Model{}, 1, nil)
	defer func() {
		if recover() == nil {
			t.Error("expected panic on invalid mode")
		}
	}()
	New(Config{API: rt.Proc(0), Mode: Mode(99)})
}

func TestModeString(t *testing.T) {
	if ModeDirect.String() != "direct" || ModeEager.String() != "eager" {
		t.Error("mode strings wrong")
	}
	if Mode(42).String() != "mode(42)" {
		t.Error("unknown mode string wrong")
	}
}

func TestValidityManyMessages(t *testing.T) {
	r := newRig(t, 3, 2, ModeDirect)
	ids := make([]types.MessageID, 0, 30)
	for i := 0; i < 30; i++ {
		m := msg(i%6, i/6+1, types.GroupID(i%3), types.GroupID((i+1)%3))
		r.endpoints[i%6].MCast(m)
		ids = append(ids, m.ID)
	}
	r.rt.Run()
	for i, id := range ids {
		dest := types.NewGroupSet(types.GroupID(i%3), types.GroupID((i+1)%3))
		for _, p := range r.rt.Topo().ProcessesIn(dest) {
			if r.delivered[p][id] != 1 {
				t.Fatalf("message %v not delivered exactly once at %v", id, p)
			}
		}
	}
}

// TestMCastReusesItsDestinationList: a cast costs the boxing of its message
// and nothing else: the destination list is the endpoint's own, reused.
func TestMCastReusesItsDestinationList(t *testing.T) {
	rt := node.NewRuntime(types.NewTopology(3, 3), network.Model{IntraGroup: time.Millisecond, InterGroup: time.Millisecond}, 1, nil)
	ep := New(Config{API: rt.Proc(0), Mode: ModeDirect})
	rt.Proc(0).Register(ep)
	rt.Start()
	m := msg(0, 1, 0, 2)
	if n := testing.AllocsPerRun(100, func() { ep.MCast(m) }); n > 1 {
		t.Errorf("a cast to two groups: %.1f allocations, want at most 1", n)
	}
}

// TestRelayReusesItsDestinationList: an eager relay costs the boxing of its
// message and nothing else: its destination list is the endpoint's own, like
// MCast's. (Building a fresh list cost two allocations per relayed message.)
func TestRelayReusesItsDestinationList(t *testing.T) {
	rt := node.NewRuntime(types.NewTopology(2, 3), network.Model{IntraGroup: time.Millisecond, InterGroup: time.Millisecond}, 1, nil)
	ep := New(Config{API: rt.Proc(0), Mode: ModeEager})
	rt.Proc(0).Register(ep)
	rt.Start()
	m := msg(3, 0, 0, 1)
	relay := func() {
		m.ID.Seq++
		ep.onData(3, DataMsg{M: m}) // relayed to p1 and p2
	}
	for range 1024 { // warm the delivered set and the scheduler's queue
		relay()
	}
	if n := testing.AllocsPerRun(100, relay); n > 1 {
		t.Errorf("a relayed message: %.1f allocations, want at most 1", n)
	}
}

// TestMisroutedMessageIsDropped: a DataMsg for a group the receiver is not in
// came from a broken peer: the receiver neither delivers nor relays it, and
// carries on.
func TestMisroutedMessageIsDropped(t *testing.T) {
	rt := node.NewRuntime(types.NewTopology(2, 3), network.Model{IntraGroup: time.Millisecond, InterGroup: time.Millisecond}, 1, nil)
	got := map[types.ProcessID][]uint64{}
	eps := make([]*RMcast, 3)
	for i := range eps {
		p := types.ProcessID(i)
		eps[i] = New(Config{API: rt.Proc(p), Mode: ModeEager, OnDeliver: func(m Message) { got[p] = append(got[p], m.ID.Seq) }})
		rt.Proc(p).Register(eps[i])
	}
	rt.Start()
	eps[0].onData(3, DataMsg{M: msg(3, 1, 1)})
	eps[0].onData(3, DataMsg{M: msg(3, 2, 0)})
	rt.Run()
	for p := range eps {
		if seqs := got[types.ProcessID(p)]; len(seqs) != 1 || seqs[0] != 2 {
			t.Fatalf("p%d delivered casts %v, want only cast 2", p, seqs)
		}
	}
}
