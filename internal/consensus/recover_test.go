package consensus

import (
	"testing"
	"time"

	"wanamcast/internal/network"
	"wanamcast/internal/node"
	"wanamcast/internal/storage"
	"wanamcast/internal/types"
)

func newAcceptor(t *testing.T, log *storage.Log) *Consensus {
	t.Helper()
	topo := types.NewTopology(1, 3)
	rt := node.NewRuntime(topo, network.Model{IntraGroup: time.Millisecond}, 1, nil)
	return New(Config{
		API:      rt.Proc(0),
		Detector: rt.Oracle(),
		OnDecide: func(uint64, Value) {},
		Log:      log,
	})
}

// TestRestartedAcceptorKeepsPromise pins the acceptance bar of the
// durability work at the Paxos level: promises and votes are persisted
// before they are answered, so an acceptor rebuilt from its log can never
// accept below a ballot it promised, nor forget a value it voted for.
func TestRestartedAcceptorKeepsPromise(t *testing.T) {
	mem := storage.NewMem()
	c0 := newAcceptor(t, storage.NewLog(mem))
	c0.onPrepare(1, PrepareMsg{Instance: 1, Ballot: 5})
	c0.onAccept(1, AcceptMsg{Instance: 1, Ballot: 5, Value: "chosen"})
	c0.onPrepare(2, PrepareMsg{Instance: 2, Ballot: 7})

	// "Restart": a fresh engine fed only the durable records.
	c1 := newAcceptor(t, nil)
	c1.recovering = true
	if err := mem.Replay(0, c1.restoreRecord); err != nil {
		t.Fatal(err)
	}
	c1.recovering = false

	in := c1.inst(1)
	if in.promised != 5 || in.accepted != 5 || in.aValue != "chosen" {
		t.Fatalf("restored acceptor state: promised=%d accepted=%d value=%v, want 5/5/chosen",
			in.promised, in.accepted, in.aValue)
	}
	if in2 := c1.inst(2); in2.promised != 7 {
		t.Fatalf("restored promise on instance 2: %d, want 7", in2.promised)
	}

	// A stale leader's lower-ballot messages must not regress the state.
	c1.onPrepare(1, PrepareMsg{Instance: 1, Ballot: 3})
	c1.onAccept(1, AcceptMsg{Instance: 1, Ballot: 3, Value: "usurper"})
	if in.promised != 5 || in.accepted != 5 || in.aValue != "chosen" {
		t.Fatalf("restored acceptor broke its promise: promised=%d accepted=%d value=%v",
			in.promised, in.accepted, in.aValue)
	}
}

// TestDecideRecordsReplayInOrder pins that the batcher's recovery path
// re-applies logged decisions densely and in instance order.
func TestDecideRecordsReplayInOrder(t *testing.T) {
	mem := storage.NewMem()
	c0 := newAcceptor(t, storage.NewLog(mem))
	batch := func(seq uint64) []fakeItem {
		return []fakeItem{{id: types.MessageID{Origin: 0, Seq: seq}}}
	}
	c0.learn(2, batch(2)) // decisions can be learned out of order
	c0.learn(1, batch(1))
	c0.learn(3, batch(3))

	var applied []uint64
	c1Topo := types.NewTopology(1, 3)
	rt := node.NewRuntime(c1Topo, network.Model{IntraGroup: time.Millisecond}, 1, nil)
	b := NewBatcher(BatcherConfig[fakeItem]{
		API:      rt.Proc(0),
		Detector: rt.Oracle(),
		Fill:     func(func(types.MessageID) bool, int, bool) []fakeItem { return nil },
		OnApply:  func(inst uint64, _ []fakeItem) { applied = append(applied, inst) },
	})
	b.BeginRecovery()
	if err := mem.Replay(0, b.ReplayRecord); err != nil {
		t.Fatal(err)
	}
	b.EndRecovery()
	if len(applied) != 3 || applied[0] != 1 || applied[1] != 2 || applied[2] != 3 {
		t.Fatalf("replayed apply order %v, want [1 2 3]", applied)
	}
}

type fakeItem struct{ id types.MessageID }

func (f fakeItem) ItemID() types.MessageID { return f.id }
