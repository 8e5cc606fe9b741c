package svc

import (
	"testing"

	"wanamcast/internal/types"
	"wanamcast/internal/wire"
)

// ringServer is a replica of one shard with one session, 5, that test
// commands go to.
type ringServer struct {
	t *testing.T
	s *Server
	m *KVMachine
	n uint64
}

func newRingServer(t *testing.T) *ringServer {
	m := NewKVMachine(0, PrefixRoute(1))
	s := NewServer(ServerConfig{Groups: 1, Machine: m, Submit: func([]byte, types.GroupSet, func(types.MessageID)) {}})
	return &ringServer{t: t, s: s, m: m}
}

// deliver delivers seq and reports whether it applied (not a duplicate or
// expired).
func (r *ringServer) deliver(seq uint64) bool {
	r.n++
	before := r.m.Applied()
	op := EncodePut(map[string]string{"g0/k": "v"})
	r.s.Deliver(types.MessageID{Origin: 1, Seq: r.n}, wire.AppendValue(nil, Command{Session: 5, Seq: seq, Op: op}))
	return r.m.Applied() > before
}

// verdict is what a resend of seq is answered from the window: "cached" with
// the order it applied at, "expired", or "" (not answered: it would be cast).
func (r *ringServer) verdict(seq uint64) (string, uint64) {
	r.s.mu.Lock()
	defer r.s.mu.Unlock()
	reply, done := r.s.cachedReply(Request{Session: 5, Seq: seq}, false)
	switch {
	case !done:
		return "", 0
	case reply.OK:
		return "cached", reply.Order
	}
	return "expired", 0
}

func (r *ringServer) slots() int { return len(r.s.sessions[5].applied) }

// TestRingOutOfOrderInsideTheWindow: a command delivered after its successor
// applies, once, and both stay answered.
func TestRingOutOfOrderInsideTheWindow(t *testing.T) {
	r := newRingServer(t)
	if !r.deliver(5) || !r.deliver(3) {
		t.Fatal("5 then 3: not both applied")
	}
	if r.deliver(3) || r.deliver(5) {
		t.Fatal("a redelivery applied again")
	}
	for _, seq := range []uint64{3, 5} {
		if v, _ := r.verdict(seq); v != "cached" {
			t.Errorf("seq %d: %q, want cached", seq, v)
		}
	}
	if v, _ := r.verdict(4); v != "" {
		t.Errorf("seq 4, never delivered: %q, want it cast", v)
	}
}

// TestRingWindowEdge: the seq exactly sessionWindow below the maximum has
// expired, applied or not; the one above it is still answered, or applies.
func TestRingWindowEdge(t *testing.T) {
	r := newRingServer(t)
	const max = 200
	for seq := uint64(1); seq <= max; seq++ {
		if seq != max-sessionWindow+1 && seq != max-sessionWindow && !r.deliver(seq) {
			t.Fatalf("seq %d did not apply", seq)
		}
	}
	if v, _ := r.verdict(max - sessionWindow); v != "expired" {
		t.Errorf("seq max-window, never applied: %q, want expired", v)
	}
	if r.deliver(max - sessionWindow) {
		t.Error("seq max-window applied: it has expired")
	}
	if v, _ := r.verdict(max - sessionWindow - 1); v != "expired" {
		t.Errorf("seq max-window-1, applied: %q, want expired", v)
	}
	if v, _ := r.verdict(max - sessionWindow + 1); v != "" {
		t.Errorf("seq max-window+1, never applied: %q, want it cast", v)
	}
	if !r.deliver(max - sessionWindow + 1) {
		t.Error("seq max-window+1 did not apply: it is inside the window")
	}
	if v, _ := r.verdict(max - sessionWindow + 1); v != "cached" {
		t.Errorf("seq max-window+1 once applied: %q, want cached", v)
	}
}

// TestRingGrowsAndReusesSlots: a session of one command holds two slots; the
// ring doubles, keeping every command inside the window, only when a command
// would take a slot still in use, and at sessionWindow slots a command takes
// the slot of the one that just expired.
func TestRingGrowsAndReusesSlots(t *testing.T) {
	r := newRingServer(t)
	r.deliver(10)
	if r.slots() != 2 {
		t.Fatalf("one command: %d slots, want 2", r.slots())
	}
	r.deliver(13) // the other slot of two
	if r.slots() != 2 {
		t.Fatalf("two commands in distinct slots: %d slots, want 2", r.slots())
	}
	r.deliver(14) // 10's slot in 2 and in 4 slots: the ring doubles twice
	if r.slots() != 8 {
		t.Fatalf("after a collision: %d slots, want 8", r.slots())
	}
	orders := map[uint64]uint64{}
	for _, seq := range []uint64{10, 13, 14} {
		v, order := r.verdict(seq)
		if v != "cached" {
			t.Fatalf("seq %d after growing: %q, want cached", seq, v)
		}
		orders[seq] = order
	}
	if orders[10] != 1 || orders[13] != 2 || orders[14] != 3 {
		t.Fatalf("orders after growing %v, want the delivery order 1, 2, 3", orders)
	}
	for seq := uint64(15); seq <= 10+sessionWindow; seq++ {
		r.deliver(seq)
	}
	if r.slots() != sessionWindow {
		t.Fatalf("%d slots, want %d", r.slots(), sessionWindow)
	}
	if v, _ := r.verdict(10); v != "expired" {
		t.Fatalf("seq 10: %q, want expired", v)
	}
	if v, _ := r.verdict(14); v != "cached" {
		t.Fatalf("seq 14 with its slot still its own: %q, want cached", v)
	}
	r.deliver(14 + sessionWindow)
	if v, _ := r.verdict(14 + sessionWindow); v != "cached" || r.slots() != sessionWindow {
		t.Fatalf("seq 14+window in 14's slot: %q at %d slots, want cached at %d", v, r.slots(), sessionWindow)
	}
	if v, _ := r.verdict(14); v != "expired" {
		t.Fatalf("seq 14: %q, want expired", v)
	}
}

// TestSnapshotHoldsTheWindowOnly: after a session's sequence jumps, the
// commands its ring still holds have expired, and its snapshot leaves them out.
func TestSnapshotHoldsTheWindowOnly(t *testing.T) {
	r := newRingServer(t)
	for _, seq := range []uint64{1, 2, 3, 4, 5, 500} {
		r.deliver(seq)
	}
	snap, err := r.s.SaveSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	// Machine, tick, one session: its id, maxSeq, touched, entries.
	d := wire.Decoder{Data: snap}
	wire.Read(&d, wire.Bytes)
	wire.Read(&d, wire.Uvarint)
	sessions := wire.Read(&d, wire.Uvarint)
	id, maxSeq, _ := wire.Read(&d, wire.Uvarint), wire.Read(&d, wire.Uvarint), wire.Read(&d, wire.Uvarint)
	entries, first := wire.Read(&d, wire.Uvarint), wire.Read(&d, wire.Uvarint)
	if d.Err != nil || sessions != 1 || id != 5 || maxSeq != 500 || entries != 1 || first != 500 {
		t.Fatalf("snapshot holds %d sessions, session %d at %d with %d entries from %d (%v); want 5 at 500 with 500 only",
			sessions, id, maxSeq, entries, first, d.Err)
	}
}
