package consensus

import (
	"bytes"
	"runtime"
	"testing"
	"time"

	"wanamcast/internal/fd"
	"wanamcast/internal/network"
	"wanamcast/internal/node"
	"wanamcast/internal/storage"
	"wanamcast/internal/types"
	"wanamcast/internal/wire"
)

func mallocsDuring(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs
}

// TestSteadyStateAllocsPerInstance pins what one decided instance costs
// inside this package on the steady path — sim runtime, no store, ballot 0,
// every member proposing, as under A1 and A2: a page of instances every
// pageSize instances at every member, and nothing per instance. The
// simulator carries a sent value unboxed; while it boxed each one this test
// counted 2 mallocs at a non-leader (its ForwardMsg and its AcceptedMsg) and 3
// at the leader (the AcceptMsg, sent once per ballot, its own AcceptedMsg and
// the DecideMsg announcement). While a ballot-0 leader re-sent its Accept for
// every ForwardMsg the leader counted 4 — one catch-up DecideMsg for the
// Accepts that reached it after it had decided — and every body a member sent
// d times was boxed once and kept in the instance; before the paged instance
// table, the quorum bitmasks and the bound retry tick this test counted 6 and
// 13. The warm-up is that long for the simulator's sake: its calendar ring
// sizes its buckets, and its value slots their chunks, over the first few
// dozen turns.
func TestSteadyStateAllocsPerInstance(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1)) // no other goroutine's mallocs in the count
	const d, warm, n = 3, 128 * pageSize, 8 * pageSize
	rt := node.NewRuntime(types.NewTopology(1, d), network.Model{IntraGroup: time.Millisecond}, 1, nil)
	mallocs := make([]uint64, d)
	cons := make([]*Consensus, d)
	for i := range cons {
		proc := rt.Proc(types.ProcessID(i))
		cons[i] = New(Config{API: proc, Detector: rt.Oracle(), OnDecide: func(uint64, Value) {}})
		proc.Register(cons[i])
	}
	rt.Hook = func(_, to types.ProcessID, _ string, _ any, _ int64, deliver func()) { // split the group's mallocs by role
		mallocs[to] += mallocsDuring(deliver)
	}
	rt.Start()
	v := Value("v")
	for k := uint64(1); k <= warm+n; k++ {
		if k == warm+1 {
			clear(mallocs)
		}
		for i, c := range cons {
			mallocs[i] += mallocsDuring(func() { c.Propose(k, v) })
		}
		rt.Run()
	}
	for i, c := range cons {
		if _, ok := c.Decided(warm + n); !ok {
			t.Fatalf("p%d never decided instance %d", i, warm+n)
		}
		if want := uint64(n / pageSize); mallocs[i] != want {
			t.Errorf("p%d: %d mallocs over %d instances (%.2f each), want %d", i, mallocs[i], n, float64(mallocs[i])/n, want)
		}
	}
}

// acceptedSink counts the AcceptedMsgs that reach a proposer.
type acceptedSink struct{ n *int }

func (acceptedSink) Proto() string            { return "consensus" }
func (acceptedSink) Start()                   {}
func (acceptedSink) Handlers() []node.Handler { return acceptedSinkHandlers }

var acceptedSinkHandlers = []node.Handler{node.On(func(s acceptedSink, _ types.ProcessID, _ AcceptedMsg) { *s.n++ })}

// TestDurableAcceptAllocatesOnlyItsReply: on a log attached to group commit,
// an acceptor's Accept allocates nothing: appending the vote, staging the
// barrier, parking the reply, the lane's run of the continuation that sends
// it, and the reply's send and delivery — the simulator carries the
// AcceptedMsg unboxed (a live runtime encodes it unboxed, see tcp's
// TestSendZeroAllocs). While the simulator boxed every send, this test
// counted 1, the reply's box.
func TestDurableAcceptAllocatesOnlyItsReply(t *testing.T) {
	d, err := storage.OpenDisk(t.TempDir(), storage.DiskOptions{NoFsync: true, SegmentSize: 1 << 30})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	gc := storage.NewGroupCommit()
	defer gc.Close()
	log := storage.NewLog(d)
	lane := make(chan func(), 1)
	log.AttachGroupCommit(gc, func(fn func()) { lane <- fn })
	rt := node.NewRuntime(types.NewTopology(1, 3), network.Model{IntraGroup: time.Millisecond}, 1, nil)
	c := New(Config{API: rt.Proc(0), Detector: rt.Oracle(), OnDecide: func(uint64, Value) {}, Log: log})
	replies := 0
	rt.Proc(1).Register(acceptedSink{&replies})
	v := Value("v")
	ballot := int64(0)
	accept := func() {
		ballot++ // a higher ballot each time: every Accept appends a vote
		c.onAccept(1, AcceptMsg{Instance: 1, Ballot: ballot, Value: v})
		(<-lane)()
		rt.Run() // the reply reaches the proposer, and its slot is free again
	}
	for i := 0; i < 256; i++ {
		accept()
	}
	if n := testing.AllocsPerRun(200, accept); n != 0 {
		t.Fatalf("a durable Accept made %.1f allocations, want 0", n)
	}
	if c.parked.Len() != 0 || replies != int(ballot) {
		t.Fatalf("%d replies still parked after their barriers fired, %d of %d delivered", c.parked.Len(), replies, ballot)
	}
}

// TestDeferredPumpAllocatesNothing: while an own instance is undecided, a Pump
// that finds only a partial batch asks Fill for a full one, gets nil, and
// builds nothing. That is the per-event path at Pipeline > 1, so it must stay
// free.
func TestDeferredPumpAllocatesNothing(t *testing.T) {
	r := newBatchRig(64, 4)
	r.enqueue(1)
	r.b.Pump()
	r.enqueue(10)
	if n := testing.AllocsPerRun(100, r.b.Pump); n != 0 {
		t.Errorf("a deferred Pump made %.1f allocations, want 0", n)
	}
	if got := r.b.NextInstance(); got != 2 {
		t.Fatalf("NextInstance = %d, want 2: ten items are a partial batch", got)
	}
}

// TestDecidedInstanceDropsItsProposals: once an instance is decided nothing
// reads the values that lost — each member's own proposal and the leader's
// working value — so the instance must not pin them:
// it keeps one batch, the decided one, which the acceptor state shares.
func TestDecidedInstanceDropsItsProposals(t *testing.T) {
	r := newRig(t, 3)
	for i, c := range r.cons {
		c.Propose(1, Value{byte(i)})
	}
	r.rt.Run()
	for i, c := range r.cons {
		in := c.lookup(1)
		if in == nil || !in.decided {
			t.Fatalf("p%d: instance 1 undecided", i)
		}
		if in.proposal != nil || in.leadValue != nil || in.bestVValue != nil {
			t.Errorf("p%d: decided instance still holds proposal=%v leadValue=%v", i, in.proposal, in.leadValue)
		}
		dec, acc := in.decision, in.aValue
		if &dec[0] != &acc[0] {
			t.Errorf("p%d: decision %v and accepted value %v are two batches, want one shared", i, dec, acc)
		}
	}
}

// decodeAllocs is how many allocations decoding m's body costs.
func decodeAllocs[T any](m T) float64 {
	_, dec := wire.DecoderOf[T]()
	body := wire.AppendTagged(nil, m)[1:]
	return testing.AllocsPerRun(200, func() { _, _, _ = dec(body) })
}

// TestValueDecodeCostsItsBytes: a Forward, an Accept or a by-value Decide
// with a 4-item value decodes at one allocation, the value's bytes copied
// out of the receive buffer, for the engine parses no value; a by-reference
// Decide decodes at none. While a value was decoded in full on receipt, each
// cost a box, a slice and a payload copy.
func TestValueDecodeCostsItsBytes(t *testing.T) {
	v := enc(testItem{ID: mid(1), V: 1}, testItem{ID: mid(2)}, testItem{ID: mid(3)}, testItem{ID: mid(4), V: -4})
	for _, c := range []struct {
		name      string
		got, want float64
	}{
		{"Forward", decodeAllocs(ForwardMsg{Instance: 9, Value: v}), 1},
		{"Accept", decodeAllocs(AcceptMsg{Instance: 9, Ballot: 3, Value: v}), 1},
		{"Decide by value", decodeAllocs(DecideMsg{Instance: 9, Ballot: -1, Value: v}), 1},
		{"Decide by reference", decodeAllocs(DecideMsg{Instance: 9, Ballot: 3}), 0},
	} {
		if c.got != c.want {
			t.Errorf("decoding a %s made %.1f allocations, want %.0f", c.name, c.got, c.want)
		}
	}
}

// TestAppliedDecisionZeroAllocs: an engine without OnDecide, as A1's,
// applies a decided 4-item value at no allocation — it decodes it into a
// buffer it reuses, the items' bytes aliasing the value's.
func TestAppliedDecisionZeroAllocs(t *testing.T) {
	b := NewBatcher(BatcherConfig[testItem]{
		API:      node.NewProc(0, types.NewTopology(1, 3), &fakeEnv{}),
		Detector: fd.NewOracle(types.NewTopology(1, 3)),
		Fill:     func(func(types.MessageID) bool, int, bool) []testItem { return nil },
		Decode:   decodeTestItems,
		OnApply:  func(uint64, []testItem) {},
	})
	v := enc(testItem{ID: mid(1)}, testItem{ID: mid(2)}, testItem{ID: mid(3)}, testItem{ID: mid(4)})
	k := uint64(0)
	apply := func() { k++; b.decided(k, v) }
	for range 64 {
		apply()
	}
	if n := testing.AllocsPerRun(200, apply); n != 0 {
		t.Errorf("applying a decision made %.1f allocations, want 0", n)
	}
	if b.AppliedInstances() != k {
		t.Fatalf("applied %d of %d decisions", b.AppliedInstances(), k)
	}
}

// TestProposalsComeFromTheSlab: a Batcher that proposes N non-empty batches
// allocates at most N/16 times for their encodings: each is written once
// into the engine's slab, capped, and never overwritten by a later one. A
// batch larger than a chunk gets an array of its own. While each
// proposal was encoded into a scratch buffer and copied out, this cost N.
func TestProposalsComeFromTheSlab(t *testing.T) {
	b := NewBatcher(BatcherConfig[testItem]{
		API:      node.NewProc(0, types.NewTopology(1, 3), &fakeEnv{}),
		Detector: fd.NewOracle(types.NewTopology(1, 3)),
		Fill:     func(func(types.MessageID) bool, int, bool) []testItem { return nil },
		Decode:   decodeTestItems,
		OnApply:  func(uint64, []testItem) {},
	})
	const n = 1024
	batch, vs := make([]testItem, 4), make([]Value, n)
	for i := range batch {
		batch[i].ID = mid(uint64(i + 1))
	}
	if m := mallocsDuring(func() {
		for i := range vs {
			batch[0].V = i
			vs[i] = b.encode(batch)
		}
	}); m > n/16 {
		t.Errorf("%d proposals made %d allocations, want at most %d", n, m, n/16)
	}
	for i, v := range vs {
		batch[0].V = i
		if !bytes.Equal(v, enc(batch...)) || cap(v) != len(v) {
			t.Fatalf("proposal %d reads %x (capacity %d), want %x capped", i, v, cap(v), enc(batch...))
		}
	}
	big := make([]testItem, slabChunk)
	for i := range big {
		big[i].ID = mid(uint64(i + 1))
	}
	at := len(b.slab)
	if v := b.encode(big); !bytes.Equal(v, enc(big...)) || cap(v) != len(v) || len(b.slab) != at {
		t.Fatalf("a batch of %d bytes moved the slab from %d to %d, or was misencoded", len(v), at, len(b.slab))
	}
}
