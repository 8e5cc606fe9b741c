package consensus

import (
	"runtime"
	"testing"
	"time"

	"wanamcast/internal/network"
	"wanamcast/internal/node"
	"wanamcast/internal/storage"
	"wanamcast/internal/types"
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
// every member proposing, as under A1 and A2: 2 mallocs at a non-leader (its
// ForwardMsg and its AcceptedMsg) and 3 at the leader (the AcceptMsg, sent
// once per ballot, its own AcceptedMsg and the DecideMsg announcement), plus a
// page of instances every pageSize instances. While a ballot-0 leader re-sent
// its Accept for every ForwardMsg the leader counted 4 — one catch-up
// DecideMsg for the Accepts that reached it after it had decided — and every
// body a member sent d times was boxed once and kept in the instance; before
// the paged instance table, the quorum bitmasks and the bound retry tick this
// test counted 6 and 13. The warm-up is that long for the simulator's sake:
// its calendar ring sizes its buckets over the first few dozen turns.
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
		proc.Tap(func(_ types.ProcessID, _ any, deliver func()) { // split the group's mallocs by role
			mallocs[i] += mallocsDuring(deliver)
		})
	}
	rt.Start()
	var v Value = "v"
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
		want := uint64(2*n + n/pageSize)
		if i == 0 {
			want = 3*n + n/pageSize
		}
		if mallocs[i] != want {
			t.Errorf("p%d: %d mallocs over %d instances (%.2f each), want %d", i, mallocs[i], n, float64(mallocs[i])/n, want)
		}
	}
}

// TestDurableAcceptAllocatesOnlyItsReply: on a log attached to group commit,
// an acceptor's Accept costs one allocation, its AcceptedMsg boxed by the
// simulator, which passes values (a live runtime encodes it unboxed, see
// tcp's TestSendZeroAllocs). Appending the vote, staging the barrier, parking
// the reply and the lane's run of the continuation that sends it allocate
// nothing.
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
	c := newAcceptor(t, log)
	var v Value = "v"
	ballot := int64(0)
	accept := func() {
		ballot++ // a higher ballot each time: every Accept appends a vote
		c.onAccept(1, AcceptMsg{Instance: 1, Ballot: ballot, Value: v})
		(<-lane)()
	}
	for i := 0; i < 256; i++ {
		accept()
	}
	if n := testing.AllocsPerRun(200, accept); n != 1 {
		t.Fatalf("a durable Accept made %.1f allocations, want 1 (the reply's box)", n)
	}
	if c.parked.Len() != 0 {
		t.Fatalf("%d replies still parked after their barriers fired", c.parked.Len())
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
		c.Propose(1, []int{i})
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
		dec, acc := in.decision.([]int), in.aValue.([]int)
		if &dec[0] != &acc[0] {
			t.Errorf("p%d: decision %v and accepted value %v are two batches, want one shared", i, dec, acc)
		}
	}
}
