package consensus

import (
	"fmt"
	"testing"
	"time"

	"wanamcast/internal/fd"
	"wanamcast/internal/metrics"
	"wanamcast/internal/node"
	"wanamcast/internal/types"
	"wanamcast/internal/wire"
)

// testItem is a minimal batch element.
type testItem struct {
	ID types.MessageID
	V  int
}

func (it testItem) ItemID() types.MessageID { return it.ID }

// kindTestItems is []testItem's wire kind, one no package registers.
const kindTestItems wire.Kind = 250

func init() {
	wire.Register(kindTestItems, appendTestItems, func(data []byte) ([]testItem, []byte, error) { return decodeTestItems(nil, data) })
}

// appendTestItems encodes a batch as the real ones are: its count, then
// each item.
func appendTestItems(buf []byte, items []testItem) []byte {
	buf = wire.AppendUvarint(buf, uint64(len(items)))
	for _, it := range items {
		buf = wire.AppendVarint(it.ID.AppendTo(buf), int64(it.V))
	}
	return buf
}

// decodeTestItems is a testItem engine's Decode hook.
func decodeTestItems(into []testItem, data []byte) ([]testItem, []byte, error) {
	d := wire.Decoder{Data: data}
	out := into[:0]
	for n := wire.Read(&d, wire.SliceLen); n > 0 && d.Err == nil; n-- {
		out = append(out, testItem{ID: wire.Read(&d, types.DecodeMessageID), V: int(wire.Read(&d, wire.Varint))})
	}
	return out, d.Data, d.Err
}

// enc is a decided value: items' tagged encoding.
func enc(items ...testItem) Value { return wire.AppendTagged(nil, items) }

func mid(seq uint64) types.MessageID { return types.MessageID{Origin: 0, Seq: seq} }

// fakeEnv runs a real Proc without a runtime: sends and timers go nowhere
// and the clock stands still. Enough for white-box Batcher tests that drive
// decisions by hand.
type fakeEnv struct{ col metrics.Collector }

func (*fakeEnv) Now() time.Duration                                                    { return 0 }
func (*fakeEnv) Micros(types.ProcessID) uint64                                         { return 0 }
func (*fakeEnv) Transmit(types.ProcessID, []types.ProcessID, string, node.Slot, int64) {}
func (*fakeEnv) Later(*node.Proc, time.Duration, func())                               {}
func (e *fakeEnv) Recorder() *metrics.Collector                                        { return &e.col }
func (*fakeEnv) Tracef(string, ...any)                                                 {}
func (*fakeEnv) TraceOn() bool                                                         { return false }

// batchRig is one Batcher over a scripted queue of proposable items.
type batchRig struct {
	env     *fakeEnv
	b       *Batcher[testItem]
	queue   []testItem
	applied [][]testItem
	applyIn []uint64
	decided []uint64
	fills   int               // Fill calls
	onApply func(inst uint64) // runs inside OnApply, after the rig's bookkeeping
}

func newBatchRig(maxBatch, pipeline int) *batchRig {
	r := &batchRig{env: &fakeEnv{}}
	r.b = NewBatcher(BatcherConfig[testItem]{
		API:      node.NewProc(0, types.NewTopology(1, 3), r.env),
		Detector: fd.NewOracle(types.NewTopology(1, 3)),
		MaxBatch: maxBatch,
		Pipeline: pipeline,
		Decode:   decodeTestItems,
		Fill: func(exclude func(types.MessageID) bool, limit int, full bool) []testItem {
			r.fills++
			if full { // count first, as A1 and A2 do: a short batch is never built
				n := 0
				for _, it := range r.queue {
					if !exclude(it.ID) {
						n++
					}
				}
				if n < limit {
					return nil
				}
			}
			var out []testItem
			for _, it := range r.queue {
				if exclude(it.ID) {
					continue
				}
				out = append(out, it)
				if limit > 0 && len(out) == limit {
					break
				}
			}
			return out
		},
		OnDecide: func(inst uint64, batch []testItem) { r.decided = append(r.decided, inst) },
		OnApply: func(inst uint64, batch []testItem) {
			r.applyIn = append(r.applyIn, inst)
			r.applied = append(r.applied, batch)
			// Applied items leave the queue (the client's bookkeeping).
			keep := r.queue[:0]
			for _, it := range r.queue {
				inBatch := false
				for _, d := range batch {
					if d.ID == it.ID {
						inBatch = true
					}
				}
				if !inBatch {
					keep = append(keep, it)
				}
			}
			r.queue = keep
			if r.onApply != nil {
				r.onApply(inst)
			}
		},
	})
	return r
}

// proposal decodes the batch this process proposed to instance k.
func (r *batchRig) proposal(k uint64) []testItem {
	batch, _ := wire.DecodeTagged[[]testItem](r.b.proposed[k])
	return batch
}

func (r *batchRig) enqueue(n int) {
	for i := 0; i < n; i++ {
		r.queue = append(r.queue, testItem{ID: mid(uint64(len(r.queue) + 1))})
	}
}

// TestBatcherWindowAndCap: with Pipeline=2 and MaxBatch=2, five items fill
// exactly two instances of two items — the second is full, so it opens
// beside the undecided first — and the fifth waits for the window. Once
// instance 1 applies the window has room, but the fifth alone is a partial
// batch and instance 2 is undecided: it enters instance 3 when 2 decides.
func TestBatcherWindowAndCap(t *testing.T) {
	r := newBatchRig(2, 2)
	r.enqueue(5)
	r.b.Pump()
	if got := r.b.NextInstance(); got != 3 {
		t.Fatalf("NextInstance = %d, want 3 (two instances proposed)", got)
	}
	for i := 1; i <= 4; i++ {
		if !r.b.InFlight(mid(uint64(i))) {
			t.Errorf("item %d should be in flight", i)
		}
	}
	if r.b.InFlight(mid(5)) {
		t.Error("item 5 should wait for the window")
	}
	r.b.decided(1, enc(testItem{ID: mid(1)}, testItem{ID: mid(2)}))
	if got := r.b.NextInstance(); got != 3 || r.b.InFlight(mid(5)) {
		t.Fatalf("NextInstance = %d after instance 1 applied, want 3: item 5 is a partial batch and instance 2 is undecided", got)
	}
	r.b.decided(2, enc(testItem{ID: mid(3)}, testItem{ID: mid(4)}))
	if got := r.b.NextInstance(); got != 4 || !r.b.InFlight(mid(5)) {
		t.Fatalf("NextInstance = %d after instance 2 decided, want 4 with item 5 in flight", got)
	}
}

// TestBatcherPartialBatchWaitsForOwnDecision: arrivals while an own instance
// is undecided make partial batches, which wait; that instance's decision
// proposes them together in one instance.
func TestBatcherPartialBatchWaitsForOwnDecision(t *testing.T) {
	r := newBatchRig(4, 4)
	for range 3 {
		r.enqueue(1)
		r.b.Pump()
	}
	if got := r.b.NextInstance(); got != 2 || r.b.InFlight(mid(2)) || r.b.InFlight(mid(3)) {
		t.Fatalf("NextInstance = %d, want 2 with items 2 and 3 waiting", got)
	}
	r.b.decided(1, enc(testItem{ID: mid(1)}))
	if got, batch := r.b.NextInstance(), r.proposal(2); got != 3 || len(batch) != 2 || batch[0].ID != mid(2) || batch[1].ID != mid(3) {
		t.Fatalf("after instance 1 decided: NextInstance = %d, instance 2 holds %v; want 3 and items 2 and 3", got, batch)
	}
}

// TestBatcherFullBatchOpensBesideUndecided: a full batch still takes the next
// instance in the window while an own instance is undecided — pipelining is
// kept where it pays — and a partial one behind it waits.
func TestBatcherFullBatchOpensBesideUndecided(t *testing.T) {
	r := newBatchRig(2, 4)
	r.enqueue(1)
	r.b.Pump() // instance 1: item 1
	r.enqueue(2)
	r.b.Pump() // full: instance 2, items 2 and 3
	r.enqueue(1)
	r.b.Pump() // partial: item 4 waits
	if got := r.b.NextInstance(); got != 3 || !r.b.InFlight(mid(3)) || r.b.InFlight(mid(4)) {
		t.Fatalf("NextInstance = %d, want 3 with items 2 and 3 in flight and item 4 waiting", got)
	}
	r.enqueue(1)
	r.b.Pump() // full again: instance 3, items 4 and 5
	if got := r.b.NextInstance(); got != 4 || !r.b.InFlight(mid(5)) {
		t.Fatalf("NextInstance = %d, want 4 with items 4 and 5 in flight", got)
	}
}

// TestBatcherUnboundedBatchNeverOpensASecond: with MaxBatch 0 every batch is
// partial, so no second instance opens while one is undecided, and Fill is
// not even asked; the decision proposes everything that arrived meanwhile.
func TestBatcherUnboundedBatchNeverOpensASecond(t *testing.T) {
	r := newBatchRig(0, 4)
	r.enqueue(1)
	r.b.Pump()
	fills := r.fills
	r.enqueue(100)
	r.b.Pump()
	if got := r.b.NextInstance(); got != 2 || r.fills != fills {
		t.Fatalf("NextInstance = %d with %d Fill calls while instance 1 was undecided, want 2 and none", got, r.fills-fills)
	}
	r.b.decided(1, enc(testItem{ID: mid(1)}))
	if got := r.b.NextInstance(); got != 3 || len(r.proposal(2)) != 100 {
		t.Fatalf("NextInstance = %d with %d items in instance 2, want 3 and 100", got, len(r.proposal(2)))
	}
}

// TestBatcherOutOfOrderDecisionDefers: instance 2 decided while 1 is not
// leaves an own instance undecided, so a partial batch still waits. Once 1 is
// decided none is, and the batch goes out from inside the apply cascade — 2 is
// decided there but not yet applied, and that does not hold it back.
func TestBatcherOutOfOrderDecisionDefers(t *testing.T) {
	r := newBatchRig(2, 4)
	r.enqueue(4)
	r.b.Pump() // instances 1 and 2, both full
	r.enqueue(1)
	r.b.Pump()
	r.b.decided(2, enc(testItem{ID: mid(3)}, testItem{ID: mid(4)}))
	if got := r.b.NextInstance(); got != 3 || r.b.InFlight(mid(5)) {
		t.Fatalf("NextInstance = %d, want 3: instance 1 is undecided, so item 5 waits", got)
	}
	inCascade := false
	r.onApply = func(inst uint64) {
		if inst == 1 {
			r.b.Pump()
			inCascade = r.b.InFlight(mid(5))
		}
	}
	r.b.decided(1, enc(testItem{ID: mid(1)}, testItem{ID: mid(2)}))
	if !inCascade {
		t.Error("a Pump from instance 1's OnApply held item 5 back: instance 2 is decided, if not yet applied")
	}
	if got := r.b.NextInstance(); got != 4 {
		t.Fatalf("NextInstance = %d, want 4", got)
	}
}

// TestBatcherKeepaliveRoundsLoseNone: a gate that admits empty instances up to
// a barrier, as A2's keepalive does, gets every one of them, one per decision.
// While an own instance is undecided an empty batch is partial, so the gate —
// which at A2 arms the pace timer when it refuses — is not asked about it.
func TestBatcherKeepaliveRoundsLoseNone(t *testing.T) {
	r := newBatchRig(2, 4)
	var asked []uint64
	r.b.gate = func(inst uint64, batch []testItem) bool {
		asked = append(asked, inst)
		return inst <= 3 || len(batch) > 0
	}
	r.b.Pump()
	for k := uint64(1); k <= 3; k++ {
		if got := r.b.NextInstance(); got != k+1 {
			t.Fatalf("NextInstance = %d before instance %d decided, want %d", got, k, k+1)
		}
		r.b.decided(k, enc())
	}
	if got := r.b.NextInstance(); got != 4 || fmt.Sprint(asked) != "[1 2 3 4]" {
		t.Fatalf("NextInstance = %d, gate asked about %v; want 4 and [1 2 3 4]", got, asked)
	}
}

// TestBatcherOutOfOrderApply: decisions arriving as 3,1,2 must fire
// OnDecide in that order but OnApply strictly as 1,2,3.
func TestBatcherOutOfOrderApply(t *testing.T) {
	r := newBatchRig(1, 3)
	r.enqueue(3)
	r.b.Pump()
	if got := r.b.NextInstance(); got != 4 {
		t.Fatalf("NextInstance = %d, want 4 (three in flight)", got)
	}
	r.b.decided(3, enc(testItem{ID: mid(3)}))
	r.b.decided(1, enc(testItem{ID: mid(1)}))
	r.b.decided(2, enc(testItem{ID: mid(2)}))
	wantDec := []uint64{3, 1, 2}
	wantApp := []uint64{1, 2, 3}
	for i, w := range wantDec {
		if r.decided[i] != w {
			t.Fatalf("OnDecide order = %v, want %v", r.decided, wantDec)
		}
	}
	for i, w := range wantApp {
		if r.applyIn[i] != w {
			t.Fatalf("OnApply order = %v, want %v", r.applyIn, wantApp)
		}
	}
	if len(r.applied[0]) != 1 || r.applied[0][0].ID != mid(1) {
		t.Fatalf("instance 1 applied %v", r.applied[0])
	}
}

// TestBatcherDroppedItemsReproposed: when a rival proposal wins an
// instance, the loser's items leave in-flight at apply time and ride the
// next instance.
func TestBatcherDroppedItemsReproposed(t *testing.T) {
	r := newBatchRig(0, 1)
	r.enqueue(2)
	r.b.Pump() // proposes both items in instance 1
	if got := r.b.NextInstance(); got != 2 {
		t.Fatalf("NextInstance = %d, want 2", got)
	}
	rival := types.MessageID{Origin: 2, Seq: 9}
	r.b.decided(1, enc(testItem{ID: rival})) // rival won instance 1
	// Applying instance 1 released the dropped items and the engine's own
	// re-pump immediately proposed them again in instance 2.
	if got := r.b.NextInstance(); got != 3 {
		t.Fatalf("NextInstance = %d, want 3 (re-proposal happened)", got)
	}
	if !r.b.InFlight(mid(1)) || !r.b.InFlight(mid(2)) {
		t.Fatal("dropped items must be re-proposed")
	}
	// Winning instance 2 releases them for good.
	r.b.decided(2, enc(testItem{ID: mid(1)}, testItem{ID: mid(2)}))
	if r.b.InFlight(mid(1)) || r.b.InFlight(mid(2)) {
		t.Fatal("items stuck in flight after their instance applied")
	}
}

// TestBatcherNextSyncsPastAppliedInstances: a process that proposed
// nothing while rivals drove instances forward must not propose an
// already-decided instance (which would strand its items in flight).
func TestBatcherNextSyncsPastAppliedInstances(t *testing.T) {
	r := newBatchRig(0, 1)
	r.b.decided(1, enc(testItem{ID: types.MessageID{Origin: 1, Seq: 1}}))
	r.b.decided(2, enc(testItem{ID: types.MessageID{Origin: 1, Seq: 2}}))
	if got := r.b.AppliedInstances(); got != 2 {
		t.Fatalf("AppliedInstances = %d, want 2", got)
	}
	if got := r.b.NextInstance(); got != 3 {
		t.Fatalf("NextInstance = %d, want 3 (synced past applied)", got)
	}
	r.enqueue(1)
	r.b.Pump()
	if !r.b.InFlight(mid(1)) {
		t.Fatal("fresh item should be in flight in instance 3")
	}
	// Deciding instance 3 releases it.
	r.b.decided(3, enc(testItem{ID: mid(1)}))
	if r.b.InFlight(mid(1)) {
		t.Fatal("item stuck in flight after its instance applied")
	}
}

// TestBatcherEmptyBatchesNeedAGate: with a nil Gate the engine never
// proposes an empty batch; with a permissive gate it does (A2's keepalive
// rounds rely on this).
func TestBatcherEmptyBatchesNeedAGate(t *testing.T) {
	r := newBatchRig(0, 1)
	r.b.Pump()
	if got := r.b.NextInstance(); got != 1 {
		t.Fatalf("NextInstance = %d, want 1 (nothing to propose)", got)
	}

	gated := &batchRig{env: &fakeEnv{}}
	gated.b = NewBatcher(BatcherConfig[testItem]{
		API:      node.NewProc(0, types.NewTopology(1, 3), gated.env),
		Detector: fd.NewOracle(types.NewTopology(1, 3)),
		Fill:     func(func(types.MessageID) bool, int, bool) []testItem { return nil },
		Decode:   decodeTestItems,
		Gate:     func(inst uint64, batch []testItem) bool { return inst <= 2 },
		OnApply:  func(uint64, []testItem) {},
	})
	gated.b.Pump()
	if got := gated.b.NextInstance(); got != 2 {
		t.Fatalf("NextInstance = %d, want 2 (one empty instance gated in)", got)
	}
}

// TestBatcherRecordsBatchSizes: every decided instance reports its batch
// size to the metrics API.
func TestBatcherRecordsBatchSizes(t *testing.T) {
	r := newBatchRig(0, 2)
	r.enqueue(3)
	r.b.Pump()
	r.b.decided(1, enc(testItem{ID: mid(1)}, testItem{ID: mid(2)}, testItem{ID: mid(3)}))
	r.b.decided(2, enc())
	if st := r.env.col.Snapshot(); st.BatchesDecided != 2 || st.BatchedMessages != 3 || st.MaxBatchSize != 3 {
		t.Fatalf("recorded %d batches of %d messages, largest %d; want 2, 3 and 3",
			st.BatchesDecided, st.BatchedMessages, st.MaxBatchSize)
	}
}
