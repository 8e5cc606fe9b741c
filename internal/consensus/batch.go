// Batched, pipelined ordering engine layered on the multi-instance
// consensus of this package.
//
// Algorithms A1 and A2 both follow the same loop: accumulate orderable
// items, agree on a batch of them per consensus instance, and consume
// decisions in instance order. The seed implementations each hand-rolled
// that loop with one instance in flight at a time, so a WAN round trip
// gated every instance and throughput was bounded by one batch per
// inter-group delay. Batcher factors the loop out and generalizes it along
// the two axes production consensus layers use to amortize agreement cost:
//
//   - MaxBatch: how many items one instance may order (batching);
//   - Pipeline: how many instances may be in flight concurrently
//     (pipelining). Only a full batch (MaxBatch items) opens an instance
//     while one this process proposed is undecided; a partial batch waits
//     for that decision and goes out with whatever arrived meanwhile, so
//     an instance's fixed cost is not paid per arrival.
//
// Instances are numbered densely (1, 2, 3, …) per engine. Because
// pipelined decisions can arrive out of instance order, the engine buffers
// them and invokes OnApply strictly in instance order — the order every
// group member observes, which is what keeps replicated state (group
// clocks, delivery rounds) deterministic. OnDecide, by contrast, fires the
// moment a decision is learned, possibly out of order, for work that is
// safe to do early (A2 ships its bundle immediately). Items proposed to an
// undecided instance are excluded from later proposals; an item dropped
// from a decision (a rival proposal won the instance) becomes proposable
// again as soon as that instance applies.
//
// Quiescence is preserved: the engine proposes nothing on its own. Pump
// only proposes what Fill returns and what Gate admits, and the underlying
// consensus arms its retry timer only while proposals are undecided.
package consensus

import (
	"cmp"
	"fmt"
	"time"

	"wanamcast/internal/fd"
	"wanamcast/internal/node"
	"wanamcast/internal/storage"
	"wanamcast/internal/types"
)

// Item is one element of a batched proposal. Items travel inside consensus
// values, so they must be self-contained; the identity is used to keep an
// item out of later proposals while an earlier instance holding it is
// still in flight.
type Item interface {
	ItemID() types.MessageID
}

// BatcherConfig configures a Batcher for one process.
type BatcherConfig[T Item] struct {
	// API and Detector wire the underlying consensus engine; both are
	// required.
	API      *node.Proc
	Detector fd.Detector
	// RetryInterval, ProtoLabel, and Log are passed to the consensus
	// engine (Log makes the acceptor durable; see consensus.Config.Log).
	RetryInterval time.Duration
	ProtoLabel    string
	Log           *storage.Log

	// MaxBatch caps the number of items per proposal. Zero or negative
	// means unbounded — the paper's propose-everything rule.
	MaxBatch int
	// Pipeline is the number of instances that may be open beyond the
	// window base. Zero or negative means 1: the strictly sequential
	// engine both seed algorithms used. Above 1, the window's further
	// instances take full batches only: a partial one waits until no
	// instance this process proposed is undecided.
	Pipeline int

	// Fill returns the next batch of proposable items in a deterministic
	// order, skipping items for which exclude returns true and returning
	// at most limit items when limit > 0. With full set (limit > 0 then),
	// it returns nil unless it has limit items, and should allocate
	// nothing to say so: the engine asks that on every event while an own
	// instance is undecided. Required.
	Fill func(exclude func(types.MessageID) bool, limit int, full bool) []T
	// Gate, when non-nil, decides whether instance inst may be proposed
	// with the given batch; returning false stops the propose loop. A nil
	// Gate admits only non-empty batches. A2 uses it to run empty
	// keepalive rounds up to its Barrier.
	Gate func(inst uint64, batch []T) bool
	// Base, when non-nil, returns the propose window's base: instances up
	// to Base()+Pipeline−1 may be open. A nil Base uses the number of
	// applied instances, so Pipeline bounds decided-but-unapplied depth.
	// A2 anchors the window to its delivery round instead, which also
	// waits for remote bundles.
	Base func() uint64
	// OnDecide, when non-nil, fires as soon as an instance's decision is
	// learned — possibly out of instance order.
	OnDecide func(inst uint64, batch []T)
	// OnApply fires exactly once per instance, in dense instance order.
	// Required: it is where clients advance their replicated state.
	OnApply func(inst uint64, batch []T)
}

// Batcher is the per-process batched, pipelined ordering engine. It owns a
// Consensus instance; register Protocol() on the host process alongside
// the client protocol.
type Batcher[T Item] struct {
	cons     *Consensus
	api      *node.Proc
	maxBatch int
	pipeline uint64

	fill     func(exclude func(types.MessageID) bool, limit int, full bool) []T
	exclude  func(types.MessageID) bool // b.InFlight, bound once: Pump runs per event
	gate     func(inst uint64, batch []T) bool
	base     func() uint64
	onDecide func(inst uint64, batch []T)
	onApply  func(inst uint64, batch []T)

	next      uint64                     // next instance to propose
	applyNext uint64                     // next instance to apply, in dense order
	buffered  map[uint64][]T             // decided but not yet applied (out-of-order)
	inFlight  map[types.MessageID]uint64 // item → undecided/unapplied instance
	proposed  map[uint64][]T             // the reverse: instance → the batch proposed to it

	healEvery time.Duration // gap-healing re-check period
	healing   bool          // gap-healing timer armed
	healFn    func()        // b.heal, bound at the first gap
}

// NewBatcher builds a batched ordering engine. It panics on missing API,
// Detector, Fill, or OnApply: those are wiring bugs.
func NewBatcher[T Item](cfg BatcherConfig[T]) *Batcher[T] {
	if cfg.API == nil || cfg.Detector == nil {
		panic("consensus: BatcherConfig.API and Detector are required")
	}
	if cfg.Fill == nil || cfg.OnApply == nil {
		panic("consensus: BatcherConfig.Fill and OnApply are required")
	}
	b := &Batcher[T]{
		api:       cfg.API,
		maxBatch:  max(cfg.MaxBatch, 0),
		pipeline:  uint64(max(cfg.Pipeline, 1)),
		fill:      cfg.Fill,
		gate:      cfg.Gate,
		base:      cfg.Base,
		onDecide:  cfg.OnDecide,
		onApply:   cfg.OnApply,
		next:      1,
		applyNext: 1,
		buffered:  make(map[uint64][]T),
		inFlight:  make(map[types.MessageID]uint64),
		proposed:  make(map[uint64][]T),
		healEvery: cmp.Or(max(cfg.RetryInterval, 0), DefaultRetry),
	}
	b.exclude = b.InFlight
	if b.base == nil {
		b.base = func() uint64 { return b.applyNext }
	}
	b.cons = New(Config{
		API:           cfg.API,
		Detector:      cfg.Detector,
		OnDecide:      b.decided,
		RetryInterval: cfg.RetryInterval,
		ProtoLabel:    cfg.ProtoLabel,
		Log:           cfg.Log,
	})
	return b
}

// Protocol returns the engine's consensus protocol for registration on the
// host process.
func (b *Batcher[T]) Protocol() node.Protocol { return b.cons }

// NextInstance returns the next instance this process would propose (for tests).
func (b *Batcher[T]) NextInstance() uint64 { return b.next }

// AppliedInstances returns how many instances have been applied.
func (b *Batcher[T]) AppliedInstances() uint64 { return b.applyNext - 1 }

// Decided returns the batch decided for inst, if this process has learned it.
func (b *Batcher[T]) Decided(inst uint64) ([]T, bool) {
	v, ok := b.cons.Decided(inst)
	batch, _ := v.([]T)
	return batch, ok
}

// InFlight reports whether id is held by a proposed instance that has not
// yet applied.
func (b *Batcher[T]) InFlight(id types.MessageID) bool {
	_, ok := b.inFlight[id]
	return ok
}

// Pump proposes as many instances as the window, the gate, and the fill
// allow; while an own instance is undecided, only full batches. Clients
// call it whenever proposable state may have changed; it is idempotent and
// safe to call reentrantly from OnApply/OnDecide. A deferred partial batch
// goes out from the Pump that decided runs.
func (b *Batcher[T]) Pump() {
	for b.next < b.base()+b.pipeline {
		full := b.undecided()
		if full && b.maxBatch == 0 {
			return // an unbounded batch is never full
		}
		batch := b.fill(b.exclude, b.maxBatch, full)
		if full && len(batch) < b.maxBatch || (b.gate == nil && len(batch) == 0) ||
			(b.gate != nil && !b.gate(b.next, batch)) {
			return
		}
		for _, it := range batch {
			b.inFlight[it.ItemID()] = b.next
		}
		if len(batch) > 0 {
			b.proposed[b.next] = batch
		}
		b.cons.Propose(b.next, batch)
		b.next++
	}
}

// undecided reports whether an instance this process proposed — every one
// in [applyNext, next) — still awaits its decision.
func (b *Batcher[T]) undecided() bool {
	for k := b.applyNext; k < b.next; k++ {
		if _, ok := b.buffered[k]; !ok {
			return true
		}
	}
	return false
}

// decided is the consensus OnDecide hook: it records the batch, fires the
// early hook, and drains the apply queue in dense instance order.
func (b *Batcher[T]) decided(inst uint64, v Value) {
	batch, ok := v.([]T)
	if !ok && v != nil {
		panic(fmt.Sprintf("consensus: batcher decided unexpected value %T", v))
	}
	b.api.Metrics().OnBatchDecided(len(batch))
	if b.onDecide != nil {
		b.onDecide(inst, batch)
	}
	b.buffered[inst] = batch
	for {
		cur, ok := b.buffered[b.applyNext]
		if !ok {
			break
		}
		b.applyOne(b.applyNext, cur)
	}
	b.Pump()
	b.checkGap()
}

// applyOne consumes the decision of the apply horizon's instance.
func (b *Batcher[T]) applyOne(k uint64, cur []T) {
	delete(b.buffered, k)
	b.applyNext++
	// Never propose at or below an applied instance: a process whose
	// fill stayed empty while rivals drove instances forward would
	// otherwise propose an already-decided instance — a local no-op
	// that would strand its items in flight forever.
	if b.next <= k {
		b.next = k + 1
	}
	// Items of this instance are no longer in flight. Items the
	// decision dropped become proposable again; items it kept are the
	// client's to track from OnApply onward.
	b.release(k)
	b.onApply(k, cur)
}

// release takes the items this process proposed to instance k out of flight.
func (b *Batcher[T]) release(k uint64) {
	for _, it := range b.proposed[k] {
		if id := it.ItemID(); b.inFlight[id] == k {
			delete(b.inFlight, id)
		}
	}
	delete(b.proposed, k)
}
