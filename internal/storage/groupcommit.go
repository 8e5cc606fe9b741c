// Group commit: the cross-lane fsync batcher behind the parallel
// ordering runtime.
//
// With per-group lanes, every lane hits its own durability barriers
// (Promise and Accept records must be fsynced before their replies).
// Issuing those fsyncs inline would serialise the lanes on the disk;
// instead each Log flushes its appends on its own lane, parks the
// barrier's continuation in a lane-local FIFO, and counts it in the log's
// staged counter. ONE syncer goroutine per process reads every staged
// counter, issues one fsync per distinct dirty store for the whole window,
// publishes each log's done counter, and posts the log's fire hook to its
// owning lane, which runs the parked continuations up to done.
//
// Batching is natural, not timed: a window is simply everything staged
// while the previous fsync ran. An idle system pays no added latency (a
// lone barrier syncs immediately); a busy one amortises — eight lanes'
// promises in one window cost one fsync, not eight. The fsync-before-
// reply invariant is preserved by construction: the lane publishes staged
// after the flush, and a continuation runs only once done covers it, which
// the syncer publishes after a Sync call that started after it read staged.
// Nothing on this path allocates: the counters are atomics, the FIFO and
// the syncer's store list reuse their arrays, and the fire hook is bound
// once per log.
package storage

import (
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"wanamcast/internal/ring"
	"wanamcast/internal/trace"
	"wanamcast/internal/types"
)

// GroupCommitStats counts the syncer's work: Barriers staged, fsync
// Windows executed, and Syncs issued (one per distinct dirty store per
// window; ≤ Windows × stores, and Barriers/Windows is the batching
// factor).
type GroupCommitStats struct {
	Barriers uint64
	Windows  uint64
	Syncs    uint64
}

// GroupCommit is one process's cross-lane fsync batcher. Construct with
// NewGroupCommit, attach logs via Log.AttachGroupCommit, and Close after
// the lanes have stopped (and before their stores close: Close waits for
// the syncer, whose Sync calls must not race a store's Close).
type GroupCommit struct {
	mu     sync.Mutex
	queues []*gcQueue

	wake chan struct{}
	done chan struct{}
	wg   sync.WaitGroup
	once sync.Once

	dirty []Store // syncer-local: the window's stores, each once

	barriers atomic.Uint64
	windows  atomic.Uint64
	syncs    atomic.Uint64

	tracer *trace.Tracer // nil = fsync sub-spans off
}

// SetTracer attaches the lifecycle tracer: every group-commit window then
// records a StageFsync sub-span carrying the window's fsync wall time, so
// consensus barrier waits can be attributed to the disk. Call before the
// producing lanes start.
func (g *GroupCommit) SetTracer(t *trace.Tracer) { g.tracer = t }

// NewGroupCommit starts a syncer and returns its handle.
func NewGroupCommit() *GroupCommit {
	g := &GroupCommit{
		wake: make(chan struct{}, 1),
		done: make(chan struct{}),
	}
	g.wg.Add(1)
	go g.run()
	return g
}

// gcQueue is one log's barrier queue. Its owning lane stages (pushes a
// continuation, then bumps staged) and fires (runs continuations while
// ran < done); the syncer only reads staged and writes done. A durability
// barrier is never dropped, and staging never blocks the lane.
type gcQueue struct {
	g     *GroupCommit
	store Store
	post  func(func())
	fire  func() // q.runDone, bound once: what the syncer posts

	thens ring.FIFO[func()] // lane-local: parked continuations, oldest first
	ran   uint64            // lane-local: continuations run so far

	staged atomic.Uint64 // barriers staged, published after their flush
	done   atomic.Uint64 // barriers covered by a completed Sync
	seen   uint64        // syncer-local: staged as this window read it
}

// register adds a barrier queue for store; its fire hook is handed back
// through post. Called by Log.AttachGroupCommit.
func (g *GroupCommit) register(store Store, post func(func())) *gcQueue {
	q := &gcQueue{g: g, store: store, post: post}
	q.fire = q.runDone
	g.mu.Lock()
	g.queues = append(g.queues, q)
	g.mu.Unlock()
	return q
}

// stage parks then until the next covering fsync. The caller must have
// flushed the records the barrier guards.
func (q *gcQueue) stage(then func()) {
	q.thens.Push(then)
	q.staged.Add(1)
	q.g.barriers.Add(1)
	select {
	case q.g.wake <- struct{}{}:
	default: // a wake is already pending
	}
}

// runDone is the fire hook, on the owning lane: the store's lane-side
// maintenance, then every continuation a completed Sync covers, in stage
// order. A continuation that stages again waits for a later window.
func (q *gcQueue) runDone() {
	// Rotation (and any other file juggling) stays on the owning lane,
	// where it cannot race the lane's appends.
	if err := q.store.Maintain(); err != nil {
		panic(fmt.Sprintf("storage: post-sync maintenance failed: %v", err))
	}
	for done := q.done.Load(); q.ran < done; q.ran++ {
		if fn := q.thens.Pop(); fn != nil {
			fn()
		}
	}
}

func (g *GroupCommit) run() {
	defer g.wg.Done()
	for {
		select {
		case <-g.wake:
		case <-g.done:
			g.round() // final sweep: no staged barrier may be lost
			return
		}
		for g.round() {
			// Keep sweeping until a round finds nothing: stages that raced
			// the previous round's fsync are the next window.
		}
	}
}

// round is one group-commit window: read every queue's staged count, fsync
// each distinct dirty store once, then publish done and post the fire hook
// of every queue the window covered. It reports whether any barrier was
// found.
func (g *GroupCommit) round() bool {
	g.mu.Lock()
	queues := g.queues
	g.mu.Unlock()
	g.dirty = g.dirty[:0]
	for _, q := range queues {
		if q.seen = q.staged.Load(); q.seen > q.done.Load() && !slices.Contains(g.dirty, q.store) {
			g.dirty = append(g.dirty, q.store)
		}
	}
	if len(g.dirty) == 0 {
		return false
	}
	g.windows.Add(1)
	traced := g.tracer.Enabled()
	var syncStart time.Time
	if traced {
		syncStart = time.Now()
	}
	for _, s := range g.dirty {
		if err := s.Sync(); err != nil {
			panic(fmt.Sprintf("storage: group-commit fsync failed, cannot continue without durability: %v", err))
		}
		g.syncs.Add(1)
	}
	if traced {
		g.tracer.Record(0, trace.StageFsync, types.MessageID{}, 0, time.Since(syncStart).Nanoseconds())
	}
	for _, q := range queues {
		if q.seen > q.done.Load() {
			q.done.Store(q.seen)
			q.post(q.fire)
		}
	}
	return true
}

// Stats returns the syncer's counters so far.
func (g *GroupCommit) Stats() GroupCommitStats {
	return GroupCommitStats{
		Barriers: g.barriers.Load(),
		Windows:  g.windows.Load(),
		Syncs:    g.syncs.Load(),
	}
}

// Close performs a final sweep and stops the syncer. Idempotent. Call
// after the producing lanes have stopped and before the stores close.
func (g *GroupCommit) Close() {
	g.once.Do(func() { close(g.done) })
	g.wg.Wait()
}
