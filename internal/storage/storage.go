// Package storage is the durability subsystem: a segmented, CRC-framed,
// append-only write-ahead log plus atomic-rename snapshot files, shared by
// every durable layer of a process (consensus acceptors, the A1/A2
// ordering engines, and the service layer's replicated state).
//
// One process owns one Store. Layers append Records tagged with their
// protocol label and pass the reply a record guards to Log.CommitThen, the
// one durability barrier (an acceptor must not ack a Promise or Accept it
// could forget). The barrier is Flush, then Sync, then Maintain: inline on
// the calling lane, or with Sync left to the group-commit syncer when the
// log is attached to one. Sync is the one place a store fsyncs its log,
// unless the store was opened with NoFsync.
// Because consensus values are whole ordering batches, the steady-state
// cost is one fsync per decided batch per acceptor, not one per message —
// and the encode path reuses the internal/wire zero-allocation codecs, so
// appending a record allocates nothing.
//
// Snapshots bound the log: SaveSnapshot atomically replaces the snapshot
// file (write temp, fsync, rename) and records the WAL index it covers;
// segments entirely below that index are deleted. Recovery is
// Load (snapshot blob + replay start index) followed by Replay, which
// tolerates a torn or corrupted tail by stopping at the first bad frame —
// everything before it is intact by CRC.
//
// Mem is the in-memory implementation for tests and for in-process
// restarts without a disk; a nil *Log is the no-op used when durability is
// off.
package storage

import (
	"fmt"
	"sync/atomic"

	"wanamcast/internal/wire"
)

// Store is one process's durable state: an appendable record log and a
// replaceable snapshot. The durability barrier is Flush, Sync, Maintain,
// in that order; with group commit many lanes' barriers share one Sync
// (see GroupCommit). Sync is the one method called from the group-commit
// syncer goroutine, concurrently with lane-side appends; every other
// method runs on the store's owning lane.
type Store interface {
	// Append adds one record to the log. It is buffered: the record is
	// durable only after the next barrier's Sync.
	Append(rec Record) error
	// Flush pushes buffered appends to the OS. No durability yet.
	Flush() error
	// Sync makes everything previously flushed durable (fsync unless the
	// store runs fsync-off). Safe to call concurrently with Append/Flush.
	Sync() error
	// Maintain runs post-sync maintenance (segment rotation) that must
	// stay confined to the owning lane.
	Maintain() error
	// Fsyncs returns how many fsyncs the store has issued so far — the
	// observable behind the fsyncs-per-decided-batch metric.
	Fsyncs() uint64
	// SaveSnapshot atomically replaces the snapshot with data, marking it
	// as covering every record appended so far, and prunes log segments
	// the snapshot makes obsolete.
	SaveSnapshot(data []byte) error
	// Load returns the newest intact snapshot (nil if none) and the log
	// index replay should start from.
	Load() (snap []byte, replayFrom uint64, err error)
	// Replay invokes fn for every intact record with index >= from, in
	// append order. A torn or corrupt tail ends the replay cleanly.
	Replay(from uint64, fn func(rec Record) error) error
	// Close flushes and releases the store.
	Close() error
}

// Log is the nil-safe append handle layers hold. A nil *Log discards
// everything, so protocols need no durability branches on their hot
// paths. Append and CommitThen panic on store errors: a process that
// cannot persist the state it is about to promise must fail-stop (§2.1's
// crash-stop model), not carry on with amnesia.
type Log struct {
	store Store
	// Group-commit attachment (nil = inline barriers): CommitThen stages
	// its continuation here instead of syncing on the calling lane.
	q *gcQueue
}

// NewLog wraps store; a nil store yields a nil (discard-everything) Log.
func NewLog(store Store) *Log {
	if store == nil {
		return nil
	}
	return &Log{store: store}
}

// Append buffers one record.
func (l *Log) Append(rec Record) {
	if l == nil {
		return
	}
	if err := l.store.Append(rec); err != nil {
		panic(fmt.Sprintf("storage: append failed, cannot continue without durability: %v", err))
	}
}

// Commit is CommitThen(nil): the barrier with nothing to run after it,
// which the storage layer's benchmark driver times.
func (l *Log) Commit() { l.CommitThen(nil) }

// AttachGroupCommit routes this log's barriers through gc: CommitThen
// flushes on the calling lane and parks its continuation until the
// syncer's next Sync of this store completes, and one Sync covers every
// barrier staged across all lanes in the window. post must run its
// argument on the store's owning lane, as its own event (e.g.
// tcp.Runtime.Async) — the parked continuations live in a lane-local
// queue and touch loop-confined protocol state. The syncer posts one
// function, bound once, per window.
//
// A nil log or a nil gc leave the log's barriers inline.
func (l *Log) AttachGroupCommit(gc *GroupCommit, post func(func())) {
	if l == nil || gc == nil {
		return
	}
	l.q = gc.register(l.store, post)
}

// CommitThen is the durability barrier: then runs strictly after every
// record appended so far is durable. Without a group-commit attachment the
// barrier runs inline — Flush, Sync, Maintain — and then runs before
// CommitThen returns. With one, the appends are flushed on the calling
// lane and then is parked until the syncer's covering Sync completes; it
// then runs on the owning lane via the attachment's post hook, after
// every continuation staged on this log before it. Either way the caller
// must not touch loop-confined state between CommitThen and then running
// — the reply a barrier guards belongs inside then.
func (l *Log) CommitThen(then func()) {
	if l != nil && l.q != nil {
		if err := l.store.Flush(); err != nil {
			panic(fmt.Sprintf("storage: flush failed, cannot continue without durability: %v", err))
		}
		l.q.stage(then)
		return
	}
	if l != nil {
		if err := barrier(l.store); err != nil {
			panic(fmt.Sprintf("storage: barrier failed, cannot continue without durability: %v", err))
		}
	}
	if then != nil {
		then()
	}
}

// barrier is the inline durability barrier: push buffered appends to the
// OS, make them durable, then run the store's post-sync maintenance.
func barrier(s Store) error {
	if err := s.Flush(); err != nil {
		return err
	}
	if err := s.Sync(); err != nil {
		return err
	}
	return s.Maintain()
}

// --- in-memory store ------------------------------------------------------

// Mem is an in-memory Store: records and snapshot survive as long as the
// process does. It backs tests and in-process restart scenarios (the
// LiveCluster Crash/Restart cycle) without touching a disk. Mem is not
// safe for concurrent use by multiple goroutines — like a disk store, it
// belongs to one process's event loop.
type Mem struct {
	recs     []Record
	snap     []byte
	snapFrom uint64
	closed   bool
	syncs    atomic.Uint64
}

var _ Store = (*Mem)(nil)

// NewMem returns an empty in-memory store.
func NewMem() *Mem { return &Mem{} }

// Append implements Store.
func (m *Mem) Append(rec Record) error {
	if m.closed {
		return fmt.Errorf("storage: append to closed store")
	}
	m.recs = append(m.recs, rec)
	return nil
}

// Flush implements Store: memory has nothing to flush.
func (m *Mem) Flush() error { return nil }

// Sync implements Store. It only counts: memory is always durable, but
// the counter lets tests observe how many barriers reached a Sync, inline
// or batched by group commit.
// Unlike the rest of Mem it is safe to call concurrently (the
// group-commit syncer calls it from its own goroutine).
func (m *Mem) Sync() error {
	m.syncs.Add(1)
	return nil
}

// Maintain implements Store: nothing to rotate.
func (m *Mem) Maintain() error { return nil }

// Fsyncs implements Store: for Mem it reports every Sync call, an inline
// barrier's included (no real fsyncs ever happen).
func (m *Mem) Fsyncs() uint64 { return m.syncs.Load() }

// SaveSnapshot implements Store.
func (m *Mem) SaveSnapshot(data []byte) error {
	m.snap = append([]byte(nil), data...)
	m.snapFrom = uint64(len(m.recs))
	return nil
}

// Load implements Store.
func (m *Mem) Load() ([]byte, uint64, error) {
	if m.snap == nil {
		return nil, 0, nil
	}
	return append([]byte(nil), m.snap...), m.snapFrom, nil
}

// Replay implements Store.
func (m *Mem) Replay(from uint64, fn func(rec Record) error) error {
	for i := int(from); i < len(m.recs); i++ {
		if err := fn(m.recs[i]); err != nil {
			return err
		}
	}
	return nil
}

// Close implements Store.
func (m *Mem) Close() error {
	m.closed = true
	return nil
}

// Len returns the number of records appended so far (test access).
func (m *Mem) Len() int { return len(m.recs) }

// TrimTail bounds an append-only slice amortisedly: once it reaches twice
// max, the newest max entries are copied down and the vacated tail is
// zeroed (releasing payload references). It returns the slice and how many
// entries were dropped from the front. The shared idiom behind the
// cluster's delivery log and the endpoints' sync archives.
func TrimTail[T any](s []T, max int) ([]T, int) {
	if max <= 0 || len(s) < 2*max {
		return s, 0
	}
	dropped := len(s) - max
	n := copy(s, s[dropped:])
	var zero T
	for i := n; i < len(s); i++ {
		s[i] = zero
	}
	return s[:n], dropped
}

// --- snapshot sections ----------------------------------------------------

// A snapshot blob is a sequence of named sections, one per durable layer,
// concatenated in restore order.

// AppendSection appends one named section to a snapshot blob.
func AppendSection(buf []byte, name string, body []byte) []byte {
	buf = wire.AppendString(buf, name)
	return wire.AppendBytes(buf, body)
}

// Section is one named slice of a snapshot blob. Data aliases the blob.
type Section struct {
	Name string
	Data []byte
}

// Sections splits a snapshot blob into its sections, in order.
func Sections(data []byte) ([]Section, error) {
	var out []Section
	for len(data) > 0 {
		name, rest, err := wire.String(data)
		if err != nil {
			return nil, err
		}
		body, rest, err := wire.Bytes(rest)
		if err != nil {
			return nil, err
		}
		out = append(out, Section{Name: name, Data: body})
		data = rest
	}
	return out, nil
}
