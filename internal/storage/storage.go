// Package storage is the durability subsystem: a segmented, CRC-framed,
// append-only write-ahead log plus atomic-rename snapshot files, shared by
// every durable layer of a process (consensus acceptors, the A1/A2
// ordering engines, and the service layer's replicated state).
//
// One process owns one Store. Layers append Records tagged with their
// protocol label and call Commit at their durability barriers (an acceptor
// must not ack a Promise or Accept it could forget); Commit flushes the
// write buffer and fsyncs unless the store was opened with NoFsync.
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
// replaceable snapshot.
type Store interface {
	// Append adds one record to the log. It is buffered: the record is
	// durable only after the next Commit.
	Append(rec Record) error
	// Commit is the durability barrier: flush buffered appends and fsync
	// (unless the store runs fsync-off).
	Commit() error
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

// SyncStore is the optional Store extension group commit needs: the
// Commit durability barrier split into its two halves, so many lanes'
// barriers can share one fsync. Flush and Maintain run on the store's
// owning lane; Sync is the one method called from the group-commit
// syncer goroutine, concurrently with lane-side appends.
type SyncStore interface {
	Store
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
}

// Log is the nil-safe append handle layers hold. A nil *Log discards
// everything, so protocols need no durability branches on their hot
// paths. Append and Commit panic on store errors: a process that cannot
// persist the state it is about to promise must fail-stop (§2.1's
// crash-stop model), not carry on with amnesia.
type Log struct {
	store Store
	// Group-commit attachment (nil = synchronous barriers): CommitThen
	// stages its continuation here instead of fsyncing inline.
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

// Commit is the durability barrier; see Store.Commit.
func (l *Log) Commit() {
	if l == nil {
		return
	}
	if err := l.store.Commit(); err != nil {
		panic(fmt.Sprintf("storage: commit failed, cannot continue without durability: %v", err))
	}
}

// Enabled reports whether records appended here are actually retained.
func (l *Log) Enabled() bool { return l != nil }

// AttachGroupCommit routes this log's CommitThen barriers through gc:
// the barrier's continuation is parked until the syncer's next fsync of
// this store completes, and one fsync covers every barrier staged across
// all lanes in the window. post must run its argument on the store's
// owning lane, as its own event (e.g. tcp.Runtime.Async) — the parked
// continuations live in a lane-local queue and touch loop-confined
// protocol state. The syncer posts one function, bound once, per window.
//
// A nil log, a nil gc, or a store that cannot split its barrier (no
// SyncStore) leave the log synchronous: CommitThen then degrades to
// Commit-then-call, which is the exact historical behavior.
func (l *Log) AttachGroupCommit(gc *GroupCommit, post func(func())) {
	if l == nil || gc == nil {
		return
	}
	if ss, ok := l.store.(SyncStore); ok {
		l.q = gc.register(ss, post)
	}
}

// Deferred reports whether CommitThen parks its continuation behind the
// group-commit syncer; when it does not, a caller may Commit and carry on
// inline, building no continuation.
func (l *Log) Deferred() bool { return l != nil && l.q != nil }

// CommitThen is the asynchronous durability barrier: then runs strictly
// after every record appended so far is durable. Without a group-commit
// attachment it is Commit() followed by then() — synchronous, today's
// behavior to the byte. With one, the appends are flushed to the OS on
// the calling lane and then is parked until the group-commit syncer's
// covering fsync completes; it then runs on the owning lane via the
// attachment's post hook, after every continuation staged on this log
// before it. Either way the caller must not touch
// loop-confined state between CommitThen and then running — the reply a
// barrier guards belongs inside then.
func (l *Log) CommitThen(then func()) {
	if l == nil {
		if then != nil {
			then()
		}
		return
	}
	if l.q == nil {
		l.Commit()
		if then != nil {
			then()
		}
		return
	}
	if err := l.q.store.Flush(); err != nil {
		panic(fmt.Sprintf("storage: flush failed, cannot continue without durability: %v", err))
	}
	l.q.stage(then)
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
var _ SyncStore = (*Mem)(nil)

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

// Commit implements Store (memory is always "durable").
func (m *Mem) Commit() error { return nil }

// Flush implements SyncStore: memory has nothing to flush.
func (m *Mem) Flush() error { return nil }

// Sync implements SyncStore. It only counts: memory is always durable,
// but the counter lets tests observe how group commit batches barriers.
// Unlike the rest of Mem it is safe to call concurrently (the
// group-commit syncer calls it from its own goroutine).
func (m *Mem) Sync() error {
	m.syncs.Add(1)
	return nil
}

// Maintain implements SyncStore: nothing to rotate.
func (m *Mem) Maintain() error { return nil }

// Fsyncs implements SyncStore: for Mem it reports the number of Sync
// barriers observed (no real fsyncs ever happen).
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
