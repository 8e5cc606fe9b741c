package storage

import (
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// gatedStore wraps Mem with a controllable Sync gate so tests can hold
// the group-commit fsync mid-flight and assert nothing staged behind it
// leaks out early.
type gatedStore struct {
	Mem
	gate    chan struct{} // each Sync receives once before completing
	syncing chan struct{} // signals a Sync has started
}

func newGatedStore() *gatedStore {
	return &gatedStore{
		gate:    make(chan struct{}),
		syncing: make(chan struct{}, 16),
	}
}

func (g *gatedStore) Sync() error {
	g.syncing <- struct{}{}
	<-g.gate
	return g.Mem.Sync()
}

// directPost runs continuations synchronously on the syncer goroutine —
// fine for tests that only flip flags.
func directPost(fn func()) { fn() }

// TestGroupCommitParksUntilFsync forces the interleaving the durability
// invariant is about: a barrier staged while no fsync is running must
// not fire its continuation until the covering Sync completes.
func TestGroupCommitParksUntilFsync(t *testing.T) {
	g := NewGroupCommit()
	store := newGatedStore()
	log := NewLog(store)
	log.AttachGroupCommit(g, directPost)

	var sent atomic.Bool
	log.Append(Record{Kind: KindPromise, Proto: "test", Inst: 1, Ballot: 1})
	log.CommitThen(func() { sent.Store(true) })

	// The syncer is now inside Sync, blocked on the gate.
	<-store.syncing
	time.Sleep(10 * time.Millisecond)
	if sent.Load() {
		t.Fatal("continuation ran before its record's fsync completed")
	}

	// A second barrier staged mid-fsync must wait for the NEXT window.
	var sent2 atomic.Bool
	log.Append(Record{Kind: KindAccept, Proto: "test", Inst: 1, Ballot: 1})
	log.CommitThen(func() { sent2.Store(true) })
	time.Sleep(10 * time.Millisecond)
	if sent2.Load() {
		t.Fatal("second continuation ran while the first fsync was still in flight")
	}

	store.gate <- struct{}{} // release the first fsync
	waitTrue(t, &sent, "first continuation after its fsync")
	if s := g.Stats(); s.Windows < 1 {
		t.Fatalf("no window recorded: %+v", s)
	}
	// directPost ran the first window's fire hook to completion before the
	// syncer could start the next window: the queued second continuation is
	// past what that window covered.
	if sent2.Load() {
		t.Fatal("the first window's fire ran a continuation staged after its Sync began")
	}

	<-store.syncing // the syncer starts the second window on its own
	store.gate <- struct{}{}
	waitTrue(t, &sent2, "second continuation after the next fsync")

	close(store.gate) // let any further Sync pass
	g.Close()
	if s := g.Stats(); s.Barriers != 2 {
		t.Fatalf("barriers = %d, want 2 (stats %+v)", s.Barriers, s)
	}
}

func waitTrue(t *testing.T, flag *atomic.Bool, what string) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !flag.Load() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestGroupCommitBatchesBarriers stages many barriers from several
// producer "lanes" while the first fsync is held open, then checks one
// window's fsync covered all of them: syncs per store ≪ barriers.
func TestGroupCommitBatchesBarriers(t *testing.T) {
	g := NewGroupCommit()
	store := newGatedStore()
	log := NewLog(store)
	var postMu sync.Mutex
	var posted []func()
	log.AttachGroupCommit(g, func(fn func()) {
		postMu.Lock()
		posted = append(posted, fn)
		postMu.Unlock()
	})

	// First barrier opens a window and parks inside Sync…
	var done atomic.Int64
	log.Append(Record{Kind: KindPromise, Proto: "t", Inst: 0, Ballot: 1})
	log.CommitThen(func() { done.Add(1) })
	<-store.syncing

	// …while 512 more barriers pile up behind it (growing the lane's FIFO
	// is part of what this exercises — park, never drop).
	const extra = 512
	for i := 1; i <= extra; i++ {
		log.Append(Record{Kind: KindPromise, Proto: "t", Inst: uint64(i), Ballot: 1})
		log.CommitThen(func() { done.Add(1) })
	}
	store.gate <- struct{}{} // finish window 1
	<-store.syncing          // window 2 holds everything staged meanwhile
	store.gate <- struct{}{}
	close(store.gate)
	g.Close()

	postMu.Lock()
	for _, fn := range posted {
		fn()
	}
	postMu.Unlock()
	if got := done.Load(); got != extra+1 {
		t.Fatalf("continuations ran = %d, want %d", got, extra+1)
	}
	s := g.Stats()
	if s.Barriers != extra+1 {
		t.Fatalf("barriers = %d, want %d", s.Barriers, extra+1)
	}
	if s.Syncs > 4 {
		t.Fatalf("syncs = %d for %d barriers: batching is not happening (stats %+v)", s.Syncs, extra+1, s)
	}
}

// TestCommitThenWithoutAttachment pins the degraded paths: nil log and
// unattached log both run the continuation synchronously (historical
// behavior).
func TestCommitThenWithoutAttachment(t *testing.T) {
	ran := false
	var nilLog *Log
	nilLog.CommitThen(func() { ran = true })
	if !ran {
		t.Fatal("nil log did not run continuation synchronously")
	}

	store := NewMem()
	log := NewLog(store)
	log.Append(Record{Kind: KindPromise, Proto: "t", Inst: 0, Ballot: 1})
	ran = false
	log.CommitThen(func() { ran = true })
	if !ran {
		t.Fatal("unattached log did not run continuation synchronously")
	}
}

// TestDiskSyncStore exercises the split barrier on the real WAL: Flush
// makes records visible to an in-process replay, Sync makes them durable
// and counts fsyncs, Maintain rotates once the segment outgrows its
// threshold.
func TestDiskSyncStore(t *testing.T) {
	dir := t.TempDir()
	d, err := OpenDisk(dir, DiskOptions{SegmentSize: 1024})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if err := d.Append(Record{Kind: KindPromise, Proto: "t", Inst: uint64(i), Ballot: 1}); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.Flush(); err != nil {
		t.Fatal(err)
	}
	before := d.Fsyncs()
	if err := d.Sync(); err != nil {
		t.Fatal(err)
	}
	if d.Fsyncs() != before+1 {
		t.Fatalf("fsyncs = %d, want %d", d.Fsyncs(), before+1)
	}
	// Nothing dirty: Sync must be free.
	if err := d.Sync(); err != nil {
		t.Fatal(err)
	}
	if d.Fsyncs() != before+1 {
		t.Fatalf("clean Sync issued an fsync (count %d)", d.Fsyncs())
	}

	// Outgrow the 1 KiB segment, then Maintain must rotate.
	big := make([]byte, 600)
	for i := 0; i < 3; i++ {
		if err := d.Append(Record{Kind: KindAccept, Proto: "t", Inst: uint64(10 + i), Ballot: 1, Value: string(big)}); err != nil {
			t.Fatal(err)
		}
		if err := d.Flush(); err != nil {
			t.Fatal(err)
		}
		if err := d.Sync(); err != nil {
			t.Fatal(err)
		}
		if err := d.Maintain(); err != nil {
			t.Fatal(err)
		}
	}
	segs, err := d.segments()
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) < 2 {
		t.Fatalf("no rotation after outgrowing the segment: %d segments", len(segs))
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	// Everything synced must replay after reopening.
	d2, err := OpenDisk(dir, DiskOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	var n int
	if err := d2.Replay(0, func(rec Record) error { n++; return nil }); err != nil {
		t.Fatal(err)
	}
	if n != 7 {
		t.Fatalf("replayed %d records, want 7", n)
	}
}

// TestGroupCommitConcurrentLanes runs a lane staging barriers flat-out
// against the free-running syncer — under -race this is the
// configuration that proves the Flush (lane) / Sync (syncer) split on
// the real WAL is sound.
func TestGroupCommitConcurrentLanes(t *testing.T) {
	dir := t.TempDir()
	d, err := OpenDisk(dir, DiskOptions{NoFsync: true}) // exercise the concurrency, not the disk
	if err != nil {
		t.Fatal(err)
	}
	g := NewGroupCommit()
	log := NewLog(d)
	var mu sync.Mutex
	var posted []func()
	log.AttachGroupCommit(g, func(fn func()) {
		mu.Lock()
		posted = append(posted, fn)
		mu.Unlock()
	})
	var ran atomic.Int64
	const total = 2000
	for i := 0; i < total; i++ {
		log.Append(Record{Kind: KindPromise, Proto: "t", Inst: uint64(i), Ballot: 1})
		log.CommitThen(func() { ran.Add(1) })
		if i%64 == 0 {
			// Drain the posted continuations on the "lane" like the runtime
			// would, interleaved with fresh stages.
			mu.Lock()
			batch := posted
			posted = nil
			mu.Unlock()
			for _, fn := range batch {
				fn()
			}
		}
	}
	g.Close()
	mu.Lock()
	batch := posted
	posted = nil
	mu.Unlock()
	for _, fn := range batch {
		fn()
	}
	if got := ran.Load(); got != total {
		t.Fatalf("continuations ran = %d, want %d", got, total)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
}

// coverStore counts flushes and records, as each Sync starts, how many of
// them it covers. Its Flush takes a while, so a syncer that read a barrier
// before the barrier's flush had finished would be caught syncing short.
type coverStore struct {
	Mem
	flushed, covered atomic.Uint64
}

func (s *coverStore) Flush() error {
	time.Sleep(time.Microsecond)
	s.flushed.Add(1)
	return nil
}

func (s *coverStore) Sync() error {
	s.covered.Store(s.flushed.Load())
	return nil
}

// laneQueue stands in for a lane: the syncer posts fire hooks into it and
// the test goroutine, which also stages, runs them.
type laneQueue chan func()

func (l laneQueue) post(fn func()) { l <- fn }

// runPosted runs every fire hook posted so far.
func (l laneQueue) runPosted() {
	for {
		select {
		case fn := <-l:
			fn()
		default:
			return
		}
	}
}

// TestGroupCommitStageRacingARoundWaitsForTheNext stages barriers back to
// back against the free-running syncer, so stages land before, during and
// after its rounds: every continuation runs once, in stage order, and only
// after a Sync that began once its own flush was done. CI runs it under
// -race -count=50.
func TestGroupCommitStageRacingARoundWaitsForTheNext(t *testing.T) {
	g := NewGroupCommit()
	store := &coverStore{}
	log := NewLog(store)
	lane := make(laneQueue, 1024) // the syncer posts once per round, and the test drains after every stage
	log.AttachGroupCommit(g, lane.post)
	const n = 2000
	ran := 0
	for i := 1; i <= n; i++ {
		log.CommitThen(func() {
			if ran++; ran != i {
				t.Fatalf("barrier %d ran as the %d-th", i, ran)
			}
			if c := store.covered.Load(); c < uint64(i) {
				t.Fatalf("barrier %d ran after a Sync that covered %d flushes", i, c)
			}
		})
		lane.runPosted()
	}
	g.Close()
	lane.runPosted()
	if ran != n {
		t.Fatalf("continuations ran = %d, want %d", ran, n)
	}
}

// TestGroupCommitStageOrderAcrossWindowsAndLogs: two logs share one store.
// One barrier holds the first window's Sync open while both logs stage
// more; each log's continuations run in its stage order across the two
// windows, and the second window, with both logs dirty, syncs the shared
// store once.
func TestGroupCommitStageOrderAcrossWindowsAndLogs(t *testing.T) {
	g := NewGroupCommit()
	store := newGatedStore()
	lane := make(laneQueue, 16) // three posts: one per log per window
	a, b := NewLog(store), NewLog(store)
	a.AttachGroupCommit(g, lane.post)
	b.AttachGroupCommit(g, lane.post)
	var got []string
	mark := func(s string) func() { return func() { got = append(got, s) } }
	a.CommitThen(mark("a1"))
	<-store.syncing // window 1 covers a1 alone
	a.CommitThen(mark("a2"))
	b.CommitThen(mark("b1"))
	a.CommitThen(mark("a3"))
	b.CommitThen(mark("b2"))
	store.gate <- struct{}{}
	<-store.syncing // window 2: both logs, one store
	store.gate <- struct{}{}
	close(store.gate)
	g.Close()
	lane.runPosted()
	var as, bs []string
	for _, s := range got {
		if s[0] == 'a' {
			as = append(as, s)
		} else {
			bs = append(bs, s)
		}
	}
	if !slices.Equal(as, []string{"a1", "a2", "a3"}) || !slices.Equal(bs, []string{"b1", "b2"}) {
		t.Fatalf("continuations ran %v, want each log's in stage order", got)
	}
	if s := g.Stats(); s.Windows != 2 || s.Syncs != 2 {
		t.Fatalf("stats %+v: want 2 windows of one Sync each", s)
	}
}

// TestGroupCommitStageFireZeroAllocs pins the steady state: staging a
// barrier, the syncer's window, and the lane running the posted fire hook
// allocate nothing.
func TestGroupCommitStageFireZeroAllocs(t *testing.T) {
	g := NewGroupCommit()
	defer g.Close()
	log := NewLog(&coverStore{})
	lane := make(laneQueue, 1)
	log.AttachGroupCommit(g, lane.post)
	ran := 0
	then := func() { ran++ }
	stageFire := func() {
		log.CommitThen(then)
		(<-lane)()
	}
	for i := 0; i < 64; i++ {
		stageFire()
	}
	if n := testing.AllocsPerRun(200, stageFire); n != 0 {
		t.Fatalf("a barrier staged and fired made %.1f allocations, want 0", n)
	}
	if ran != 64+201 {
		t.Fatalf("continuations ran = %d, want %d", ran, 64+201)
	}
}
