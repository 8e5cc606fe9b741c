package storage

import (
	"errors"
	"fmt"
	"slices"
	"strings"
	"testing"
)

// callStore wraps Mem and records each barrier step as it is called; a
// non-nil syncErr makes every Sync fail, the way a dying disk's fsync does.
type callStore struct {
	Mem
	calls   []string
	syncErr error
}

func (s *callStore) Flush() error {
	s.calls = append(s.calls, "flush")
	return s.Mem.Flush()
}

func (s *callStore) Sync() error {
	s.calls = append(s.calls, "sync")
	if s.syncErr != nil {
		return s.syncErr
	}
	return s.Mem.Sync()
}

func (s *callStore) Maintain() error {
	s.calls = append(s.calls, "maintain")
	return s.Mem.Maintain()
}

// panicOf runs f and returns what it panicked with, as text ("" if it
// returned).
func panicOf(f func()) (msg string) {
	defer func() {
		if r := recover(); r != nil {
			msg = fmt.Sprint(r)
		}
	}()
	f()
	return ""
}

// TestInlineBarrierSyncsOnce: a log with no group-commit attachment runs
// the one barrier inline — Flush, Sync, Maintain, once each — and its
// continuation only after Sync has returned. Sync is the store's one fsync
// site, so a fault injected there reaches every barrier.
func TestInlineBarrierSyncsOnce(t *testing.T) {
	s := &callStore{}
	log := NewLog(s)
	log.Append(Record{Kind: KindPromise, Proto: "t", Inst: 1, Ballot: 1})
	log.CommitThen(func() { s.calls = append(s.calls, "then") })
	if want := []string{"flush", "sync", "maintain", "then"}; !slices.Equal(s.calls, want) {
		t.Fatalf("inline barrier called %v, want %v", s.calls, want)
	}
	if n := s.Fsyncs(); n != 1 {
		t.Fatalf("Mem counted %d Syncs for one inline barrier, want 1", n)
	}
}

// TestFailedSyncStopsTheProcess: a Sync that fails is fatal on both barrier
// paths, and the reply the barrier guards never leaves. Inline, CommitThen
// panics before its continuation; attached, the syncer's round panics
// before it publishes the window, so the staged continuation is never
// posted.
func TestFailedSyncStopsTheProcess(t *testing.T) {
	const want = "cannot continue without durability"
	rec := Record{Kind: KindAccept, Proto: "t", Inst: 1, Ballot: 1}

	s := &callStore{syncErr: errors.New("disk gone")}
	log := NewLog(s)
	log.Append(rec)
	ran := false
	if msg := panicOf(func() { log.CommitThen(func() { ran = true }) }); !strings.Contains(msg, want) {
		t.Fatalf("inline barrier on a failing Sync panicked with %q, want %q", msg, want)
	}
	if ran {
		t.Fatal("inline continuation ran although its Sync failed")
	}

	// A syncer with no goroutine: the test runs its round itself.
	g := &GroupCommit{wake: make(chan struct{}, 1), done: make(chan struct{})}
	s = &callStore{syncErr: errors.New("disk gone")}
	log = NewLog(s)
	posted := 0
	log.AttachGroupCommit(g, func(fn func()) { posted++; fn() })
	log.Append(rec)
	log.CommitThen(func() { ran = true })
	if msg := panicOf(func() { g.round() }); !strings.Contains(msg, want) {
		t.Fatalf("group-commit round on a failing Sync panicked with %q, want %q", msg, want)
	}
	if ran || posted != 0 {
		t.Fatalf("staged continuation ran=%v, posts=%d after its Sync failed", ran, posted)
	}
}
