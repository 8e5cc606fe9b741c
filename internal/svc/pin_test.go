package svc

import (
	"crypto/sha256"
	"fmt"
	"maps"
	"os"
	"slices"
	"strings"
	"testing"

	"wanamcast"
	"wanamcast/internal/storage"
	"wanamcast/internal/types"
	"wanamcast/internal/wire"
)

// The pins in this file were recorded with the dedup window kept in a map,
// swept once per window of inserts, and the machine's values kept as strings.
// The window became a ring and puts are applied in place: neither may change
// what a replica stores, answers or snapshots, except that a snapshot no
// longer holds the commands that fell out of a session's window.

// pinServer is a replica of shard 0 of two whose casts go nowhere.
func pinServer(maxSessions int) *Server {
	return NewServer(ServerConfig{Groups: 2, MaxSessions: maxSessions, Machine: NewKVMachine(0, PrefixRoute(2)),
		Submit: func([]byte, types.GroupSet, func(types.MessageID)) {}})
}

// pinDeliver delivers (session, seq) to s as the n-th cast: a put of one of
// five keys of shard 0 and one key of shard 1.
func pinDeliver(s *Server, n, session, seq uint64) {
	op := EncodePut(map[string]string{fmt.Sprintf("g0/k%d", seq%5): fmt.Sprintf("v%d", seq), "g1/x": "y"})
	s.Deliver(types.MessageID{Origin: 2, Seq: n}, wire.AppendValue(nil, Command{Session: session, Seq: seq, Op: op}))
}

// TestEarlierFormatIsRefused: a store whose snapshot holds a replica section
// of the earlier format, whose cached outcomes carried a message ID and a state
// hash for delivery certificates, is refused by the section's name. The
// replica attached before Start never reads it: decoded with today's layout,
// such a section would be misread, or fail only by luck. The sample was
// written when a session's window was a map, in the same layout.
func TestEarlierFormatIsRefused(t *testing.T) {
	old, err := os.ReadFile("testdata/snapshot-before-ring.bin")
	if err != nil {
		t.Fatal(err)
	}
	store := storage.NewMem()
	if err := store.SaveSnapshot(storage.AppendSection(nil, "svc", old)); err != nil {
		t.Fatal(err)
	}
	cluster := wanamcast.NewLiveCluster(wanamcast.LiveConfig{Groups: 1, PerGroup: 1, BasePort: 25400,
		StoreFor: func(types.ProcessID) storage.Store { return store }})
	defer cluster.Stop()
	cluster.SetReplica(0, pinServer(0))
	if err := cluster.Start(); err == nil || !strings.Contains(err.Error(), `section "svc"`) || !strings.Contains(err.Error(), "earlier format") {
		t.Fatalf("Start over an earlier-format replica section: %v; want it refused by the section's name", err)
	}
}

// TestSessionEvictionOrderPinned: with room for three sessions, the session
// evicted for a newcomer is the one least recently delivered to, also after
// a restart from a snapshot. The table after each delivery was recorded when
// eviction scanned every session.
func TestSessionEvictionOrderPinned(t *testing.T) {
	const want = "1 | 1,2 | 1,2,3 | 1,2,3 | 1,3,4 | 1,2,4 | 2,4,5 | 2,4,5 | 3,4,5 | 1,3,4 | 1,3,6 | 1,3,6 | 3,4,6 | 3,4,7 | 3,4,7 | 1,3,7"
	s := pinServer(3)
	var got []string
	for i, session := range []uint64{1, 2, 3, 1, 4, 2, 5, 4, 3, 1, 6, 3, 4, 7, 3, 1} {
		if i == 10 {
			snap, _ := s.SaveSnapshot()
			if s = pinServer(3); s.RestoreSnapshot(snap) != nil {
				t.Fatal("restore failed")
			}
		}
		pinDeliver(s, uint64(i+1), session, uint64(i+1))
		ids := make([]string, 0, len(s.sessions))
		for _, id := range slices.Sorted(maps.Keys(s.sessions)) {
			ids = append(ids, fmt.Sprint(id))
		}
		got = append(got, strings.Join(ids, ","))
	}
	if g := strings.Join(got, " | "); g != want {
		t.Fatalf("sessions after each delivery:\n%s\nwant\n%s", g, want)
	}
}

// TestSnapshotBytesPinned: a KV machine's snapshot after puts that insert,
// rewrite with longer, shorter and empty values, and name another shard's
// keys, and a replica's snapshot whose sessions never outgrew their windows,
// are the bytes recorded with values held as strings and the window as a map.
func TestSnapshotBytesPinned(t *testing.T) {
	const (
		wantKV      = "5df71b8372781ce9e2b2dcd2e0edd773874519e4d8f260928b06fcaa9c0938f0"
		wantReplica = "b63643baaf2d712b504b4e99535f7e623da279f6a6f46097220a7e9e06baa527"
	)
	m := NewKVMachine(0, PrefixRoute(2))
	for i, sets := range []map[string]string{
		{"g0/a": "1", "g0/b": "22", "g1/c": "333"},
		{"g0/a": "longer value"},
		{"g0/a": "s", "g0/b": ""},
		{"g1/c": "other shard only"},
		{"g0/d": strings.Repeat("x", 300), "g0/e": "e"},
		{"g0/d": "short"},
	} {
		if _, err := m.Apply(EncodePut(sets)); err != nil {
			t.Fatalf("put %d: %v", i, err)
		}
	}
	snap, _ := m.Snapshot()
	if got := fmt.Sprintf("%x", sha256.Sum256(snap)); got != wantKV {
		t.Errorf("KV snapshot digest %s, want %s", got, wantKV)
	}
	s := pinServer(0)
	n := uint64(0)
	for q := uint64(1); q <= 120; q++ {
		for _, session := range []uint64{3, 11, 40} {
			if session != 40 || q%3 == 0 {
				n++
				pinDeliver(s, n, session, q)
			}
		}
	}
	replica, _ := s.SaveSnapshot()
	if got := fmt.Sprintf("%x", sha256.Sum256(replica)); got != wantReplica {
		t.Errorf("replica snapshot digest %s, want %s", got, wantReplica)
	}
}
