package svc

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"

	"wanamcast/internal/types"
	"wanamcast/internal/wire"
)

// TestSessionWindowOutcomesPinned drives one session through 10 000 sequence
// numbers — in order, with neighbours swapped, with duplicates redelivered
// from inside, at the edge of and far past the window — and folds everything
// a replica or a client can observe into one digest: the tick after every
// delivery, and the verdict (cached outcome with its order, "expired", or
// unknown) of resends across the window's edge. The digest is the one the
// same fold gives at the commit before the replica's rolling state hash was
// deleted, which the fold then left out; that commit's digest with the hash
// folded in was recorded before window expiry became lazy (one sweep per
// window of inserts instead of one scan of the map per apply). Neither may
// change an outcome. The dedup map itself may now hold up to two windows.
func TestSessionWindowOutcomesPinned(t *testing.T) {
	const want = "d16c5224e3d4b9ceab48eaf7b71b7356d237eeb6e94882043ef6725cee486e0c"
	s := NewServer(ServerConfig{Groups: 1, Machine: NewKVMachine(0, PrefixRoute(1)),
		Submit: func([]byte, types.GroupSet, func(types.MessageID)) {}})
	const session = 7
	sum := sha256.New()
	n := uint64(0)
	deliver := func(seq uint64) {
		n++
		op := EncodePut(map[string]string{fmt.Sprintf("k%d", seq%97): fmt.Sprintf("v%d", seq)})
		s.Deliver(types.MessageID{Origin: 3, Seq: n}, wire.AppendValue(nil, Command{Session: session, Seq: seq, Op: op}))
		fmt.Fprintf(sum, "d %d %d\n", seq, s.tick)
		if got := len(s.sessions[session].applied); got > 2*sessionWindow {
			t.Fatalf("after seq %d the dedup map holds %d entries, more than two windows", seq, got)
		}
	}
	verdict := func(seq uint64) {
		s.mu.Lock()
		r, ok := s.cachedReply(Request{Session: session, Seq: seq}, false)
		s.mu.Unlock()
		fmt.Fprintf(sum, "v %d %v %v %q %d %x\n", seq, ok, r.OK, r.Err, r.Order, r.Result)
	}
	back := []uint64{1, 50, 127, 128, 129, 300}
	for q := uint64(1); q <= 10_000; q++ {
		if q%7 == 0 && q < 10_000 {
			deliver(q + 1) // shard-order inversion: the successor lands first
			deliver(q)
			q++
		} else {
			deliver(q)
		}
		if q%5 == 0 {
			if b := back[q/5%uint64(len(back))]; q > b {
				deliver(q - b) // a client retry ordered again
			}
		}
		if q%10 == 0 {
			for _, b := range []uint64{0, 1, 100, 127, 128, 129, 500} {
				if q > b {
					verdict(q - b)
				}
			}
			verdict(q + 1)
		}
	}
	if got := hex.EncodeToString(sum.Sum(nil)); got != want {
		t.Fatalf("outcome digest %s, want %s (recorded at the parent commit)", got, want)
	}
	if applied := s.cfg.Machine.(*KVMachine).Applied(); applied != 10_000 {
		t.Fatalf("%d commands applied, want each of the 10 000 sequence numbers exactly once", applied)
	}
}
