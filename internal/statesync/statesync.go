// Package statesync is the restart state-transfer protocol shared by
// Algorithms A1 and A2.
//
// Both algorithms rest on one fact: the members of a group apply the same
// consensus decisions in the same order, so they A-Deliver identical
// sequences (A1) and complete identical rounds (A2). A restarted member can
// therefore catch up by log shipping. Every member keeps a bounded archive
// of the records it applied, and a restarted one asks its group peers for
// everything from its own position onward. Peers answer in bounded chunks
// (serve); the requester applies what continues its sequence, asks again,
// and on the answer that brings it level adopts the peer's in-flight tail
// and resumes (onResp). A peer that is itself catching up ships records but
// no tail, and a group whose members all are resumes by agreement
// (maybeFinishGroupRestart). From the end of local recovery (Arm) until
// then the algorithm's delivery is gated (Gated): what the group delivered
// while the process was down must land first, in the group's order.
//
// An algorithm plugs in what really differs: its position, the record and
// tail types with their codecs, how a record is applied, what the tail is
// and how it is adopted, and what resuming means.
package statesync

import (
	"fmt"
	"slices"
	"time"

	"wanamcast/internal/node"
	"wanamcast/internal/storage"
	"wanamcast/internal/types"
	"wanamcast/internal/wire"
)

// retryEvery is the re-request period while a transfer is outstanding
// (requests and answers can be dropped like any frame).
const retryEvery = 100 * time.Millisecond

// Codec encodes an algorithm's archive records (in snapshots and on the
// wire) and its in-flight tail (on the wire only).
type Codec[R, T any] struct {
	AppendRec  func(buf []byte, rec R) []byte
	DecodeRec  func(data []byte) (R, []byte, error)
	AppendTail func(buf []byte, tail T) []byte
	DecodeTail func(data []byte) (T, []byte, error)
}

// Config plugs one algorithm endpoint into the engine.
type Config[R, T any] struct {
	API node.API
	// Label is the protocol label the frames travel under: the owning
	// endpoint's, whose Receive hands them to Engine.Receive.
	Label string
	// Batch bounds the records one answer carries.
	Batch int
	Codec Codec[R, T]
	Options
	// Pos is the endpoint's position: how many records it has applied,
	// counted from wherever the algorithm starts counting.
	Pos func() uint64
	// Apply repeats one record the group applied while this process was
	// down. It is only called with the record at Pos and must advance Pos
	// by one (and Record it, like any applied record).
	Apply func(rec R)
	// Tail captures the in-flight state shipped to a requester that is level
	// with this endpoint; Adopt merges a peer's.
	Tail  func() T
	Adopt func(tail T)
	// Resume runs when the gate lifts.
	Resume func()
}

// Options is what an endpoint's host chooses about its state transfer.
type Options struct {
	// Archive bounds how many applied records (A1: deliveries with their
	// payloads, A2: completed rounds with their unions) are retained to
	// serve restarted peers; zero or less means 4096. A peer further behind
	// than this cannot catch up by log transfer.
	Archive int
	// OnSynced, when non-nil, fires once a transfer has caught the endpoint
	// up with its group: the natural moment for a fresh snapshot.
	OnSynced func()
	// OnSyncFailed, when non-nil, fires the moment a transfer is abandoned
	// as unrecoverable. The flight recorder hangs its span dump here.
	OnSyncFailed func()
}

// Req asks a group peer for the records from position From onward.
type Req struct {
	From uint64
}

// Resp is one bounded answer: the records [Base, Base+len(Recs)), the
// responder's position, and — only when they bring the requester level with
// a responder that is not itself catching up — the responder's tail.
type Resp[R, T any] struct {
	Base   uint64
	Recs   []R
	Next   uint64
	TooFar bool
	Busy   bool
	Tail   *T
}

// peerInfo is the latest answer seen from one group peer.
type peerInfo struct {
	next uint64
	busy bool
}

// Engine runs the state-transfer protocol for one endpoint.
type Engine[R, T any] struct {
	cfg     Config[R, T]
	peers   []types.ProcessID // the group's other members
	archive []R               // the records at positions [Pos−len, Pos)
	syncing bool              // gate shut: recovered or transferring
	failed  bool              // transfer abandoned; the gate stays shut
	heard   map[types.ProcessID]peerInfo
	retryFn func() // e.retry, bound by Start: a transfer's timer
}

// New builds the engine of one endpoint.
func New[R, T any](cfg Config[R, T]) *Engine[R, T] {
	if cfg.Archive <= 0 {
		cfg.Archive = 4096
	}
	e := &Engine[R, T]{cfg: cfg}
	for _, q := range cfg.API.Topo().Members(cfg.API.Group()) {
		if q != cfg.API.Self() {
			e.peers = append(e.peers, q)
		}
	}
	return e
}

// Record archives one applied record for restarted peers.
func (e *Engine[R, T]) Record(rec R) {
	e.archive, _ = storage.TrimTail(append(e.archive, rec), e.cfg.Archive)
}

// Archive returns the retained records, oldest first. Callers must not
// modify it.
func (e *Engine[R, T]) Archive() []R { return e.archive }

// Base is the position of the oldest archived record.
func (e *Engine[R, T]) Base() uint64 { return e.cfg.Pos() - uint64(len(e.archive)) }

// Gated reports whether delivery is held back: local recovery has ended or
// a transfer has started, and the transfer has not finished.
func (e *Engine[R, T]) Gated() bool { return e.syncing }

// Arm shuts the gate at the end of local recovery. The replayed state is a
// consistent cut of the pre-crash state, but the group may have moved past
// that cut while the process was down, and an organic event (a frame that
// arrives before the host gets around to Start) must not let delivery run
// ahead of the missed prefix. Both algorithms arm here, not only in Start:
// for A2 an organically completed round would be the group's round anyway,
// but one rule is easier to hold than two. Without peers there is nobody to
// have diverged from and nothing to arm.
func (e *Engine[R, T]) Arm() {
	if len(e.peers) > 0 {
		e.syncing = true
	}
}

// Start begins catch-up from the group peers. Without peers it finishes at
// once.
func (e *Engine[R, T]) Start() {
	if len(e.peers) == 0 {
		e.finish()
		return
	}
	e.syncing, e.failed, e.retryFn = true, false, e.retry
	e.heard = make(map[types.ProcessID]peerInfo)
	e.retry()
}

func (e *Engine[R, T]) sendReq() {
	e.cfg.API.Multicast(e.peers, e.cfg.Label, Req{From: e.cfg.Pos()})
}

// retry asks the peers, and again every retryEvery until the transfer ends.
func (e *Engine[R, T]) retry() {
	if !e.syncing || e.failed {
		return
	}
	e.sendReq()
	e.cfg.API.After(retryEvery, e.retryFn)
}

// Receive handles body if it is one of the engine's frames and reports
// whether it was.
func (e *Engine[R, T]) Receive(from types.ProcessID, body any) bool {
	switch m := body.(type) {
	case Req:
		e.serve(from, m)
	case Resp[R, T]:
		e.onResp(from, m)
	default:
		return false
	}
	return true
}

// serve answers a restarted peer from the archive.
func (e *Engine[R, T]) serve(from types.ProcessID, m Req) {
	pos := e.cfg.Pos()
	base := pos - uint64(len(e.archive))
	resp := Resp[R, T]{Base: m.From, Next: pos, Busy: e.syncing, TooFar: m.From < base}
	if !resp.TooFar {
		end := min(m.From+uint64(e.cfg.Batch), pos)
		if m.From < end {
			// Cloned: the frame outlives this event, and the archive trims in place.
			resp.Recs = slices.Clone(e.archive[m.From-base : end-base])
		}
		// The tail is adopted whole, not merged chunk by chunk, so it rides
		// only the answer that completes the catch-up.
		if !resp.Busy && end == pos {
			tail := e.cfg.Tail()
			resp.Tail = &tail
		}
	}
	e.cfg.API.Send(from, e.cfg.Label, resp)
}

// onResp consumes one answer. Stale, repeated and reordered answers are
// harmless: a record is applied only at its own position, and only an
// answer that made progress asks for more.
func (e *Engine[R, T]) onResp(from types.ProcessID, m Resp[R, T]) {
	if !e.syncing || e.failed || e.heard == nil { // nil: armed, not started — an answer to an earlier incarnation
		return
	}
	if m.TooFar {
		// The peers' archives will never again cover this position. Stop
		// asking but keep the gate shut — resuming with a hole would diverge
		// from the group's order. The operator remedy is a larger archive
		// (or fresh state); Gated stays true as the visible symptom.
		e.cfg.API.Tracef("%s: peer archive no longer covers position %d; cannot catch up by log transfer (sync abandoned)",
			e.cfg.Label, e.cfg.Pos())
		e.failed = true
		if e.cfg.OnSyncFailed != nil {
			e.cfg.OnSyncFailed()
		}
		return
	}
	progressed := false
	for i, rec := range m.Recs {
		if m.Base+uint64(i) == e.cfg.Pos() {
			e.cfg.Apply(rec)
			progressed = true
		}
	}
	e.heard[from] = peerInfo{next: m.Next, busy: m.Busy}
	switch {
	case m.Tail != nil && e.cfg.Pos() >= m.Next:
		e.cfg.Adopt(*m.Tail)
		e.finish()
	case progressed:
		// More remains: ask now rather than wait for the retry timer.
		e.sendReq()
	default:
		e.maybeFinishGroupRestart()
	}
}

// maybeFinishGroupRestart resumes when every peer has answered Busy with
// nothing newer than this endpoint has: the whole group is restarting
// together, each member recovered from its own disk, and the archives have
// been cross-shipped. No tail needs adopting (each member replayed its own);
// an instance gap between members heals through consensus catch-up.
func (e *Engine[R, T]) maybeFinishGroupRestart() {
	pos := e.cfg.Pos()
	for _, q := range e.peers {
		info, ok := e.heard[q]
		if !ok || !info.busy || info.next > pos {
			return
		}
	}
	e.cfg.API.Tracef("%s: whole group restarting, no peer ahead of position %d; resuming", e.cfg.Label, pos)
	e.finish()
}

// finish lifts the gate and tells the host, which typically snapshots the
// freshly synced state.
func (e *Engine[R, T]) finish() {
	e.syncing = false
	e.heard = nil
	e.cfg.Resume()
	if e.cfg.OnSynced != nil {
		e.cfg.OnSynced()
	}
}

// --- snapshot and wire encodings ---------------------------------------------

// AppendArchive encodes the archive for the endpoint's snapshot: a count,
// then the records.
func (e *Engine[R, T]) AppendArchive(buf []byte) []byte {
	return appendRecs(buf, e.archive, e.cfg.Codec.AppendRec)
}

// RestoreArchive decodes AppendArchive's encoding and returns the remainder.
func (e *Engine[R, T]) RestoreArchive(data []byte) (rest []byte, err error) {
	e.archive, rest, err = decodeRecs(data, e.cfg.Codec.DecodeRec)
	return rest, err
}

func appendRecs[R any](buf []byte, recs []R, enc func([]byte, R) []byte) []byte {
	buf = wire.AppendUvarint(buf, uint64(len(recs)))
	for _, rec := range recs {
		buf = enc(buf, rec)
	}
	return buf
}

func decodeRecs[R any](data []byte, dec func([]byte) (R, []byte, error)) ([]R, []byte, error) {
	n, data, err := wire.SliceLen(data)
	if err != nil {
		return nil, nil, err
	}
	var recs []R
	for i := 0; i < n; i++ {
		var rec R
		if rec, data, err = dec(data); err != nil {
			return nil, nil, err
		}
		recs = append(recs, rec)
	}
	return recs, data, nil
}

// AppendIDSet appends set's ids in ascending order, their count first (the
// delivered sets of the endpoints' snapshots).
func AppendIDSet(buf []byte, set map[types.MessageID]bool) []byte {
	ids := make([]types.MessageID, 0, len(set))
	for id := range set {
		ids = append(ids, id)
	}
	slices.SortFunc(ids, types.MessageID.Compare)
	return appendRecs(buf, ids, func(buf []byte, id types.MessageID) []byte { return id.AppendTo(buf) })
}

// DecodeIDSet reads AppendIDSet's encoding into set and returns the
// remainder.
func DecodeIDSet(data []byte, set map[types.MessageID]bool) ([]byte, error) {
	ids, rest, err := decodeRecs(data, types.DecodeMessageID)
	for _, id := range ids {
		set[id] = true
	}
	return rest, err
}

func init() {
	wire.Register(wire.KindSyncReq,
		func(buf []byte, m Req) []byte { return wire.AppendUvarint(buf, m.From) },
		func(data []byte) (m Req, rest []byte, err error) {
			m.From, rest, err = wire.Uvarint(data)
			return m, rest, err
		})
}

// Answer flags on the wire.
const (
	flagTooFar = 1 << iota
	flagBusy
	flagTail
)

// RegisterResp installs the wire codec of one algorithm's answers under
// kind: Base · count · records · Next · flags · tail (if flagged). Call from
// the algorithm package's init.
func RegisterResp[R, T any](kind wire.Kind, c Codec[R, T]) {
	wire.Register(kind,
		func(buf []byte, m Resp[R, T]) []byte {
			buf = wire.AppendUvarint(buf, m.Base)
			buf = appendRecs(buf, m.Recs, c.AppendRec)
			buf = wire.AppendUvarint(buf, m.Next)
			flags := byte(0)
			if m.TooFar {
				flags |= flagTooFar
			}
			if m.Busy {
				flags |= flagBusy
			}
			if m.Tail == nil {
				return append(buf, flags)
			}
			return c.AppendTail(append(buf, flags|flagTail), *m.Tail)
		},
		func(data []byte) (m Resp[R, T], rest []byte, err error) {
			if m.Base, data, err = wire.Uvarint(data); err != nil {
				return m, nil, err
			}
			if m.Recs, data, err = decodeRecs(data, c.DecodeRec); err != nil {
				return m, nil, err
			}
			if m.Next, data, err = wire.Uvarint(data); err != nil {
				return m, nil, err
			}
			if len(data) == 0 {
				return m, nil, fmt.Errorf("%w: sync resp flags", wire.ErrCorrupt)
			}
			flags := data[0]
			m.TooFar, m.Busy, data = flags&flagTooFar != 0, flags&flagBusy != 0, data[1:]
			if flags&flagTail != 0 {
				var tail T
				if tail, data, err = c.DecodeTail(data); err != nil {
					return m, nil, err
				}
				m.Tail = &tail
			}
			return m, data, nil
		})
}
