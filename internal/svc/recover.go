// Crash recovery for the service layer: a replica's durable section is
// its state machine snapshot plus the replicated session-dedup tables —
// exactly the state that is a deterministic function of the A-Delivery
// sequence, captured at the same instant as the ordering layer's snapshot
// (both run between events on the replica's loop), so log replay
// re-applies precisely the commands the cut excludes.
package svc

import (
	"cmp"
	"fmt"
	"maps"
	"slices"

	"wanamcast/internal/wire"
)

// SaveSnapshot encodes the replica's durable state: machine snapshot,
// delivery tick, and every session's dedup window (the commands inside it,
// by sequence). Pending replies are connection-bound and deliberately
// excluded — a restarted replica has no clients yet, and their commands'
// results live in the session windows.
func (s *Server) SaveSnapshot() ([]byte, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	machine, err := s.cfg.Machine.Snapshot()
	if err != nil {
		return nil, fmt.Errorf("svc: machine snapshot: %w", err)
	}
	buf := wire.AppendBytes(nil, machine)
	buf = wire.AppendUvarint(buf, s.tick)
	buf = wire.AppendUvarint(buf, uint64(len(s.sessions)))
	for _, id := range slices.Sorted(maps.Keys(s.sessions)) {
		sess := s.sessions[id]
		buf = wire.AppendUvarint(buf, id)
		buf = wire.AppendUvarint(buf, sess.maxSeq)
		buf = wire.AppendUvarint(buf, sess.touched)
		window := slices.DeleteFunc(slices.Clone(sess.applied), func(sl slot) bool { _, in := sess.get(sl.seq); return !in })
		slices.SortFunc(window, func(a, b slot) int { return cmp.Compare(a.seq, b.seq) })
		buf = wire.AppendUvarint(buf, uint64(len(window)))
		for _, sl := range window {
			buf = wire.AppendUvarint(buf, sl.seq)
			buf = wire.AppendBytes(buf, sl.result)
			buf = wire.AppendString(buf, sl.err)
			buf = wire.AppendUvarint(buf, sl.order)
		}
	}
	return buf, nil
}

// RestoreSnapshot replaces the replica's durable state with a
// SaveSnapshot-ted one. Call before the replica sees any delivery.
func (s *Server) RestoreSnapshot(data []byte) error {
	d := wire.Decoder{Data: data}
	machine := wire.Read(&d, wire.Bytes)
	if d.Err != nil {
		return d.Err
	}
	if err := s.cfg.Machine.Restore(machine); err != nil {
		return fmt.Errorf("svc: machine restore: %w", err)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.tick = wire.Read(&d, wire.Uvarint)
	s.wm.Store(s.tick)
	n := wire.Read(&d, wire.SliceLen)
	s.sessions = make(map[uint64]*session, n)
	s.byTouch.Init()
	for ; n > 0 && d.Err == nil; n-- {
		sess := &session{id: wire.Read(&d, wire.Uvarint), maxSeq: wire.Read(&d, wire.Uvarint), touched: wire.Read(&d, wire.Uvarint), applied: make([]slot, 2)}
		for m := wire.Read(&d, wire.SliceLen); m > 0 && d.Err == nil; m-- {
			q := wire.Read(&d, wire.Uvarint)
			sess.put(q, appliedCmd{result: append([]byte(nil), wire.Read(&d, wire.Bytes)...), err: wire.Read(&d, wire.String),
				order: wire.Read(&d, wire.Uvarint)})
		}
		s.sessions[sess.id] = sess
	}
	for _, sess := range slices.SortedFunc(maps.Values(s.sessions), func(a, b *session) int {
		return cmp.Or(cmp.Compare(a.touched, b.touched), cmp.Compare(a.id, b.id))
	}) {
		sess.order = s.byTouch.PushBack(sess)
	}
	return d.Err
}
