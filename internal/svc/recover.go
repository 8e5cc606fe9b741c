// Crash recovery for the service layer: a replica's durable section is
// its state machine snapshot plus the replicated session-dedup tables —
// exactly the state that is a deterministic function of the A-Delivery
// sequence, captured at the same instant as the ordering layer's snapshot
// (both run between events on the replica's loop), so log replay
// re-applies precisely the commands the cut excludes.
package svc

import (
	"fmt"
	"sort"

	"wanamcast/internal/types"
	"wanamcast/internal/wire"
)

// SaveSnapshot encodes the replica's durable state: machine snapshot,
// delivery tick, and every session's dedup window. Pending replies are
// connection-bound and deliberately excluded — a restarted replica has no
// clients yet, and their commands' results live in the session windows.
func (s *Server) SaveSnapshot() ([]byte, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	machine, err := s.cfg.Machine.Snapshot()
	if err != nil {
		return nil, fmt.Errorf("svc: machine snapshot: %w", err)
	}
	buf := wire.AppendBytes(nil, machine)
	buf = wire.AppendUvarint(buf, s.tick)
	buf = wire.AppendBytes(buf, s.stateHash[:])
	ids := make([]uint64, 0, len(s.sessions))
	for id := range s.sessions {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	buf = wire.AppendUvarint(buf, uint64(len(ids)))
	for _, id := range ids {
		sess := s.sessions[id]
		buf = wire.AppendUvarint(buf, id)
		buf = wire.AppendUvarint(buf, sess.maxSeq)
		buf = wire.AppendUvarint(buf, sess.touched)
		seqs := make([]uint64, 0, len(sess.applied))
		for q := range sess.applied {
			seqs = append(seqs, q)
		}
		sort.Slice(seqs, func(i, j int) bool { return seqs[i] < seqs[j] })
		buf = wire.AppendUvarint(buf, uint64(len(seqs)))
		for _, q := range seqs {
			ac := sess.applied[q]
			buf = wire.AppendUvarint(buf, q)
			buf = wire.AppendBytes(buf, ac.result)
			buf = wire.AppendString(buf, ac.err)
			buf = wire.AppendUvarint(buf, ac.order)
			buf = ac.id.AppendTo(buf)
			buf = wire.AppendBytes(buf, ac.hash[:])
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
	hash := wire.Read(&d, wire.Bytes)
	if d.Err == nil && len(hash) != len(s.stateHash) {
		return fmt.Errorf("svc: snapshot state hash is %d bytes, want %d", len(hash), len(s.stateHash))
	}
	copy(s.stateHash[:], hash)
	n := wire.Read(&d, wire.SliceLen)
	s.sessions = make(map[uint64]*session, n)
	for ; n > 0 && d.Err == nil; n-- {
		id := wire.Read(&d, wire.Uvarint)
		sess := &session{applied: make(map[uint64]appliedCmd), maxSeq: wire.Read(&d, wire.Uvarint), touched: wire.Read(&d, wire.Uvarint)}
		for m := wire.Read(&d, wire.SliceLen); m > 0 && d.Err == nil; m-- {
			q := wire.Read(&d, wire.Uvarint)
			ac := appliedCmd{result: append([]byte(nil), wire.Read(&d, wire.Bytes)...), err: wire.Read(&d, wire.String)}
			ac.order, ac.id = wire.Read(&d, wire.Uvarint), wire.Read(&d, types.DecodeMessageID)
			h := wire.Read(&d, wire.Bytes)
			if d.Err == nil && len(h) != len(ac.hash) {
				return fmt.Errorf("svc: snapshot receipt hash is %d bytes, want %d", len(h), len(ac.hash))
			}
			copy(ac.hash[:], h)
			sess.applied[q] = ac
		}
		s.sessions[id] = sess
	}
	return d.Err
}
