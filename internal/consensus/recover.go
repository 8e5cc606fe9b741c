// Crash recovery for the consensus engine and its batched ordering layer:
// snapshot encoding of the surviving instance state, WAL-record replay,
// decision re-fire into the apply pipeline, window skipping after peer
// state transfer, and gap healing (recovering decisions whose original
// announcement was missed).
package consensus

import (
	"fmt"

	"wanamcast/internal/storage"
	"wanamcast/internal/wire"
)

// --- consensus snapshot ---------------------------------------------------

// appendSnap encodes the acceptor/learner state of every instance at or
// above from (instances below it are applied and closed: the engine never
// re-opens them, so their state is dead weight a snapshot drops).
func (c *Consensus) appendSnap(buf []byte, from uint64) []byte {
	n := 0
	c.each(from, func(uint64, *instance) { n++ })
	buf = wire.AppendUvarint(buf, uint64(n))
	c.each(from, func(k uint64, in *instance) {
		buf = wire.AppendUvarint(buf, k)
		buf = wire.AppendVarint(buf, in.promised)
		buf = wire.AppendVarint(buf, in.accepted)
		buf = wire.AppendValue(buf, in.aValue)
		buf = wire.AppendBool(buf, in.decided)
		buf = wire.AppendValue(buf, in.decision)
		buf = wire.AppendVarint(buf, in.maxSeen)
	})
	return buf
}

// restoreSnap rebuilds the instance table from appendSnap's encoding.
// Decided instances are restored silently: the batcher re-fires their
// apply cascade itself, in order.
func (c *Consensus) restoreSnap(data []byte) ([]byte, error) {
	n, data, err := wire.SliceLen(data)
	if err != nil {
		return nil, err
	}
	for i := 0; i < n; i++ {
		var k uint64
		if k, data, err = wire.Uvarint(data); err != nil {
			return nil, err
		}
		in := c.inst(k)
		if in.promised, data, err = wire.Varint(data); err != nil {
			return nil, err
		}
		if in.accepted, data, err = wire.Varint(data); err != nil {
			return nil, err
		}
		if in.aValue, data, err = wire.DecodeValue(data); err != nil {
			return nil, err
		}
		if in.decided, data, err = wire.Bool(data); err != nil {
			return nil, err
		}
		if in.decision, data, err = wire.DecodeValue(data); err != nil {
			return nil, err
		}
		if in.maxSeen, data, err = wire.Varint(data); err != nil {
			return nil, err
		}
	}
	return data, nil
}

// restoreRecord replays one WAL record into the acceptor/learner state.
// Promise and Accept records restore exactly what was durable before the
// reply left; Decide records run the full learn path (with re-persisting
// suppressed), so the batcher's apply cascade re-executes deterministically.
func (c *Consensus) restoreRecord(rec storage.Record) error {
	switch rec.Kind {
	case storage.KindPromise:
		in := c.inst(rec.Inst)
		if rec.Ballot > in.promised {
			in.promised = rec.Ballot
		}
		if rec.Ballot > in.maxSeen {
			in.maxSeen = rec.Ballot
		}
	case storage.KindAccept:
		in := c.inst(rec.Inst)
		if rec.Ballot > in.accepted {
			in.promised = rec.Ballot
			in.accepted = rec.Ballot
			in.aValue = rec.Value
		}
		if rec.Ballot > in.maxSeen {
			in.maxSeen = rec.Ballot
		}
	case storage.KindDecide:
		c.learn(rec.Inst, rec.Value)
	default:
		return fmt.Errorf("consensus: unexpected %s record kind %d", c.label, rec.Kind)
	}
	return nil
}

// --- batcher recovery surface ---------------------------------------------

// Label returns the engine's wire label (the WAL record namespace of its
// consensus sub-protocol).
func (b *Batcher[T]) Label() string { return b.cons.label }

// BeginRecovery puts the engine in replay mode: learned decisions are not
// re-persisted. Pair with EndRecovery.
func (b *Batcher[T]) BeginRecovery() { b.cons.recovering = true }

// EndRecovery leaves replay mode.
func (b *Batcher[T]) EndRecovery() { b.cons.recovering = false }

// AppendSnapshot encodes the engine's replicated ordering state: the
// propose/apply cursors plus the consensus instance table from the apply
// horizon upward.
func (b *Batcher[T]) AppendSnapshot(buf []byte) []byte {
	buf = wire.AppendUvarint(buf, b.next)
	buf = wire.AppendUvarint(buf, b.applyNext)
	return b.cons.appendSnap(buf, b.applyNext)
}

// RestoreSnapshot rebuilds the engine from AppendSnapshot's encoding. It
// does not fire apply callbacks; call Recover once every layer's snapshot
// state is in place.
func (b *Batcher[T]) RestoreSnapshot(data []byte) error {
	var err error
	if b.next, data, err = wire.Uvarint(data); err != nil {
		return err
	}
	if b.applyNext, data, err = wire.Uvarint(data); err != nil {
		return err
	}
	if b.next < b.applyNext {
		b.next = b.applyNext
	}
	if _, err := b.cons.restoreSnap(data); err != nil {
		return err
	}
	return nil
}

// Recover re-fires the apply cascade for every instance the restored
// consensus state knows a decision for, starting at the apply horizon and
// stopping at the first gap (gap healing takes over from there). Decisions
// beyond a gap re-enter the buffered set, exactly as if their DecideMsg
// had just arrived, so they apply the moment the gap closes. OnDecide is
// NOT re-fired: its effects (bundle shipping, re-proposal fences) are
// either replicated work already done pre-crash or part of the owning
// layer's own snapshot. Call between BeginRecovery and EndRecovery, after
// every layer restored its snapshot section.
func (b *Batcher[T]) Recover() {
	b.cons.each(b.applyNext, func(k uint64, in *instance) {
		if !in.decided {
			return
		}
		if batch, ok := in.decision.([]T); ok || in.decision == nil {
			b.buffered[k] = batch
		}
	})
	for {
		cur, ok := b.buffered[b.applyNext]
		if !ok {
			break
		}
		b.applyOne(b.applyNext, cur)
	}
	b.checkGap()
}

// ReplayRecord feeds one WAL record of this engine back into it.
func (b *Batcher[T]) ReplayRecord(rec storage.Record) error {
	return b.cons.restoreRecord(rec)
}

// SkipTo marks every instance below next as externally applied: a peer
// state transfer handed this process the aggregate effect of those
// instances, so the engine must neither wait for nor re-apply them. Items
// held in flight by skipped instances are released (still-pending ones are
// re-proposed by the next Pump; the duplicate-decision guards make that
// safe).
func (b *Batcher[T]) SkipTo(next uint64) {
	if next <= b.applyNext {
		return
	}
	b.applyNext = next
	if b.next < next {
		b.next = next
	}
	for k := range b.buffered {
		if k < next {
			delete(b.buffered, k)
		}
	}
	for k := range b.proposed {
		if k < next {
			b.release(k)
		}
	}
	// A decision buffered beyond the new horizon may now be applicable.
	for {
		cur, ok := b.buffered[b.applyNext]
		if !ok {
			break
		}
		b.applyOne(b.applyNext, cur)
	}
	b.Pump()
	b.checkGap()
}

// checkGap arms (once) the gap-healing timer: while a decision for a later
// instance is buffered but the apply horizon's own decision is missing —
// its DecideMsg was dropped, or this process restarted past it — ask the
// group for it and re-check. The timer chain stops as soon as the gap
// closes, preserving quiescence.
func (b *Batcher[T]) checkGap() {
	if b.healing || len(b.buffered) == 0 {
		return
	}
	b.healing = true
	if b.healFn == nil {
		b.healFn = b.heal
	}
	b.api.After(b.healEvery, b.healFn)
}

func (b *Batcher[T]) heal() {
	b.healing = false
	if len(b.buffered) == 0 {
		return
	}
	if _, ok := b.buffered[b.applyNext]; ok {
		return // draining; decided() will re-arm if a gap remains
	}
	b.cons.requestDecision(b.applyNext)
	b.checkGap()
}
