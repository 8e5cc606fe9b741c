package main

import (
	"fmt"
	"math/rand"
	"time"

	"wanamcast/internal/types"
)

// bcast-wan drives LiveCluster.Broadcast (Algorithm A2) directly: no
// service layer uses it, so the benchmark casts from the processes
// themselves and times each cast until the last of the nine replicas has
// delivered it.

type bcastOp struct {
	due  time.Duration
	from types.ProcessID
}

// broadcastSchedule is a Poisson schedule of casts from processes drawn
// from seed.
func broadcastSchedule(seed int64, rate float64, window time.Duration) []bcastOp {
	rng := rand.New(rand.NewSource(seed))
	arrivals := poissonArrivals(rng, rate, window)
	ops := make([]bcastOp, len(arrivals))
	for i, at := range arrivals {
		ops[i] = bcastOp{due: at, from: types.ProcessID(rng.Intn(groups * perGroup))}
	}
	return ops
}

// bcastState is one cast awaiting deliveries. A delivery can reach the
// tracker before Broadcast has returned the cast's ID to the sender, so
// either side may create the entry; it completes once it is both
// registered and fully delivered.
type bcastState struct {
	registered bool
	got        int
	due, sent  time.Time
	last       time.Time
}

type bcastTracker struct {
	start    time.Time
	casts    map[types.MessageID]*bcastState
	out      []sample
	inflight int
	maxIn    int
}

// finish records the cast if it is complete. Callers hold e.mu.
func (e *env) finishBroadcast(id types.MessageID, st *bcastState) {
	if !st.registered || st.got < groups*perGroup {
		return
	}
	delete(e.bcast.casts, id)
	e.bcast.inflight--
	e.bcast.out = append(e.bcast.out, sample{
		due: st.due.Sub(e.bcast.start), lat: st.last.Sub(st.due), floor: floorOf(opBcast, groups, e.w.wan),
		late: st.sent.Sub(st.due), dest: 1<<groups - 1, fanout: groups, kind: opBcast, ok: true,
	})
}

func (e *env) onBroadcastDeliver(p types.ProcessID, id types.MessageID, payload any) {
	now := time.Now()
	e.mu.Lock()
	st := e.bcast.casts[id]
	if st == nil {
		st = &bcastState{}
		e.bcast.casts[id] = st
	}
	st.got++
	st.last = now
	e.finishBroadcast(id, st)
	e.mu.Unlock()
}

// runBroadcasts plays ops on their schedule and waits for the deliveries.
func (e *env) runBroadcasts(ops []bcastOp, window time.Duration) (phase, error) {
	start := time.Now()
	e.mu.Lock()
	e.bcast.start, e.bcast.out, e.bcast.maxIn = start, nil, 0
	e.mu.Unlock()
	for i, op := range ops {
		due := start.Add(op.due)
		sleepUntil(due)
		sent := time.Now()
		id := e.cl.Broadcast(op.from, fmt.Sprintf("b%d", i))
		if id.IsZero() {
			return phase{}, fmt.Errorf("broadcast %d from %v was refused", i, op.from)
		}
		e.mu.Lock()
		st := e.bcast.casts[id]
		if st == nil {
			st = &bcastState{}
			e.bcast.casts[id] = st
		}
		st.registered, st.due, st.sent = true, due, sent
		e.bcast.inflight++
		if e.bcast.inflight > e.bcast.maxIn {
			e.bcast.maxIn = e.bcast.inflight
		}
		e.finishBroadcast(id, st)
		e.mu.Unlock()
	}
	if d := time.Until(start.Add(window)); d > 0 {
		time.Sleep(d)
	}
	deadline := time.Now().Add(drainTimeout)
	for time.Now().Before(deadline) {
		e.mu.Lock()
		n := e.bcast.inflight
		e.mu.Unlock()
		if n == 0 {
			break
		}
		time.Sleep(time.Millisecond)
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	return phase{start: start, samples: e.bcast.out, sent: len(ops), unanswered: e.bcast.inflight,
		inflight: e.bcast.maxIn, window: window}, nil
}
