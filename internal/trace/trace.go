// Package trace is the message-lifecycle tracer: every A-XCast message's
// journey — client submit, svc enqueue, rmcast send/admit, consensus
// propose/promise/accept/learn (with the fsync-barrier sub-spans from
// storage.GroupCommit), lane dequeue, A-Deliver, reply — is recorded as a
// chain of fixed-size events in bounded per-lane overwrite rings
// (internal/ring.Recent). The rings double as a flight recorder: on a §2.2
// checker violation, a durability SyncFailed, or a crash-restart, the live
// cluster dumps the last N spans per process as JSONL for post-mortem.
//
// Cost discipline: a disabled tracer (nil pointer, or enabled=false) costs
// one nil check plus at most one atomic load per call site — no
// allocations, no mutexes, no formatting — pinned by TestTraceDisabledZeroAllocs.
// An enabled tracer takes one short per-lane mutex and writes one value
// into a preallocated slot; stages that carry a measured duration also
// feed the metrics.StageStats histograms (one fixed-size metrics.Hist per
// stage, nothing appended), so end-to-end latency can be attributed per layer.
package trace

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"sync/atomic"
	"time"

	"wanamcast/internal/metrics"
	"wanamcast/internal/ring"
	"wanamcast/internal/types"
)

// Stage identifies one step of a message's lifecycle.
type Stage uint8

const (
	// StageSubmit marks the svc layer receiving a client request.
	StageSubmit Stage = iota
	// StageEnqueue marks the svc layer handing the command to the ordering
	// layer; Aux is the nanoseconds spent between submit and enqueue.
	StageEnqueue
	// StageRMSend marks the reliable-multicast send of the message.
	StageRMSend
	// StageRMAdmit marks rmcast admitting (R-Delivering) the message.
	StageRMAdmit
	// StageCast marks the A-XCast event; Aux is the caster's modified
	// Lamport clock (§2.3) at the cast, so latency degrees can be computed
	// from traces alone.
	StageCast
	// StagePropose marks a consensus proposal; Aux is the instance number.
	StagePropose
	// StagePromise marks a promise sent after the WAL fsync barrier; Aux
	// is the nanoseconds the promise waited on the barrier.
	StagePromise
	// StageAccept marks an accepted-vote sent after the WAL fsync barrier;
	// Aux is the nanoseconds the vote waited on the barrier.
	StageAccept
	// StageLearn marks a decided consensus instance; Aux is the instance.
	StageLearn
	// StageOrder marks a message becoming deliverable at the ordering
	// layer; Aux is the nanoseconds between its admit and its delivery —
	// the protocol's ordering residency.
	StageOrder
	// StageFsync marks one group-commit window; Aux is the nanoseconds the
	// window's fsyncs took.
	StageFsync
	// StageLaneDeq marks a frame leaving its lane inbox; Aux is the
	// nanoseconds it queued.
	StageLaneDeq
	// StageDeliver marks the A-Deliver event; Aux is the deliverer's
	// Lamport clock, pairing with StageCast for per-message WAN hops.
	StageDeliver
	// StageReply marks the svc reply to the client; Aux is the
	// nanoseconds between submit and reply (end-to-end at the server).
	StageReply
	// StageBlocked marks an A1 delivery; Aux is the nanoseconds between the
	// decision that made the message deliverable and its A-Deliver — the
	// share of order spent waiting for another message's timestamp. A2
	// records it in the caster's group: from the decision of the bundle
	// carrying the message to the completion of its round — the WAN hop
	// plus the wait for the slowest group's bundle.
	StageBlocked
	// StageRoundWait marks an A2 message's bundle being decided in the
	// caster's group; Aux is the nanoseconds since its R-Delivery — the wait
	// for a round to open plus that round's consensus. With StageBlocked it
	// splits A2's order.
	StageRoundWait

	numStages
)

var stageNames = [numStages]string{
	"submit", "enqueue", "rmsend", "rmadmit", "cast", "propose", "promise",
	"accept", "learn", "order", "fsync", "lanedeq", "deliver", "reply", "blocked",
	"roundwait",
}

// auxIsDuration marks the stages whose Aux is a measured duration in
// nanoseconds; those feed the StageStats latency histograms.
var auxIsDuration = [numStages]bool{
	StageEnqueue: true, StagePromise: true, StageAccept: true,
	StageOrder: true, StageFsync: true, StageLaneDeq: true, StageReply: true,
	StageBlocked: true, StageRoundWait: true,
}

// String returns the stage's wire name (also the histogram label).
func (s Stage) String() string {
	if int(s) < len(stageNames) {
		return stageNames[s]
	}
	return fmt.Sprintf("stage(%d)", uint8(s))
}

// NumStages is the number of lifecycle stages; StageNames lists their
// labels in stage order (for StageStats construction).
func NumStages() int { return int(numStages) }

// StageNames returns the stage labels in stage order.
func StageNames() []string { return append([]string(nil), stageNames[:]...) }

// Event is one recorded span. It is a flat value — pushing one into a
// ring allocates nothing.
type Event struct {
	Span  uint64          // process-unique span id
	ID    types.MessageID // zero when not message-scoped
	Stage Stage
	Proc  types.ProcessID // recording process
	At    int64           // wall (live) or virtual (sim) nanoseconds
	Aux   int64           // stage-specific: clock, duration ns, instance
}

// eventJSON is the dump shape: stages go out by name, not ordinal, so the
// JSONL stays readable when the enum grows.
type eventJSON struct {
	Span  uint64 `json:"span"`
	Orig  int    `json:"orig"`
	Seq   uint64 `json:"seq"`
	Stage string `json:"stage"`
	Proc  int    `json:"proc"`
	At    int64  `json:"at_ns"`
	Aux   int64  `json:"aux"`
}

// Tracer records lifecycle events into per-lane overwrite rings. The zero
// value is unusable; construct with New. A nil *Tracer is a valid,
// permanently disabled tracer: every method is nil-safe.
type Tracer struct {
	enabled atomic.Bool
	span    atomic.Uint64
	lanes   []*ring.Recent[Event]
	stats   *metrics.StageStats
	now     func() int64 // event clock; wall by default, virtual in sims
}

// New returns a tracer with the given lane count (clamped to at least 1)
// and per-lane span capacity (rounded up to a power of two, minimum 8).
// The tracer starts disabled; call SetEnabled(true) to record.
func New(lanes, perLane int) *Tracer {
	if lanes < 1 {
		lanes = 1
	}
	t := &Tracer{
		lanes: make([]*ring.Recent[Event], lanes),
		stats: metrics.NewStageStats(StageNames()),
		now:   func() int64 { return time.Now().UnixNano() },
	}
	for i := range t.lanes {
		t.lanes[i] = ring.NewRecent[Event](perLane)
	}
	return t
}

// SetClock replaces the event clock (wall nanoseconds by default). A caller
// that traces a simulated run installs the virtual clock, so the trace is a
// function of the seed; no runtime installs one itself.
func (t *Tracer) SetClock(now func() int64) {
	if t != nil && now != nil {
		t.now = now
	}
}

// SetEnabled toggles recording. Disabled recording costs one atomic load.
func (t *Tracer) SetEnabled(on bool) {
	if t != nil {
		t.enabled.Store(on)
	}
}

// Enabled reports whether the tracer records events. Nil-safe.
func (t *Tracer) Enabled() bool { return t != nil && t.enabled.Load() }

// Stats returns the per-stage latency histograms (nil on a nil tracer).
func (t *Tracer) Stats() *metrics.StageStats {
	if t == nil {
		return nil
	}
	return t.stats
}

// NextSpan allocates a process-unique span id (1, 2, ...). The tcp debug
// sink stamps frames with these so debug lines correlate with spans.
func (t *Tracer) NextSpan() uint64 {
	if t == nil {
		return 0
	}
	return t.span.Add(1)
}

// Record appends one event to lane's ring (lane is reduced modulo the
// lane count). Duration-carrying stages also feed the stage histograms.
// Nil-safe and a no-op when disabled.
func (t *Tracer) Record(lane int, st Stage, id types.MessageID, proc types.ProcessID, aux int64) {
	if t == nil || !t.enabled.Load() {
		return
	}
	t.record(lane, st, id, proc, aux)
}

// RecordSpan is Record with a caller-chosen span id (frames traced by the
// transport reuse the span stamped at enqueue time).
func (t *Tracer) RecordSpan(span uint64, lane int, st Stage, id types.MessageID, proc types.ProcessID, aux int64) {
	if t == nil || !t.enabled.Load() {
		return
	}
	ev := Event{Span: span, ID: id, Stage: st, Proc: proc, At: t.now(), Aux: aux}
	t.push(lane, st, ev)
}

func (t *Tracer) record(lane int, st Stage, id types.MessageID, proc types.ProcessID, aux int64) {
	ev := Event{Span: t.span.Add(1), ID: id, Stage: st, Proc: proc, At: t.now(), Aux: aux}
	t.push(lane, st, ev)
}

func (t *Tracer) push(lane int, st Stage, ev Event) {
	if lane < 0 {
		lane = -lane
	}
	t.lanes[lane%len(t.lanes)].Push(ev)
	if int(st) < len(auxIsDuration) && auxIsDuration[st] {
		t.stats.Observe(int(st), time.Duration(ev.Aux))
	}
}

// Snapshot returns the retained events of every lane, ordered by event
// time (ties broken by span id), oldest first.
func (t *Tracer) Snapshot() []Event {
	if t == nil {
		return nil
	}
	var all []Event
	for _, l := range t.lanes {
		all = l.Snapshot(all)
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].At != all[j].At {
			return all[i].At < all[j].At
		}
		return all[i].Span < all[j].Span
	})
	return all
}

// WriteJSONL writes the current snapshot as one JSON object per line.
func (t *Tracer) WriteJSONL(w io.Writer) error {
	if t == nil {
		return nil
	}
	enc := json.NewEncoder(w)
	for _, ev := range t.Snapshot() {
		line := eventJSON{
			Span: ev.Span, Orig: int(ev.ID.Origin), Seq: ev.ID.Seq,
			Stage: ev.Stage.String(), Proc: int(ev.Proc), At: ev.At, Aux: ev.Aux,
		}
		if err := enc.Encode(line); err != nil {
			return err
		}
	}
	return nil
}

// DumpFile writes the snapshot as JSONL to path (truncating). The flight
// recorder calls this on checker violations, SyncFailed, and restarts.
func (t *Tracer) DumpFile(path string) error {
	if t == nil {
		return nil
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := t.WriteJSONL(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
