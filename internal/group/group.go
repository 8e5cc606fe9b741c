// Package group is one process's endpoint in its group, as Algorithms A1
// (internal/amcast) and A2 (internal/abcast) share it. In both a group orders
// what it has by intra-group consensus and then speaks to the other groups as
// one party; only the rule differs (A1's timestamp stages, A2's round union),
// and it plugs in through hooks (Rule). The endpoint owns the rest: the
// reliable multicast a cast starts with, the ordering engine, the sender set
// with its re-ship and the pull, the state transfer, and the recovery surface
// a host drives. A cast's ID comes from the process (node.Proc.NewCast).
//
// Who speaks for the group. The paper has every member send every
// inter-group message (A1's line 24, A2's line 15). With Pipeline > 1 only
// Rule.Copies of them do: in each member's own Ω view, the group's leader and
// its successors in rank order (fd.Senders). Safety does not depend on the
// carrier: what a sender sends is a function of its group's decision sequence
// (A1's proposal or final timestamp, A2's decided bundle), so every member's
// copy, sent at any time, says the same, and a receiver keeps the first.
// Liveness needs two mechanisms, because a sender may crash or stand down
// between a decision and its send:
//
//   - Re-ship. A member that Ω makes a sender, or that ends a state transfer
//     as one, sends again what the group may still owe (Rule.Reship).
//   - Pull. Views can disagree for long, a real link drops what a full send
//     queue cannot take, and a re-ship reaches only as far back as its rule
//     keeps things (A2: the new sender's window). A sender cannot know what
//     arrived, so the receiver asks: each time an item has waited on another
//     group for another PullAfter ticks of the consensus retry cadence, it
//     asks one member of each group it still lacks, the next in rank each
//     time (Rule.Pull, Due, Ask). The answer is a function of that group's
//     decisions, so stable under replay. Over channels that lose messages,
//     bounded retransmission has to be driven by the receiver (Dolev et al.).
//
// The tick runs only while something waits, so an idle endpoint schedules
// nothing (Prop. A.9's quiescence). With Pipeline <= 1 nothing is armed and
// nothing is re-shipped: the paper's listings, to the message.
package group

import (
	"cmp"
	"time"

	"wanamcast/internal/consensus"
	"wanamcast/internal/fd"
	"wanamcast/internal/node"
	"wanamcast/internal/rmcast"
	"wanamcast/internal/statesync"
	"wanamcast/internal/storage"
	"wanamcast/internal/types"
	"wanamcast/internal/wire"
)

// PullAfter is how many retry ticks an item waits before each pull: 8 × 40 ms
// by default, two crossings of a 150 ms link, so that neither an exchange nor
// an answer in flight draws one. Too short a wait costs frames, never a
// property.
const PullAfter = 8

// Config configures an A1 or A2 endpoint on one process (amcast.Config and
// abcast.Config are this type).
type Config struct {
	Host     *node.Proc
	Detector *fd.Oracle
	// OnDeliver is invoked on every A-Deliver, in delivery order, with the
	// payload bytes the caster handed to Cast (read them, never write). May
	// be nil.
	OnDeliver func(id types.MessageID, payload []byte)
	// ConsensusRetry overrides the consensus retry interval.
	ConsensusRetry time.Duration
	// MaxBatch caps how many items one consensus instance may order. Zero
	// means unbounded — the paper's rule; 1 degenerates to one per instance.
	MaxBatch int
	// Pipeline is the number of consensus instances (A2: rounds) that may be
	// in flight. Zero or 1 is the paper's sequential algorithm; above 1 full
	// batches overlap, the reduced sender set speaks for the group, and the
	// rule's package doc says what else changes.
	Pipeline int
	// Log, when non-nil, makes the endpoint durable: the acceptor persists
	// promises and votes, decisions, what came from other groups and what a
	// state transfer adopts are appended for replay — so a restarted process
	// rebuilds its state from disk plus a bounded catch-up from live peers.
	Log *storage.Log
	// Sync sets the state-transfer archive bound and completion hooks.
	Sync statesync.Options
}

// Rule is what an algorithm plugs into its endpoint, besides the hooks of
// its ordering engine and state transfer.
type Rule struct {
	// Label names the protocol on the wire and in the WAL; the reliable
	// multicast runs under Label+".rm", the consensus under Label+".cons".
	Label string
	// Mode is the reliable multicast a cast starts with.
	Mode       rmcast.Mode
	OnRDeliver func(rmcast.Message)
	// Copies is how many members speak for the group with Pipeline > 1.
	Copies int
	// Reship sends again what the group may still owe the other groups.
	Reship func()
	// Pull runs on every pull tick: Due for each waiting item, Ask if due.
	Pull func()
	// Save appends the rule's state; Load reads it back. The archive and the
	// engine follow.
	Save func(buf []byte) []byte
	Load func(data []byte) (rest []byte, err error)
	// Replay replays one of the rule's WAL records, if it knows the kind.
	Replay func(rec storage.Record) bool
}

// Endpoint is one process's group endpoint under one rule, which embeds it
// and registers as the protocol under Rule.Label (with statesync.Handlers).
type Endpoint[T consensus.Item, R, Tail any] struct {
	Engine *consensus.Batcher[T]
	Sync   *statesync.Engine[R, Tail]
	Log    *storage.Log

	rule    Rule
	api     *node.Proc
	rm      *rmcast.RMcast
	senders fd.Senders

	pullEvery time.Duration // the consensus retry cadence; 0 with Pipeline <= 1
	pullOn    bool          // the pull tick is armed
	pullFn    func()        // pullTick, bound once where pullEvery is set
	ticks     uint64        // pull ticks so far
}

// New builds an endpoint and registers its sub-protocols on the host; bc and
// sc carry the rule's ordering and state-transfer hooks.
func New[T consensus.Item, R, Tail any](cfg Config, rule Rule, bc consensus.BatcherConfig[T], sc statesync.Config[R, Tail]) *Endpoint[T, R, Tail] {
	if cfg.Host == nil || cfg.Detector == nil {
		panic(rule.Label + ": Config.Host and Detector are required")
	}
	host := cfg.Host
	e := &Endpoint[T, R, Tail]{Log: cfg.Log, rule: rule, api: host}
	copies := 0 // every member speaks for the group
	if cfg.Pipeline > 1 {
		copies = rule.Copies
		e.pullEvery, e.pullFn = cmp.Or(max(cfg.ConsensusRetry, 0), consensus.DefaultRetry), e.pullTick
	}
	e.senders = fd.NewSenders(cfg.Detector, host.Topo(), host.Self(), copies)
	resume := sc.Resume
	sc.API, sc.Label, sc.Options = host, rule.Label, cfg.Sync
	sc.Resume = func() {
		resume()
		if e.senders.Sends() {
			// What was adopted or replayed was never sent from here, and
			// what was in flight when the group last went down is lost.
			e.rule.Reship()
		}
		e.Wait()
	}
	e.Sync = statesync.New(sc)
	e.rm = rmcast.New(rmcast.Config{API: host, Mode: rule.Mode, OnDeliver: rule.OnRDeliver, ProtoLabel: rule.Label + ".rm"})
	bc.API, bc.Detector, bc.RetryInterval, bc.ProtoLabel = host, cfg.Detector, cfg.ConsensusRetry, rule.Label+".cons"
	bc.MaxBatch, bc.Pipeline, bc.Log = cfg.MaxBatch, cfg.Pipeline, cfg.Log
	e.Engine = consensus.NewBatcher(bc)
	host.Register(e.rm)
	host.Register(e.Engine.Protocol())
	return e
}

// Proto implements node.Protocol.
func (e *Endpoint[T, R, Tail]) Proto() string { return e.rule.Label }

// Start implements node.Protocol: a member that Ω makes a sender re-ships.
func (e *Endpoint[T, R, Tail]) Start() { e.senders.OnChange(e.api.Crashed, e.rule.Reship) }

// Cast reliably multicasts payload to dest under a fresh ID and returns it.
// The payload is the caster's encoding of its value: the endpoint carries it
// and never reads it, and the caster must not change it afterwards.
func (e *Endpoint[T, R, Tail]) Cast(payload []byte, dest types.GroupSet) types.MessageID {
	id := e.api.NewCast()
	e.rm.MCast(rmcast.Message{ID: id, Dest: dest, Payload: payload})
	return id
}

// Sends reports whether this member speaks for its group now.
func (e *Endpoint[T, R, Tail]) Sends() bool { return e.senders.Sends() }

func (e *Endpoint[T, R, Tail]) pullTick() {
	e.pullOn = false
	e.ticks++
	e.rule.Pull()
}

// Wait is the rule's call when an item begins to wait on another group: it
// starts the pull tick (Pipeline > 1) and returns the tick to age it from.
func (e *Endpoint[T, R, Tail]) Wait() uint64 {
	if e.pullEvery > 0 && !e.pullOn {
		e.pullOn = true
		e.api.After(e.pullEvery, e.pullFn)
	}
	return e.ticks
}

// Due keeps the tick running for an item waiting since tick since, and
// returns n > 0 when it has waited n × PullAfter ticks (its n-th ask), else 0.
func (e *Endpoint[T, R, Tail]) Due(since uint64) uint64 {
	if age := e.Wait() - since; age%PullAfter == 0 {
		return age / PullAfter
	}
	return 0
}

// Ask returns the member of group g the n-th ask goes to: the next in rank
// on each ask, from an offset of this process's ID.
func (e *Endpoint[T, R, Tail]) Ask(g types.GroupID, n uint64) types.ProcessID {
	ms := e.api.Topo().Members(g)
	return ms[(n+uint64(e.api.Self()))%uint64(len(ms))]
}

// AppendSnapshot encodes the endpoint's replicated state for the host's
// snapshot section: the rule's, the archive, the engine (length-prefixed).
func (e *Endpoint[T, R, Tail]) AppendSnapshot(buf []byte) []byte {
	buf = e.rule.Save(buf)
	buf = e.Sync.AppendArchive(buf)
	return wire.AppendBytes(buf, e.Engine.AppendSnapshot(nil))
}

// RestoreSnapshot rebuilds the endpoint from AppendSnapshot's encoding.
func (e *Endpoint[T, R, Tail]) RestoreSnapshot(data []byte) error {
	var d wire.Decoder
	d.Data, d.Err = e.rule.Load(data)
	d.Step(e.Sync.RestoreArchive)
	if blob := wire.Read(&d, wire.Bytes); d.Err == nil {
		return e.Engine.RestoreSnapshot(blob)
	}
	return d.Err
}

// Recover re-fires the apply cascade for decisions the restored snapshot knew
// about: after RestoreSnapshot, before WAL replay, in recovering mode.
func (e *Endpoint[T, R, Tail]) Recover() {
	e.Engine.BeginRecovery()
	e.Engine.Recover()
}

// EndRecovery leaves replay mode after the WAL tail, and shuts the delivery
// gate until StartSync's transfer finishes (statesync.Engine.Arm).
func (e *Endpoint[T, R, Tail]) EndRecovery() {
	e.Engine.EndRecovery()
	e.Sync.Arm()
}

// ReplayRecord replays one WAL record of this endpoint: its own label's or
// its consensus engine's.
func (e *Endpoint[T, R, Tail]) ReplayRecord(rec storage.Record) error {
	if rec.Proto == e.Engine.Label() {
		return e.Engine.ReplayRecord(rec)
	}
	if !e.rule.Replay(rec) {
		e.api.Tracef("%s: ignoring unexpected WAL record kind %d", e.rule.Label, rec.Kind)
	}
	return nil
}

// EngineLabel returns the ordering engine's label, its WAL namespace.
func (e *Endpoint[T, R, Tail]) EngineLabel() string { return e.Engine.Label() }

// Syncing reports whether delivery is gated: from the end of recovery or the
// start of a transfer until the transfer finishes (an abandoned one never does).
func (e *Endpoint[T, R, Tail]) Syncing() bool { return e.Sync.Gated() }

// StartSync begins catch-up from the same-group peers after a restart.
func (e *Endpoint[T, R, Tail]) StartSync() { e.Sync.Start() }

// Archive returns the retained applied records, oldest first (A1 deliveries,
// A2 rounds).
func (e *Endpoint[T, R, Tail]) Archive() []R { return e.Sync.Archive() }
