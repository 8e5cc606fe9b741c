// Package durable hosts one process's ordering endpoints: it builds
// Algorithm A1 and Algorithm A2 on a node.Proc as two group endpoints
// (internal/group, whose recovery surface this package drives) from one
// configuration and, given a storage.Store, makes the process durable:
// snapshots on a delivery cadence and after every state transfer, crash
// recovery, and the restart catch-up. Every process that runs the paper's
// algorithms is built here: the simulator's (harness.System, no store —
// behind Cluster, wansim, its -figures and the sim-scale benchmark) and the
// live cluster's, which wannode runs too, hosting one process.
//
// Cast IDs carry the incarnation in node.Proc.NewCast's format; this package
// persists it. Recover makes the next incarnation durable (the inline barrier:
// Flush, Sync, Maintain) and hands it to the process before it returns, so no
// two incarnations on one store issue one ID. A volatile host stays at 0.
// A wiped store loses its incarnation: a process restarted over one
// re-issues incarnation 1's IDs (a replaced disk needs a new process ID).
//
// Recovery order matters, and this is the one place it is written down.
// Every snapshot section restores first — A1, A2, the incarnation, then the
// caller's sections (the service layer's state machine) — so the layers
// agree on one consistent cut. Then the ordering engines re-fire decisions
// the snapshot knew but had not applied: their delivery effects post-date
// the cut and must reach the restored state machine. Finally the WAL tail
// replays through the same code paths that wrote it. The process is in
// recovering mode throughout (sends and metrics suppressed) and must not
// handle a live event before Recover returns: an acceptor must never answer
// a Prepare or Accept with amnesia. Recovery leaves delivery gated;
// StartSync, called on the live event loop once the process may send again,
// lifts the gate by catching up from the group peers (internal/statesync).
// It must run after a first start too: a wiped data dir on a running cluster
// is just "very far behind" in deliveries (not in IDs, see above), and on a
// cluster-wide cold start every member answers Busy with nothing newer, so
// the group resumes at once. The live cluster runs this order for each
// process it (re)starts; Recover and StartSync do nothing without a store.
package durable

import (
	"fmt"

	"wanamcast/internal/abcast"
	"wanamcast/internal/amcast"
	"wanamcast/internal/config"
	"wanamcast/internal/fd"
	"wanamcast/internal/group"
	"wanamcast/internal/node"
	"wanamcast/internal/storage"
	"wanamcast/internal/types"
	"wanamcast/internal/wire"
)

// Section is one extra named snapshot contributor (beyond A1, A2 and the
// incarnation), e.g. the service layer's replica state. One without Save is a
// name of an earlier format: no snapshot writes it, and its Restore refuses a
// snapshot that holds it.
type Section struct {
	Name    string
	Save    func() ([]byte, error)
	Restore func(data []byte) error
}

// Config describes one process.
type Config struct {
	Proc     *node.Proc
	Detector *fd.Oracle
	// Store makes the process durable and numbers its incarnations; nil
	// runs it volatile at incarnation 0 (Snapshot and Recover do nothing).
	Store storage.Store
	// GroupCommit, when non-nil, batches the store's fsync barriers with
	// other processes' (see storage.GroupCommit).
	GroupCommit *storage.GroupCommit
	// Knobs supplies the ordering and snapshot knobs, defaults applied:
	// MaxBatch, Pipeline, ConsensusRetry, SnapshotEvery. The state-transfer
	// archive depth is left at its package's default (4096 records).
	Knobs config.Config
	// Async runs fn as an event of its own on the process's loop. Snapshots
	// and group-commit continuations go through it: engine state is only
	// consistent between events. Required with a Store.
	Async func(fn func())
	// Deliver receives every A-Delivery in order; proto is the delivering
	// endpoint's label ("a1" or "a2"), payload the bytes the caster handed
	// over, shared with the endpoint (read them, never write). Replayed
	// deliveries arrive too, while Proc.Recovering() is true.
	Deliver func(proto string, id types.MessageID, payload []byte)
	// Sections lists the caller's snapshot sections at each Snapshot and
	// Recover; nil means none.
	Sections func() []Section
	// OnSyncFailed, when non-nil, fires when proto's state transfer is
	// abandoned (the group's archives no longer cover this process).
	OnSyncFailed func(proto string)
}

const (
	sectionIncarnation = "cast-ids" // the incarnation number cast IDs carry
	maxIncarnation     = 1<<(64-node.CountBits) - 1
)

// endpoint is what the host needs of an ordering endpoint it built.
type endpoint interface {
	Proto() string
	EngineLabel() string
	AppendSnapshot(buf []byte) []byte
	RestoreSnapshot(data []byte) error
	Recover()
	EndRecovery()
	ReplayRecord(rec storage.Record) error
	StartSync()
}

// Node is one hosted process. Its methods, like its endpoints, belong to the
// process's event loop.
type Node struct {
	A1 *amcast.Mcast
	A2 *abcast.Bcast

	cfg         Config
	eps         []endpoint
	incarnation uint64 // set by Recover; 0 on a volatile host
	sinceSnap   int    // deliveries since the last automatic snapshot
}

// New builds the process's endpoints and registers them on cfg.Proc.
func New(cfg Config) *Node {
	n := &Node{cfg: cfg}
	log := storage.NewLog(cfg.Store)
	log.AttachGroupCommit(cfg.GroupCommit, cfg.Async)
	k := cfg.Knobs
	endpointConfig := func(proto string) group.Config {
		c := group.Config{Host: cfg.Proc, Detector: cfg.Detector, Log: log,
			MaxBatch: k.MaxBatch, Pipeline: k.Pipeline, ConsensusRetry: k.ConsensusRetry,
			OnDeliver: func(id types.MessageID, payload []byte) { n.deliver(proto, id, payload) }}
		if cfg.Store != nil {
			// A completed state transfer is the natural snapshot point: the
			// adopted deliveries live only in the WAL until one is taken. A
			// new process leaves it to the delivery cadence: a cluster's
			// cold start would spend its fsyncs snapshotting empty state.
			c.Sync.OnSynced = func() {
				if n.Recovered() {
					n.snapshotSoon()
				}
			}
		}
		if cfg.OnSyncFailed != nil {
			c.Sync.OnSyncFailed = func() { cfg.OnSyncFailed(proto) }
		}
		return c
	}
	n.A1, n.A2 = amcast.New(endpointConfig("a1")), abcast.New(endpointConfig("a2"))
	n.eps = []endpoint{n.A1, n.A2}
	return n
}

// deliver passes one A-Delivery on and keeps the snapshot cadence.
func (n *Node) deliver(proto string, id types.MessageID, payload []byte) {
	n.cfg.Deliver(proto, id, payload)
	if n.cfg.Store == nil || n.cfg.Knobs.SnapshotEvery <= 0 || n.cfg.Proc.Recovering() {
		return
	}
	if n.sinceSnap++; n.sinceSnap >= n.cfg.Knobs.SnapshotEvery {
		n.sinceSnap = 0
		n.snapshotSoon()
	}
}

// snapshotSoon snapshots as an event of its own: never in the middle of a
// delivery cascade. A failed snapshot costs replay time, not correctness: it
// is only traced.
func (n *Node) snapshotSoon() {
	n.cfg.Async(func() {
		if err := n.Snapshot(); err != nil {
			n.cfg.Proc.Tracef("snapshot failed: %v", err)
		}
	})
}

// sections lists every snapshot contributor in snapshot (and restore)
// order: the endpoints, the incarnation, then the caller's.
func (n *Node) sections() []Section {
	var secs []Section
	for _, ep := range n.eps {
		secs = append(secs, Section{
			Name:    ep.Proto(),
			Save:    func() ([]byte, error) { return ep.AppendSnapshot(nil), nil },
			Restore: ep.RestoreSnapshot,
		})
	}
	secs = append(secs, Section{
		Name: sectionIncarnation,
		Save: func() ([]byte, error) { return wire.AppendUvarint(nil, n.incarnation), nil },
		Restore: func(data []byte) (err error) {
			n.incarnation, _, err = wire.Uvarint(data)
			return err
		},
	})
	if n.cfg.Sections != nil {
		secs = append(secs, n.cfg.Sections()...)
	}
	return secs
}

// Snapshot captures every section into one blob and atomically replaces
// the store's snapshot with it (pruning covered WAL segments). A crashed
// incarnation and one still recovering have nothing consistent to save, and
// neither has one whose A1 is catching up: the order in which it will deliver
// what decisions released behind the gate is not in the snapshot (the WAL
// keeps everything until OnSynced snapshots the caught-up state).
func (n *Node) Snapshot() error {
	if n.cfg.Store == nil || n.cfg.Proc.Crashed() || n.cfg.Proc.Recovering() || n.A1.Syncing() {
		return nil
	}
	var blob []byte
	for _, s := range n.sections() {
		if s.Save == nil {
			continue
		}
		body, err := s.Save()
		if err != nil {
			return fmt.Errorf("durable: snapshot section %q: %w", s.Name, err)
		}
		blob = storage.AppendSection(blob, s.Name, body)
	}
	return n.cfg.Store.SaveSnapshot(blob)
}

// Recover rebuilds the process from its store, in the order the package
// comment gives, and makes the next incarnation durable. Call it on a fresh
// Node before the process handles a live event or group-commit continuation;
// on an error the Node is half-restored and must be discarded.
func (n *Node) Recover() error {
	if n.cfg.Store == nil {
		return nil
	}
	n.cfg.Proc.SetRecovering(true)
	defer n.cfg.Proc.SetRecovering(false)
	snap, from, err := n.cfg.Store.Load()
	if err != nil {
		return fmt.Errorf("durable: load: %w", err)
	}
	if err := n.restore(snap); err != nil {
		return err
	}
	byLabel := make(map[string]endpoint)
	for _, ep := range n.eps {
		byLabel[ep.Proto()], byLabel[ep.EngineLabel()] = ep, ep
		ep.Recover()
		defer ep.EndRecovery()
	}
	err = n.cfg.Store.Replay(from, func(rec storage.Record) error {
		if rec.Kind == storage.KindIncarnation {
			n.incarnation = max(n.incarnation, rec.Inst)
		} else if ep := byLabel[rec.Proto]; ep != nil {
			return ep.ReplayRecord(rec)
		}
		return nil // a layer this incarnation does not run
	})
	if err != nil {
		return fmt.Errorf("durable: replay: %w", err)
	}
	if n.incarnation >= maxIncarnation {
		return fmt.Errorf("durable: the store's incarnation %d is the last a cast ID can carry", n.incarnation)
	}
	n.incarnation++
	if err = n.cfg.Store.Append(storage.Record{Kind: storage.KindIncarnation, Inst: n.incarnation}); err == nil {
		err = storage.Barrier(n.cfg.Store)
	}
	if err != nil {
		return fmt.Errorf("durable: make incarnation %d durable: %w", n.incarnation, err)
	}
	n.cfg.Proc.SetIncarnation(n.incarnation)
	return nil
}

// restore hands every snapshot section to its owner. A section nobody owns
// belongs to a layer this incarnation does not run and is skipped: the
// snapshot stays usable.
func (n *Node) restore(snap []byte) error {
	secs, err := storage.Sections(snap)
	if err != nil {
		return fmt.Errorf("durable: snapshot: %w", err)
	}
	seen := make(map[string]bool)
	for _, sec := range secs {
		seen[sec.Name] = true
	}
	if (seen[n.A1.Proto()] || seen[n.A2.Proto()]) && !seen[sectionIncarnation] {
		// Skipping the incarnation like an unknown layer's section would
		// restart it at 1 and re-issue MessageIDs the ordering state already
		// knows; and an earlier format's ordering sections read otherwise.
		return fmt.Errorf("durable: snapshot has ordering state but no %q section (a data dir of an earlier format?)", sectionIncarnation)
	}
	owners := n.sections()
	for _, sec := range secs {
		for _, own := range owners {
			if own.Name != sec.Name {
				continue
			}
			if err := own.Restore(sec.Data); err != nil {
				return fmt.Errorf("durable: restore section %q: %w", sec.Name, err)
			}
		}
	}
	return nil
}

// Recovered reports whether Recover found an earlier incarnation's number.
func (n *Node) Recovered() bool { return n.incarnation > 1 }

// StartSync begins the endpoints' catch-up from their group peers; without a
// store there is nothing to catch up from and it does nothing.
func (n *Node) StartSync() {
	if n.cfg.Store == nil {
		return
	}
	for _, ep := range n.eps {
		ep.StartSync()
	}
}
