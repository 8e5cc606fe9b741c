package baseline

import (
	"fmt"
	"time"

	"wanamcast/internal/consensus"
	"wanamcast/internal/fd"
	"wanamcast/internal/node"
	"wanamcast/internal/rmcast"
	"wanamcast/internal/types"
)

// Delporte is the Delporte-Gallet & Fauconnier [4] genuine atomic
// multicast, as described in §6: the destination groups of a message are
// visited in a fixed order (ascending group ID); each group runs intra-
// group consensus to fix the message's timestamp and hands it over to the
// next group; the last group announces the final timestamp to every
// destination process; and, to avoid cycles in the delivery order, a group
// handles one multi-group message at a time, waiting for the final
// announcement before taking the next.
//
// Latency degree: k+1 for k destination groups (1 hop to the first group,
// k−1 handovers, 1 final announcement), the linear-in-k row of Figure 1(a).
// Inter-group messages: O(kd²) — each hop is a d×d exchange — the cheapest
// of the fault-tolerant multicasts, which is exactly the latency/bandwidth
// trade-off the paper's §6 discusses.
type Delporte struct {
	api       *node.Proc
	onDeliver func(rmcast.Message)
	label     string
	cons      *consensus.Consensus

	k         uint64
	propK     uint64
	castSeqN  uint64
	busy      *types.MessageID // multi-group message being processed, if any
	queue     []*dgPend        // admitted, not yet timestamped by this group
	queued    map[types.MessageID]bool
	processed map[types.MessageID]bool // timestamped (or delivered) by this group
	decisions map[uint64][]DGItem
	delivered map[types.MessageID]bool
}

type dgPend struct {
	msg rmcast.Message
	ts  uint64 // timestamp carried from previous groups
}

// DGItem is the consensus value element: one message picked for
// timestamping by this group.
type DGItem struct {
	ID      types.MessageID
	Dest    types.GroupSet
	Payload []byte
	TS      uint64 // carried timestamp
}

// Delporte wire messages, exported for gob registration.
type (
	// DGData carries the message from the caster to the first group.
	DGData struct{ M rmcast.Message }
	// DGHandover passes the message and its timestamp-so-far to the next
	// destination group.
	DGHandover struct {
		Item DGItem
	}
	// DGFinal announces the final timestamp to all destination processes.
	DGFinal struct {
		Item DGItem
	}
)

// DelporteConfig configures a Delporte endpoint.
type DelporteConfig struct {
	Host      *node.Proc
	Detector  fd.Detector
	OnDeliver func(rmcast.Message)
	// ConsensusRetry overrides the consensus retry interval.
	ConsensusRetry time.Duration
	// ProtoLabel overrides the wire label (default "dg").
	ProtoLabel string
}

var _ node.Protocol = (*Delporte)(nil)

// NewDelporte builds a Delporte endpoint and registers it on the host.
func NewDelporte(cfg DelporteConfig) *Delporte {
	if cfg.Host == nil || cfg.Detector == nil {
		panic("baseline: DelporteConfig.Host and Detector are required")
	}
	label := cfg.ProtoLabel
	if label == "" {
		label = "dg"
	}
	d := &Delporte{
		api:       cfg.Host,
		onDeliver: cfg.OnDeliver,
		label:     label,
		k:         1,
		propK:     1,
		queued:    make(map[types.MessageID]bool),
		processed: make(map[types.MessageID]bool),
		decisions: make(map[uint64][]DGItem),
		delivered: make(map[types.MessageID]bool),
	}
	d.cons = consensus.New(consensus.Config{
		API:           cfg.Host,
		Detector:      cfg.Detector,
		OnDecide:      d.onDecide,
		RetryInterval: cfg.ConsensusRetry,
		ProtoLabel:    label + ".cons",
	})
	cfg.Host.Register(d.cons)
	cfg.Host.Register(d)
	return d
}

// Proto implements node.Protocol.
func (d *Delporte) Proto() string { return d.label }

// Start implements node.Protocol.
func (d *Delporte) Start() {}

// AMCast multicasts payload to dest: the message is shipped to the first
// destination group, which starts the handover chain.
func (d *Delporte) AMCast(payload []byte, dest types.GroupSet) types.MessageID {
	if dest.Size() == 0 {
		panic("baseline: Delporte A-MCast with empty destination")
	}
	id := types.MessageID{Origin: d.api.Self(), Seq: d.nextSeq()}
	d.api.RecordCast(id)
	m := rmcast.Message{ID: id, Dest: dest, Payload: payload}
	first := dest.Groups()[0]
	node.Multicast(d.api, d.api.Topo().Members(first), d.label, DGData{M: m})
	return id
}

func (d *Delporte) nextSeq() uint64 {
	d.castSeqN++
	return d.castSeqN
}

// Handlers implements node.Protocol.
func (d *Delporte) Handlers() []node.Handler { return delporteHandlers }

var delporteHandlers = []node.Handler{
	node.On(func(d *Delporte, _ types.ProcessID, m DGData) {
		d.admit(DGItem{ID: m.M.ID, Dest: m.M.Dest, Payload: m.M.Payload})
	}),
	node.On(func(d *Delporte, _ types.ProcessID, m DGHandover) { d.admit(m.Item) }),
	node.On(func(d *Delporte, _ types.ProcessID, m DGFinal) { d.onFinal(m.Item) }),
}

// admit enqueues a message for this group's consensus.
func (d *Delporte) admit(item DGItem) {
	if d.delivered[item.ID] || d.processed[item.ID] || d.queued[item.ID] {
		return
	}
	d.queued[item.ID] = true
	d.queue = append(d.queue, &dgPend{
		msg: rmcast.Message{ID: item.ID, Dest: item.Dest, Payload: item.Payload},
		ts:  item.TS,
	})
	d.tryPropose()
}

// tryPropose proposes the head of the queue when the group is idle: one
// multi-group message at a time (the paper's serialization), but
// single-group messages can batch freely.
func (d *Delporte) tryPropose() {
	if d.propK > d.k || d.busy != nil || len(d.queue) == 0 {
		return
	}
	head := d.queue[0]
	d.cons.Propose(d.k, []DGItem{{
		ID:      head.msg.ID,
		Dest:    head.msg.Dest,
		Payload: head.msg.Payload,
		TS:      head.ts,
	}})
	d.propK = d.k + 1
}

func (d *Delporte) onDecide(inst uint64, v consensus.Value) {
	set, ok := v.([]DGItem)
	if !ok {
		panic(fmt.Sprintf("baseline: delporte consensus decided unexpected value %T", v))
	}
	d.decisions[inst] = set
	for {
		cur, ok := d.decisions[d.k]
		if !ok {
			return
		}
		delete(d.decisions, d.k)
		d.processDecision(cur)
	}
}

func (d *Delporte) processDecision(set []DGItem) {
	for _, item := range set {
		// Assign this group's timestamp: past the carried one and past
		// everything this group assigned before.
		ts := item.TS
		if d.k > ts {
			ts = d.k
		}
		d.k = ts + 1
		d.processed[item.ID] = true
		d.dropFromQueue(item.ID)
		item.TS = ts

		groups := item.Dest.Groups()
		myIdx := -1
		for i, g := range groups {
			if g == d.api.Group() {
				myIdx = i
				break
			}
		}
		if myIdx < 0 {
			panic(fmt.Sprintf("baseline: delporte %v decided %v not addressed to its group", d.api.Self(), item.ID))
		}
		switch {
		case len(groups) == 1:
			// Single destination group: deliver in consensus order.
			d.deliver(item)
		case myIdx == len(groups)-1:
			// Last group: announce the final timestamp everywhere.
			node.Multicast(d.api, d.api.Topo().ProcessesIn(item.Dest), d.label, DGFinal{Item: item})
		default:
			// Hand over to the next group and serialize until the final
			// announcement returns.
			id := item.ID
			d.busy = &id
			next := groups[myIdx+1]
			node.Multicast(d.api, d.api.Topo().Members(next), d.label, DGHandover{Item: item})
		}
	}
	d.propK = d.k // allow proposing the new instance
	d.tryPropose()
}

func (d *Delporte) dropFromQueue(id types.MessageID) {
	for i, p := range d.queue {
		if p.msg.ID == id {
			d.queue = append(d.queue[:i], d.queue[i+1:]...)
			break
		}
	}
	delete(d.queued, id)
}

func (d *Delporte) onFinal(item DGItem) {
	if d.busy != nil && *d.busy == item.ID {
		// Release serialization and advance the clock past the final
		// timestamp so later messages order after it.
		d.busy = nil
		if item.TS >= d.k {
			d.k = item.TS + 1
		}
	}
	d.deliver(item)
	d.tryPropose()
}

func (d *Delporte) deliver(item DGItem) {
	if d.delivered[item.ID] {
		return
	}
	d.delivered[item.ID] = true
	d.api.RecordDeliver(item.ID)
	if d.onDeliver != nil {
		d.onDeliver(rmcast.Message{ID: item.ID, Dest: item.Dest, Payload: item.Payload})
	}
}
