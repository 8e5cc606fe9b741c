package baseline

import (
	"wanamcast/internal/node"
	"wanamcast/internal/rmcast"
	"wanamcast/internal/types"
)

// Rodrigues is the Rodrigues, Guerraoui & Schiper [10] "scalable atomic
// multicast", as described in §6: destination processes associate the
// message with local-clock timestamps, exchange them, and then run a
// consensus spanning all destination processes on the maximum value.
// Because that consensus crosses groups, it costs two further inter-group
// delays — the reason the paper calls the algorithm "not well-suited for
// wide area networks".
//
// The four inter-group hops are: (1) the message to all destinations,
// (2) the all-to-all timestamp proposals, (3) the all-to-all estimate
// round of the spanning consensus, and (4) its all-to-all commit round.
// Latency degree: 4. Inter-group messages: O(k²d²).
//
// This reproduction targets the failure-free benchmark runs of Figure 1
// (the spanning consensus completes when every destination responds, which
// is the best case the paper's accounting assumes).
type Rodrigues struct {
	api       *node.Proc
	onDeliver func(rmcast.Message)

	lc        uint64
	pending   map[types.MessageID]*rgPend
	delivered map[types.MessageID]bool
}

type rgPend struct {
	msg     rmcast.Message
	ts      uint64 // own proposal, then max, then final
	props   map[types.ProcessID]uint64
	ests    map[types.ProcessID]uint64
	commits map[types.ProcessID]uint64
	phase   int // 0 = proposing, 1 = estimating, 2 = committing, 3 = final
}

func (p *rgPend) less(q *rgPend) bool {
	if p.ts != q.ts {
		return p.ts < q.ts
	}
	return p.msg.ID.Less(q.msg.ID)
}

// Rodrigues wire messages, exported for gob registration.
type (
	// RGData carries the multicast message to its destinations.
	RGData struct{ M rmcast.Message }
	// RGProp is a local-clock timestamp proposal.
	RGProp struct {
		ID types.MessageID
		TS uint64
	}
	// RGEst is the estimate round of the spanning consensus.
	RGEst struct {
		ID types.MessageID
		TS uint64
	}
	// RGCommit is the commit round of the spanning consensus.
	RGCommit struct {
		ID types.MessageID
		TS uint64
	}
)

// rgLabel is the wire label of Rodrigues's messages.
const rgLabel = "rg"

// RodriguesConfig configures a Rodrigues endpoint.
type RodriguesConfig struct {
	Host      *node.Proc
	OnDeliver func(rmcast.Message)
}

var _ node.Protocol = (*Rodrigues)(nil)

// NewRodrigues builds a Rodrigues endpoint and registers it on the host.
func NewRodrigues(cfg RodriguesConfig) *Rodrigues {
	if cfg.Host == nil {
		panic("baseline: RodriguesConfig.Host is required")
	}
	r := &Rodrigues{
		api:       cfg.Host,
		onDeliver: cfg.OnDeliver,
		pending:   make(map[types.MessageID]*rgPend),
		delivered: make(map[types.MessageID]bool),
	}
	cfg.Host.Register(r)
	return r
}

// Proto implements node.Protocol.
func (r *Rodrigues) Proto() string { return rgLabel }

// Start implements node.Protocol.
func (r *Rodrigues) Start() {}

// AMCast multicasts payload to dest.
func (r *Rodrigues) AMCast(payload []byte, dest types.GroupSet) types.MessageID {
	if dest.Size() == 0 {
		panic("baseline: Rodrigues A-MCast with empty destination")
	}
	id := r.api.NewCast()
	m := rmcast.Message{ID: id, Dest: dest, Payload: payload}
	node.Multicast(r.api, r.api.Topo().ProcessesIn(dest), rgLabel, RGData{M: m})
	return id
}

// Handlers implements node.Protocol.
func (r *Rodrigues) Handlers() []node.Handler { return rodriguesHandlers }

var rodriguesHandlers = []node.Handler{
	node.On(func(r *Rodrigues, _ types.ProcessID, m RGData) { r.onData(m.M) }),
	node.On(func(r *Rodrigues, from types.ProcessID, m RGProp) { r.onPhase(from, m.ID, m.TS, 0) }),
	node.On(func(r *Rodrigues, from types.ProcessID, m RGEst) { r.onPhase(from, m.ID, m.TS, 1) }),
	node.On(func(r *Rodrigues, from types.ProcessID, m RGCommit) { r.onPhase(from, m.ID, m.TS, 2) }),
}

// onPhase records from's timestamp of phase 0 (proposals), 1 (estimates) or
// 2 (commits) for id.
func (r *Rodrigues) onPhase(from types.ProcessID, id types.MessageID, ts uint64, phase int) {
	if r.delivered[id] {
		return // late phase traffic for a delivered message
	}
	p := r.pend(id)
	votes := [...]map[types.ProcessID]uint64{p.props, p.ests, p.commits}[phase]
	if _, seen := votes[from]; !seen {
		votes[from] = ts
	}
	r.advance(id)
}

// pend returns the record for id, creating a shell if phases raced ahead of
// the data message.
func (r *Rodrigues) pend(id types.MessageID) *rgPend {
	p, ok := r.pending[id]
	if !ok {
		p = &rgPend{
			props:   make(map[types.ProcessID]uint64),
			ests:    make(map[types.ProcessID]uint64),
			commits: make(map[types.ProcessID]uint64),
			phase:   -1, // data not yet seen
		}
		r.pending[id] = p
	}
	return p
}

func (r *Rodrigues) onData(m rmcast.Message) {
	if r.delivered[m.ID] {
		return
	}
	p := r.pend(m.ID)
	if p.phase >= 0 {
		return // duplicate
	}
	p.msg = m
	p.phase = 0
	r.lc++
	p.ts = r.lc
	p.props[r.api.Self()] = p.ts
	sendToDest(r, m.Dest, RGProp{ID: m.ID, TS: p.ts})
	r.advance(m.ID)
}

// sendToDest multisends body to every destination process but self.
func sendToDest[T any](r *Rodrigues, dest types.GroupSet, body T) {
	self := r.api.Self()
	var tos []types.ProcessID
	for _, q := range r.api.Topo().ProcessesIn(dest) {
		if q != self {
			tos = append(tos, q)
		}
	}
	node.Multicast(r.api, tos, rgLabel, body)
}

// advance moves id through the proposal → estimate → commit → final phases
// as the all-to-all rounds complete.
func (r *Rodrigues) advance(id types.MessageID) {
	p := r.pending[id]
	if p == nil || p.phase < 0 || r.delivered[id] {
		return
	}
	all := r.api.Topo().ProcessesIn(p.msg.Dest)
	complete := func(got map[types.ProcessID]uint64) bool {
		for _, q := range all {
			if q == r.api.Self() {
				continue
			}
			if _, ok := got[q]; !ok {
				return false
			}
		}
		return true
	}
	maxOf := func(got map[types.ProcessID]uint64, base uint64) uint64 {
		max := base
		for _, ts := range got {
			if ts > max {
				max = ts
			}
		}
		return max
	}
	if p.phase == 0 && complete(p.props) {
		est := maxOf(p.props, p.ts)
		p.ts = est
		p.phase = 1
		p.ests[r.api.Self()] = est
		sendToDest(r, p.msg.Dest, RGEst{ID: id, TS: est})
	}
	if p.phase == 1 && complete(p.ests) {
		commit := maxOf(p.ests, p.ts)
		p.ts = commit
		p.phase = 2
		p.commits[r.api.Self()] = commit
		sendToDest(r, p.msg.Dest, RGCommit{ID: id, TS: commit})
	}
	if p.phase == 2 && complete(p.commits) {
		p.ts = maxOf(p.commits, p.ts)
		if p.ts > r.lc {
			r.lc = p.ts
		}
		p.phase = 3
		r.tryDeliver()
	}
}

// tryDeliver delivers final messages whose (ts, id) is minimal among all
// pending messages (pending timestamps only grow toward their final value,
// so they are lower bounds).
func (r *Rodrigues) tryDeliver() {
	for {
		var min *rgPend
		var minID types.MessageID
		for id, p := range r.pending {
			if p.phase < 0 {
				continue // shell without data: unknown ts, cannot order yet
			}
			if min == nil || p.less(min) {
				min = p
				minID = id
			}
		}
		if min == nil || min.phase != 3 {
			return
		}
		r.delivered[minID] = true
		delete(r.pending, minID)
		r.api.RecordDeliver(minID)
		if r.onDeliver != nil {
			r.onDeliver(min.msg)
		}
	}
}
