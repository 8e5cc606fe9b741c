// Package baseline implements the comparison algorithms of the paper's
// Figure 1: Skeen's multicast [2], Fritzke et al. [5], Delporte-Gallet &
// Fauconnier [4], Rodrigues et al. [10], Aguilera & Strom's deterministic
// merge [1], Sousa et al.'s optimistic total order [12], and Vicente &
// Rodrigues' multi-sequencer protocol [13].
//
// Each implementation reproduces the two quantities Figure 1 reports — the
// latency degree and the inter-group message complexity — from the
// descriptions in the paper's related-work section (§6) and the original
// papers' structure. See DESIGN.md §5 for the fidelity notes.
package baseline

import (
	"wanamcast/internal/node"
	"wanamcast/internal/rmcast"
	"wanamcast/internal/types"
)

// Skeen is Skeen's atomic multicast [2], designed for failure-free systems:
// every destination process proposes a local-clock timestamp, proposals are
// exchanged all-to-all among destination processes, the final timestamp is
// the maximum, and messages are delivered in (timestamp, id) order.
//
// Latency degree: 2 (one hop for the message, one for the proposals) —
// optimal by the paper's Proposition 3.1, a fact §1 points out went
// unnoticed for twenty years. Inter-group messages: O(k²d²).
type Skeen struct {
	api       *node.Proc
	onDeliver func(rmcast.Message)

	lc        uint64
	pending   map[types.MessageID]*skPend
	props     map[types.MessageID]map[types.ProcessID]uint64
	delivered map[types.MessageID]bool
}

type skPend struct {
	msg   rmcast.Message
	ts    uint64 // own proposal, then the final max
	final bool
}

func (p *skPend) less(q *skPend) bool {
	if p.ts != q.ts {
		return p.ts < q.ts
	}
	return p.msg.ID.Less(q.msg.ID)
}

// Skeen wire messages; wire.go registers their codecs.
type (
	// SkeenData carries the multicast message to its destinations.
	SkeenData struct{ M rmcast.Message }
	// SkeenProp is a timestamp proposal exchanged among destinations.
	SkeenProp struct {
		ID types.MessageID
		TS uint64
	}
)

// skeenLabel is the wire label of Skeen's messages.
const skeenLabel = "skeen"

// SkeenConfig configures a Skeen endpoint.
type SkeenConfig struct {
	Host      *node.Proc
	OnDeliver func(rmcast.Message)
}

var _ node.Protocol = (*Skeen)(nil)

// NewSkeen builds a Skeen endpoint and registers it on the host.
func NewSkeen(cfg SkeenConfig) *Skeen {
	if cfg.Host == nil {
		panic("baseline: SkeenConfig.Host is required")
	}
	s := &Skeen{
		api:       cfg.Host,
		onDeliver: cfg.OnDeliver,
		pending:   make(map[types.MessageID]*skPend),
		props:     make(map[types.MessageID]map[types.ProcessID]uint64),
		delivered: make(map[types.MessageID]bool),
	}
	cfg.Host.Register(s)
	return s
}

// Proto implements node.Protocol.
func (s *Skeen) Proto() string { return skeenLabel }

// Start implements node.Protocol.
func (s *Skeen) Start() {}

// AMCast multicasts payload to dest.
func (s *Skeen) AMCast(payload []byte, dest types.GroupSet) types.MessageID {
	if dest.Size() == 0 {
		panic("baseline: Skeen A-MCast with empty destination")
	}
	id := s.api.NewCast()
	m := rmcast.Message{ID: id, Dest: dest, Payload: payload}
	node.Multicast(s.api, s.api.Topo().ProcessesIn(dest), skeenLabel, SkeenData{M: m})
	return id
}

// Handlers implements node.Protocol.
func (s *Skeen) Handlers() []node.Handler { return skeenHandlers }

var skeenHandlers = []node.Handler{node.On(func(s *Skeen, _ types.ProcessID, m SkeenData) { s.onData(m.M) }), node.On((*Skeen).onProp)}

func (s *Skeen) onData(m rmcast.Message) {
	if s.delivered[m.ID] {
		return
	}
	if _, ok := s.pending[m.ID]; ok {
		return
	}
	s.lc++
	p := &skPend{msg: m, ts: s.lc}
	s.pending[m.ID] = p
	// Propose to every other destination process; our own proposal is
	// already in p.ts.
	var tos []types.ProcessID
	self := s.api.Self()
	for _, q := range s.api.Topo().ProcessesIn(m.Dest) {
		if q != self {
			tos = append(tos, q)
		}
	}
	node.Multicast(s.api, tos, skeenLabel, SkeenProp{ID: m.ID, TS: p.ts})
	s.checkFinal(m.ID)
}

func (s *Skeen) onProp(from types.ProcessID, m SkeenProp) {
	if s.delivered[m.ID] {
		return
	}
	props := s.props[m.ID]
	if props == nil {
		props = make(map[types.ProcessID]uint64)
		s.props[m.ID] = props
	}
	if _, seen := props[from]; !seen {
		props[from] = m.TS
	}
	s.checkFinal(m.ID)
}

// checkFinal fixes the final timestamp once every other destination process
// has proposed.
func (s *Skeen) checkFinal(id types.MessageID) {
	p, ok := s.pending[id]
	if !ok || p.final {
		return
	}
	props := s.props[id]
	self := s.api.Self()
	max := p.ts
	for _, q := range s.api.Topo().ProcessesIn(p.msg.Dest) {
		if q == self {
			continue
		}
		ts, seen := props[q]
		if !seen {
			return
		}
		if ts > max {
			max = ts
		}
	}
	p.ts = max
	p.final = true
	if max > s.lc {
		s.lc = max
	}
	delete(s.props, id)
	s.tryDeliver()
}

// tryDeliver delivers final messages whose (ts, id) is minimal among all
// pending messages. Non-final pending timestamps are lower bounds (the
// final timestamp is a maximum over proposals), so the rule is safe.
func (s *Skeen) tryDeliver() {
	for {
		var min *skPend
		for _, p := range s.pending {
			if min == nil || p.less(min) {
				min = p
			}
		}
		if min == nil || !min.final {
			return
		}
		id := min.msg.ID
		s.delivered[id] = true
		delete(s.pending, id)
		s.api.RecordDeliver(id)
		if s.onDeliver != nil {
			s.onDeliver(min.msg)
		}
	}
}
