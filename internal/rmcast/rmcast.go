// Package rmcast implements the reliable multicast primitive (R-MCast /
// R-Deliver, §2.2) used by Algorithms A1 and A2 and by the baselines.
//
// Two modes are provided:
//
//   - ModeDirect: the caster sends m once to every process in m.dest.
//     This is the cheap non-uniform primitive the paper's A1 uses: d(k−1)
//     inter-group messages and latency degree one. Validity holds (a
//     correct caster reaches all correct destinations over quasi-reliable
//     links); agreement is left to the layer above — exactly the situation
//     of the paper's footnote 4, where A1's (TS, m) messages propagate m
//     if the caster crashes.
//
//   - ModeEager: receivers relay m to the destination processes of their
//     own group before delivering (the domain-based decomposition of
//     Frolund & Pedone [6]). Intra-group relays add no inter-group message
//     delay, so the latency degree stays one — matching the oracle-based
//     uniform reliable broadcast of [6] that the paper's Figure 1
//     accounting assumes — while hardening agreement: once any group
//     member receives m, every correct member of that group R-Delivers it.
//     The residual non-uniform window (a whole group missed because the
//     caster crashed mid-cast) is exactly the one the paper's footnote 4
//     describes and plugs at the A1 level with (TS, m) messages.
package rmcast

import (
	"fmt"

	"wanamcast/internal/node"
	"wanamcast/internal/trace"
	"wanamcast/internal/types"
)

// Mode selects the dissemination strategy.
type Mode int

const (
	// ModeDirect sends once from the caster to every destination.
	ModeDirect Mode = iota + 1
	// ModeEager relays on first receipt before delivering.
	ModeEager
)

// String implements fmt.Stringer.
func (m Mode) String() string {
	switch m {
	case ModeDirect:
		return "direct"
	case ModeEager:
		return "eager"
	default:
		return fmt.Sprintf("mode(%d)", int(m))
	}
}

// Message is an application-level multicast message: identity, destination
// groups, and an opaque payload.
type Message struct {
	ID      types.MessageID
	Dest    types.GroupSet
	Payload any
}

// DataMsg is the wire envelope; wire.go registers its codec.
type DataMsg struct {
	M Message
}

// Config configures an RMcast instance for one process.
type Config struct {
	API  node.API
	Mode Mode
	// OnDeliver is invoked on R-Deliver. May be nil for processes that
	// only cast.
	OnDeliver func(m Message)
	// ProtoLabel overrides the wire label (default "rmcast").
	ProtoLabel string
}

// RMcast is the per-process reliable multicast endpoint.
type RMcast struct {
	api       node.API
	mode      Mode
	onDeliver func(Message)
	label     string
	delivered map[types.MessageID]bool
}

var _ node.Protocol = (*RMcast)(nil)

// New builds an endpoint. It panics on missing API or invalid mode.
func New(cfg Config) *RMcast {
	if cfg.API == nil {
		panic("rmcast: Config.API is required")
	}
	if cfg.Mode != ModeDirect && cfg.Mode != ModeEager {
		panic(fmt.Sprintf("rmcast: invalid mode %v", cfg.Mode))
	}
	label := cfg.ProtoLabel
	if label == "" {
		label = "rmcast"
	}
	return &RMcast{
		api:       cfg.API,
		mode:      cfg.Mode,
		onDeliver: cfg.OnDeliver,
		label:     label,
		delivered: make(map[types.MessageID]bool),
	}
}

// Proto implements node.Protocol.
func (r *RMcast) Proto() string { return r.label }

// Start implements node.Protocol.
func (r *RMcast) Start() {}

// MCast reliably multicasts m to m.Dest. The caster need not belong to
// m.Dest; it R-Delivers m only if it does.
func (r *RMcast) MCast(m Message) {
	if m.Dest.Size() == 0 {
		panic(fmt.Sprintf("rmcast: %v multicast with empty destination", m.ID))
	}
	r.api.Trace(trace.StageRMSend, m.ID, 0)
	r.api.Multicast(r.api.Topo().ProcessesIn(m.Dest), r.label, DataMsg{M: m})
}

// Receive implements node.Protocol.
func (r *RMcast) Receive(from types.ProcessID, body any) {
	dm, ok := body.(DataMsg)
	if !ok {
		panic(fmt.Sprintf("rmcast: unexpected message %T", body))
	}
	m := dm.M
	if r.delivered[m.ID] {
		return
	}
	if !m.Dest.Contains(r.api.Group()) {
		// Uniform integrity: R-Deliver only if addressed. A misrouted
		// message is a wiring bug.
		panic(fmt.Sprintf("rmcast: %v received %v not addressed to its group", r.api.Self(), m.ID))
	}
	r.delivered[m.ID] = true
	r.api.Trace(trace.StageRMAdmit, m.ID, 0)
	if r.mode == ModeEager {
		// Relay to our own group's destinations before delivering: if any
		// member of the group receives m, every correct member does.
		self := r.api.Self()
		var relay []types.ProcessID
		for _, q := range r.api.Topo().Members(r.api.Group()) {
			if q != self && q != from {
				relay = append(relay, q)
			}
		}
		r.api.Multicast(relay, r.label, DataMsg{M: m})
	}
	if r.onDeliver != nil {
		r.onDeliver(m)
	}
}
