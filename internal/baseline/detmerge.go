package baseline

import (
	"sort"
	"time"

	"wanamcast/internal/node"
	"wanamcast/internal/rmcast"
	"wanamcast/internal/types"
)

// DetMerge is the Aguilera & Strom [1] deterministic-merge broadcast/
// multicast. Its model is stronger than the paper's (§6, footnote): links
// are reliable, publishers never crash, and every publisher casts
// infinitely many messages to every subscriber — realised here with
// periodic empty heartbeats that carry the publisher's stream clock.
//
// Every process is a publisher. A cast travels directly to its destination
// processes (latency degree 1, O(kd) messages — the strong-model reference
// rows of Figure 1). A subscriber delivers the message with stream
// timestamp t once it has heard every publisher's stream reach t, merging
// deterministically by (timestamp, publisher, sequence).
//
// Heartbeats are labelled "<proto>.hb" so the Figure 1 benchmarks can
// report the per-cast message cost separately from the background stream,
// mirroring the paper's accounting (whose model assumes the stream exists
// anyway).
type DetMerge struct {
	api       *node.Proc
	onDeliver func(rmcast.Message)
	interval  time.Duration
	stopAfter time.Duration

	streams   map[types.ProcessID]uint64 // latest stream ts heard per publisher
	buffer    []*dmEntry
	delivered map[types.MessageID]bool
}

type dmEntry struct {
	ts  uint64
	msg rmcast.Message
}

// DetMerge wire messages, exported for gob registration.
type (
	// DMData is a cast: a stream element with content.
	DMData struct {
		TS uint64
		M  rmcast.Message
	}
	// DMHeartbeat advances the publisher's stream without content.
	DMHeartbeat struct {
		TS uint64
	}
)

// dmLabel is the wire label of DetMerge's messages.
const dmLabel = "dm"

// DetMergeConfig configures a DetMerge endpoint.
type DetMergeConfig struct {
	Host      *node.Proc
	OnDeliver func(rmcast.Message)
	// Interval is the heartbeat period (default 10 ms). All processes beat
	// at the same virtual instants, as [1]'s synchronized publishers do.
	Interval time.Duration
	// StopAfter, if positive, stops the heartbeat stream after that time so
	// finite simulations drain; [1]'s model runs it forever.
	StopAfter time.Duration
}

var _ node.Protocol = (*DetMerge)(nil)

// NewDetMerge builds a deterministic-merge endpoint and registers it.
func NewDetMerge(cfg DetMergeConfig) *DetMerge {
	if cfg.Host == nil {
		panic("baseline: DetMergeConfig.Host is required")
	}
	interval := cfg.Interval
	if interval <= 0 {
		interval = 10 * time.Millisecond
	}
	d := &DetMerge{
		api:       cfg.Host,
		onDeliver: cfg.OnDeliver,
		interval:  interval,
		stopAfter: cfg.StopAfter,
		streams:   make(map[types.ProcessID]uint64),
		delivered: make(map[types.MessageID]bool),
	}
	cfg.Host.Register(d)
	cfg.Host.Register(dmHeartbeats{d})
	return d
}

// dmHeartbeats routes the separately-labelled heartbeat stream back into
// the endpoint; the distinct label lets benchmarks account the background
// stream apart from per-cast traffic.
type dmHeartbeats struct{ d *DetMerge }

func (h dmHeartbeats) Proto() string            { return dmLabel + ".hb" }
func (h dmHeartbeats) Start()                   {}
func (h dmHeartbeats) Handlers() []node.Handler { return dmHeartbeatHandlers }

var dmHeartbeatHandlers = []node.Handler{
	node.On(func(h dmHeartbeats, from types.ProcessID, m DMHeartbeat) { h.d.advance(from, m.TS) }),
}

// Proto implements node.Protocol.
func (d *DetMerge) Proto() string { return dmLabel }

// Start implements node.Protocol: it begins the heartbeat stream.
func (d *DetMerge) Start() {
	d.api.After(d.interval, d.beat)
}

// beat advances this publisher's stream and schedules the next beat.
func (d *DetMerge) beat() {
	if d.stopAfter > 0 && d.api.Now() > d.stopAfter {
		return // stream stopped; finite simulations drain here
	}
	ts := d.now()
	d.streams[d.api.Self()] = ts
	var tos []types.ProcessID
	self := d.api.Self()
	for _, q := range d.api.Topo().AllProcesses() {
		if q != self {
			tos = append(tos, q)
		}
	}
	node.Multicast(d.api, tos, dmLabel+".hb", DMHeartbeat{TS: ts})
	d.tryDeliver()
	d.api.After(d.interval, d.beat)
}

// now is the publisher's stream clock: virtual nanoseconds plus one,
// identical across publishers at the synchronized beat instants. The +1
// keeps the zero value of the streams map meaning "nothing heard yet",
// even for casts at virtual time zero.
func (d *DetMerge) now() uint64 { return uint64(d.api.Now()) + 1 }

// AMCast casts payload to dest as the next element of this publisher's
// stream.
func (d *DetMerge) AMCast(payload []byte, dest types.GroupSet) types.MessageID {
	if dest.Size() == 0 {
		panic("baseline: DetMerge A-MCast with empty destination")
	}
	id := d.api.NewCast()
	m := rmcast.Message{ID: id, Dest: dest, Payload: payload}
	ts := d.now()
	d.streams[d.api.Self()] = ts
	// The cast is itself a stream element for its destinations; everyone
	// else sees the stream advance through the next heartbeat.
	self := d.api.Self()
	var tos []types.ProcessID
	selfAddressed := false
	for _, q := range d.api.Topo().ProcessesIn(dest) {
		if q == self {
			selfAddressed = true
			continue
		}
		tos = append(tos, q)
	}
	node.Multicast(d.api, tos, dmLabel, DMData{TS: ts, M: m})
	if selfAddressed {
		d.buffer = append(d.buffer, &dmEntry{ts: ts, msg: m})
		// Merge asynchronously: A-Delivering inside the A-MCast call would
		// reorder against the caller's own bookkeeping.
		d.api.After(0, d.tryDeliver)
	}
	return id
}

// Handlers implements node.Protocol.
func (d *DetMerge) Handlers() []node.Handler { return detMergeHandlers }

var detMergeHandlers = []node.Handler{node.On(func(d *DetMerge, from types.ProcessID, m DMData) {
	if !d.delivered[m.M.ID] {
		d.buffer = append(d.buffer, &dmEntry{ts: m.TS, msg: m.M})
	}
	d.advance(from, m.TS)
})}

// advance moves from's stream to ts, if ts is ahead, and merges.
func (d *DetMerge) advance(from types.ProcessID, ts uint64) {
	if d.streams[from] < ts {
		d.streams[from] = ts
	}
	d.tryDeliver()
}

// tryDeliver merges deterministically: an element (ts, pub, seq) is
// deliverable once every publisher's stream has reached ts.
func (d *DetMerge) tryDeliver() {
	sort.Slice(d.buffer, func(i, j int) bool {
		a, b := d.buffer[i], d.buffer[j]
		if a.ts != b.ts {
			return a.ts < b.ts
		}
		return a.msg.ID.Less(b.msg.ID)
	})
	for len(d.buffer) > 0 {
		head := d.buffer[0]
		for _, pub := range d.api.Topo().AllProcesses() {
			if d.streams[pub] < head.ts {
				return
			}
		}
		d.buffer = d.buffer[1:]
		if d.delivered[head.msg.ID] {
			continue
		}
		d.delivered[head.msg.ID] = true
		d.api.RecordDeliver(head.msg.ID)
		if d.onDeliver != nil {
			d.onDeliver(head.msg)
		}
	}
}
