package baseline

import (
	"wanamcast/internal/node"
	"wanamcast/internal/types"
)

// SeqBcast implements the two sequencer-based atomic broadcasts of
// Figure 1(b):
//
//   - Sousa et al. [12] (Uniform=false): the sender ships m to every
//     process; a fixed sequencer assigns m its sequence number and ships it
//     to every process; delivery follows sequence order. Latency degree 2,
//     O(n) messages, non-uniform (a process may deliver and crash before
//     anyone else learns the sequence number).
//
//   - Vicente & Rodrigues [13] (Uniform=true): same skeleton, but every
//     receiver of m echoes an acknowledgment to every process, and final
//     delivery additionally waits for a majority of echoes — the
//     validation that makes the protocol uniform. The echoes travel in
//     parallel with the sequence number, so the latency degree stays 2
//     while messages grow to O(n²).
//
// Both papers also feature optimistic deliveries (at latency degree 1);
// this reproduction implements the final (atomic) delivery, which is what
// Figure 1 compares, and reports the optimistic event through OnOptimistic
// for completeness.
type SeqBcast struct {
	api       *node.Proc
	onDeliver func(id types.MessageID, payload []byte)
	onOpt     func(id types.MessageID, payload []byte)
	label     string
	uniform   bool

	castSeq  uint64
	seqNext  uint64 // next sequence number (sequencer only)
	deliverN uint64 // next sequence number to deliver
	data     map[types.MessageID][]byte
	haveData map[types.MessageID]bool
	seqOf    map[uint64]types.MessageID
	acks     map[types.MessageID]map[types.ProcessID]bool
	optDone  map[types.MessageID]bool
}

// SeqBcast wire messages, exported for gob registration.
type (
	// SBData carries the broadcast message to every process.
	SBData struct {
		ID      types.MessageID
		Payload []byte
	}
	// SBSeq announces the sequence number assigned to a message.
	SBSeq struct {
		ID  types.MessageID
		Seq uint64
	}
	// SBAck is the uniform variant's validation echo.
	SBAck struct {
		ID types.MessageID
	}
)

// sequencer is the fixed sequencer process.
const sequencer types.ProcessID = 0

// SeqBcastConfig configures a sequencer-broadcast endpoint.
type SeqBcastConfig struct {
	Host      *node.Proc
	OnDeliver func(id types.MessageID, payload []byte)
	// OnOptimistic, if set, receives the optimistic delivery events.
	OnOptimistic func(id types.MessageID, payload []byte)
	// Uniform selects the Vicente & Rodrigues [13] validation variant.
	Uniform bool
	// ProtoLabel overrides the wire label (default "sb").
	ProtoLabel string
}

var _ node.Protocol = (*SeqBcast)(nil)

// NewSeqBcast builds a sequencer-broadcast endpoint and registers it.
func NewSeqBcast(cfg SeqBcastConfig) *SeqBcast {
	if cfg.Host == nil {
		panic("baseline: SeqBcastConfig.Host is required")
	}
	label := cfg.ProtoLabel
	if label == "" {
		label = "sb"
	}
	s := &SeqBcast{
		api:       cfg.Host,
		onDeliver: cfg.OnDeliver,
		onOpt:     cfg.OnOptimistic,
		label:     label,
		uniform:   cfg.Uniform,
		seqNext:   1,
		deliverN:  1,
		data:      make(map[types.MessageID][]byte),
		haveData:  make(map[types.MessageID]bool),
		seqOf:     make(map[uint64]types.MessageID),
		acks:      make(map[types.MessageID]map[types.ProcessID]bool),
		optDone:   make(map[types.MessageID]bool),
	}
	cfg.Host.Register(s)
	return s
}

// Proto implements node.Protocol.
func (s *SeqBcast) Proto() string { return s.label }

// Start implements node.Protocol.
func (s *SeqBcast) Start() {}

// ABCast broadcasts payload to all processes.
func (s *SeqBcast) ABCast(payload []byte) types.MessageID {
	s.castSeq++
	id := types.MessageID{Origin: s.api.Self(), Seq: s.castSeq}
	s.api.RecordCast(id)
	node.Multicast(s.api, s.api.Topo().AllProcesses(), s.label, SBData{ID: id, Payload: payload})
	return id
}

// Handlers implements node.Protocol.
func (s *SeqBcast) Handlers() []node.Handler { return seqHandlers }

var seqHandlers = []node.Handler{
	node.On(func(s *SeqBcast, _ types.ProcessID, m SBData) { s.onData(m) }),
	node.On(func(s *SeqBcast, from types.ProcessID, m SBSeq) {
		if _, dup := s.seqOf[m.Seq]; !dup {
			s.seqOf[m.Seq] = m.ID
		}
		if s.uniform {
			s.ack(m.ID, from) // the sequence number carries the sequencer's vote
		}
		s.tryDeliver()
	}),
	node.On(func(s *SeqBcast, from types.ProcessID, m SBAck) {
		s.ack(m.ID, from)
		s.tryDeliver()
	}),
}

func (s *SeqBcast) onData(m SBData) {
	if s.haveData[m.ID] {
		return
	}
	s.haveData[m.ID] = true
	s.data[m.ID] = m.Payload
	if s.api.Self() == sequencer {
		seq := s.seqNext
		s.seqNext++
		s.seqOf[seq] = m.ID
		node.Multicast(s.api, s.api.Topo().AllProcesses(), s.label, SBSeq{ID: m.ID, Seq: seq})
	}
	if s.uniform {
		// Validation echo to everyone, in parallel with the sequencing.
		// The sequencer's SBSeq doubles as its echo (one fan-out, one
		// clock tick — as in [13], where the sequence number carries the
		// sequencer's vote).
		s.ack(m.ID, s.api.Self())
		if s.api.Self() != sequencer {
			var tos []types.ProcessID
			self := s.api.Self()
			for _, q := range s.api.Topo().AllProcesses() {
				if q != self {
					tos = append(tos, q)
				}
			}
			node.Multicast(s.api, tos, s.label, SBAck{ID: m.ID})
		}
	}
	s.tryDeliver()
}

func (s *SeqBcast) ack(id types.MessageID, from types.ProcessID) {
	set := s.acks[id]
	if set == nil {
		set = make(map[types.ProcessID]bool)
		s.acks[id] = set
	}
	set[from] = true
}

// tryDeliver delivers messages in sequence order once their data (and, for
// the uniform variant, a majority of validation echoes) has arrived.
func (s *SeqBcast) tryDeliver() {
	for {
		id, ok := s.seqOf[s.deliverN]
		if !ok || !s.haveData[id] {
			return
		}
		if s.onOpt != nil && !s.optDone[id] {
			s.optDone[id] = true
			s.onOpt(id, s.data[id])
		}
		if s.uniform && len(s.acks[id]) <= s.api.Topo().N()/2 {
			return
		}
		delete(s.seqOf, s.deliverN)
		s.deliverN++
		s.api.RecordDeliver(id)
		if s.onDeliver != nil {
			s.onDeliver(id, s.data[id])
		}
		delete(s.data, id)
	}
}
