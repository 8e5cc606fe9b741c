// Package check verifies, on concrete run traces, the properties that
// define atomic multicast and broadcast in §2.2 of the paper:
//
//   - uniform integrity: every process A-Delivers a message at most once,
//     only if it was cast, and only if the process is addressed;
//   - validity: a message cast by a correct process is A-Delivered by every
//     correct addressee;
//   - uniform agreement: a message A-Delivered by any process (even one
//     that later crashes) is A-Delivered by every correct addressee;
//   - uniform prefix order: for any two processes p and q, the delivery
//     sequences projected on messages addressed to both are prefix-related.
//
// Tests feed the checker every cast and delivery and then call Check with
// the set of correct processes.
//
// The checker is streaming: integrity and prefix order are decided in
// RecordDeliver — O(1) per delivery, O(|dest|) for a message's first delivery
// in a group — and Check reads per-cast delivered sets for validity and
// agreement, O(casts × addressees), whatever the process count.
//
// Prefix order needs no process pairs: sequences are pairwise prefix-related
// exactly when all are prefixes of one chain (pairwise-related sequences are
// totally ordered by "is a prefix of"; the longest is the chain). Within a
// group g the projection is everything, so g keeps one order — its
// furthest-ahead member's sequence — and each member a cursor on it: a
// delivery extends the order, matches the entry under the cursor, or is the
// first divergence, recorded once. For p in g and q in h the projection is
// the messages addressed to both groups, and p's and q's are prefixes of
// their groups' orders projected likewise; those two being related is enough
// (a prefix of B is related to whatever B is related to), so each pair {g, h}
// keeps one chain with a cursor per group, moved when that group's order
// grows. README "The §2.2 checker" has the argument in full.
package check

import (
	"fmt"
	"strings"

	"wanamcast/internal/metrics"
	"wanamcast/internal/types"
)

// Checker accumulates one run's trace. The zero value is unusable;
// construct with New. Not safe for concurrent use (simulated runs are
// single-threaded; the live harness locks around it).
type Checker struct {
	topo  *types.Topology
	index map[types.MessageID]int32 // cast → its position in casts
	casts []cast                    // in RecordCast order
	bits  []uint64                  // the casts' delivered sets, back to back
	seqs  [][]types.MessageID       // delivery sequence, by process

	// Uniform prefix order (package doc). Orders and chains hold positions in
	// casts; a cursor of -1 has diverged and been reported.
	orders [][]int32         // by group: what its furthest-ahead member delivered
	ahead  []types.ProcessID // by group: that member (whoever extended the order last)
	at     []int32           // by process: its cursor on its group's order
	chains [][]chain         // chains[g][h-g], g < h: rows built on first use

	faults   []string // integrity violations, detected at record time
	diverged []string // prefix-order violations, likewise
}

// cast is one A-XCast message and who has delivered it.
type cast struct {
	id   types.MessageID
	dest types.GroupSet
	bits int // offset in Checker.bits of one bit per addressee, in Topology.ProcessesIn(dest) order
	n    int // deliveries so far
}

// chain is the one order of the messages addressed to both groups of a pair
// g < h, extended by whichever group's order is further ahead on them.
type chain struct {
	seq []int32
	at  [2]int32 // cursor of g's order and of h's
}

// New returns a checker for topo.
func New(topo *types.Topology) *Checker {
	return &Checker{
		topo:   topo,
		index:  make(map[types.MessageID]int32),
		seqs:   make([][]types.MessageID, topo.N()),
		orders: make([][]int32, topo.NumGroups()),
		ahead:  make([]types.ProcessID, topo.NumGroups()),
		at:     make([]int32, topo.N()),
		chains: make([][]chain, topo.NumGroups()),
	}
}

// RecordCast notes that id was A-XCast to dest.
func (c *Checker) RecordCast(id types.MessageID, dest types.GroupSet) {
	if _, dup := c.index[id]; dup {
		c.faults = append(c.faults, fmt.Sprintf("duplicate cast of %v", id))
		return
	}
	addressees := 0
	for _, g := range dest.Groups() {
		addressees += len(c.topo.Members(g))
	}
	c.index[id] = int32(len(c.casts))
	c.casts = append(c.casts, cast{id: id, dest: dest, bits: len(c.bits)})
	c.bits = append(c.bits, make([]uint64, (addressees+63)/64)...)
}

// RecordDeliver notes that p A-Delivered id, checking uniform integrity and
// uniform prefix order immediately.
func (c *Checker) RecordDeliver(p types.ProcessID, id types.MessageID) {
	ci, wasCast := c.index[id]
	if !wasCast {
		c.faults = append(c.faults, fmt.Sprintf("integrity: %v delivered %v which was never cast", p, id))
		return
	}
	m := &c.casts[ci]
	g := c.topo.GroupOf(p)
	ord, addressed := 0, false // p's rank among m's addressees
	for _, h := range m.dest.Groups() {
		if h == g {
			ord += int(p - c.topo.Members(g)[0]) // process IDs are contiguous within a group
			addressed = true
			break
		}
		ord += len(c.topo.Members(h))
	}
	if !addressed {
		c.faults = append(c.faults, fmt.Sprintf("integrity: %v delivered %v not addressed to its group %v", p, id, m.dest))
		return
	}
	word, bit := &c.bits[m.bits+ord/64], uint64(1)<<(ord%64)
	if *word&bit != 0 {
		c.faults = append(c.faults, fmt.Sprintf("integrity: %v delivered %v twice", p, id))
		return
	}
	*word |= bit
	m.n++
	c.seqs[p] = append(c.seqs[p], id)

	switch order, at := c.orders[g], c.at[p]; {
	case at < 0:
	case int(at) == len(order):
		// p is the furthest ahead in g: g's order grows, and with it g's
		// side of every chain the message is on.
		c.orders[g], c.ahead[g] = append(order, ci), p
		c.at[p]++
		for _, h := range m.dest.Groups() {
			if h != g {
				c.advance(g, h, ci)
			}
		}
	case order[at] == ci:
		c.at[p]++
	default:
		c.at[p] = -1
		c.diverge(p, c.ahead[g], at, g, g, ci, order[at])
	}
}

// advance moves the cursor of g's order on the chain of {g, h} over cast ci,
// which g's furthest-ahead member just delivered.
func (c *Checker) advance(g, h types.GroupID, ci int32) {
	lo, hi, side := g, h, 0
	if h < g {
		lo, hi, side = h, g, 1
	}
	if c.chains[lo] == nil {
		c.chains[lo] = make([]chain, c.topo.NumGroups()-int(lo))
	}
	ch := &c.chains[lo][hi-lo]
	switch at := ch.at[side]; {
	case at < 0:
	case int(at) == len(ch.seq):
		ch.seq = append(ch.seq, ci)
		ch.at[side]++
	case ch.seq[at] == ci:
		ch.at[side]++
	default:
		ch.at[side] = -1
		c.diverge(c.ahead[g], c.ahead[h], at, lo, hi, ci, ch.seq[at])
	}
}

// diverge records that p, delivering cast mp, left the order q is on — q has
// cast mq at that position of the messages addressed to both g and h.
func (c *Checker) diverge(p, q types.ProcessID, at int32, g, h types.GroupID, mp, mq int32) {
	c.diverged = append(c.diverged, fmt.Sprintf(
		"prefix order: %v and %v diverge at position %d of the messages addressed to %v and %v: %v vs %v",
		p, q, at, g, h, c.casts[mp].id, c.casts[mq].id))
}

// Sequence returns p's delivery sequence. Callers must not modify it.
func (c *Checker) Sequence(p types.ProcessID) []types.MessageID { return c.seqs[p] }

// Check returns every property violation observed in the run. correct
// reports whether a process stayed correct; correctCaster reports whether
// the caster of a message is correct (validity applies only to those).
// A nil correct treats every process as correct.
func (c *Checker) Check(correct func(types.ProcessID) bool, correctCaster func(types.MessageID) bool) []string {
	if correct == nil {
		correct = func(types.ProcessID) bool { return true }
	}
	violations := append([]string(nil), c.faults...)

	// Validity and uniform agreement.
	for i := range c.casts {
		m := &c.casts[i]
		reason := "agreement"
		if m.n == 0 {
			if correctCaster == nil || !correctCaster(m.id) {
				continue
			}
			reason = "validity"
		}
		ord := 0
		for _, g := range m.dest.Groups() {
			for _, q := range c.topo.Members(g) {
				if correct(q) && c.bits[m.bits+ord/64]&(1<<(ord%64)) == 0 {
					violations = append(violations,
						fmt.Sprintf("%s: correct %v never delivered %v (dest %v)", reason, q, m.id, m.dest))
				}
				ord++
			}
		}
	}
	return append(violations, c.diverged...)
}

// GenuinenessViolations inspects a send log (from metrics with LogSends)
// and returns the sends that a genuine atomic multicast must not perform:
// sends by a process that is neither the caster nor an addressee of any
// cast message, or sends to such a process. protoPrefix selects the
// protocol family under scrutiny (e.g. "a1"); consensus and rmcast
// sub-protocol labels share the prefix.
func (c *Checker) GenuinenessViolations(sends []metrics.SendEvent, protoPrefix string) []string {
	// A process is involved if it cast some message or belongs to the
	// destination of some cast message.
	involved := make(map[types.ProcessID]bool)
	for _, m := range c.casts {
		involved[m.id.Origin] = true
		for _, p := range c.topo.ProcessesIn(m.dest) {
			involved[p] = true
		}
	}
	var out []string
	for _, s := range sends {
		if !strings.HasPrefix(s.Proto, protoPrefix) {
			continue
		}
		if !involved[s.From] {
			out = append(out, fmt.Sprintf("genuineness: uninvolved %v sent %s message to %v", s.From, s.Proto, s.To))
		}
		if !involved[s.To] {
			out = append(out, fmt.Sprintf("genuineness: %v sent %s message to uninvolved %v", s.From, s.Proto, s.To))
		}
	}
	return out
}
