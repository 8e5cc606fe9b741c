package fd

import (
	"slices"

	"wanamcast/internal/types"
)

// Senders is who speaks for a group to the other groups. The paper has every
// member send every inter-group message (A1's line 24, A2's line 15): Copies
// 0. With Copies n > 0 the senders are, in this member's own Ω view, the
// group's leader and its n−1 successors in rank order, so a receiver gets n
// copies, not d. Views may disagree and senders crash, so whoever uses a
// reduced set re-sends what the group still owes whenever Ω moves (OnChange).
type Senders struct {
	det    *Oracle
	self   types.ProcessID
	group  types.GroupID
	ranks  []types.ProcessID // the group's members in rank order
	copies int
}

// NewSenders returns self's view of its group's sender set.
func NewSenders(det *Oracle, topo *types.Topology, self types.ProcessID, copies int) Senders {
	g := topo.GroupOf(self)
	return Senders{det: det, self: self, group: g, ranks: topo.Members(g), copies: copies}
}

// Sends reports whether this member is a sender now.
func (s Senders) Sends() bool {
	if s.copies <= 0 {
		return true
	}
	n := len(s.ranks)
	behind := slices.Index(s.ranks, s.self) - slices.Index(s.ranks, s.det.Leader(s.group))
	return (behind+n)%n < s.copies
}

// OnChange subscribes reship to Ω: it runs after every leader change in the
// group that finds this member, not crashed, a sender. With every member
// sending there is nothing to hand over and nothing is subscribed.
func (s Senders) OnChange(crashed func() bool, reship func()) {
	if s.copies <= 0 {
		return
	}
	s.det.Subscribe(func(g types.GroupID, _ types.ProcessID) {
		if g == s.group && !crashed() && s.Sends() {
			reship()
		}
	})
}
