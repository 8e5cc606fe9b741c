// Package types defines the process, group, and message identifiers shared
// by every protocol in the repository, together with the static topology
// (the paper's Π and Γ, §2.1).
//
// All protocols in this module are written against these types; they carry
// no behaviour beyond identity, ordering, and topology lookups, so that the
// simulated and the live TCP runtimes can share every protocol
// implementation unchanged.
package types

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"slices"
	"strings"
)

// ProcessID identifies a process in Π. IDs are dense, starting at 0, and
// are assigned group by group (see NewTopology), so intra-group neighbours
// have adjacent IDs.
type ProcessID int

// GroupID identifies a group in Γ. IDs are dense, starting at 0.
type GroupID int

// String implements fmt.Stringer.
func (p ProcessID) String() string { return fmt.Sprintf("p%d", int(p)) }

// String implements fmt.Stringer.
func (g GroupID) String() string { return fmt.Sprintf("g%d", int(g)) }

// NoProcess is the zero-less sentinel for "no process" (e.g. no leader yet).
const NoProcess ProcessID = -1

// MessageID uniquely identifies an application message across the system
// and provides the total order used to break timestamp ties (Algorithm A1,
// line 4: (m.ts, m.id) lexicographic comparison).
type MessageID struct {
	// Origin is the process that cast the message.
	Origin ProcessID
	// Seq is the per-origin cast sequence number, starting at 1.
	Seq uint64
}

// String implements fmt.Stringer.
func (id MessageID) String() string { return fmt.Sprintf("m(%d,%d)", id.Origin, id.Seq) }

// Less returns whether id orders strictly before other in the global total
// order on message identifiers. The order is lexicographic on (Origin, Seq);
// any deterministic total order satisfies the paper's requirement.
func (id MessageID) Less(other MessageID) bool {
	if id.Origin != other.Origin {
		return id.Origin < other.Origin
	}
	return id.Seq < other.Seq
}

// Compare orders ids like Less, as a three-way comparison for sorting.
func (id MessageID) Compare(other MessageID) int {
	return cmp.Or(cmp.Compare(id.Origin, other.Origin), cmp.Compare(id.Seq, other.Seq))
}

// IsZero reports whether id is the zero MessageID (never assigned to a cast).
func (id MessageID) IsZero() bool { return id.Origin == 0 && id.Seq == 0 }

// AppendTo appends id's wire encoding (origin varint, seq uvarint).
func (id MessageID) AppendTo(buf []byte) []byte {
	buf = binary.AppendVarint(buf, int64(id.Origin))
	return binary.AppendUvarint(buf, id.Seq)
}

// DecodeMessageID consumes one MessageID and returns the remainder.
func DecodeMessageID(data []byte) (MessageID, []byte, error) {
	origin, n := binary.Varint(data)
	if n <= 0 {
		return MessageID{}, nil, fmt.Errorf("types: corrupt MessageID origin")
	}
	data = data[n:]
	seq, n := binary.Uvarint(data)
	if n <= 0 {
		return MessageID{}, nil, fmt.Errorf("types: corrupt MessageID seq")
	}
	return MessageID{Origin: ProcessID(origin), Seq: seq}, data[n:], nil
}

// GroupSet is an immutable set of destination groups (m.dest in the paper),
// a value: up to inlineGroups groups are held in place, so building or
// decoding such a set allocates nothing. The zero value is the empty set.
type GroupSet struct {
	n     int                   // the set's size
	small [inlineGroups]GroupID // the groups, sorted, while n <= inlineGroups
	big   []GroupID             // the groups, sorted, past that
}

const inlineGroups = 3 // every workload addresses at most three shards

// NewGroupSet builds a set from the given groups, deduplicating and sorting.
func NewGroupSet(groups ...GroupID) GroupSet {
	return canonical(append(make([]GroupID, 0, 8), groups...)) // on the stack up to 8
}

// canonical returns the set of gs, which it sorts and deduplicates in place.
func canonical(gs []GroupID) GroupSet {
	slices.Sort(gs)
	gs = slices.Compact(gs)
	s := GroupSet{n: len(gs)}
	if copy(s.small[:], gs) < s.n {
		s.big = slices.Clone(gs)
	}
	return s
}

// Contains reports whether g is in the set.
func (s GroupSet) Contains(g GroupID) bool {
	_, ok := slices.BinarySearch(s.Groups(), g)
	return ok
}

// Size returns the number of groups in the set.
func (s GroupSet) Size() int { return s.n }

// Groups returns the member groups in ascending order, which the caller must
// not modify. It inlines: the slice points into the caller's copy of s.
func (s GroupSet) Groups() []GroupID {
	if s.n > inlineGroups {
		return s.big
	}
	return s.small[:s.n]
}

// Equal reports whether both sets contain exactly the same groups.
func (s GroupSet) Equal(other GroupSet) bool { return slices.Equal(s.Groups(), other.Groups()) }

// String implements fmt.Stringer.
func (s GroupSet) String() string {
	parts := make([]string, s.n)
	for i, g := range s.Groups() {
		parts[i] = g.String()
	}
	return "{" + strings.Join(parts, ",") + "}"
}

// AppendTo appends the set's wire encoding: a uvarint count followed by one
// varint per group, in ascending order.
func (s GroupSet) AppendTo(buf []byte) []byte {
	buf = binary.AppendUvarint(buf, uint64(s.n))
	for _, g := range s.Groups() {
		buf = binary.AppendVarint(buf, int64(g))
	}
	return buf
}

// DecodeGroupSet consumes one GroupSet and returns the remainder. Input that
// is not sorted and deduplicated (which AppendTo never produces) is
// re-canonicalised rather than rejected, so a decoded set always upholds the
// GroupSet invariant even on hostile bytes. A set of up to inlineGroups
// groups decodes without allocating.
func DecodeGroupSet(data []byte) (GroupSet, []byte, error) {
	n, read := binary.Uvarint(data)
	if read <= 0 {
		return GroupSet{}, nil, fmt.Errorf("types: corrupt GroupSet header")
	}
	rest := data[read:]
	if n > uint64(len(rest)) { // each element takes at least one byte
		return GroupSet{}, nil, fmt.Errorf("types: GroupSet length %d exceeds input", n)
	}
	groups := make([]GroupID, 0, 8) // on the stack up to 8
	for i := uint64(0); i < n; i++ {
		v, read := binary.Varint(rest)
		if read <= 0 {
			return GroupSet{}, nil, fmt.Errorf("types: corrupt GroupSet element %d", i)
		}
		rest = rest[read:]
		groups = append(groups, GroupID(v))
	}
	return canonical(groups), rest, nil
}

// MarshalBinary implements encoding.BinaryMarshaler so a GroupSet inside
// an application payload survives the wire codec's gob fallback despite the
// unexported fields.
func (s GroupSet) MarshalBinary() ([]byte, error) {
	return s.AppendTo(make([]byte, 0, 2+4*s.n)), nil
}

// UnmarshalBinary implements encoding.BinaryUnmarshaler.
func (s *GroupSet) UnmarshalBinary(data []byte) error {
	set, _, err := DecodeGroupSet(data)
	if err != nil {
		return err
	}
	*s = set
	return nil
}

// Topology is the static process/group layout (Π and Γ, §2.1). Groups are
// disjoint, non-empty, and cover Π. Topologies are immutable after creation.
//
// The lookup surface is built for hot paths at thousand-process scale:
// GroupOf and SameGroup are single flat-array reads (the panic for an
// unknown process is kept, but its message formatting lives out of line so
// the lookups inline), and AllProcesses/AllGroups answer from slices
// precomputed at construction instead of allocating per call.
type Topology struct {
	groupOf  []GroupID     // indexed by ProcessID
	members  [][]ProcessID // indexed by GroupID, ascending
	n        int
	numGroup int

	allProcs  []ProcessID // 0..n-1, precomputed
	allGroups GroupSet    // 0..numGroup-1, precomputed
}

// NewTopology builds a topology of numGroups groups with perGroup processes
// each. Process IDs are assigned contiguously: group g owns processes
// [g*perGroup, (g+1)*perGroup). It panics if either argument is < 1; the
// paper requires non-empty groups, and a system with no groups is
// meaningless.
func NewTopology(numGroups, perGroup int) *Topology {
	if numGroups < 1 || perGroup < 1 {
		panic(fmt.Sprintf("types: invalid topology %d groups x %d processes", numGroups, perGroup))
	}
	sizes := make([]int, numGroups)
	for i := range sizes {
		sizes[i] = perGroup
	}
	return NewIrregularTopology(sizes)
}

// NewIrregularTopology builds a topology whose i-th group has sizes[i]
// processes. It panics if sizes is empty or contains a non-positive size.
func NewIrregularTopology(sizes []int) *Topology {
	if len(sizes) == 0 {
		panic("types: topology needs at least one group")
	}
	t := &Topology{numGroup: len(sizes)}
	for g, size := range sizes {
		if size < 1 {
			panic(fmt.Sprintf("types: group %d has invalid size %d", g, size))
		}
		group := make([]ProcessID, 0, size)
		for i := 0; i < size; i++ {
			p := ProcessID(t.n)
			t.groupOf = append(t.groupOf, GroupID(g))
			group = append(group, p)
			t.n++
		}
		t.members = append(t.members, group)
	}
	t.allProcs = make([]ProcessID, t.n)
	for i := range t.allProcs {
		t.allProcs[i] = ProcessID(i)
	}
	gs := make([]GroupID, t.numGroup)
	for i := range gs {
		gs[i] = GroupID(i)
	}
	t.allGroups = canonical(gs)
	return t
}

// unknownProcess is the out-of-line panic of the process lookups: keeping
// the fmt call out of GroupOf/SameGroup lets them inline into hot loops.
func unknownProcess(p ProcessID) {
	panic(fmt.Sprintf("types: unknown process %v", p))
}

// N returns |Π|, the total number of processes.
func (t *Topology) N() int { return t.n }

// NumGroups returns |Γ|.
func (t *Topology) NumGroups() int { return t.numGroup }

// GroupOf returns group(p). It panics on an unknown process.
func (t *Topology) GroupOf(p ProcessID) GroupID {
	if p < 0 || int(p) >= t.n {
		unknownProcess(p)
	}
	return t.groupOf[p]
}

// Members returns the processes of group g in ascending order. The caller
// must not modify the returned slice.
func (t *Topology) Members(g GroupID) []ProcessID {
	if g < 0 || int(g) >= t.numGroup {
		panic(fmt.Sprintf("types: unknown group %v", g))
	}
	return t.members[g]
}

// AllGroups returns every group ID in ascending order. The set is
// precomputed and shared (GroupSet is immutable).
func (t *Topology) AllGroups() GroupSet { return t.allGroups }

// AllProcesses returns every process ID in ascending order. The slice is
// precomputed and shared; the caller must not modify it (as with Members).
func (t *Topology) AllProcesses() []ProcessID { return t.allProcs }

// ProcessesIn returns, in ascending order, the processes belonging to any
// group in dest (the p ∈ m.dest abuse of notation from §2.2).
func (t *Topology) ProcessesIn(dest GroupSet) []ProcessID { return t.AppendProcessesIn(nil, dest, -1) }

// AppendProcessesIn appends to buf, in ascending order, the processes of the
// groups in dest other than skip.
func (t *Topology) AppendProcessesIn(buf []ProcessID, dest GroupSet, skip GroupID) []ProcessID {
	for _, g := range dest.Groups() {
		if g != skip {
			buf = append(buf, t.members[g]...)
		}
	}
	return buf
}

// SameGroup reports whether p and q belong to the same group. One bounds
// check covers both lookups, so the per-message call costs two array reads.
func (t *Topology) SameGroup(p, q ProcessID) bool {
	if p < 0 || int(p) >= t.n {
		unknownProcess(p)
	}
	if q < 0 || int(q) >= t.n {
		unknownProcess(q)
	}
	return t.groupOf[p] == t.groupOf[q]
}
