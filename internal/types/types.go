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
	"maps"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
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

// GroupSet is an immutable set of destination groups (m.dest in the paper).
// The zero value is the empty set. Construct with NewGroupSet.
type GroupSet struct {
	groups []GroupID // sorted, deduplicated
}

// NewGroupSet builds a set from the given groups, deduplicating and sorting.
func NewGroupSet(groups ...GroupID) GroupSet {
	gs := append(make([]GroupID, 0, len(groups)), groups...)
	slices.Sort(gs)
	return GroupSet{groups: slices.Compact(gs)}
}

// Contains reports whether g is in the set.
func (s GroupSet) Contains(g GroupID) bool {
	_, ok := slices.BinarySearch(s.groups, g)
	return ok
}

// Size returns the number of groups in the set.
func (s GroupSet) Size() int { return len(s.groups) }

// Groups returns the member groups in ascending order. The caller must not
// modify the returned slice.
func (s GroupSet) Groups() []GroupID { return s.groups }

// Equal reports whether both sets contain exactly the same groups.
func (s GroupSet) Equal(other GroupSet) bool { return slices.Equal(s.groups, other.groups) }

// String implements fmt.Stringer.
func (s GroupSet) String() string {
	parts := make([]string, len(s.groups))
	for i, g := range s.groups {
		parts[i] = g.String()
	}
	return "{" + strings.Join(parts, ",") + "}"
}

// AppendTo appends the set's wire encoding: a uvarint count followed by one
// varint per group, in ascending order.
func (s GroupSet) AppendTo(buf []byte) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(s.groups)))
	for _, g := range s.groups {
		buf = binary.AppendVarint(buf, int64(g))
	}
	return buf
}

// DecodeGroupSet consumes one GroupSet and returns the remainder. Input that
// is not sorted and deduplicated (which AppendTo never produces) is
// re-canonicalised rather than rejected, so a decoded set always upholds the
// GroupSet invariant even on hostile bytes. A system addresses a handful of
// destination sets, so the set of an encoding seen before comes shared out of
// a bounded table, without allocating (internSet).
func DecodeGroupSet(data []byte) (GroupSet, []byte, error) {
	n, read := binary.Uvarint(data)
	if read <= 0 {
		return GroupSet{}, nil, fmt.Errorf("types: corrupt GroupSet header")
	}
	rest := data[read:]
	if n > uint64(len(rest)) { // each element takes at least one byte
		return GroupSet{}, nil, fmt.Errorf("types: GroupSet length %d exceeds input", n)
	}
	if n == 0 {
		return GroupSet{}, rest, nil
	}
	var buf [8]GroupID
	groups := buf[:0]
	for i := uint64(0); i < n; i++ {
		v, read := binary.Varint(rest)
		if read <= 0 {
			return GroupSet{}, nil, fmt.Errorf("types: corrupt GroupSet element %d", i)
		}
		rest = rest[read:]
		groups = append(groups, GroupID(v))
	}
	return internSet(data[:len(data)-len(rest)], groups), rest, nil
}

// sets is internSet's table: immutable, replaced whole under setsMu by each
// new entry, so that a lookup is a pointer load and a map read. It holds the
// first maxSets encodings of at most maxSetKey bytes; any other decodes to a
// fresh set every time. Filling it copies O(maxSets²) entries, which a
// simulation of hundreds of groups pays once per process: A1's decisions
// decode their sets there too.
var (
	setsMu sync.Mutex
	sets   atomic.Pointer[map[string]GroupSet]
)

const maxSets, maxSetKey = 256, 64

func init() { sets.Store(&map[string]GroupSet{}) }

// internSet returns the set that enc, which decoded to groups, encodes.
func internSet(enc []byte, groups []GroupID) GroupSet {
	cur := *sets.Load()
	if s, ok := cur[string(enc)]; ok {
		return s
	}
	s := NewGroupSet(groups...)
	if len(cur) >= maxSets || len(enc) > maxSetKey {
		return s
	}
	setsMu.Lock()
	defer setsMu.Unlock()
	if cur := *sets.Load(); len(cur) < maxSets && len(enc) <= maxSetKey {
		next := maps.Clone(cur)
		next[string(enc)] = s
		sets.Store(&next)
	}
	return s
}

// MarshalBinary implements encoding.BinaryMarshaler so a GroupSet inside
// an application payload survives the wire codec's gob fallback despite the
// unexported field.
func (s GroupSet) MarshalBinary() ([]byte, error) {
	return s.AppendTo(make([]byte, 0, 2+4*len(s.groups))), nil
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
	t.allGroups = GroupSet{groups: gs}
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
