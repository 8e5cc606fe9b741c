package types

import (
	"bytes"
	"encoding/binary"
	"maps"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"testing/quick"
	"unsafe"
)

func TestMessageIDLessIsStrictTotalOrder(t *testing.T) {
	// Irreflexive, asymmetric, transitive, total — checked by enumeration
	// over a small grid.
	var ids []MessageID
	for o := 0; o < 4; o++ {
		for s := uint64(0); s < 4; s++ {
			ids = append(ids, MessageID{Origin: ProcessID(o), Seq: s})
		}
	}
	for _, a := range ids {
		if a.Less(a) {
			t.Errorf("Less is not irreflexive at %v", a)
		}
		for _, b := range ids {
			if a != b && a.Less(b) == b.Less(a) {
				t.Errorf("Less is not asymmetric/total at %v,%v", a, b)
			}
			for _, c := range ids {
				if a.Less(b) && b.Less(c) && !a.Less(c) {
					t.Errorf("Less is not transitive at %v,%v,%v", a, b, c)
				}
			}
		}
	}
}

func TestMessageIDLessQuick(t *testing.T) {
	f := func(o1, o2 int16, s1, s2 uint16) bool {
		a := MessageID{Origin: ProcessID(o1), Seq: uint64(s1)}
		b := MessageID{Origin: ProcessID(o2), Seq: uint64(s2)}
		if a == b {
			return !a.Less(b) && !b.Less(a)
		}
		return a.Less(b) != b.Less(a)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMessageIDString(t *testing.T) {
	id := MessageID{Origin: 3, Seq: 7}
	if got := id.String(); got != "m(3,7)" {
		t.Errorf("String() = %q", got)
	}
	if !(MessageID{}).IsZero() {
		t.Error("zero MessageID not IsZero")
	}
	if id.IsZero() {
		t.Error("non-zero MessageID reported IsZero")
	}
}

func TestNewGroupSetDeduplicatesAndSorts(t *testing.T) {
	s := NewGroupSet(3, 1, 3, 0, 1)
	got := s.Groups()
	want := []GroupID{0, 1, 3}
	if len(got) != len(want) {
		t.Fatalf("Groups() = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Groups() = %v, want %v", got, want)
		}
	}
	if s.Size() != 3 {
		t.Errorf("Size() = %d, want 3", s.Size())
	}
}

// TestNewGroupSetMatchesMapAndSort checks NewGroupSet against the map-and-
// sort.Slice construction it replaced, on random inputs with repeats and
// negative IDs, and the empty input; and that a set of three groups built
// from four costs no allocation.
func TestNewGroupSetMatchesMapAndSort(t *testing.T) {
	reference := func(groups []GroupID) []GroupID {
		gs := make([]GroupID, 0, len(groups))
		seen := make(map[GroupID]bool, len(groups))
		for _, g := range groups {
			if !seen[g] {
				seen[g] = true
				gs = append(gs, g)
			}
		}
		sort.Slice(gs, func(i, j int) bool { return gs[i] < gs[j] })
		return gs
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 2000; i++ {
		in := make([]GroupID, rng.Intn(12))
		for j := range in {
			in[j] = GroupID(rng.Intn(9) - 2)
		}
		orig := slices.Clone(in)
		got := NewGroupSet(in...).Groups()
		if want := reference(in); !slices.Equal(got, want) || (got == nil) != (want == nil) {
			t.Fatalf("NewGroupSet(%v) = %#v, want %#v", in, got, want)
		}
		if !slices.Equal(in, orig) {
			t.Fatalf("NewGroupSet reordered its argument: %v, was %v", in, orig)
		}
	}
	if got := NewGroupSet().Groups(); got == nil || len(got) != 0 {
		t.Fatalf("NewGroupSet() = %#v, want an empty set", got)
	}
	in := []GroupID{4, 1, 4, 2}
	if n := testing.AllocsPerRun(100, func() { _ = NewGroupSet(in...) }); n != 0 {
		t.Errorf("NewGroupSet: %.1f allocs, want 0", n)
	}
}

// TestDecodeGroupSetSeenBeforeIsFree: decoding a set's encoding again
// decodes the same set, without an allocation; a non-canonical encoding still
// decodes to its canonical set.
func TestDecodeGroupSetSeenBeforeIsFree(t *testing.T) {
	enc := NewGroupSet(7, 3, 11).AppendTo(nil)
	first, _, err := DecodeGroupSet(enc)
	if err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(100, func() { _, _, _ = DecodeGroupSet(enc) }); n != 0 {
		t.Errorf("DecodeGroupSet of a set seen before: %.1f allocs, want 0", n)
	}
	if again, _, _ := DecodeGroupSet(enc); !again.Equal(first) || !slices.Equal(again.Groups(), []GroupID{3, 7, 11}) {
		t.Errorf("DecodeGroupSet of a set seen before decoded %v, then %v", first, again)
	}
	odd := encodeInOrder(3, 11, 3, 7)
	for range 2 {
		if s, rest, err := DecodeGroupSet(odd); err != nil || len(rest) != 0 || !slices.Equal(s.Groups(), []GroupID{3, 7, 11}) {
			t.Fatalf("non-canonical encoding decoded to %v, %d left, %v", s, len(rest), err)
		}
	}
}

// TestSmallGroupSetsAllocateNothing: a set of two or three groups, never
// built or decoded before, costs no allocation either way. A simulation of
// hundreds of groups addresses far more distinct sets than any table of seen
// ones would hold.
func TestSmallGroupSetsAllocateNothing(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, size := range []int{2, 3} {
		in, enc := make([]GroupID, size), make([]byte, 0, 64)
		draw := func() {
			enc = binary.AppendUvarint(enc[:0], uint64(size))
			for i := range in {
				in[i] = GroupID(rng.Intn(1 << 20))
				enc = binary.AppendVarint(enc, int64(in[i]))
			}
		}
		if n := testing.AllocsPerRun(200, func() { draw(); _ = NewGroupSet(in...) }); n != 0 {
			t.Errorf("NewGroupSet of %d fresh groups: %.1f allocs, want 0", size, n)
		}
		if n := testing.AllocsPerRun(200, func() { draw(); _, _, _ = DecodeGroupSet(enc) }); n != 0 {
			t.Errorf("DecodeGroupSet of %d fresh groups: %.1f allocs, want 0", size, n)
		}
	}
}

// TestGroupSetMatchesMapReference checks Groups, Size, Contains, Equal,
// AppendTo and DecodeGroupSet against a map on random sets of zero to ten
// groups, across the size a set holds in place.
func TestGroupSetMatchesMapReference(t *testing.T) {
	f := func(members []uint8, probe uint8, drop uint8) bool {
		members = members[:min(len(members), 10)]
		ref := map[GroupID]bool{}
		in := make([]GroupID, len(members))
		for i, m := range members {
			in[i] = GroupID(m % 16)
			ref[in[i]] = true
		}
		want := slices.Sorted(maps.Keys(ref))
		s := NewGroupSet(in...)
		if !slices.Equal(s.Groups(), want) || s.Size() != len(want) || s.Contains(GroupID(probe%16)) != ref[GroupID(probe%16)] {
			return false
		}
		slices.Reverse(in)
		if !s.Equal(NewGroupSet(in...)) || !bytes.Equal(s.AppendTo(nil), encodeInOrder(want...)) {
			return false
		}
		if len(want) > 0 && s.Equal(NewGroupSet(slices.Delete(slices.Clone(want), int(drop)%len(want), int(drop)%len(want)+1)...)) {
			return false
		}
		back, rest, err := DecodeGroupSet(encodeInOrder(in...))
		return err == nil && len(rest) == 0 && back.Equal(s) && slices.Equal(back.Groups(), want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// TestGroupSetSize pins a GroupSet's size: its count, inlineGroups groups in
// place, and the slice of a larger set. A set is copied into every
// descriptor, pending entry and delivery record, so a larger one costs there.
func TestGroupSetSize(t *testing.T) {
	if got := unsafe.Sizeof(GroupSet{}); got != 56 {
		t.Errorf("a GroupSet takes %d bytes, want 56", got)
	}
}

// encodeInOrder encodes groups as a GroupSet would, in the order given.
func encodeInOrder(groups ...GroupID) []byte {
	buf := binary.AppendUvarint(nil, uint64(len(groups)))
	for _, g := range groups {
		buf = binary.AppendVarint(buf, int64(g))
	}
	return buf
}

func TestGroupSetContains(t *testing.T) {
	s := NewGroupSet(0, 2, 5)
	for _, tc := range []struct {
		g    GroupID
		want bool
	}{{0, true}, {1, false}, {2, true}, {3, false}, {5, true}, {6, false}, {-1, false}} {
		if got := s.Contains(tc.g); got != tc.want {
			t.Errorf("Contains(%v) = %v, want %v", tc.g, got, tc.want)
		}
	}
}

func TestGroupSetEqual(t *testing.T) {
	if !NewGroupSet(1, 2).Equal(NewGroupSet(2, 1)) {
		t.Error("order must not matter")
	}
	if NewGroupSet(1).Equal(NewGroupSet(1, 2)) {
		t.Error("different sizes reported equal")
	}
	if NewGroupSet(1, 3).Equal(NewGroupSet(1, 2)) {
		t.Error("different members reported equal")
	}
	var zero GroupSet
	if !zero.Equal(NewGroupSet()) {
		t.Error("zero value must equal the empty set")
	}
}

func TestGroupSetString(t *testing.T) {
	if got := NewGroupSet(1, 0).String(); got != "{g0,g1}" {
		t.Errorf("String() = %q", got)
	}
}

func TestGroupSetContainsQuick(t *testing.T) {
	f := func(members []uint8, probe uint8) bool {
		gs := make([]GroupID, len(members))
		inSet := false
		for i, m := range members {
			gs[i] = GroupID(m)
			if m == probe {
				inSet = true
			}
		}
		return NewGroupSet(gs...).Contains(GroupID(probe)) == inSet
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestNewTopologyLayout(t *testing.T) {
	topo := NewTopology(3, 4)
	if topo.N() != 12 || topo.NumGroups() != 3 {
		t.Fatalf("N=%d groups=%d", topo.N(), topo.NumGroups())
	}
	for g := 0; g < 3; g++ {
		members := topo.Members(GroupID(g))
		if len(members) != 4 {
			t.Fatalf("group %d has %d members", g, len(members))
		}
		for i, p := range members {
			if int(p) != g*4+i {
				t.Errorf("group %d member %d = %v, want p%d", g, i, p, g*4+i)
			}
			if topo.GroupOf(p) != GroupID(g) {
				t.Errorf("GroupOf(%v) = %v, want g%d", p, topo.GroupOf(p), g)
			}
		}
	}
}

func TestNewIrregularTopology(t *testing.T) {
	topo := NewIrregularTopology([]int{1, 3, 2})
	if topo.N() != 6 {
		t.Fatalf("N = %d, want 6", topo.N())
	}
	if got := len(topo.Members(1)); got != 3 {
		t.Errorf("group 1 size = %d, want 3", got)
	}
	if topo.GroupOf(0) != 0 || topo.GroupOf(3) != 1 || topo.GroupOf(5) != 2 {
		t.Error("GroupOf misassigns irregular layout")
	}
}

func TestTopologyPanics(t *testing.T) {
	for name, fn := range map[string]func(){
		"zero groups":     func() { NewTopology(0, 3) },
		"zero per group":  func() { NewTopology(3, 0) },
		"empty sizes":     func() { NewIrregularTopology(nil) },
		"negative size":   func() { NewIrregularTopology([]int{2, -1}) },
		"unknown process": func() { NewTopology(2, 2).GroupOf(99) },
		"unknown group":   func() { NewTopology(2, 2).Members(9) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", name)
				}
			}()
			fn()
		}()
	}
}

func TestProcessesIn(t *testing.T) {
	topo := NewTopology(3, 2)
	got := topo.ProcessesIn(NewGroupSet(0, 2))
	want := []ProcessID{0, 1, 4, 5}
	if len(got) != len(want) {
		t.Fatalf("ProcessesIn = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("ProcessesIn = %v, want %v", got, want)
		}
	}
	if len(topo.ProcessesIn(NewGroupSet())) != 0 {
		t.Error("empty dest must yield no processes")
	}
}

func TestAllGroupsAllProcesses(t *testing.T) {
	topo := NewTopology(2, 2)
	if topo.AllGroups().Size() != 2 {
		t.Error("AllGroups size wrong")
	}
	if len(topo.AllProcesses()) != 4 {
		t.Error("AllProcesses size wrong")
	}
	if !topo.SameGroup(0, 1) || topo.SameGroup(1, 2) {
		t.Error("SameGroup wrong")
	}
}

// TestGroupsPartitionQuick verifies the §2.1 group axioms on random
// topologies: disjoint, non-empty, and covering Π.
func TestGroupsPartitionQuick(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		sizes := make([]int, 1+rng.Intn(6))
		for i := range sizes {
			sizes[i] = 1 + rng.Intn(5)
		}
		topo := NewIrregularTopology(sizes)
		seen := make(map[ProcessID]int)
		for g := 0; g < topo.NumGroups(); g++ {
			members := topo.Members(GroupID(g))
			if len(members) == 0 {
				t.Fatal("empty group")
			}
			for _, p := range members {
				seen[p]++
			}
		}
		if len(seen) != topo.N() {
			t.Fatalf("groups do not cover Π: %d of %d", len(seen), topo.N())
		}
		for p, n := range seen {
			if n != 1 {
				t.Fatalf("%v appears in %d groups", p, n)
			}
		}
	}
}
