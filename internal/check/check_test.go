package check

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"wanamcast/internal/metrics"
	"wanamcast/internal/types"
)

func id(o, s int) types.MessageID {
	return types.MessageID{Origin: types.ProcessID(o), Seq: uint64(s)}
}

func allCorrect(types.ProcessID) bool { return true }

func TestCleanRunPasses(t *testing.T) {
	topo := types.NewTopology(2, 2)
	c := New(topo)
	m1, m2 := id(0, 1), id(2, 1)
	dest := types.NewGroupSet(0, 1)
	c.RecordCast(m1, dest)
	c.RecordCast(m2, dest)
	for p := 0; p < 4; p++ {
		c.RecordDeliver(types.ProcessID(p), m1)
		c.RecordDeliver(types.ProcessID(p), m2)
	}
	if v := c.Check(allCorrect, nil); len(v) != 0 {
		t.Fatalf("clean run flagged: %v", v)
	}
}

func TestIntegrityNeverCast(t *testing.T) {
	topo := types.NewTopology(1, 1)
	c := New(topo)
	c.RecordDeliver(0, id(0, 1))
	v := c.Check(allCorrect, nil)
	if len(v) == 0 || !strings.Contains(v[0], "never cast") {
		t.Fatalf("missing violation: %v", v)
	}
}

func TestIntegrityDoubleDelivery(t *testing.T) {
	topo := types.NewTopology(1, 1)
	c := New(topo)
	m := id(0, 1)
	c.RecordCast(m, types.NewGroupSet(0))
	c.RecordDeliver(0, m)
	c.RecordDeliver(0, m)
	v := c.Check(allCorrect, nil)
	found := false
	for _, s := range v {
		if strings.Contains(s, "twice") {
			found = true
		}
	}
	if !found {
		t.Fatalf("double delivery not flagged: %v", v)
	}
}

func TestIntegrityWrongAddressee(t *testing.T) {
	topo := types.NewTopology(2, 1)
	c := New(topo)
	m := id(0, 1)
	c.RecordCast(m, types.NewGroupSet(0))
	c.RecordDeliver(1, m) // p1 is in group 1, not addressed
	v := c.Check(allCorrect, nil)
	if len(v) == 0 || !strings.Contains(v[0], "not addressed") {
		t.Fatalf("wrong addressee not flagged: %v", v)
	}
}

func TestAgreementViolation(t *testing.T) {
	topo := types.NewTopology(1, 2)
	c := New(topo)
	m := id(0, 1)
	c.RecordCast(m, types.NewGroupSet(0))
	c.RecordDeliver(0, m) // p1 never delivers
	v := c.Check(allCorrect, nil)
	found := false
	for _, s := range v {
		if strings.Contains(s, "agreement") && strings.Contains(s, "p1") {
			found = true
		}
	}
	if !found {
		t.Fatalf("agreement violation not flagged: %v", v)
	}
}

func TestAgreementSkipsCrashed(t *testing.T) {
	topo := types.NewTopology(1, 2)
	c := New(topo)
	m := id(0, 1)
	c.RecordCast(m, types.NewGroupSet(0))
	c.RecordDeliver(0, m)
	correct := func(p types.ProcessID) bool { return p != 1 }
	if v := c.Check(correct, nil); len(v) != 0 {
		t.Fatalf("crashed process's missing delivery flagged: %v", v)
	}
}

func TestValidityCorrectCaster(t *testing.T) {
	topo := types.NewTopology(1, 2)
	c := New(topo)
	m := id(0, 1)
	c.RecordCast(m, types.NewGroupSet(0))
	// Nobody delivers; caster is correct → validity violation at both.
	v := c.Check(allCorrect, func(types.MessageID) bool { return true })
	if len(v) != 2 {
		t.Fatalf("want 2 validity violations, got %v", v)
	}
	if !strings.Contains(v[0], "validity") {
		t.Fatalf("not labelled validity: %v", v)
	}
}

func TestValidityFaultyCasterUndelivered(t *testing.T) {
	topo := types.NewTopology(1, 2)
	c := New(topo)
	m := id(0, 1)
	c.RecordCast(m, types.NewGroupSet(0))
	// Nobody delivers, caster crashed → allowed.
	v := c.Check(allCorrect, func(types.MessageID) bool { return false })
	if len(v) != 0 {
		t.Fatalf("faulty caster's undelivered message flagged: %v", v)
	}
}

func TestPrefixOrderViolation(t *testing.T) {
	topo := types.NewTopology(1, 2)
	c := New(topo)
	a, b := id(0, 1), id(0, 2)
	dest := types.NewGroupSet(0)
	c.RecordCast(a, dest)
	c.RecordCast(b, dest)
	c.RecordDeliver(0, a)
	c.RecordDeliver(0, b)
	c.RecordDeliver(1, b)
	c.RecordDeliver(1, a)
	v := c.Check(allCorrect, nil)
	found := false
	for _, s := range v {
		if strings.Contains(s, "prefix order") {
			found = true
		}
	}
	if !found {
		t.Fatalf("prefix violation not flagged: %v", v)
	}
}

func TestPrefixOrderProjectionIgnoresDisjoint(t *testing.T) {
	// p and q share only m3; their differing orders on unshared messages
	// are irrelevant.
	topo := types.NewTopology(3, 1)
	c := New(topo)
	m1 := id(0, 1) // to g0, g2
	m2 := id(1, 1) // to g1, g2
	c.RecordCast(m1, types.NewGroupSet(0, 2))
	c.RecordCast(m2, types.NewGroupSet(1, 2))
	c.RecordDeliver(0, m1)
	c.RecordDeliver(1, m2)
	c.RecordDeliver(2, m2)
	c.RecordDeliver(2, m1)
	if v := c.Check(allCorrect, nil); len(v) != 0 {
		t.Fatalf("disjoint projections flagged: %v", v)
	}
}

func TestPrefixAllowsLaggard(t *testing.T) {
	// q delivered a strict prefix of p's sequence: legal at any time t.
	topo := types.NewTopology(1, 2)
	c := New(topo)
	a, b := id(0, 1), id(0, 2)
	dest := types.NewGroupSet(0)
	c.RecordCast(a, dest)
	c.RecordCast(b, dest)
	c.RecordDeliver(0, a)
	c.RecordDeliver(0, b)
	c.RecordDeliver(1, a)
	// ...but agreement will flag the missing b at p1 — use correct=false.
	correct := func(p types.ProcessID) bool { return p != 1 }
	if v := c.Check(correct, nil); len(v) != 0 {
		t.Fatalf("prefix laggard flagged: %v", v)
	}
}

func TestDuplicateCastFlagged(t *testing.T) {
	topo := types.NewTopology(1, 1)
	c := New(topo)
	m := id(0, 1)
	c.RecordCast(m, types.NewGroupSet(0))
	c.RecordCast(m, types.NewGroupSet(0))
	v := c.Check(allCorrect, nil)
	if len(v) == 0 || !strings.Contains(v[0], "duplicate cast") {
		t.Fatalf("duplicate cast not flagged: %v", v)
	}
}

func TestGenuinenessViolations(t *testing.T) {
	topo := types.NewTopology(3, 2)
	c := New(topo)
	m := id(0, 1)
	c.RecordCast(m, types.NewGroupSet(0, 1)) // g2 (p4, p5) uninvolved
	sends := []metrics.SendEvent{
		{Proto: "a1.cons", From: 0, To: 1}, // fine
		{Proto: "a1", From: 4, To: 0},      // violation: p4 sends
		{Proto: "a1.rm", From: 0, To: 5},   // violation: p5 receives
		{Proto: "other", From: 4, To: 5},   // different protocol: ignored
	}
	v := c.GenuinenessViolations(sends, "a1")
	if len(v) != 2 {
		t.Fatalf("want 2 violations, got %v", v)
	}
}

func TestSequenceAccessor(t *testing.T) {
	topo := types.NewTopology(1, 1)
	c := New(topo)
	m := id(0, 1)
	c.RecordCast(m, types.NewGroupSet(0))
	c.RecordDeliver(0, m)
	if seq := c.Sequence(0); len(seq) != 1 || seq[0] != m {
		t.Errorf("Sequence = %v", seq)
	}
}

func TestNilCorrectMeansAllCorrect(t *testing.T) {
	topo := types.NewTopology(1, 2)
	c := New(topo)
	m := id(0, 1)
	c.RecordCast(m, types.NewGroupSet(0))
	c.RecordDeliver(0, m)
	if v := c.Check(nil, nil); len(v) == 0 {
		t.Fatal("nil correct must treat p1 as correct and flag agreement")
	}
}

// --- the pairwise reference ------------------------------------------------

// reference is the checker this package shipped before it went streaming,
// kept as the oracle: per-process seen maps scanned per cast, and uniform
// prefix order by projecting both sequences for every pair of processes. It
// is O(N² × deliveries), which is why it lives here.
type reference struct {
	topo   *types.Topology
	casts  map[types.MessageID]types.GroupSet
	seqs   map[types.ProcessID][]types.MessageID
	seen   map[types.ProcessID]map[types.MessageID]bool
	faults []string
	// when numbers the accepted deliveries in record order: the reference has
	// no notion of time, the differential test needs one to say which prefix
	// divergence came first.
	when map[delivery]int
}

type delivery struct {
	p  types.ProcessID
	id types.MessageID
}

func newReference(topo *types.Topology) *reference {
	return &reference{
		topo:  topo,
		casts: make(map[types.MessageID]types.GroupSet),
		seqs:  make(map[types.ProcessID][]types.MessageID),
		seen:  make(map[types.ProcessID]map[types.MessageID]bool),
		when:  make(map[delivery]int),
	}
}

func (c *reference) RecordCast(id types.MessageID, dest types.GroupSet) {
	if _, dup := c.casts[id]; dup {
		c.faults = append(c.faults, fmt.Sprintf("duplicate cast of %v", id))
		return
	}
	c.casts[id] = dest
}

func (c *reference) RecordDeliver(p types.ProcessID, id types.MessageID) {
	dest, cast := c.casts[id]
	if !cast {
		c.faults = append(c.faults, fmt.Sprintf("integrity: %v delivered %v which was never cast", p, id))
		return
	}
	if !dest.Contains(c.topo.GroupOf(p)) {
		c.faults = append(c.faults, fmt.Sprintf("integrity: %v delivered %v not addressed to its group %v", p, id, dest))
		return
	}
	if c.seen[p] == nil {
		c.seen[p] = make(map[types.MessageID]bool)
	}
	if c.seen[p][id] {
		c.faults = append(c.faults, fmt.Sprintf("integrity: %v delivered %v twice", p, id))
		return
	}
	c.seen[p][id] = true
	c.seqs[p] = append(c.seqs[p], id)
	c.when[delivery{p, id}] = len(c.when)
}

// referenceCheck returns the integrity, validity and agreement violations in
// the shipped checker's wording, and the delivery at which uniform prefix
// order first broke (nil if it never did): of every diverging pair's two
// deliveries at the diverging position, the later one, and of those the
// earliest.
func (c *reference) referenceCheck(correct func(types.ProcessID) bool, correctCaster func(types.MessageID) bool) (violations []string, first *delivery) {
	violations = append(violations, c.faults...)
	for id, dest := range c.casts {
		deliveredBySomeone := false
		for _, seen := range c.seen {
			if seen[id] {
				deliveredBySomeone = true
				break
			}
		}
		if !deliveredBySomeone && !correctCaster(id) {
			continue
		}
		for _, g := range dest.Groups() {
			for _, q := range c.topo.Members(g) {
				if !correct(q) || c.seen[q][id] {
					continue
				}
				reason := "agreement"
				if !deliveredBySomeone {
					reason = "validity"
				}
				violations = append(violations,
					fmt.Sprintf("%s: correct %v never delivered %v (dest %v)", reason, q, id, dest))
			}
		}
	}
	procs := c.topo.AllProcesses()
	for i, p := range procs {
		for _, q := range procs[i+1:] {
			mp, mq, ok := c.prefixViolation(p, q)
			if ok {
				continue
			}
			late := delivery{p, mp}
			if other := (delivery{q, mq}); c.when[other] > c.when[late] {
				late = other
			}
			if first == nil || c.when[late] < c.when[*first] {
				first = &late
			}
		}
	}
	return violations, first
}

// prefixViolation checks uniform prefix order between p and q; when it does
// not hold it returns the two messages at the first diverging position.
func (c *reference) prefixViolation(p, q types.ProcessID) (mp, mq types.MessageID, ok bool) {
	gp, gq := c.topo.GroupOf(p), c.topo.GroupOf(q)
	proj := func(seq []types.MessageID) []types.MessageID {
		var out []types.MessageID
		for _, id := range seq {
			dest := c.casts[id]
			if dest.Contains(gp) && dest.Contains(gq) {
				out = append(out, id)
			}
		}
		return out
	}
	sp, sq := proj(c.seqs[p]), proj(c.seqs[q])
	for i := 0; i < min(len(sp), len(sq)); i++ {
		if sp[i] != sq[i] {
			return sp[i], sq[i], false
		}
	}
	return types.MessageID{}, types.MessageID{}, true
}

// --- differential test -------------------------------------------------------

// history is one recorded run: a topology, its casts, the deliveries in
// record order, and which processes crashed.
type history struct {
	topo    *types.Topology
	ids     []types.MessageID
	dests   []types.GroupSet
	events  []delivery
	crashed map[types.ProcessID]bool
}

// genHistory draws a §2.2-clean run: 3–6 groups of 1–3 members, messages to
// 1–3 groups each, every process delivering the messages addressed to it in
// one global order, the processes' deliveries interleaved at random, and some
// processes crashing part-way through their sequence.
func genHistory(rng *rand.Rand) history {
	sizes := make([]int, 3+rng.Intn(4))
	for i := range sizes {
		sizes[i] = 1 + rng.Intn(3)
	}
	h := history{topo: types.NewIrregularTopology(sizes), crashed: make(map[types.ProcessID]bool)}
	for i, n := 0, 10+rng.Intn(30); i < n; i++ {
		var dest []types.GroupID
		for j, k := 0, 1+rng.Intn(3); j < k; j++ {
			dest = append(dest, types.GroupID(rng.Intn(len(sizes))))
		}
		h.ids = append(h.ids, id(rng.Intn(h.topo.N()), i+1))
		h.dests = append(h.dests, types.NewGroupSet(dest...))
	}
	todo := make([][]types.MessageID, h.topo.N())
	for p := range todo {
		for i, dest := range h.dests { // cast order is the global delivery order
			if dest.Contains(h.topo.GroupOf(types.ProcessID(p))) {
				todo[p] = append(todo[p], h.ids[i])
			}
		}
		if len(todo[p]) > 0 && rng.Intn(5) == 0 {
			h.crashed[types.ProcessID(p)] = true
			todo[p] = todo[p][:rng.Intn(len(todo[p]))]
		}
	}
	for {
		var live []int
		for p, seq := range todo {
			if len(seq) > 0 {
				live = append(live, p)
			}
		}
		if len(live) == 0 {
			return h
		}
		p := live[rng.Intn(len(live))]
		h.events = append(h.events, delivery{types.ProcessID(p), todo[p][0]})
		todo[p] = todo[p][1:]
	}
}

// inject returns h's events with one fault of the given kind, or false when
// the history has no place for it.
func (h history) inject(rng *rand.Rand, kind string) ([]delivery, bool) {
	ev := slices.Clone(h.events)
	if len(ev) == 0 {
		return nil, false
	}
	at := rng.Intn(len(ev))
	switch kind {
	case "swap": // two adjacent deliveries of one process change places
		for j := at + 1; j < len(ev); j++ {
			if ev[j].p == ev[at].p {
				ev[at].id, ev[j].id = ev[j].id, ev[at].id
				return ev, true
			}
		}
		return nil, false
	case "drop": // a correct process skips a delivery
		if h.crashed[ev[at].p] {
			return nil, false
		}
		return slices.Delete(ev, at, at+1), true
	case "dup": // a process delivers a message again, later
		return slices.Insert(ev, at+rng.Intn(len(ev)-at)+1, ev[at]), true
	case "outside": // a process outside dest delivers
		for p := 0; p < h.topo.N(); p++ {
			if !h.dests[ev[at].id.Seq-1].Contains(h.topo.GroupOf(types.ProcessID(p))) {
				return slices.Insert(ev, at, delivery{types.ProcessID(p), ev[at].id}), true
			}
		}
		return nil, false
	case "uncast": // a delivery of a message nobody cast
		return slices.Insert(ev, at, delivery{ev[at].p, id(0, 1000)}), true
	}
	panic(kind)
}

// kinds splits violations by the §2.2 property they name.
func kinds(violations []string) map[string][]string {
	out := make(map[string][]string)
	for _, v := range violations {
		kind, _, _ := strings.Cut(v, ":")
		out[kind] = append(out[kind], v)
	}
	for _, vs := range out {
		slices.Sort(vs)
	}
	return out
}

// TestStreamingAgreesWithPairwiseReference runs seeded random histories,
// clean and with one injected fault each, through the streaming checker and
// the pairwise reference. They must report the same integrity, validity and
// agreement violations, agree on whether prefix order holds, and name the
// same delivery — process and message — as the first to break it.
func TestStreamingAgreesWithPairwiseReference(t *testing.T) {
	faults := []string{"clean", "swap", "drop", "dup", "outside", "uncast"}
	broken := make(map[string]int) // histories per fault kind in which prefix order broke
	for seed := int64(0); seed < 600; seed++ {
		rng := rand.New(rand.NewSource(seed))
		h := genHistory(rng)
		correct := func(p types.ProcessID) bool { return !h.crashed[p] }
		correctCaster := func(id types.MessageID) bool { return !h.crashed[id.Origin] }
		for _, fault := range faults {
			events, ok := h.events, true
			if fault != "clean" {
				events, ok = h.inject(rng, fault)
			}
			if !ok {
				continue
			}
			c, ref := New(h.topo), newReference(h.topo)
			for i, id := range h.ids {
				c.RecordCast(id, h.dests[i])
				ref.RecordCast(id, h.dests[i])
			}
			for _, e := range events {
				c.RecordDeliver(e.p, e.id)
				ref.RecordDeliver(e.p, e.id)
			}
			got := kinds(c.Check(correct, correctCaster))
			wantViolations, first := ref.referenceCheck(correct, correctCaster)
			want := kinds(wantViolations)
			for _, kind := range []string{"integrity", "validity", "agreement"} {
				if !slices.Equal(got[kind], want[kind]) {
					t.Fatalf("seed %d %s: %s violations\n streaming %q\n reference %q", seed, fault, kind, got[kind], want[kind])
				}
			}
			if fault == "clean" && len(got) > 0 {
				t.Fatalf("seed %d: clean history flagged: %v", seed, got)
			}
			if (first != nil) != (len(got["prefix order"]) > 0) {
				t.Fatalf("seed %d %s: prefix order: streaming %q, reference's first divergence %+v", seed, fault, got["prefix order"], first)
			}
			if first == nil {
				continue
			}
			broken[fault]++
			named := c.diverged[0] // record order: the earliest
			if !strings.HasPrefix(named, fmt.Sprintf("prefix order: %v and ", first.p)) ||
				!strings.Contains(named, fmt.Sprintf(": %v vs ", first.id)) {
				t.Fatalf("seed %d %s: first divergence is %v delivering %v, streaming named %q", seed, fault, first.p, first.id, named)
			}
			if seq := c.Sequence(first.p); !slices.Equal(seq, ref.seqs[first.p]) {
				t.Fatalf("seed %d %s: Sequence(%v) = %v, reference %v", seed, fault, first.p, seq, ref.seqs[first.p])
			}
		}
	}
	// The faults must actually bite, or agreeing on them means nothing.
	if broken["swap"] < 200 || broken["drop"] < 200 {
		t.Fatalf("too few histories broke prefix order: %v", broken)
	}
	t.Logf("histories with prefix order broken, by fault: %v", broken)
}

// --- cost pins -----------------------------------------------------------------

// scaleRun is a pre-recorded clean run on groups × perGroup processes: casts
// to two random groups each, delivered everywhere in cast order.
func scaleRun(groups, perGroup, casts int) history {
	rng := rand.New(rand.NewSource(1))
	h := history{topo: types.NewTopology(groups, perGroup)}
	for i := 0; i < casts; i++ {
		a := rng.Intn(groups)
		b := (a + 1 + rng.Intn(groups-1)) % groups
		dest := types.NewGroupSet(types.GroupID(a), types.GroupID(b))
		h.ids = append(h.ids, id(rng.Intn(h.topo.N()), i+1))
		h.dests = append(h.dests, dest)
		for _, p := range h.topo.ProcessesIn(dest) {
			h.events = append(h.events, delivery{p, h.ids[i]})
		}
	}
	return h
}

// TestRecordDeliverAllocs pins the streaming path's cost: a delivery to a
// two-group destination appends to three slices and allocates only when one
// of them grows — amortised well under one allocation, 0 as AllocsPerRun
// rounds it.
func TestRecordDeliverAllocs(t *testing.T) {
	h := scaleRun(8, 3, 4000)
	c := New(h.topo)
	for i, id := range h.ids {
		c.RecordCast(id, h.dests[i])
	}
	next := 0
	allocs := testing.AllocsPerRun(len(h.events)-1, func() {
		c.RecordDeliver(h.events[next].p, h.events[next].id)
		next++
	})
	if allocs != 0 {
		t.Fatalf("RecordDeliver allocates %.0f per delivery, want 0 (amortised)", allocs)
	}
	if v := c.Check(nil, nil); len(v) != 0 {
		t.Fatalf("clean run flagged: %v", v[0])
	}
}

// BenchmarkCheck1000x10k is the checker's large-N path: 1 000 processes
// (200×5), 10 000 two-group casts, 100 000 deliveries recorded and checked.
// The pairwise reference projects 499 500 process pairs on this input.
func BenchmarkCheck1000x10k(b *testing.B) {
	h := scaleRun(200, 5, 10000)
	b.ReportAllocs()
	for b.Loop() {
		c := New(h.topo)
		for i, id := range h.ids {
			c.RecordCast(id, h.dests[i])
		}
		for _, e := range h.events {
			c.RecordDeliver(e.p, e.id)
		}
		if v := c.Check(nil, nil); len(v) != 0 {
			b.Fatalf("clean run flagged: %v", v[0])
		}
	}
}
