package node

import (
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"

	"wanamcast/internal/network"
	"wanamcast/internal/types"
)

// sinkProto is a do-nothing protocol: the allocation pin below measures the
// runtime's transmit→deliver machinery, not protocol logic.
type sinkProto struct {
	got int
}

// token is what the pins below send: a pointer, carried in its slot as is.
type token struct{ x int }

func (s *sinkProto) Proto() string                   { return "sink" }
func (s *sinkProto) Start()                          {}
func (s *sinkProto) Handlers() []Handler             { return []Handler{On((*sinkProto).Receive)} }
func (s *sinkProto) Receive(types.ProcessID, *token) { s.got++ }

// TestTransmitDeliverZeroAllocs pins the simulated runtime's hot path: with
// tracing disarmed (rt.Trace == nil) and metrics discarded, one
// Transmit→Step round trip — fabric route, typed delivery event, clock
// update, protocol dispatch — must not allocate in steady state. This is
// the regression guard for the two historical per-send allocations: the
// unguarded Tracef call whose varargs boxed on every send even with
// tracing off, and the per-copy delivery closure. A Send and a
// k-receiver Multicast on a jitter-free network, whose copies the
// scheduler holds as runs, drain at 0 allocs too. Every send here carries one
// pointer made outside the measured loop, in a slot as Multicast takes it:
// what a struct value costs, carried unboxed, is TestMulticastValueZeroAllocs's.
func TestTransmitDeliverZeroAllocs(t *testing.T) {
	topo := types.NewTopology(3, 3)
	model := network.Model{
		IntraGroup: time.Millisecond,
		InterGroup: 40 * time.Millisecond,
		Jitter:     5 * time.Millisecond,
	}
	rt := NewRuntime(topo, model, 1, nil)
	sinks := make([]*sinkProto, topo.N())
	for _, id := range topo.AllProcesses() {
		sinks[id] = &sinkProto{}
		rt.Proc(id).Register(sinks[id])
	}
	rt.Start()

	body := &token{x: 7}
	transmit := func(from types.ProcessID, to []types.ProcessID) {
		rt.Transmit(from, to, "sink", slotOf(rt.Proc(from), body, len(to)), 1)
	}

	// Warm the scheduler's slabs and bucket ring past steady state.
	all := topo.AllProcesses()
	for i := 0; i < 4096; i++ {
		transmit(0, all[i%len(all):i%len(all)+1])
	}
	rt.Run()

	from, to := types.ProcessID(0), all[4:5] // inter-group: WAN prio path
	allocs := testing.AllocsPerRun(2000, func() {
		transmit(from, to)
		for rt.Scheduler().Step() {
		}
	})
	if allocs != 0 {
		t.Fatalf("Transmit→deliver allocated %.2f allocs/event, want 0", allocs)
	}
	if sinks[4].got == 0 {
		t.Fatalf("sink protocol on p4 received nothing; pin measured a dead path")
	}

	model.Jitter = 0
	rt = NewRuntime(topo, model, 1, nil)
	sinks = make([]*sinkProto, topo.N())
	for _, id := range all {
		sinks[id] = &sinkProto{}
		rt.Proc(id).Register(sinks[id])
	}
	rt.Start()
	p := rt.Proc(4)
	cast := func() {
		Multicast(p, all, "sink", body)
		Send(p, 0, "sink", body)
		for rt.Scheduler().Step() {
		}
	}
	for i := 0; i < 4096; i++ { // every calendar bucket holds a slice
		cast()
	}
	if allocs := testing.AllocsPerRun(2000, cast); allocs != 0 {
		t.Fatalf("a %d-receiver Multicast and a Send allocated %.2f allocs each round, want 0", len(all), allocs)
	}
	for _, id := range all {
		want := 4096 + 1 + 2000 // the rounds: warm-up, then AllocsPerRun's
		if id == 0 {
			want *= 2 // the Send's copies
		}
		if sinks[id].got != want {
			t.Fatalf("sink on %v received %d copies, want %d", id, sinks[id].got, want)
		}
	}
}

// pair is a 16-byte message, as most of the protocols' are: small structs
// sent by value.
type pair struct{ a, b int64 }

// pairProto checks each pair it receives against the sequence its sender
// numbered.
type pairProto struct {
	got  int
	next map[types.ProcessID]int64 // the a expected next from each sender
	bad  int
}

func (*pairProto) Proto() string       { return "pair" }
func (*pairProto) Start()              {}
func (*pairProto) Handlers() []Handler { return []Handler{On((*pairProto).Receive)} }
func (q *pairProto) Receive(from types.ProcessID, m pair) {
	q.got++
	if m.a != q.next[from] || m.b != -m.a {
		q.bad++
	}
	q.next[from] = m.a + 1
}

// TestMulticastValueZeroAllocs pins a send of a value of a concrete type on
// the simulator: node.Multicast of a 16-byte struct to the nine processes of
// three groups allocates nothing in steady state — the runtime holds
// the value in a recycled slot its copies share, and hands it to the handler
// unboxed. A copy parked on a severed link keeps its slot until the heal
// delivers it, and a copy to a crashed receiver gives its slot back: each
// receiver sees its sender's values in order and intact, and the slots end
// where they began. So do they under a Hook that drops every copy to one
// receiver and holds one copy to another until the run is over; the hook
// never sees a copy to the crashed receiver.
func TestMulticastValueZeroAllocs(t *testing.T) {
	topo := types.NewTopology(3, 3)
	rt := NewRuntime(topo, network.Model{IntraGroup: time.Millisecond, InterGroup: 40 * time.Millisecond}, 1, nil)
	all := topo.AllProcesses()
	qs := make([]*pairProto, len(all))
	for _, id := range all {
		qs[id] = &pairProto{next: map[types.ProcessID]int64{}}
		rt.Proc(id).Register(qs[id])
	}
	rt.Start()
	p, seq := rt.Proc(4), int64(0)
	send := func() {
		Multicast(p, all, "pair", pair{seq, -seq})
		seq++
	}
	cast := func() {
		send()
		for rt.Scheduler().Step() {
		}
	}
	for range 4096 { // every calendar bucket holds a slice
		cast()
	}
	if allocs := testing.AllocsPerRun(2000, cast); allocs != 0 {
		t.Fatalf("a %d-receiver Multicast of a %T allocated %.2f allocs each, want 0", len(all), pair{}, allocs)
	}
	slots := p.pools[reflect.TypeFor[pair]()].(*cellPool[pair])
	idle := len(slots.free) + len(slots.chunk) // every slot not in use

	rt.Fabric().Sever(4, 8)
	for range 3 {
		send()
		rt.Run() // the slot's other copies delivered: only the parked one holds it
		cast()   // a send that would reuse the slot if the parked copy held none
	}
	if n := qs[8].got; n != int(seq)-6 {
		t.Fatalf("p8 received %d copies over a severed link", n-(int(seq)-6))
	}
	rt.Fabric().Heal(4, 8)
	rt.Run()
	rt.Crash(2)
	rt.Run()
	if allocs := testing.AllocsPerRun(2000, cast); allocs != 0 {
		t.Fatalf("a Multicast with a crashed receiver allocated %.2f allocs each, want 0", allocs)
	}
	if n := len(slots.free) + len(slots.chunk); n != idle {
		t.Errorf("%d idle slots after the heal and the crash, want the %d before", n, idle)
	}
	for _, id := range all {
		want := int(seq)
		if id == 2 {
			want -= 2001 // crashed before AllocsPerRun's rounds
		}
		if qs[id].got != want || qs[id].bad != 0 {
			t.Errorf("p%d received %d pairs (%d out of order or torn), want %d", id, qs[id].got, qs[id].bad, want)
		}
	}

	var held func()
	rt.Hook = func(from, to types.ProcessID, proto string, m any, sendTS int64, deliver func()) {
		switch {
		case to == 2:
			t.Errorf("the hook was handed a copy to p2, which has crashed")
		case to == 8:
		case to == 7 && held == nil:
			held = deliver
		default:
			deliver()
		}
	}
	got7, got8 := qs[7].got, qs[8].got
	for range 3 {
		cast()
	}
	if held == nil || qs[7].got != got7+2 || qs[8].got != got8 {
		t.Fatalf("under the hook p7 received %d of 3 copies and p8 %d, want 2 with one held, and 0", qs[7].got-got7, qs[8].got-got8)
	}
	if n := len(slots.free) + len(slots.chunk); n != idle {
		t.Errorf("%d idle slots after copies dropped and held, want the %d before", n, idle)
	}
	held()
	if qs[7].got != got7+3 || qs[7].bad != 2 { // the copy after the held one, and the held one, arrive out of order
		t.Errorf("the held copy ran %d times at p7 (%d copies out of order), want once (and 2)", qs[7].got-got7-2, qs[7].bad)
	}
}

// TestTracefDisarmedCostsNothing pins the satellite fix directly: Tracef
// call sites in the runtime are guarded by rt.Trace != nil, so a disarmed
// trace hook must not box its arguments. An armed hook still sees every
// line (spot-checked), so the guard did not silence tracing.
func TestTracefDisarmedCostsNothing(t *testing.T) {
	topo := types.NewTopology(2, 2)
	rt := NewRuntime(topo, network.Model{IntraGroup: time.Millisecond}, 1, nil)
	for _, id := range topo.AllProcesses() {
		rt.Proc(id).Register(&sinkProto{})
	}
	rt.Start()
	body := &token{}
	to := rt.Topo().Members(0)[1:2]
	transmit := func() { rt.Transmit(0, to, "sink", slotOf(rt.Proc(0), body, 1), 1) }
	for i := 0; i < 256; i++ {
		transmit()
	}
	rt.Run()

	allocs := testing.AllocsPerRun(1000, func() {
		transmit()
		for rt.Scheduler().Step() {
		}
	})
	if allocs != 0 {
		t.Fatalf("disarmed Tracef path allocated %.2f allocs/event, want 0", allocs)
	}

	lines := 0
	rt.Trace = func(string, ...any) { lines++ }
	transmit()
	rt.Run()
	if lines == 0 {
		t.Fatal("armed trace hook saw no SEND line; guard silenced tracing")
	}
}

// TestProcTracefOffZeroAllocs pins Proc.Tracef with no sink attached: the
// guarded form protocols use on per-delivery paths (TraceOn first) boxes
// nothing, and Tracef itself builds no prefixed argument list before it
// has looked for a sink. An armed sink still gets the prefixed line.
func TestProcTracefOffZeroAllocs(t *testing.T) {
	rt := NewRuntime(types.NewTopology(1, 1), network.Model{}, 1, nil)
	api := rt.Proc(0)
	id := types.MessageID{Origin: 0, Seq: 1 << 40}
	round := uint64(1 << 40)
	if allocs := testing.AllocsPerRun(1000, func() {
		if api.TraceOn() {
			api.Tracef("a2: A-Deliver %v in round %d", id, round)
		}
	}); allocs != 0 {
		t.Fatalf("guarded Tracef call allocated %.2f/call with tracing off, want 0", allocs)
	}
	args := []any{id, round}
	if allocs := testing.AllocsPerRun(1000, func() { api.Tracef("a2: A-Deliver %v in round %d", args...) }); allocs != 0 {
		t.Fatalf("Proc.Tracef allocated %.2f/call with tracing off, want 0", allocs)
	}
	var line string
	rt.Trace = func(format string, a ...any) { line = fmt.Sprintf(format, a...) }
	api.Tracef("a2: A-Deliver %v in round %d", args...)
	if want := "p0 t=0s lc=0 a2: A-Deliver"; !strings.HasPrefix(line, want) {
		t.Fatalf("armed sink got %q, want prefix %q", line, want)
	}
}
