package node

import (
	"fmt"
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

func (s *sinkProto) Proto() string                { return "sink" }
func (s *sinkProto) Start()                       {}
func (s *sinkProto) Handlers() []Handler          { return []Handler{On((*sinkProto).Receive)} }
func (s *sinkProto) Receive(types.ProcessID, any) { s.got++ }

// TestTransmitDeliverZeroAllocs pins the simulated runtime's hot path: with
// tracing disarmed (rt.Trace == nil) and metrics discarded, one
// Transmit→Step round trip — fabric route, typed delivery event, clock
// update, protocol dispatch — must not allocate in steady state. This is
// the regression guard for the two historical per-send allocations: the
// unguarded Tracef call whose varargs boxed on every send even with
// tracing off, and the per-copy delivery closure. A Send and a
// k-receiver Multicast on a jitter-free network, whose copies the
// scheduler holds as runs, drain at 0 allocs too.
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

	// body is pre-boxed once; protocols hand the same boxed message to every
	// copy of a multicast, so the steady-state path never re-boxes.
	var body any = &struct{ x int }{x: 7}

	// Warm the scheduler's slabs and bucket ring past steady state.
	all := topo.AllProcesses()
	for i := 0; i < 4096; i++ {
		rt.Transmit(0, all[i%len(all):i%len(all)+1], "sink", body, 1)
	}
	rt.Run()

	from, to := types.ProcessID(0), all[4:5] // inter-group: WAN prio path
	allocs := testing.AllocsPerRun(2000, func() {
		rt.Transmit(from, to, "sink", body, 1)
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
	var body any = "m"
	to := rt.Topo().Members(0)[1:2]
	for i := 0; i < 256; i++ {
		rt.Transmit(0, to, "sink", body, 1)
	}
	rt.Run()

	allocs := testing.AllocsPerRun(1000, func() {
		rt.Transmit(0, to, "sink", body, 1)
		for rt.Scheduler().Step() {
		}
	})
	if allocs != 0 {
		t.Fatalf("disarmed Tracef path allocated %.2f allocs/event, want 0", allocs)
	}

	lines := 0
	rt.Trace = func(string, ...any) { lines++ }
	rt.Transmit(0, to, "sink", body, 1)
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
