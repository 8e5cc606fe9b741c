package node

import (
	"reflect"
	"testing"
	"time"

	"wanamcast/internal/metrics"
	"wanamcast/internal/network"
	"wanamcast/internal/types"
)

// echo is a test protocol that records receptions and can send on demand.
type echo struct {
	api      *Proc
	label    string
	received []recv
}

type recv struct {
	from types.ProcessID
	body any
}

func (e *echo) Proto() string       { return e.label }
func (e *echo) Start()              {}
func (e *echo) Handlers() []Handler { return []Handler{On((*echo).Receive)} }
func (e *echo) Receive(from types.ProcessID, body any) {
	e.received = append(e.received, recv{from, body})
}

func newTestRT(groups, per int) (*Runtime, *metrics.Collector) {
	col := &metrics.Collector{LogSends: true}
	topo := types.NewTopology(groups, per)
	model := network.Model{IntraGroup: time.Millisecond, InterGroup: 100 * time.Millisecond}
	rt := NewRuntime(topo, model, 1, col)
	return rt, col
}

func register(rt *Runtime) []*echo {
	es := make([]*echo, rt.Topo().N())
	for _, id := range rt.Topo().AllProcesses() {
		e := &echo{api: rt.Proc(id), label: "echo"}
		rt.Proc(id).Register(e)
		es[id] = e
	}
	rt.Start()
	return es
}

// TestClockRulesIntraGroup: intra-group sends do not tick the clock (§2.3
// rule 2, same-group case).
func TestClockRulesIntraGroup(t *testing.T) {
	rt, _ := newTestRT(2, 2)
	es := register(rt)
	Send(rt.Proc(0), 1, "echo", "x")
	rt.Run()
	if rt.Proc(0).Clock() != 0 {
		t.Errorf("sender clock = %d, want 0 (intra-group send)", rt.Proc(0).Clock())
	}
	if rt.Proc(1).Clock() != 0 {
		t.Errorf("receiver clock = %d, want 0", rt.Proc(1).Clock())
	}
	if len(es[1].received) != 1 {
		t.Fatal("message not delivered")
	}
}

// TestClockRulesInterGroup: inter-group sends tick the sender and propagate
// via max at the receiver (§2.3 rules 2 and 3).
func TestClockRulesInterGroup(t *testing.T) {
	rt, _ := newTestRT(2, 2)
	register(rt)
	Send(rt.Proc(0), 2, "echo", "x")
	rt.Run()
	if rt.Proc(0).Clock() != 1 {
		t.Errorf("sender clock = %d, want 1", rt.Proc(0).Clock())
	}
	if rt.Proc(2).Clock() != 1 {
		t.Errorf("receiver clock = %d, want 1", rt.Proc(2).Clock())
	}
}

// TestMulticastTicksOnce: a fan-out with any inter-group destination is one
// send event — one tick, one shared timestamp (the Theorem 4.1 accounting).
func TestMulticastTicksOnce(t *testing.T) {
	rt, _ := newTestRT(2, 2)
	register(rt)
	Multicast(rt.Proc(0), []types.ProcessID{1, 2, 3}, "echo", "x")
	rt.Run()
	if rt.Proc(0).Clock() != 1 {
		t.Errorf("sender clock = %d, want 1 (single tick for the fan-out)", rt.Proc(0).Clock())
	}
	// The intra-group recipient also carries the fan-out's timestamp.
	if rt.Proc(1).Clock() != 1 {
		t.Errorf("intra recipient clock = %d, want 1", rt.Proc(1).Clock())
	}
}

// TestMulticastIntraOnlyNoTick: a fan-out entirely within the group does
// not tick.
func TestMulticastIntraOnlyNoTick(t *testing.T) {
	rt, _ := newTestRT(2, 3)
	register(rt)
	Multicast(rt.Proc(0), []types.ProcessID{1, 2}, "echo", "x")
	rt.Run()
	if rt.Proc(0).Clock() != 0 {
		t.Errorf("sender clock = %d, want 0", rt.Proc(0).Clock())
	}
}

// arrivals records, across processes, the order in which copies arrive.
type arrivals struct {
	self types.ProcessID
	log  *[]types.ProcessID
}

func (a arrivals) Proto() string                { return "arr" }
func (a arrivals) Start()                       {}
func (a arrivals) Handlers() []Handler          { return []Handler{On(arrivals.Receive)} }
func (a arrivals) Receive(types.ProcessID, any) { *a.log = append(*a.log, a.self) }

// TestMulticastArrivalOrder: the copies of one Multicast arrive in the
// order one entry per receiver gives them, however the simulator groups
// them into runs. With every link at the same delay all copies share an
// arrival instant, so only the priority class orders them: the sender's
// group first, then the other groups, each class in list order.
func TestMulticastArrivalOrder(t *testing.T) {
	topo := types.NewTopology(3, 3)
	rt := NewRuntime(topo, network.Model{IntraGroup: time.Millisecond, InterGroup: time.Millisecond}, 1, nil)
	var got []types.ProcessID
	for _, id := range topo.AllProcesses() {
		rt.Proc(id).Register(arrivals{id, &got})
	}
	rt.Start()
	for _, tc := range []struct{ tos, want []types.ProcessID }{
		{topo.AllProcesses(), []types.ProcessID{3, 4, 5, 0, 1, 2, 6, 7, 8}},
		{[]types.ProcessID{8, 0, 1, 5, 4, 3, 6}, []types.ProcessID{5, 4, 3, 8, 0, 1, 6}},
	} {
		got = got[:0]
		Multicast(rt.Proc(4), tc.tos, "arr", "x")
		rt.Run()
		if !reflect.DeepEqual(got, tc.want) {
			t.Errorf("Multicast to %v arrived in order %v, want %v", tc.tos, got, tc.want)
		}
	}
}

// TestReceiveTakesMax: receiving an older timestamp does not lower the
// clock.
func TestReceiveTakesMax(t *testing.T) {
	rt, _ := newTestRT(3, 1)
	register(rt)
	// p0 sends to p2 twice with ticks in between; p2's clock is the max.
	Send(rt.Proc(0), 2, "echo", "a") // ts 1
	Send(rt.Proc(0), 2, "echo", "b") // ts 2
	Send(rt.Proc(1), 2, "echo", "c") // ts 1 (older)
	rt.Run()
	if rt.Proc(2).Clock() != 2 {
		t.Errorf("receiver clock = %d, want 2", rt.Proc(2).Clock())
	}
}

func TestSelfSendDeliversWithoutCounting(t *testing.T) {
	rt, col := newTestRT(1, 2)
	es := register(rt)
	Send(rt.Proc(0), 0, "echo", "self")
	rt.Run()
	if len(es[0].received) != 1 || es[0].received[0].from != 0 {
		t.Fatalf("self-send not delivered: %+v", es[0].received)
	}
	if st := col.Snapshot(); st.TotalMessages != 0 {
		t.Errorf("self-send counted as %d network messages", st.TotalMessages)
	}
}

func TestSelfSendTakesIntraDelay(t *testing.T) {
	rt, _ := newTestRT(1, 2)
	var at time.Duration
	p := rt.Proc(0)
	e := &echo{api: p, label: "echo"}
	p.Register(e)
	p.Register(&hook{label: "t", fn: func() {}})
	rt.Proc(1).Register(&echo{label: "echo"})
	rt.Proc(1).Register(&hook{label: "t", fn: func() {}})
	rt.Start()
	Send(p, 0, "echo", "x")
	rt.Scheduler().At(0, func() {})
	rt.Run()
	_ = at
	// Delivery is scheduled with the intra-group delay (1ms), keeping
	// group members symmetric.
	if len(e.received) != 1 {
		t.Fatal("self message lost")
	}
	if got := rt.Now(); got != time.Millisecond {
		t.Errorf("self-send delivered at %v, want 1ms", got)
	}
}

type hook struct {
	label string
	fn    func()
}

func (h *hook) Proto() string                { return h.label }
func (h *hook) Start()                       { h.fn() }
func (h *hook) Handlers() []Handler          { return []Handler{On((*hook).Receive)} }
func (h *hook) Receive(types.ProcessID, any) {}

func TestCrashedProcessStopsSendingAndReceiving(t *testing.T) {
	rt, col := newTestRT(2, 1)
	es := register(rt)
	Send(rt.Proc(0), 1, "echo", "pre") // in flight
	rt.Crash(1)
	Send(rt.Proc(1), 0, "echo", "from-crashed")
	rt.Run()
	if len(es[1].received) != 0 {
		t.Error("crashed process received a message")
	}
	if len(es[0].received) != 0 {
		t.Error("crashed process's send was transmitted")
	}
	// The pre-crash send still counts as sent.
	if st := col.Snapshot(); st.TotalMessages != 1 {
		t.Errorf("messages = %d, want 1", st.TotalMessages)
	}
}

func TestCrashCancelsTimers(t *testing.T) {
	rt, _ := newTestRT(1, 1)
	fired := false
	p := rt.Proc(0)
	p.Register(&hook{label: "h", fn: func() {
		p.After(10*time.Millisecond, func() { fired = true })
	}})
	rt.Start()
	rt.CrashAt(0, 5*time.Millisecond)
	rt.Run()
	if fired {
		t.Error("timer fired on a crashed process")
	}
}

// TestRuntimeLaterDropsCrashedOwnerTimers: the env itself must drop a
// timer whose owning process crashed by fire time, even when the callback
// was scheduled through Env.Later directly (bypassing Proc.After's own
// re-check) — a dead node must not keep driving consensus rounds.
func TestRuntimeLaterDropsCrashedOwnerTimers(t *testing.T) {
	rt, _ := newTestRT(1, 1)
	register(rt)
	fired := false
	rt.Later(rt.Proc(0), 10*time.Millisecond, func() { fired = true })
	rt.CrashAt(0, 5*time.Millisecond)
	rt.Run()
	if fired {
		t.Error("env-level timer fired for a crashed owner")
	}
}

func TestCrashNotifiesOracleAfterSuspicionDelay(t *testing.T) {
	rt, _ := newTestRT(1, 2)
	register(rt)
	rt.SuspicionDelay = 20 * time.Millisecond
	rt.Crash(0)
	rt.RunUntil(10 * time.Millisecond)
	if rt.Oracle().Suspected(0) {
		t.Error("suspected before the suspicion delay")
	}
	rt.RunUntil(30 * time.Millisecond)
	if !rt.Oracle().Suspected(0) {
		t.Error("not suspected after the suspicion delay")
	}
	if rt.Oracle().Leader(0) != 1 {
		t.Error("leadership did not move")
	}
}

func TestDuplicateProtocolPanics(t *testing.T) {
	rt, _ := newTestRT(1, 1)
	p := rt.Proc(0)
	p.Register(&echo{label: "dup"})
	defer func() {
		if recover() == nil {
			t.Error("expected panic on duplicate protocol")
		}
	}()
	p.Register(&echo{label: "dup"})
}

func TestUnknownProtocolPanics(t *testing.T) {
	rt, _ := newTestRT(1, 2)
	register(rt)
	Send(rt.Proc(0), 1, "nope", "x")
	defer func() {
		if recover() == nil {
			t.Error("expected panic on unknown protocol")
		}
	}()
	rt.Run()
}

func TestStartTwicePanics(t *testing.T) {
	rt, _ := newTestRT(1, 1)
	rt.Start()
	defer func() {
		if recover() == nil {
			t.Error("expected panic on double Start")
		}
	}()
	rt.Start()
}

func TestStartOrderIsRegistrationOrder(t *testing.T) {
	rt, _ := newTestRT(1, 1)
	var order []string
	p := rt.Proc(0)
	p.Register(&hook{label: "a", fn: func() { order = append(order, "a") }})
	p.Register(&hook{label: "b", fn: func() { order = append(order, "b") }})
	rt.Start()
	if len(order) != 2 || order[0] != "a" || order[1] != "b" {
		t.Errorf("start order = %v", order)
	}
}

func TestInterGroupDeliveryDelay(t *testing.T) {
	rt, _ := newTestRT(2, 1)
	es := register(rt)
	Send(rt.Proc(0), 1, "echo", "x")
	rt.RunUntil(99 * time.Millisecond)
	if len(es[1].received) != 0 {
		t.Error("inter-group message arrived before the WAN delay")
	}
	rt.RunUntil(101 * time.Millisecond)
	if len(es[1].received) != 1 {
		t.Error("inter-group message did not arrive after the WAN delay")
	}
}

func TestRecordersReceiveCastAndDeliver(t *testing.T) {
	rt, col := newTestRT(2, 1)
	register(rt)
	id := types.MessageID{Origin: 0, Seq: 1}
	rt.Proc(0).RecordCast(id)
	Send(rt.Proc(0), 1, "echo", "x") // tick
	rt.Proc(1).RecordDeliver(id)     // receiver clock still 0 until delivery...
	rt.Run()
	deg, ok := col.LatencyDegree(id)
	if !ok || deg != 0 {
		t.Errorf("degree = %d ok=%v (deliver recorded before reception)", deg, ok)
	}
}

func TestEmptyMulticastIsNoop(t *testing.T) {
	rt, col := newTestRT(2, 1)
	register(rt)
	Multicast(rt.Proc(0), nil, "echo", "x")
	rt.Run()
	if rt.Proc(0).Clock() != 0 {
		t.Error("empty multicast ticked the clock")
	}
	if st := col.Snapshot(); st.TotalMessages != 0 {
		t.Error("empty multicast sent messages")
	}
}

// TestRecoveringProcessRecordsNothing: while a process replays its log it
// reports no cast, no delivery and — because Metrics() is nil — no counter;
// all of them record again once recovery ends.
func TestRecoveringProcessRecordsNothing(t *testing.T) {
	rt, col := newTestRT(1, 2)
	register(rt)
	p := rt.Proc(0)
	record := func(seq uint64) {
		id := types.MessageID{Origin: 0, Seq: seq}
		p.RecordCast(id)
		p.RecordDeliver(id)
		p.Metrics().Add(metrics.ConsensusInstances, 1)
		p.Metrics().OnBatchDecided(2)
		p.Metrics().Add(metrics.LearnFetches, 1)
		p.Metrics().AddGroup(p.Group(), metrics.RoundsOnPace, 1)
		p.Metrics().Add(metrics.BundleCopiesSent, 1)
		p.Metrics().Add(metrics.BundleRepeatsDropped, 1)
	}
	p.SetRecovering(true)
	if p.Metrics() != nil {
		t.Fatal("Metrics() must be nil while recovering")
	}
	record(1)
	if got := col.Snapshot(); !reflect.DeepEqual(got, new(metrics.Collector).Snapshot()) {
		t.Fatalf("a recovering process recorded: %v", got)
	}
	p.SetRecovering(false)
	record(2)
	st := col.Snapshot()
	if st.CastTotal != 1 || st.DeliveredTotal != 1 || st.ConsensusInstances != 1 || st.BatchedMessages != 2 ||
		st.LearnFetches != 1 || st.RoundsOnPace != 1 || st.BundleCopiesSent != 1 || st.BundleRepeatsDropped != 1 {
		t.Fatalf("after recovery the process recorded %v, want one of each", st)
	}
}
