// Package scenario is the chaos scenario engine: a declarative, timed
// fault schedule — partition these group sets at t=2s, heal at 5s, crash
// p3 at 6s, restart it at 8s, spike the inter-group delay, flap a leader
// three times — runnable unchanged on both the simulated and the live TCP
// runtime through the Funcs control surface.
//
// Every fault a scenario injects keeps the run admissible under the
// paper's §2.1 model: partitions and delay spikes are arbitrary-but-finite
// link delays (the fabric withholds, never loses), crashes are crash-stops
// (with the live runtime's durable restart as the recovery path), and
// forced suspicions are the mistakes Ω is explicitly allowed. The §2.2
// safety properties must therefore hold through any schedule, and
// delivery must resume after the last heal — exactly what `wankv
// -scenario` (live, under KV load), `wansim -scenario` (simulated) and the
// acceptance tests assert.
//
// Scenarios are deterministic: a schedule is a fixed list of events, so on
// the simulated runtime the same scenario and seed reproduce a run
// byte-for-byte (pinned by TestScenarioDeterministicTrace).
package scenario

import (
	"fmt"
	"strings"
	"time"

	"wanamcast/internal/network"
	"wanamcast/internal/node"
	"wanamcast/internal/types"
)

// Kind enumerates the fault operations a scenario event can apply.
type Kind int

const (
	// Partition severs every link between group sets A and B — both
	// directions, or only A→B when Asym is set.
	Partition Kind = iota
	// Heal restores the links between group sets A and B (the inverse of
	// Partition with the same operands).
	Heal
	// HealAll restores every severed link in the fabric.
	HealAll
	// Crash crash-stops every process in Procs.
	Crash
	// Restart recovers every process in Procs from its durable store (live
	// runtimes only; targets without a RestartFn log and skip it, leaving
	// the crash permanent — still an admissible run).
	Restart
	// DelaySpike overrides the delay of every link between group sets A
	// and B with Delay (both directions unless Asym).
	DelaySpike
	// ClearDelay removes the DelaySpike overrides between A and B.
	ClearDelay
	// Suspect injects a false suspicion of every process in Procs into the
	// group's failure detectors (demoting a leader without any real fault).
	Suspect
	// Unsuspect restores trust in every process in Procs. On the live
	// runtime resumed heartbeats restore trust on their own; the event
	// makes the schedule explicit and deterministic on the simulator.
	Unsuspect
	// Isolate severs every link between each process in Procs and the rest
	// of its group, both directions — the "node dropped off the LAN" fault.
	// Against a lease-holding leader this is the canonical lease-safety
	// test: the victim keeps believing it leads while its peers' grants age
	// out, so its lease must lapse before any successor's activates.
	Isolate
	// HealIsolate restores the links Isolate severed.
	HealIsolate
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case Partition:
		return "partition"
	case Heal:
		return "heal"
	case HealAll:
		return "heal-all"
	case Crash:
		return "crash"
	case Restart:
		return "restart"
	case DelaySpike:
		return "delay-spike"
	case ClearDelay:
		return "clear-delay"
	case Suspect:
		return "suspect"
	case Unsuspect:
		return "unsuspect"
	case Isolate:
		return "isolate"
	case HealIsolate:
		return "heal-isolate"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// Event is one timed fault: at offset At from the scenario's start, apply
// Kind to the operands.
type Event struct {
	At   time.Duration
	Kind Kind

	// A and B are the group sets of Partition/Heal/DelaySpike/ClearDelay.
	A, B []types.GroupID
	// Asym restricts a Partition or DelaySpike to the A→B direction.
	Asym bool
	// Procs are the victims of Crash/Restart/Suspect/Unsuspect.
	Procs []types.ProcessID
	// Delay is the DelaySpike override.
	Delay time.Duration
}

// Scenario is a named, ordered fault schedule.
type Scenario struct {
	Name   string
	Events []Event
}

// Horizon returns the offset of the scenario's last event.
func (s Scenario) Horizon() time.Duration {
	var h time.Duration
	for _, e := range s.Events {
		if e.At > h {
			h = e.At
		}
	}
	return h
}

// String summarises the schedule.
func (s Scenario) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s:", s.Name)
	for _, e := range s.Events {
		fmt.Fprintf(&b, " [%v %v", e.At, e.Kind)
		if len(e.A) > 0 || len(e.B) > 0 {
			fmt.Fprintf(&b, " %v|%v", e.A, e.B)
			if e.Asym {
				b.WriteString(" asym")
			}
		}
		if len(e.Procs) > 0 {
			fmt.Fprintf(&b, " %v", e.Procs)
		}
		if e.Delay > 0 {
			fmt.Fprintf(&b, " %v", e.Delay)
		}
		b.WriteString("]")
	}
	return b.String()
}

// Funcs is the control surface a scenario drives — the seams where the
// simulated and the live runtime differ. Topo, Net, Schedule, CrashFn,
// SuspectFn and UnsuspectFn are required; a nil RestartFn leaves crashes
// permanent and a nil Logf is silent.
type Funcs struct {
	Topo *types.Topology
	// Net is the runtime's link fabric.
	Net *network.Fabric
	// Schedule runs fn d after the scenario is applied (virtual time on the
	// simulator, wall time live).
	Schedule func(d time.Duration, fn func())
	// CrashFn crash-stops a process.
	CrashFn func(p types.ProcessID)
	// RestartFn recovers a crashed process from its durable state.
	RestartFn func(p types.ProcessID) error
	// SuspectFn injects a false suspicion of p; UnsuspectFn revokes it.
	SuspectFn   func(p types.ProcessID)
	UnsuspectFn func(p types.ProcessID)
	// Logf receives one line per applied event.
	Logf func(format string, args ...any)
}

// SimFuncs adapts a simulated runtime.
func SimFuncs(rt *node.Runtime) Funcs {
	return Funcs{
		Topo: rt.Topo(),
		Net:  rt.Fabric(),
		Schedule: func(d time.Duration, fn func()) {
			rt.Scheduler().After(d, fn)
		},
		CrashFn:     rt.Crash,
		SuspectFn:   rt.Suspect,
		UnsuspectFn: rt.Unsuspect,
	}
}

// Apply schedules every event of sc onto t. It returns immediately; the
// events fire at their offsets through t.Schedule. Apply panics on a
// missing required Func — that is a wiring bug, not a runtime condition.
func Apply(t Funcs, sc Scenario) {
	if t.Topo == nil || t.Net == nil || t.Schedule == nil || t.CrashFn == nil || t.SuspectFn == nil || t.UnsuspectFn == nil {
		panic("scenario: Funcs.Topo, Net, Schedule, CrashFn, SuspectFn and UnsuspectFn are required")
	}
	for _, e := range sc.Events {
		e := e
		t.Schedule(e.At, func() { applyEvent(t, sc.Name, e) })
	}
}

func applyEvent(t Funcs, name string, e Event) {
	logf := t.Logf
	if logf == nil {
		logf = func(string, ...any) {}
	}
	switch e.Kind {
	case Partition:
		logf("%s t=%v: partition %v|%v (asym=%v)", name, e.At, e.A, e.B, e.Asym)
		t.Net.Partition(e.A, e.B, !e.Asym)
	case Heal:
		logf("%s t=%v: heal %v|%v", name, e.At, e.A, e.B)
		t.Net.HealPartition(e.A, e.B, !e.Asym)
	case HealAll:
		logf("%s t=%v: heal all", name, e.At)
		t.Net.HealAll()
	case Crash:
		for _, p := range e.Procs {
			logf("%s t=%v: crash %v", name, e.At, p)
			t.CrashFn(p)
		}
	case Restart:
		for _, p := range e.Procs {
			if t.RestartFn == nil {
				logf("%s t=%v: restart %v skipped (no restart surface; crash stays permanent)", name, e.At, p)
				continue
			}
			if err := t.RestartFn(p); err != nil {
				logf("%s t=%v: restart %v FAILED: %v", name, e.At, p, err)
			} else {
				logf("%s t=%v: restart %v", name, e.At, p)
			}
		}
	case DelaySpike:
		logf("%s t=%v: delay spike %v|%v -> %v (asym=%v)", name, e.At, e.A, e.B, e.Delay, e.Asym)
		t.Net.SetGroupDelay(e.A, e.B, e.Delay, !e.Asym)
	case ClearDelay:
		logf("%s t=%v: clear delay %v|%v", name, e.At, e.A, e.B)
		t.Net.ClearGroupDelay(e.A, e.B, !e.Asym)
	case Suspect:
		for _, p := range e.Procs {
			logf("%s t=%v: force-suspect %v", name, e.At, p)
			t.SuspectFn(p)
		}
	case Unsuspect:
		for _, p := range e.Procs {
			logf("%s t=%v: unsuspect %v", name, e.At, p)
			t.UnsuspectFn(p)
		}
	case Isolate:
		for _, p := range e.Procs {
			logf("%s t=%v: isolate %v from its group", name, e.At, p)
			t.Net.Isolate(p)
		}
	case HealIsolate:
		for _, p := range e.Procs {
			logf("%s t=%v: heal isolation of %v", name, e.At, p)
			t.Net.HealIsolate(p)
		}
	default:
		panic(fmt.Sprintf("scenario: unknown event kind %v", e.Kind))
	}
}

// SuiteConfig parameterises the preset suite.
type SuiteConfig struct {
	// Unit is the schedule's time step (default 500 ms): faults start at
	// 1×Unit and the last heal lands by 4×Unit.
	Unit time.Duration
	// Spike is the DelaySpike override (default 1×Unit): pick several
	// times the WAN delay so the spike is visible but finite — messages
	// must still drain before the scenario's horizon.
	Spike time.Duration
}

func (c *SuiteConfig) fill() {
	if c.Unit == 0 {
		c.Unit = 500 * time.Millisecond
	}
	if c.Spike == 0 {
		c.Spike = c.Unit
	}
}

// Suite returns the acceptance scenario suite over topo: symmetric
// partition+heal, asymmetric partition, leader flap ×3, inter-group delay
// spike, partition during crash-recovery, and lease-holder isolation. It
// panics on fewer than two groups (nothing to partition). The
// crash-recovery and lease-partition scenarios assume groups of at least
// three (the victim's group must keep a majority).
func Suite(topo *types.Topology, cfg SuiteConfig) []Scenario {
	cfg.fill()
	if topo.NumGroups() < 2 {
		panic("scenario: the suite needs at least two groups")
	}
	u := cfg.Unit
	g0 := []types.GroupID{0}
	rest := make([]types.GroupID, 0, topo.NumGroups()-1)
	for g := 1; g < topo.NumGroups(); g++ {
		rest = append(rest, types.GroupID(g))
	}
	g1 := rest[:1]
	leader0 := topo.Members(0)[0]
	lastOfG0 := topo.Members(0)[len(topo.Members(0))-1]

	return []Scenario{
		{
			Name: "partition-heal",
			Events: []Event{
				{At: 1 * u, Kind: Partition, A: g0, B: rest},
				{At: 3 * u, Kind: HealAll},
			},
		},
		{
			Name: "asym-partition",
			Events: []Event{
				{At: 1 * u, Kind: Partition, A: g0, B: g1, Asym: true},
				{At: 3 * u, Kind: HealAll},
			},
		},
		{
			Name: "leader-flap",
			Events: []Event{
				{At: 1 * u, Kind: Suspect, Procs: []types.ProcessID{leader0}},
				{At: 3 * u / 2, Kind: Unsuspect, Procs: []types.ProcessID{leader0}},
				{At: 2 * u, Kind: Suspect, Procs: []types.ProcessID{leader0}},
				{At: 5 * u / 2, Kind: Unsuspect, Procs: []types.ProcessID{leader0}},
				{At: 3 * u, Kind: Suspect, Procs: []types.ProcessID{leader0}},
				{At: 7 * u / 2, Kind: Unsuspect, Procs: []types.ProcessID{leader0}},
			},
		},
		{
			Name: "delay-spike",
			Events: []Event{
				{At: 1 * u, Kind: DelaySpike, A: g0, B: g1, Delay: cfg.Spike},
				{At: 3 * u, Kind: ClearDelay, A: g0, B: g1},
			},
		},
		{
			Name: "partition-recovery",
			Events: []Event{
				{At: 1 * u / 2, Kind: Crash, Procs: []types.ProcessID{lastOfG0}},
				{At: 1 * u, Kind: Partition, A: g0, B: rest},
				{At: 3 * u / 2, Kind: Restart, Procs: []types.ProcessID{lastOfG0}},
				{At: 3 * u, Kind: HealAll},
			},
		},
		{
			// Sever the initial lease holder from its own group mid-run: its
			// peers' grants age out, their promises expire, and the Ω
			// successor assembles a fresh lease — which must not activate
			// until the victim's lapses (the read tier's no-stale-read pin).
			Name: "lease-partition",
			Events: []Event{
				{At: 1 * u, Kind: Isolate, Procs: []types.ProcessID{leader0}},
				{At: 3 * u, Kind: HealIsolate, Procs: []types.ProcessID{leader0}},
			},
		},
	}
}

// ByName returns the suite scenario with the given name.
func ByName(topo *types.Topology, cfg SuiteConfig, name string) (Scenario, bool) {
	for _, sc := range Suite(topo, cfg) {
		if sc.Name == name {
			return sc, true
		}
	}
	return Scenario{}, false
}

// Names lists the suite's scenario names in order, read off the suite
// itself (over the smallest topology every scenario fits).
func Names() []string {
	var names []string
	for _, sc := range Suite(types.NewTopology(2, 3), SuiteConfig{}) {
		names = append(names, sc.Name)
	}
	return names
}
