// Package harness wires any of the repository's nine total-order
// algorithms — the paper's A1 and A2 plus the seven Figure 1 baselines —
// into a simulated wide-area system with uniform casting, measurement, and
// property-checking surfaces. The public wanamcast.Cluster, the Figure 1
// benchmarks, wansim (its -figures tables included), and the
// cross-algorithm tests are all built on it. A1 and A2 processes come from
// internal/durable, the host the live cluster uses too.
package harness

import (
	"flag"
	"fmt"
	"os"
	"time"

	"wanamcast/internal/baseline"
	"wanamcast/internal/check"
	"wanamcast/internal/config"
	"wanamcast/internal/durable"
	"wanamcast/internal/metrics"
	"wanamcast/internal/network"
	"wanamcast/internal/node"
	"wanamcast/internal/rmcast"
	"wanamcast/internal/scenario"
	"wanamcast/internal/types"
	"wanamcast/internal/wire"
)

// Algo names an algorithm the harness can build.
type Algo string

// The algorithms of Figure 1.
const (
	AlgoA1        Algo = "a1"        // paper §4: genuine atomic multicast, Δ=2
	AlgoA2        Algo = "a2"        // paper §5: atomic broadcast, Δ=1
	AlgoSkeen     Algo = "skeen"     // [2]: failure-free multicast, Δ=2
	AlgoFritzke   Algo = "fritzke"   // [5]: all four stages, Δ=2
	AlgoDelporte  Algo = "delporte"  // [4]: group chain, Δ=k+1
	AlgoRodrigues Algo = "rodrigues" // [10]: spanning consensus, Δ=4
	AlgoDetMerge  Algo = "detmerge"  // [1]: deterministic merge, Δ=1
	AlgoSousa     Algo = "sousa"     // [12]: optimistic sequencer, Δ=2
	AlgoVicente   Algo = "vicente"   // [13]: validated sequencer, Δ=2
)

// Algos lists every algorithm the harness can build — the single catalog
// commands validate against.
func Algos() []Algo {
	return []Algo{AlgoA1, AlgoA2, AlgoSkeen, AlgoFritzke, AlgoDelporte,
		AlgoRodrigues, AlgoDetMerge, AlgoSousa, AlgoVicente}
}

// Known reports whether the harness can build a.
func (a Algo) Known() bool {
	for _, k := range Algos() {
		if a == k {
			return true
		}
	}
	return false
}

// Usagef is the shared bad-flag exit of the commands: it prints the
// error prefixed with the command name, then the flag usage, and exits 2.
func Usagef(cmd, format string, args ...any) {
	fmt.Fprintf(os.Stderr, cmd+": "+format+"\n", args...)
	flag.Usage()
	os.Exit(2)
}

// MulticastAlgos lists the Figure 1(a) contenders in the paper's row order.
func MulticastAlgos() []Algo {
	return []Algo{AlgoDelporte, AlgoRodrigues, AlgoFritzke, AlgoA1, AlgoDetMerge}
}

// BroadcastAlgos lists the Figure 1(b) contenders in the paper's row order.
func BroadcastAlgos() []Algo {
	return []Algo{AlgoSousa, AlgoVicente, AlgoA2, AlgoDetMerge}
}

// Options configures a simulated system — the topology, the network model,
// and the protocol engines' tuning — and is the public wanamcast.Config. The
// live cluster's knobs live in config.Config.
type Options struct {
	Groups   int           // number of groups (default 2)
	PerGroup int           // processes per group (default 3)
	Inter    time.Duration // inter-group one-way delay (default 100 ms, the figure §5.3 uses)
	Intra    time.Duration // intra-group one-way delay (default 1 ms)
	Jitter   time.Duration // uniform per-message extra delay in [0, Jitter)
	Seed     int64         // makes the run reproducible; zero is a valid seed
	LogSends bool          // retain a per-send log (genuineness checks need it)
	// DetMergeInterval is the [1] heartbeat period (default 10 ms). It and
	// DetMergeStop apply to AlgoDetMerge only.
	DetMergeInterval time.Duration
	// DetMergeStop stops the [1] heartbeat stream at that virtual time so
	// Run() drains (default 5 s).
	DetMergeStop time.Duration
	// Pipeline sets the consensus-instances-in-flight limit of A1 and the
	// rounds-in-flight limit of A2 (0 means the paper's sequential 1).
	Pipeline int
	// MaxBatch caps how many messages one consensus instance may order in
	// A1 and A2 (0 means unbounded, the paper's rule).
	MaxBatch int
	// Bandwidth caps every link at this many bytes per second (0 =
	// uncapped): the simulator adds the transmission delay and per-link
	// FIFO queueing to its delay model.
	Bandwidth int64
	// Trace receives debug lines if non-nil.
	Trace func(format string, args ...any)
}

func (o *Options) fill() {
	if o.Groups == 0 {
		o.Groups = 2
	}
	if o.PerGroup == 0 {
		o.PerGroup = 3
	}
	if o.Inter == 0 {
		o.Inter = 100 * time.Millisecond
	}
	if o.Intra == 0 {
		o.Intra = 1 * time.Millisecond
	}
	if o.DetMergeInterval == 0 {
		o.DetMergeInterval = 10 * time.Millisecond
	}
	if o.DetMergeStop == 0 {
		o.DetMergeStop = 5 * time.Second
	}
}

// System is one simulated run of one algorithm.
type System struct {
	Algo    Algo
	Opts    Options
	Topo    *types.Topology
	RT      *node.Runtime
	Col     *metrics.Collector
	Checker *check.Checker

	// Hosts holds each process's A1 and A2 endpoints, by process (AlgoA1 and
	// AlgoA2 only): both run on every process, as in the paper (§2.1), and
	// the algorithm names which of them Cast uses.
	Hosts []*durable.Node
	// OnDeliver, when non-nil, is called on every A-Deliver at every
	// process, in global delivery order.
	OnDeliver func(p types.ProcessID, id types.MessageID, payload any)

	casters []func(payload []byte, dest types.GroupSet) types.MessageID
	// values holds each delivered message's payload, decoded at its first
	// delivery: a message that reaches many processes decodes once.
	values map[types.MessageID]any

	// Deliveries in global order.
	Deliveries []Delivery
}

// Delivery is one observed A-Deliver.
type Delivery struct {
	Process types.ProcessID
	ID      types.MessageID
	Payload any
	At      time.Duration
}

// Build constructs a system running algo.
func Build(algo Algo, opts Options) *System {
	opts.fill()
	topo := types.NewTopology(opts.Groups, opts.PerGroup)
	col := &metrics.Collector{LogSends: opts.LogSends}
	model := network.Model{IntraGroup: opts.Intra, InterGroup: opts.Inter, Jitter: opts.Jitter,
		Bandwidth: opts.Bandwidth}
	rt := node.NewRuntime(topo, model, opts.Seed, col)
	rt.Trace = opts.Trace
	s := &System{
		Algo:    algo,
		Opts:    opts,
		Topo:    topo,
		RT:      rt,
		Col:     col,
		Checker: check.New(topo),
		casters: make([]func([]byte, types.GroupSet) types.MessageID, topo.N()),
		values:  make(map[types.MessageID]any),
	}
	for _, id := range topo.AllProcesses() {
		id := id
		proc := rt.Proc(id)
		onDeliver := func(m rmcast.Message) { s.recordDelivery(id, m.ID, m.Payload) }
		onDeliverKV := func(mid types.MessageID, payload []byte) { s.recordDelivery(id, mid, payload) }
		switch algo {
		case AlgoA1, AlgoA2:
			h := durable.New(durable.Config{
				Proc: proc, Detector: rt.Oracle(),
				Knobs:   config.Config{MaxBatch: opts.MaxBatch, Pipeline: opts.Pipeline},
				Deliver: func(_ string, mid types.MessageID, payload []byte) { onDeliverKV(mid, payload) },
			})
			s.Hosts = append(s.Hosts, h)
			s.casters[id] = h.A1.AMCast
			if algo == AlgoA2 {
				s.casters[id] = func(payload []byte, _ types.GroupSet) types.MessageID { return h.A2.ABCast(payload) }
			}
		case AlgoFritzke:
			a := baseline.NewFritzke(proc, rt.Oracle(), onDeliverKV)
			s.casters[id] = a.AMCast
		case AlgoSkeen:
			a := baseline.NewSkeen(baseline.SkeenConfig{Host: proc, OnDeliver: onDeliver})
			s.casters[id] = a.AMCast
		case AlgoDelporte:
			a := baseline.NewDelporte(baseline.DelporteConfig{Host: proc, Detector: rt.Oracle(), OnDeliver: onDeliver})
			s.casters[id] = a.AMCast
		case AlgoRodrigues:
			a := baseline.NewRodrigues(baseline.RodriguesConfig{Host: proc, OnDeliver: onDeliver})
			s.casters[id] = a.AMCast
		case AlgoDetMerge:
			a := baseline.NewDetMerge(baseline.DetMergeConfig{
				Host: proc, OnDeliver: onDeliver,
				Interval: opts.DetMergeInterval, StopAfter: opts.DetMergeStop,
			})
			s.casters[id] = a.AMCast
		case AlgoSousa, AlgoVicente:
			b := baseline.NewSeqBcast(baseline.SeqBcastConfig{
				Host: proc, OnDeliver: onDeliverKV, Uniform: algo == AlgoVicente,
			})
			s.casters[id] = func(payload []byte, _ types.GroupSet) types.MessageID { return b.ABCast(payload) }
		default:
			panic(fmt.Sprintf("harness: unknown algorithm %q", algo))
		}
	}
	rt.Start()
	return s
}

func (s *System) recordDelivery(p types.ProcessID, id types.MessageID, payload []byte) {
	s.Checker.RecordDeliver(p, id)
	v, ok := s.values[id]
	if !ok {
		v = Decode(id, payload, s.RT.Tracef)
		s.values[id] = v
	}
	s.Deliveries = append(s.Deliveries, Delivery{Process: p, ID: id, Payload: v, At: s.RT.Now()})
	if s.OnDeliver != nil {
		s.OnDeliver(p, id, v)
	}
}

// IsBroadcast reports whether algo casts to all groups regardless of dest.
func (s *System) IsBroadcast() bool {
	return s.Algo == AlgoA2 || s.Algo == AlgoSousa || s.Algo == AlgoVicente
}

// Cast casts payload from process from to dest (broadcast algorithms
// ignore dest and address all groups) and registers it with the checker.
// The payload travels in its wire encoding (Encode).
func (s *System) Cast(from types.ProcessID, payload any, dest types.GroupSet) types.MessageID {
	effective := dest
	if s.IsBroadcast() {
		effective = s.Topo.AllGroups()
	}
	id := s.casters[from](Encode(payload), effective)
	s.Checker.RecordCast(id, effective)
	return id
}

// Decode returns a delivered payload's value, an edge's decoding for a
// consumer that asks; one that does not decode is reported through tracef and
// handed on as nil.
func Decode(id types.MessageID, payload []byte, tracef func(format string, args ...any)) any {
	v, _, err := wire.DecodeValue(payload)
	if err != nil {
		tracef("%v's payload does not decode, delivered as nil: %v", id, err)
	}
	return v
}

// Encode returns payload's wire encoding, the bytes a cast carries; a value
// even gob cannot encode panics.
func Encode(payload any) []byte {
	b, err := wire.EncodeValue(payload)
	if err != nil {
		panic(fmt.Sprintf("harness: cast payload: %v", err))
	}
	return b
}

// CastAt schedules a Cast at virtual time at.
func (s *System) CastAt(at time.Duration, from types.ProcessID, payload any, dest types.GroupSet) {
	s.RT.Scheduler().At(at, func() { s.Cast(from, payload, dest) })
}

// CrashAt schedules a crash-stop of p at virtual time at.
func (s *System) CrashAt(p types.ProcessID, at time.Duration) { s.RT.CrashAt(p, at) }

// Chaos returns the scenario control surface of the simulated system:
// pass it to scenario.Apply before Run to schedule a fault script.
func (s *System) Chaos() scenario.Funcs { return scenario.SimFuncs(s.RT) }

// Run drains the event queue and returns the virtual end time.
func (s *System) Run() time.Duration {
	s.RT.Run()
	return s.RT.Now()
}

// RunUntil executes events up to the given virtual time.
func (s *System) RunUntil(t time.Duration) { s.RT.RunUntil(t) }

// Check returns the §2.2 property violations of the run so far: a process
// is correct unless it has crashed by now (a crash still to come does not
// count).
func (s *System) Check() []string {
	correct := func(p types.ProcessID) bool { return !s.RT.Proc(p).Crashed() }
	return s.Checker.Check(correct, func(id types.MessageID) bool { return correct(id.Origin) })
}

// DegreeOf returns the measured latency degree of id.
func (s *System) DegreeOf(id types.MessageID) (int64, bool) { return s.Col.LatencyDegree(id) }
