// Package workload generates cast schedules for experiments: open-loop
// Poisson or periodic arrivals, configurable destination-set distributions
// (single-group, pairwise, spanning, or mixed), and caster placement.
// The §1 partial-replication scenario — most operations touch one or two
// groups, a few touch everything — is the default mix. ClientPlans
// additionally generates closed-loop per-client op sequences for the
// service layer's load generator (internal/svc).
package workload

import (
	"fmt"
	"math/rand"
	"time"

	"wanamcast/internal/types"
)

// Cast is one scheduled message.
type Cast struct {
	At      time.Duration
	From    types.ProcessID
	Dest    types.GroupSet
	Payload any
}

// Spec describes a workload.
type Spec struct {
	// Casts is the number of messages (required).
	Casts int
	// MeanPeriod is the mean inter-cast time (required). With Poisson
	// set, gaps are exponential with this mean; otherwise they are fixed.
	MeanPeriod time.Duration
	// Poisson selects exponential inter-arrival gaps.
	Poisson bool
	// Start offsets the first cast.
	Start time.Duration
	// Mix is the destination-set distribution; nil means the default
	// partial-replication mix (60% one group, 30% two groups, 10% all).
	Mix []MixEntry
	// Seed drives the generator.
	Seed int64
}

// MixEntry pairs a destination-set size with a relative weight. Size 0
// means "all groups".
type MixEntry struct {
	Groups int
	Weight float64
}

// DefaultMix is the §1 partial-replication scenario.
func DefaultMix() []MixEntry {
	return []MixEntry{{Groups: 1, Weight: 0.6}, {Groups: 2, Weight: 0.3}, {Groups: 0, Weight: 0.1}}
}

// Generate produces the cast schedule for topo. It panics on an invalid
// spec: workloads are test fixtures, and a bad fixture is a bug.
func Generate(topo *types.Topology, spec Spec) []Cast {
	if spec.Casts <= 0 || spec.MeanPeriod <= 0 {
		panic(fmt.Sprintf("workload: invalid spec %+v", spec))
	}
	mix, total := checkMix(topo, spec.Mix)
	rng := rand.New(rand.NewSource(spec.Seed))
	at := spec.Start
	casts := make([]Cast, 0, spec.Casts)
	for i := 0; i < spec.Casts; i++ {
		gap := spec.MeanPeriod
		if spec.Poisson {
			gap = time.Duration(rng.ExpFloat64() * float64(spec.MeanPeriod))
		}
		at += gap
		from := types.ProcessID(rng.Intn(topo.N()))
		casts = append(casts, Cast{
			At:      at,
			From:    from,
			Dest:    pickDest(topo, rng, mix, total, from),
			Payload: fmt.Sprintf("op-%d", i),
		})
	}
	return casts
}

// ClientSpec describes a closed-loop client population for the service
// layer: Clients sessions, each issuing Ops commands one at a time, with
// destination fan-out drawn from Mix.
type ClientSpec struct {
	Clients int
	Ops     int
	// Mix is the destination-set distribution; nil means DefaultMix.
	Mix  []MixEntry
	Seed int64
	// ReadFraction in [0, 1] is the share of ops that are reads (0 = the
	// historical all-write workload). Reads are single-shard and homed on
	// the client's home group — the partial-replication scenario's
	// read-mostly serving pattern, and the shape the read tier serves
	// without WAN hops.
	ReadFraction float64
}

// ClientOp is one closed-loop operation: the exact set of shards it
// touches, and whether it is a read (single-shard, served by the read
// tier) or a write (ordered). The caller maps it onto application
// commands (e.g. one key per destination shard).
type ClientOp struct {
	Dest types.GroupSet
	Read bool
}

// ClientPlans produces one op sequence per client. Client i is homed on
// group i mod |Γ| and every op's destination set includes its home shard
// (locality, as in the open-loop generator). It panics on an invalid spec.
func ClientPlans(topo *types.Topology, spec ClientSpec) [][]ClientOp {
	if spec.Clients <= 0 || spec.Ops <= 0 || spec.ReadFraction < 0 || spec.ReadFraction > 1 {
		panic(fmt.Sprintf("workload: invalid client spec %+v", spec))
	}
	mix, total := checkMix(topo, spec.Mix)
	rng := rand.New(rand.NewSource(spec.Seed))
	plans := make([][]ClientOp, spec.Clients)
	for i := range plans {
		home := types.GroupID(i % topo.NumGroups())
		from := topo.Members(home)[0]
		ops := make([]ClientOp, spec.Ops)
		for j := range ops {
			if spec.ReadFraction > 0 && rng.Float64() < spec.ReadFraction {
				ops[j] = ClientOp{Dest: types.NewGroupSet(home), Read: true}
				continue
			}
			ops[j] = ClientOp{Dest: pickDest(topo, rng, mix, total, from)}
		}
		plans[i] = ops
	}
	return plans
}

// checkMix returns mix (DefaultMix if nil) and its total weight. It panics on
// an invalid entry or a mix without weight.
func checkMix(topo *types.Topology, mix []MixEntry) ([]MixEntry, float64) {
	if mix == nil {
		mix = DefaultMix()
	}
	var total float64
	for _, e := range mix {
		if e.Weight < 0 || e.Groups < 0 || e.Groups > topo.NumGroups() {
			panic(fmt.Sprintf("workload: invalid mix entry %+v", e))
		}
		total += e.Weight
	}
	if total <= 0 {
		panic("workload: mix has no weight")
	}
	return mix, total
}

// pickDest draws a destination set from the mix. Sets of size ≥ 1 always
// include the caster's group (locality: operations touch local data).
func pickDest(topo *types.Topology, rng *rand.Rand, mix []MixEntry, total float64, from types.ProcessID) types.GroupSet {
	x := rng.Float64() * total
	var size int
	for _, e := range mix {
		if x < e.Weight {
			size = e.Groups
			break
		}
		x -= e.Weight
	}
	if size == 0 || size >= topo.NumGroups() {
		return topo.AllGroups()
	}
	dest := []types.GroupID{topo.GroupOf(from)}
	for len(dest) < size {
		g := types.GroupID(rng.Intn(topo.NumGroups()))
		dup := false
		for _, d := range dest {
			if d == g {
				dup = true
				break
			}
		}
		if !dup {
			dest = append(dest, g)
		}
	}
	return types.NewGroupSet(dest...)
}
