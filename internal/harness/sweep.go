package harness

import (
	"fmt"
	"math/rand"
	"slices"
	"strconv"
	"strings"
	"time"

	"wanamcast/internal/metrics"
	"wanamcast/internal/types"
)

// Shape is one topology point of a scale sweep: Groups x PerGroup.
type Shape struct {
	Groups   int
	PerGroup int
}

// String renders the shape in the "GxP" notation the bench records use.
func (s Shape) String() string { return fmt.Sprintf("%dx%d", s.Groups, s.PerGroup) }

// N returns the total process count of the shape.
func (s Shape) N() int { return s.Groups * s.PerGroup }

// ParseShape parses "GxP" (e.g. "200x5") into a Shape. Both sides must be
// positive integers.
func ParseShape(spec string) (Shape, error) {
	g, p, ok := strings.Cut(strings.TrimSpace(spec), "x")
	if !ok {
		return Shape{}, fmt.Errorf("topology shape must be GROUPSxPERGROUP, e.g. 200x5: %q", spec)
	}
	groups, err := strconv.Atoi(g)
	if err != nil {
		return Shape{}, fmt.Errorf("bad group count in shape %q: %v", spec, err)
	}
	per, err := strconv.Atoi(p)
	if err != nil {
		return Shape{}, fmt.Errorf("bad per-group count in shape %q: %v", spec, err)
	}
	sh := Shape{Groups: groups, PerGroup: per}
	if groups < 1 || per < 1 {
		return Shape{}, fmt.Errorf("topology shape must be positive: %q", spec)
	}
	if per > 64 {
		return Shape{}, fmt.Errorf("a group holds at most 64 processes: %q", spec)
	}
	return sh, nil
}

// ParseSweep parses a comma-separated shape list ("50x3,100x3,200x5").
func ParseSweep(spec string) ([]Shape, error) {
	parts := strings.Split(spec, ",")
	shapes := make([]Shape, 0, len(parts))
	for _, p := range parts {
		sh, err := ParseShape(p)
		if err != nil {
			return nil, err
		}
		shapes = append(shapes, sh)
	}
	return shapes, nil
}

// SweepPoint is the measured outcome of one shape in a scale sweep.
type SweepPoint struct {
	Shape Shape
	Casts int // messages offered

	Events         uint64  // scheduler events executed
	EventsPerSec   float64 // events / wall second
	AllocsPerEvent float64 // heap allocations / event (whole run, incl. build)
	// Wall is build + run + check. CheckWall is the Check call's share of it
	// and RunWall the rest, so that a slow checker cannot pass for slow
	// protocols again; what the checker does per delivery is spread over the
	// run and shows in a CPU profile as check.(*Checker).RecordDeliver.
	Wall, RunWall, CheckWall time.Duration
	PeakHeapBytes            uint64
	Violations               int // §2.2 property-check failures (0 on a correct run)
}

// RunScaleSweep runs the same workload through sys at every shape and
// measures throughput and allocation behavior of the simulation runtime
// itself: events/s, allocs/event, wall clock, and peak heap. The workload
// mirrors wansim's default — casts at a fixed virtual-time rate from
// rotating senders to a deterministic destination spread — so the sweep
// exercises the full transmit→deliver fast path under real protocol
// traffic, not a synthetic no-op loop. The per-shape Options are opts with
// the topology overridden; everything else (delays, seed, pipeline) is
// shared, so points differ only in scale.
func RunScaleSweep(algo Algo, opts Options, shapes []Shape, casts int) []SweepPoint {
	points := make([]SweepPoint, 0, len(shapes))
	for _, sh := range shapes {
		points = append(points, runSweepPoint(algo, opts, sh, casts))
	}
	return points
}

func runSweepPoint(algo Algo, opts Options, sh Shape, casts int) SweepPoint {
	var (
		sys        *System
		violations int
		checkWall  time.Duration
	)
	sample := metrics.MeasureResources(func() {
		sys = sweepRun(algo, opts, sh, casts)
		t0 := time.Now()
		violations = len(sys.Check())
		checkWall = time.Since(t0)
	})
	events := sys.RT.Scheduler().Steps()
	return SweepPoint{
		Shape:          sh,
		Casts:          casts,
		Events:         events,
		EventsPerSec:   sample.PerSec(events),
		AllocsPerEvent: sample.AllocsPer(events),
		Wall:           sample.Wall,
		RunWall:        sample.Wall - checkWall,
		CheckWall:      checkWall,
		PeakHeapBytes:  sample.PeakHeap,
		Violations:     violations,
	}
}

// sweepRun builds algo at shape sh and runs the sweep's workload on it.
func sweepRun(algo Algo, opts Options, sh Shape, casts int) *System {
	opts.Groups, opts.PerGroup = sh.Groups, sh.PerGroup
	sys := Build(algo, opts)
	if algo == AlgoA2 {
		for g := 0; g < sh.Groups; g++ {
			sys.CastAt(0, sys.Topo.Members(types.GroupID(g))[0], "warm", sys.Topo.AllGroups())
		}
	}
	rng := rand.New(rand.NewSource(opts.Seed))
	RandomCasts(rng, sys.Topo, casts, min(2, sh.Groups), func(i int, from types.ProcessID, dest types.GroupSet) {
		sys.CastAt(time.Duration(i+1)*10*time.Millisecond, from, i, dest)
	})
	sys.Run()
	return sys
}

// RandomCasts draws the random workload wansim and the scale sweep share, so
// one seed names one workload everywhere: for each of n casts in order, a
// caster uniform over the topology's processes, then spread distinct
// destination groups (a repeat is drawn again), handed to fn with the cast's
// index. spread must not exceed the group count.
func RandomCasts(rng *rand.Rand, topo *types.Topology, n, spread int, fn func(i int, from types.ProcessID, dest types.GroupSet)) {
	dest := make([]types.GroupID, 0, spread) // one buffer: NewGroupSet copies it
	for i := 0; i < n; i++ {
		from := types.ProcessID(rng.Intn(topo.N()))
		dest = dest[:0]
		for len(dest) < spread {
			if g := types.GroupID(rng.Intn(topo.NumGroups())); !slices.Contains(dest, g) {
				dest = append(dest, g)
			}
		}
		fn(i, from, types.NewGroupSet(dest...))
	}
}
