package main

import (
	"fmt"
	"time"
)

// value is one measured metric. note says what a bare number cannot: the
// sample count, or the percentile a tail really is.
type value struct {
	v    float64
	note string
}

type values map[string]value

func (vs values) set(name string, v float64, note string) { vs[name] = value{v, note} }

// population selects the ops a latency metric is about.
type population func(sample) bool

var (
	allOps  = func(s sample) bool { return true }
	isLocal = func(s sample) bool { return s.kind == opWrite && s.fanout == 1 }
	isMulti = func(s sample) bool { return s.kind == opWrite && s.fanout >= 2 }
	isWrite = func(s sample) bool { return s.kind == opWrite }
	isRead  = func(s sample) bool { return s.kind == opRead }
	isBcast = func(s sample) bool { return s.kind == opBcast }
)

// latencies returns, in ms, the latencies of the answered ops of pop that
// were due before until, each less its floor when overFloor is set.
func (r *run) latencies(pop population, overFloor bool, until time.Duration) []float64 {
	var out []float64
	for _, s := range r.main.samples {
		if !s.ok || s.due >= until || !pop(s) {
			continue
		}
		lat := s.lat
		if overFloor {
			lat -= s.floor
		}
		out = append(out, ms(lat))
	}
	return out
}

// endToEndValues reduces an untraced run to the gated end-to-end metrics,
// which are about all of the workload's ops over the whole window, and to
// the named ones, each about one kind of op and set only where the
// workload has such ops.
func (r *run) endToEndValues() (gated, named values) {
	gated, named = make(values), make(values)
	setups := make([]float64, len(r.setups))
	for i, d := range r.setups {
		setups[i] = d.Seconds()
	}
	gated.set("setup_s", median(setups), fmt.Sprintf("median of %d", len(setups)))

	done := r.completed()
	wall := r.window.Seconds()
	if r.sim != nil {
		done, wall = int(r.sim.casts), r.sim.wall.Seconds()
	}
	gated.set("ops_per_s", float64(done)/wall, fmt.Sprintf("%d ops", done))
	gated.set("allocs_per_op", float64(r.proc.mallocs)/float64(max(done, 1)), "process mallocs over the window")

	all := newDist(r.latencies(allOps, false, r.window))
	virtual := ""
	if r.sim != nil {
		virtual = ", virtual time"
	}
	gated.set("op_mean_ms", mean(all), fmt.Sprintf("n=%d%s", len(all), virtual))
	v, pct := all.tail()
	gated.set("op_p99_ms", v, fmt.Sprintf("n=%d p%.4g%s", len(all), pct, virtual))
	named.set("op_p50_ms", all.p50(), fmt.Sprintf("n=%d%s", len(all), virtual))

	// The metrics about one kind of op cover the steady part of the window:
	// all of it, except on durable-crash, where the crash episodes follow.
	p50 := func(name string, pop population, overFloor bool) {
		if d := newDist(r.latencies(pop, overFloor, r.steady)); len(d) > 0 {
			named.set(name, d.p50(), fmt.Sprintf("n=%d%s", len(d), virtual))
		}
	}
	tail := func(name string, pop population) {
		if d := newDist(r.latencies(pop, false, r.steady)); len(d) > 0 {
			v, pct := d.tail()
			named.set(name, v, fmt.Sprintf("n=%d p%.4g%s", len(d), pct, virtual))
		}
	}
	p50("local_p50_ms", isLocal, false)
	p50("multi_over_floor_ms", isMulti, true)
	tail("multi_p99_ms", isMulti)
	if r.sim == nil { // the probe's A1 casts are multicasts, not service writes
		p50("write_p50_ms", isWrite, false)
		tail("write_p99_ms", isWrite)
	}
	tail("read_p99_ms", isRead)
	p50("bcast_over_floor_ms", isBcast, true)
	tail("bcast_p99_ms", isBcast)

	attempted := max(r.main.sent, 1)
	named.set("fail_ratio", float64(r.failures())/float64(attempted), fmt.Sprintf("%d of %d", r.failures(), attempted))
	if r.sim != nil {
		named.set("events_per_s", float64(r.sim.events)/wall, fmt.Sprintf("%d events", r.sim.events))
		named.set("allocs_per_event", r.sim.mallocs/float64(r.sim.events), "the sweep's own count")
	}
	if len(r.episodes) > 0 {
		var unavail, catchup []float64
		for i, ep := range r.episodes {
			unavail = append(unavail, ms(r.worstDuring(i)))
			catchup = append(catchup, ms(ep.caughtUp.Sub(ep.restart)))
		}
		named.set("unavail_ms", median(unavail), fmt.Sprintf("median of %d episodes", len(unavail)))
		named.set("catchup_ms", median(catchup), fmt.Sprintf("median of %d episodes", len(catchup)))
	}
	return gated, named
}

// completed counts the ops answered OK: all of an open loop's (they were
// due inside the window), and a closed loop's that finished inside it.
func (r *run) completed() int {
	n := 0
	for _, s := range r.main.samples {
		if s.ok && (r.w.rate > 0 || s.due+s.lat <= r.window) {
			n++
		}
	}
	return n
}

// worstDuring is the longest a client waited, from when its op was due,
// among ops addressed to episode i's shard and due between that crash and
// the next (or the end of the window).
func (r *run) worstDuring(i int) time.Duration {
	ep := r.episodes[i]
	from := ep.crash.Sub(r.main.start)
	until := r.window
	if i+1 < len(r.episodes) {
		until = r.episodes[i+1].crash.Sub(r.main.start)
	}
	var worst time.Duration
	for _, s := range r.main.samples {
		if s.dest&(1<<uint(ep.shard)) != 0 && s.due >= from && s.due < until && s.lat > worst {
			worst = s.lat
		}
	}
	return worst
}

// failures counts the ops that were refused, answered with an error, or
// never answered.
func (r *run) failures() int { return r.main.unanswered + failedOps(r.main.samples) }
