package amcast

// Regression tests for the cross-member duplicate race under pipelining.
// With Pipeline >= 2 the engine's in-flight exclusion is proposer-local, so
// two group members can propose the same message to different concurrent
// instances and both decisions carry its descriptor. Only the first
// application may bind: re-applying would regress the stage, fix a second
// (different) timestamp, and re-send a divergent group proposal — since
// receivers keep only the first proposal per group, destination groups
// could then fix different final timestamps for one message, breaking the
// global total order.

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"wanamcast/internal/types"
)

// TestStaleDescriptorSkipped drives processDecision directly with the
// duplicate descriptors the race produces and checks they are ignored.
func TestStaleDescriptorSkipped(t *testing.T) {
	r := newRig(t, rigOpts{groups: 2, per: 3, pipeline: 2})
	a := r.eps[0]
	dest := types.NewGroupSet(0, 1)
	// blocker has the smaller ID and never leaves s1 (the scheduler is
	// never run, so no remote proposals arrive), keeping m undelivered.
	blocker := types.MessageID{Origin: 3, Seq: 1}
	m := types.MessageID{Origin: 4, Seq: 1}

	a.processDecision(1, []Descriptor{
		{ID: blocker, Dest: dest, TS: 1, Stage: Stage0},
		{ID: m, Dest: dest, TS: 1, Stage: Stage0},
	})
	p := a.pending[m]
	if p == nil || p.stage != Stage1 || p.ts != 1 {
		t.Fatalf("after s0 decision: pend %+v, want stage s1 ts 1", p)
	}

	// A later pipelined instance repeats m's s0 descriptor.
	a.processDecision(2, []Descriptor{{ID: m, Dest: dest, TS: 1, Stage: Stage0}})
	if p.stage != Stage1 || p.ts != 1 {
		t.Fatalf("stale s0 descriptor re-applied: stage=%v ts=%d, want s1 ts=1", p.stage, p.ts)
	}

	// The first s2 decision fixes the final timestamp...
	a.processDecision(3, []Descriptor{{ID: m, Dest: dest, TS: 5, Stage: Stage2}})
	if p.stage != Stage3 || p.ts != 5 {
		t.Fatalf("after s2 decision: stage=%v ts=%d, want s3 ts=5", p.stage, p.ts)
	}

	// ...and a stale duplicate of it must not overwrite it.
	a.processDecision(4, []Descriptor{{ID: m, Dest: dest, TS: 9, Stage: Stage2}})
	if p.stage != Stage3 || p.ts != 5 {
		t.Fatalf("stale s2 descriptor re-applied: stage=%v ts=%d, want s3 ts=5", p.stage, p.ts)
	}
}

// TestPipelinedDuplicateDecisionForced engineers the race end to end with
// per-pair delays: p0 of g0 admits m first and proposes it to instance 1;
// p1, already holding instance 1 with a different message, admits m one
// virtual millisecond later and proposes it to instance 2 before instance
// 1's decision reaches it. Both instances decide carrying m. The test
// asserts the race actually fired (via the stale-descriptor trace) and
// that the run stayed correct: every process delivers the same sequence
// and each group sends exactly one timestamp proposal per message.
func TestPipelinedDuplicateDecisionForced(t *testing.T) {
	// Casters live in g2, outside the destination set {g0,g1}: that keeps
	// g1's timestamp proposals on default 100 ms links, so m is still in
	// s1 at g0 when the duplicate decision applies (a caster inside g1
	// would share the overridden fast link and its proposal would deliver
	// m before the duplicate lands, masking the race).
	delays := map[[2]types.ProcessID]time.Duration{
		{6, 0}: 98 * time.Millisecond,  // m reaches p0 early
		{7, 1}: 99 * time.Millisecond,  // m2 reaches p1 just before m does
		{7, 0}: 150 * time.Millisecond, // ...and the rest of g0 only later
		{7, 2}: 150 * time.Millisecond,
	}
	r := newRig(t, rigOpts{groups: 3, per: 3, maxBatch: 1, pipeline: 2,
		pairDelay: func(from, to types.ProcessID) (time.Duration, bool) {
			d, ok := delays[[2]types.ProcessID{from, to}]
			return d, ok
		}})
	dups := 0
	r.rt.Trace = func(format string, args ...any) {
		if strings.Contains(fmt.Sprintf(format, args...), "repeats") {
			dups++
		}
	}
	r.cast(6, 0, 1) // m
	r.cast(7, 0, 1) // m2
	r.rt.Scheduler().MaxSteps = 20_000_000
	r.rt.Run()
	r.verify(t)
	if dups == 0 {
		t.Fatal("schedule did not force a duplicate decision; the race was not exercised")
	}
	ref := r.checker.Sequence(0)
	if len(ref) != 2 {
		t.Fatalf("p0 delivered %d of 2", len(ref))
	}
	for _, p := range r.topo.AllProcesses()[1:6] { // members of g0 and g1
		seq := r.checker.Sequence(p)
		if len(seq) != len(ref) {
			t.Fatalf("p%v delivered %d, p0 delivered %d", p, len(seq), len(ref))
		}
		for i := range ref {
			if seq[i] != ref[i] {
				t.Fatalf("p%v diverges from p0 at %d: %v vs %v", p, i, seq[i], ref[i])
			}
		}
	}
	// One (TS, m) per group per message — Pipeline 2, so the group's leader
	// alone sends it: 2 messages × 1 sender × 3 receivers in each direction
	// (36 while every member sent, line 24). A re-applied stale descriptor
	// would re-send a (different) group proposal and push this past 12; and
	// nothing here is lost or late, so nobody pulls.
	tsSends := 0
	for _, s := range r.col.Sends() {
		if s.Proto == "a1" {
			tsSends++
		}
	}
	if tsSends != 12 {
		t.Fatalf("a1 TS sends = %d, want 12 — a duplicate decision re-sent a group proposal", tsSends)
	}
}
