package amcast

// Hybrid timestamps: the caster's group names the final timestamp (its
// proposal carries a measured lead over the remote groups' clocks), so an
// own cast is not convoyed behind later ones; and the lead is soft state
// that follows the measured delay, shrugs off one stalled sample, and dies
// with the process.

import (
	"fmt"
	"testing"
	"time"

	"wanamcast/internal/network"
	"wanamcast/internal/node"
	"wanamcast/internal/rmcast"
	"wanamcast/internal/types"
)

// deliveredAtCaster returns how long after its cast id was A-Delivered at
// its caster.
func (r *rig) deliveredAtCaster(t *testing.T, id types.MessageID, castAt time.Duration) time.Duration {
	t.Helper()
	for _, d := range r.col.Deliveries(id) {
		if d.Process == id.Origin {
			return d.At - castAt
		}
	}
	t.Fatalf("%v never delivered at its caster", id)
	return 0
}

// TestOwnerCastIsNotConvoyed is the final-timestamp convoy, pinned in
// virtual time. A caster in g0 multicasts to every group 10 ms apart over a
// 100 ms WAN while the remote groups order a single-group cast of their own
// every millisecond. Under a bare Lamport clock each such decision ticked
// the remote K, the remote group outbid g0 for every one of these casts, and
// each then queued at its own caster behind the later casts still in s1 —
// some 90 ms over the 2Δ floor. With hybrid timestamps and a learned lead,
// g0's proposal is the maximum: every cast is delivered at its caster within
// 2Δ + 5 ms.
func TestOwnerCastIsNotConvoyed(t *testing.T) {
	const wan, gap = 100 * time.Millisecond, 10 * time.Millisecond
	for _, groups := range []int{2, 3} {
		t.Run(fmt.Sprintf("%dx3", groups), func(t *testing.T) {
			r := newRig(t, rigOpts{groups: groups, per: 3, pipeline: 4})
			all := r.topo.AllGroups().Groups()
			const warm, measured = 40, 30
			type own struct {
				id types.MessageID
				at time.Duration
			}
			var casts []own
			for i := 0; i < warm+measured; i++ {
				at := time.Duration(i) * gap
				r.rt.Scheduler().At(at, func() { casts = append(casts, own{r.cast(0, all...), at}) })
			}
			end := time.Duration(warm+measured) * gap
			for at := time.Duration(0); at < end; at += time.Millisecond {
				r.rt.Scheduler().At(at, func() {
					for _, g := range all[1:] {
						r.cast(r.topo.Members(g)[1], g)
					}
				})
			}
			// By now every warm-up cast has its final timestamp, no later one.
			r.rt.RunUntil(warm*gap + 2*wan)
			learning := r.col.Snapshot().A1Owner
			r.rt.Run()
			r.verify(t)
			for _, c := range casts[warm:] {
				if took := r.deliveredAtCaster(t, c.id, c.at); took > 2*wan+5*time.Millisecond {
					t.Errorf("own cast %v (at %v) delivered at its caster after %v, want <= 2Δ + 5ms", c.id, c.at, took)
				}
			}
			if st := r.col.Snapshot().A1Owner; learning.Margin.Count != warm || st.Margin.Count != warm+measured || st.Lost != learning.Lost {
				t.Errorf("owner proposals: %d of %d lost (%d of %d while learning): with the lead learned, g0's proposal must be the final timestamp of all %d casts",
					st.Lost, st.Margin.Count, learning.Lost, learning.Margin.Count, measured)
			}
		})
	}
}

// TestLeadFollowsTheDelayAndIgnoresAStall drives the estimator through the
// protocol: the inter-group delay steps 100 → 20 → 100 ms under a steady
// stream of own casts and the lead re-converges within two windows of each
// step; then one sample stalled by 500 ms moves it by less than a
// millisecond (a mean-plus-deviations estimator ran away here).
//
// The step down is the slow direction. g1's proposal is max(K, its clock),
// and its K sits just above the last final timestamp it decided — g0's own
// led proposal for an earlier cast. While the lead is too long g1 echoes it
// back, one cast gap shorter, so the lead comes down by a gap per window: 50
// ms here, two windows for 80 ms. Denser streams take longer in windows and
// as long in seconds.
func TestLeadFollowsTheDelayAndIgnoresAStall(t *testing.T) {
	const gap = 50 * time.Millisecond
	wan := 100 * time.Millisecond
	r := newRig(t, rigOpts{groups: 2, per: 3, pipeline: 4,
		pairDelay: func(from, to types.ProcessID) (time.Duration, bool) {
			return wan, from/3 != to/3 // three to a group
		}})
	a := r.eps[0]
	now := time.Duration(0)
	stream := func(n int) {
		for i := 0; i < n; i++ {
			now += gap
			r.rt.Scheduler().At(now, func() { r.cast(0, 0, 1) })
		}
		now += 3 * wan
		r.rt.RunUntil(now)
	}
	lead := func() time.Duration { return time.Duration(a.leads[1].lead) * time.Microsecond }
	near := func(want time.Duration) {
		t.Helper()
		// One-way delay, less the intra-group hop that admitted m here.
		if got := lead(); got < want-2*time.Millisecond || got > want+2*time.Millisecond {
			t.Fatalf("lead towards g1 is %v at %v, want about %v", got, now, want)
		}
	}
	if a.leads[1] != nil {
		t.Fatal("a lead before the first sample")
	}
	stream(leadWindow)
	near(100 * time.Millisecond)
	wan = 20 * time.Millisecond
	stream(2 * leadWindow)
	near(20 * time.Millisecond)
	wan = 100 * time.Millisecond
	stream(2 * leadWindow)
	near(100 * time.Millisecond)
	r.verify(t)

	before := lead()
	if n := testing.AllocsPerRun(100, func() { a.learnLead(1, int64(before/time.Microsecond)) }); n != 0 {
		t.Fatalf("a sample costs %.1f allocations, want 0", n)
	}
	a.learnLead(1, int64((before+500*time.Millisecond)/time.Microsecond))
	if moved := lead() - before; moved < 0 || moved >= time.Millisecond {
		t.Fatalf("one sample stalled by 500ms moved the lead by %v (from %v)", moved, before)
	}
}

// TestLeadIsSoftState: neither a snapshot nor a state-transfer tail carries
// the lead — a restarted replica starts from 0 and learns it again from its
// group's next casts.
func TestLeadIsSoftState(t *testing.T) {
	r := newRig(t, rigOpts{groups: 2, per: 3})
	for i := 0; i < 8; i++ {
		r.rt.Scheduler().At(time.Duration(i)*10*time.Millisecond, func() { r.cast(0, 0, 1) })
	}
	r.rt.Run()
	if r.eps[1].leads[1] == nil || r.eps[1].leads[1].lead == 0 {
		t.Fatal("construction broke: the live replica learned no lead")
	}

	rt := node.NewRuntime(r.topo, network.Model{IntraGroup: time.Millisecond, InterGroup: 100 * time.Millisecond}, 1, nil)
	fresh := New(Config{Host: rt.Proc(1), Detector: rt.Oracle(), OnDeliver: func(types.MessageID, any) {}})
	rt.Proc(1).SetRecovering(true) // it has no peers to send to
	if err := fresh.RestoreSnapshot(r.eps[1].AppendSnapshot(nil)); err != nil {
		t.Fatal(err)
	}
	fresh.adoptState(r.eps[2].syncTail())
	for g, e := range fresh.leads {
		if e != nil {
			t.Fatalf("restored replica has a lead towards g%d: %+v", g, e)
		}
	}
	// Its group's next cast teaches it: admitted at 7 ms on its clock, g1's
	// proposal reads 107 ms.
	rt.Scheduler().At(7*time.Millisecond, func() {
		id, dest := types.MessageID{Origin: 0, Seq: 99}, types.NewGroupSet(0, 1)
		fresh.onRDeliver(rmcast.Message{ID: id, Dest: dest, Payload: "x"})
		fresh.handleTS(1, Descriptor{ID: id, Dest: dest, Payload: "x", TS: 107_000, Stage: Stage1}, false)
	})
	rt.RunUntil(10 * time.Millisecond) // not Run: a proposer without peers retries for ever
	if e := fresh.leads[1]; e == nil || e.lead != 100_000 {
		t.Fatalf("restored replica did not re-learn the lead: %+v", e)
	}
}
