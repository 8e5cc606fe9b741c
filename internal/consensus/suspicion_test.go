package consensus

import (
	"fmt"
	"testing"
	"time"

	"wanamcast/internal/types"
)

// These tests audit consensus safety and liveness under failure-detector
// mistakes: a falsely suspected leader is demoted mid-instance, the next
// rank takes over with a higher ballot while the old leader's ballot-0
// messages are still in flight, trust is restored and the old leader
// re-drives — ballots race, but Paxos's promise/accept guards must keep
// decisions unique and the retry timer must still converge on a decision.

// flap schedules a Suspect/Unsuspect pair of p at the given virtual times.
func (r *rig) flap(p types.ProcessID, suspectAt, restoreAt time.Duration) {
	r.rt.Scheduler().At(suspectAt, func() { r.rt.Oracle().Suspect(p) })
	r.rt.Scheduler().At(restoreAt, func() { r.rt.Oracle().Unsuspect(p) })
}

// TestFalseSuspicionMidInstance: the leader is demoted after the proposal
// reaches it but (possibly) before its ballot completes; rank 1 drives a
// higher ballot concurrently with the in-flight ballot-0 messages; then
// trust is restored and rank 0 re-drives. Exactly one value may be
// decided (the rig errors on double decisions), all processes must agree,
// and the instance must terminate.
func TestFalseSuspicionMidInstance(t *testing.T) {
	// The suspicion instants sweep across the whole ballot-0 round trip
	// (intra-group delay is 1 ms), so some seed demotes the leader before
	// the Accepts leave, some mid-flight, some after the quorum formed.
	for us := 200; us <= 3000; us += 400 {
		us := us
		t.Run(fmt.Sprintf("suspectAt=%dus", us), func(t *testing.T) {
			r := newRig(t, 3)
			r.cons[2].Propose(1, Value("v-from-p2"))
			r.flap(0, time.Duration(us)*time.Microsecond, 10*time.Millisecond)
			r.rt.Scheduler().MaxSteps = 1_000_000
			r.rt.Run()
			want, ok := r.decs[0][1]
			if !ok {
				t.Fatal("instance 1 never decided at p0 despite trust restoration")
			}
			for i := 0; i < 3; i++ {
				got, ok := r.decs[i][1]
				if !ok {
					t.Fatalf("p%d never decided", i)
				}
				if got != want {
					t.Fatalf("disagreement under false suspicion: p0=%v p%d=%v", want, i, got)
				}
			}
			if want != "v-from-p2" {
				t.Fatalf("decided %v, not the only proposal", want)
			}
		})
	}
}

// TestLeaderFlapStorm: rank 0 flaps three times while 20 instances from
// every member are in flight — old and new leaders race ballots across
// many instances at once. Safety (unique, agreed decisions) and
// termination must survive.
func TestLeaderFlapStorm(t *testing.T) {
	for seed := 0; seed < 3; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			r := newRig(t, 3)
			for k := uint64(1); k <= 20; k++ {
				k := k
				proposer := int(k) % 3
				at := time.Duration(k) * 700 * time.Microsecond
				r.rt.Scheduler().At(at, func() {
					r.cons[proposer].Propose(k, Value(fmt.Sprintf("v%d", k)))
				})
			}
			// Three flaps spread across the proposal window; offsets vary
			// with the seed so the races land differently.
			off := time.Duration(seed) * 300 * time.Microsecond
			r.flap(0, 1*time.Millisecond+off, 3*time.Millisecond+off)
			r.flap(0, 5*time.Millisecond+off, 7*time.Millisecond+off)
			r.flap(0, 9*time.Millisecond+off, 11*time.Millisecond+off)
			r.rt.Scheduler().MaxSteps = 5_000_000
			r.rt.Run()
			for k := uint64(1); k <= 20; k++ {
				want, ok := r.decs[0][k]
				if !ok {
					t.Fatalf("instance %d never decided at p0", k)
				}
				for i := 1; i < 3; i++ {
					if got := r.decs[i][k]; got != want {
						t.Fatalf("instance %d: p0=%v p%d=%v", k, want, i, got)
					}
				}
			}
		})
	}
}

// TestDemotedAndReelectedLeaderSequence pins the Ω side of the flap: the
// rank-0 leader is demoted by a false suspicion and provably re-elected
// after trust restoration, and the pending proposal decides either way.
func TestDemotedAndReelectedLeaderSequence(t *testing.T) {
	r := newRig(t, 3)
	var leaders []types.ProcessID
	r.rt.Oracle().Subscribe(func(_ types.GroupID, l types.ProcessID) {
		leaders = append(leaders, l)
	})
	r.cons[1].Propose(1, Value("survives-the-flap"))
	r.flap(0, 500*time.Microsecond, 5*time.Millisecond)
	r.rt.Scheduler().MaxSteps = 1_000_000
	r.rt.Run()
	if len(leaders) != 2 || leaders[0] != 1 || leaders[1] != 0 {
		t.Fatalf("leader sequence = %v, want demotion to p1 then re-election of p0", leaders)
	}
	if r.rt.Oracle().Leader(0) != 0 {
		t.Fatalf("final leader = %v, want the re-elected p0", r.rt.Oracle().Leader(0))
	}
	for i := 0; i < 3; i++ {
		if got := r.decs[i][1]; got != "survives-the-flap" {
			t.Fatalf("p%d decided %v", i, got)
		}
	}
}

// TestSuspicionOfNonLeaderHarmless: falsely suspecting a non-leader must
// not disturb a running instance at all.
func TestSuspicionOfNonLeaderHarmless(t *testing.T) {
	r := newRig(t, 3)
	r.cons[0].Propose(1, Value("steady"))
	r.flap(2, 300*time.Microsecond, 2*time.Millisecond)
	r.rt.Scheduler().MaxSteps = 1_000_000
	r.rt.Run()
	for i := 0; i < 3; i++ {
		if got := r.decs[i][1]; got != "steady" {
			t.Fatalf("p%d decided %v", i, got)
		}
	}
}
