package wanamcast

// Golden-trace pin for the simulator's event core. The discrete-event
// scheduler was rewritten (inline-value four-ary heap, typed closure-free
// delivery/timer events, single-call fabric routing) with one hard
// contract: a simulated run is a function of its seed and nothing else,
// and the rewrite must not change ANY run — not the event order, not the
// rng draw order, not a single trace byte.
//
// These hashes were recorded from the seed scheduler (container/heap of
// *event pointers, closure per send) BEFORE the rewrite, over workloads
// chosen to exercise every scheduling path: jittered delays (rng draw
// order), inter-group priority classes, crash timers, severed-link parking
// and heal release (partition-heal scenario), and both A1 and A2 engines
// under batching. If a scheduler change breaks a hash, it changed
// observable behavior — fix the scheduler, never the hash.

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"time"

	"wanamcast/internal/harness"
	"wanamcast/internal/metrics"
	"wanamcast/internal/scenario"
	"wanamcast/internal/types"
)

// goldenRun drives one fully traced simulated run (under the named chaos
// scenario, if any) and returns the sha256 of the complete trace (every
// SEND/HOLD/RELEASE/CRASH line plus each protocol's own trace output)
// concatenated with the delivery log, the sha256 of the delivery log alone,
// and every field of the run's metrics.Stats as text.
func goldenRun(algo harness.Algo, chaos string, pipeline int, jitter time.Duration) (trace, deliveries, stats string) {
	var buf strings.Builder
	opts := harness.Options{
		Groups: 3, PerGroup: 3,
		Inter: 20 * time.Millisecond, Intra: time.Millisecond,
		Jitter: jitter, Seed: 11,
		MaxBatch: 4, Pipeline: pipeline,
		Trace: func(format string, args ...any) {
			fmt.Fprintf(&buf, format+"\n", args...)
		},
	}
	s := harness.Build(algo, opts)
	if chaos != "" {
		sc, ok := scenario.ByName(s.Topo, scenario.SuiteConfig{Unit: 40 * time.Millisecond}, chaos)
		if !ok {
			panic("golden: scenario missing: " + chaos)
		}
		scenario.Apply(s.Chaos(), sc)
	}
	// One mid-run crash-stop exercises the crash suspicion timer and the
	// crashed-owner timer drops.
	s.CrashAt(s.Topo.Members(2)[2], 70*time.Millisecond)

	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 40; i++ {
		from := types.ProcessID(rng.Intn(s.Topo.N()))
		ga := types.GroupID(rng.Intn(3))
		gb := types.GroupID(rng.Intn(3))
		at := time.Duration(i+1) * 5 * time.Millisecond
		payload := fmt.Sprintf("m%d", i)
		s.CastAt(at, from, payload, types.NewGroupSet(ga, gb))
	}
	s.Run()
	if v := s.Check(); len(v) > 0 {
		panic(fmt.Sprintf("golden: %d §2.2 violations, first: %v", len(v), v[0]))
	}
	logStart := buf.Len()
	for _, d := range s.Deliveries {
		fmt.Fprintf(&buf, "DELIVER %v %v at %v\n", d.ID, d.Process, d.At)
	}
	sum, logSum := sha256.Sum256([]byte(buf.String())), sha256.Sum256([]byte(buf.String()[logStart:]))
	// The conversion drops Stats' String method, so %+v prints every field
	// (fmt sorts map keys: the text is a function of the run).
	type allFields metrics.Stats
	stats = fmt.Sprintf("%+v", allFields(s.Col.Snapshot()))
	// Issue 23 added Stats.A1Owner. A run that counts nothing there (every A2
	// run) prints as it did before the field existed, so the digests recorded
	// then still compare.
	stats = strings.Replace(stats, fmt.Sprintf(" A1Owner:%+v", metrics.OwnerStats{}), "", 1)
	return hex.EncodeToString(sum[:]), hex.EncodeToString(logSum[:]), stats
}

func TestGoldenTraceUnchangedBySchedulerRewrite(t *testing.T) {
	cases := []struct {
		name  string
		algo  harness.Algo
		chaos string
		want  string
		// wantLog, when set, pins the delivery log alone: which process
		// delivered what, when.
		wantLog string
	}{
		// The A1 entries were re-pinned by issue 17: A-delivery became a
		// function of the group's decision sequence (every multi-group
		// message reaches s3 through an s2 decision, a single-group one is
		// delivered in the decision that orders it), which changes what A1
		// sends and when it delivers (were f622d6b8…f6c9b2, 94640b50…6a1c6f).
		// Re-pinned by issue 23, both for one reason: hybrid timestamps — the
		// timestamps in s0 items, (TS, m) messages and A-Deliver lines are
		// clock readings, not counter values, and deliveries follow them
		// (were 98b37465…000323, f74753b8…47adc5e; the same 2 044 messages).
		// Re-pinned by issue 29 (were 3b0b5f26…ee1d4c, 65b2aab1…b40c7): this run
		// uses Pipeline 2, and with Pipeline > 1 one member of a group sends
		// its (TS, m) and a ballot-0 consensus leader sends its Accept once.
		// Diffed against the parent's traces: the same 37 messages in 159
		// deliveries, fewer SEND lines — 2 711 → 1 675 and 2 400 → 1 393, of
		// which (TS, m) copies 378 → 138 in both (no re-ship, no pull: the
		// partition heals inside a pull period) and consensus frames 1 503 →
		// 989 and 1 364 → 823. The link jitter is drawn per send from the
		// run's one rng, so every later delay shifts with the first send that
		// is gone: delivery instants move by a few ms (last delivery 245.2 →
		// 248.1 ms, 251.7 → 249.6) and 16 resp. 56 of the 159 deliveries
		// change place in their process's sequence.
		// Re-pinned for the TEXT of SEND lines only when descriptors began to
		// keep payloads in their wire encoding (were 39009c8a…be4bb,
		// 19ad86f3…97d55): amcast.Descriptor gained the unexported raw field,
		// never set on the simulator, which %+v prints as " raw:[]" — on 818
		// resp. 677 lines. With that text removed, each trace equals the one
		// before line for line; the delivery-log hashes, recorded before the
		// change, pin that nothing was delivered differently.
		// Re-pinned, trace and delivery log, when a Batcher began to propose a
		// partial batch only while none of its own instances is undecided
		// (were dfbd7714…356f97, 45415f05…a802d and 1f094658…01e638,
		// 0b4de6df…b4b60e). Diffed against the parent's runs: the same 40 casts,
		// 37 messages in 159 deliveries; a1 138 and a1.rm 163 frames as before;
		// consensus instances 304 → 237 and 255 → 206, a1.cons frames 989 → 787
		// and 823 → 692. 13 resp. 50 deliveries change place in their process's
		// sequence; the last comes at 248.1 → 250.3 and 249.6 → 246.8 ms.
		{"a1", harness.AlgoA1, "", "752e0f9c2303de0cb336b77894cb385eae05161710ffc6c0dcb909f8eb76da1b", "232f711cc3ed2bd7ae87c580e82706904f27341f5924dd5485d874954dbb356d"},
		{"a1-partition-heal", harness.AlgoA1, "partition-heal", "797eb54477d1a34207b4c028aac10cdeae9485bf3cf50570d2e43993fae795ff", "155c953d151e106b48081690abc3239f48d7f4f497f0c254c7c97fc99e8c39d8"},
		// Re-pinned by issue 14 (paced proactive rounds): this run uses
		// Pipeline 2, and with Pipeline > 1 A2 now opens rounds on a derived
		// cadence and keeps the whole window live after a useful round, so
		// its trace legitimately changed (was 6ae88b38…9aa809). Re-pinned
		// again by issue 17 for the TEXT of its SEND lines only: they print
		// message bodies, and a DecideMsg now names the chosen ballot
		// instead of repeating the value (was 0b6667a5…521036). A2 runs
		// none of the new delivery rule: the delivery log hash below was
		// recorded at the parent commit and did not move, nor did a
		// message count. Re-pinned by issue 20, trace and delivery log
		// (were 7da9dda1…91ad967, 819ec8f0…d89f43): with Pipeline > 1 a
		// stream keeps the Barrier two windows ahead and two members of a
		// group ship its bundles. Diffed against the parent's trace: the
		// same 37 messages in 301 deliveries; rounds 1–5 carry the same
		// sets, later rounds open at other instants, so four messages ride
		// a neighbouring round and the last delivery comes at 81.3 ms, not
		// 82.0; 18 rounds instead of 15 (one more useful, four trailing
		// empty ones instead of two); 648 bundle copies instead of 744 —
		// 36 a round from ranks 0 and 1 of each group, not 54 (48 once p8
		// crashed) from every member. Every Pipeline <= 1 pin is unedited.
		// Re-pinned by issue 29, trace and delivery log (were a63b190f…e03b4,
		// 97c1a109…e85f54), for the consensus half alone: A2's own code sends
		// what it sent (648 bundle copies, 221 a2.rm frames, to the message),
		// a2.cons frames 816 → 478. The delivery log moves with the rng
		// stream, as A1's does above: the same 37 messages in 301 deliveries,
		// last at 242.5 → 245.6 ms, 148 consensus instances as before.
		// Re-pinned, trace and delivery log, for the Batcher's partial-batch
		// rule (were 4f783548…23f6f9, b88c700d…d9ceb): a round with an empty or
		// short bundle waits for the member's previous round to decide. The
		// same 40 casts, 37 messages in 301 deliveries, 148 instances, 648
		// bundle copies and 221 a2.rm frames; a2.cons 478 → 481; 142 rounds on
		// the pace and 6 late, not 139 and 9. 104 deliveries change place; the
		// last comes at 245.6 → 245.7 ms.
		{"a2", harness.AlgoA2, "", "25fc2dcfdd1735d0ef499b4a1fd38f6c8588bdff72671a0d9f9118e5da9a2e8a", "7ead4843b131e9107f5c295a13da108abfa70fd767aab2d8274ac542cef9b7b0"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got, gotLog, _ := goldenRun(tc.algo, tc.chaos, 2, 3*time.Millisecond)
			if got != tc.want {
				t.Errorf("trace hash = %s, want %s (the scheduler rewrite changed a same-seed run)", got, tc.want)
			}
			if tc.wantLog != "" && gotLog != tc.wantLog {
				t.Errorf("delivery log hash = %s, want %s", gotLog, tc.wantLog)
			}
		})
	}
}

// TestGoldenTraceJitterFree pins the runs in which the simulator hands one
// multicast to the scheduler as runs of receivers: with no jitter every copy
// of a send to consecutive processes shares its arrival instant. Every case
// above draws a jittered delay per copy, so none of them ever forms a run.
// The hashes were recorded with one scheduler entry per receiver, before
// runs existed; partition-heal adds held sends and their release, which
// break runs.
//
// The two Pipeline 2 cases were re-pinned when a Batcher began to propose a
// partial batch only while none of its own instances is undecided (were
// af4ab297…17ccd4, 3c5cde7a…2611bd2 and 8ffbfcc2…dff3c1, c8e746b6…1dcb5d).
// Diffed against the parent's runs: the same 40 casts, 37 messages in 159
// deliveries, a1 138 and a1.rm 163 frames. a1-pipeline2 keeps its 286
// instances and every process's delivery order (a1.cons 796 → 801: g2's
// instances after p8's crash shift). Its deliveries now come at the Pipeline
// 1 run's instants, so its delivery-log hash is a1-pipeline1's: with no
// jitter and no full batch, Pipeline 2 proposes what Pipeline 1 does.
// a1-partition-heal: instances 257 → 229, a1.cons 751 → 668, 50 deliveries
// change place, the last at 235 → 236 ms.
func TestGoldenTraceJitterFree(t *testing.T) {
	cases := []struct {
		name          string
		algo          harness.Algo
		chaos         string
		pipeline      int
		want, wantLog string
	}{
		{"a1-pipeline1", harness.AlgoA1, "", 1, "cda913ca4fdff4fba4695f386cafb617a7e236e01035b9976b797bb87ced72c4", "141c723c2ef21f4b30695893e5680b910407d9151992e69946c1d58d0f48f89a"},
		{"a1-pipeline2", harness.AlgoA1, "", 2, "0b45754ff539e18e9df84e7b965d35222c5f718525f2b086a84bbf06acff05ef", "141c723c2ef21f4b30695893e5680b910407d9151992e69946c1d58d0f48f89a"},
		{"a1-partition-heal", harness.AlgoA1, "partition-heal", 2, "88c0639e1b7f8893e3f395ec4a3c71dbbf85fcfff9c1c4df1f45900ed98b2f43", "06300a3e8a0c27f2ab06e19637c562c1f5f0001272843e728afb8943d524d5ff"},
		{"a2-pipeline1", harness.AlgoA2, "", 1, "2e6345c481b2350b2ca985a2e5f936cc07ccc377162d2adfe857c2e8ea4a28c0", "bbfb357e289a0c166378097f336cb3a148794b85ecf0c9332aba3f2fce77a02f"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got, gotLog, _ := goldenRun(tc.algo, tc.chaos, tc.pipeline, 0)
			if got != tc.want || gotLog != tc.wantLog {
				t.Errorf("trace hash = %s, want %s; delivery log hash = %s, want %s", got, tc.want, gotLog, tc.wantLog)
			}
		})
	}
}

// TestStatsUnchangedByCollectorRefactor pins every counter a run produces.
// The digests were recorded at the commit before the recorder chain
// (node.API pass-throughs, a recorder interface, lock wrappers) was replaced by
// direct calls on *metrics.Collector: how a count reaches the collector must
// not change what is counted. The Pipeline 4 run is under leader-flap so that
// the round, bundle and LearnMsg-fetch counters are all non-zero.
func TestStatsUnchangedByCollectorRefactor(t *testing.T) {
	cases := []struct {
		name     string
		algo     harness.Algo
		chaos    string
		pipeline int
		want     string
	}{
		// The two A1 digests were re-pinned by issue 23, for one reason:
		// hybrid timestamps reorder A1's deliveries, so wall latencies moved
		// and A1Owner has counts (were 68d8ef32…974081, e23ba5ed…9ccb62);
		// message, inter-group and consensus-instance counts did not move.
		//
		// All four were re-pinned by issue 28 for the TEXT of two fields only:
		// Stats.WANReleaseLate and A1Owner.Margin are metrics.Hist, which
		// prints its summary ({n=… sum=… p50=… max=…}) where the fixed-bound
		// histogram it replaced printed nine bucket counts. The four texts
		// were diffed against the parent's with those two renderings cut out:
		// identical, and Margin's count and sum did not move (12 / 137.766ms,
		// 12 / 273.109ms; were 3401a16a…5fcad8, 1bf7d779…e283e3,
		// 1cdf754d…1ab084, 4d19391c…b799aa).
		//
		// All four were re-pinned by issue 29 (were eebe9432…87c2e0,
		// 0c477f37…8c5f1d, c0c1222a…7e91aa, ec9c1f40…8bc249): three new fields
		// print (TSReshipped, TSPullsServed, TSPullsUnserved — 0 in all four),
		// a ballot-0 leader sends its Accept once (a1.cons 1 503 → 989 and
		// 1 364 → 823, a2.cons 816 → 478 and 1 410 → 880), and in the A1 runs
		// one member of a group sends its (TS, m) (a1 378 → 138, inter-group
		// 507 → 267; a1.rm 163/129 unmoved). a2 and a2.rm count what they
		// counted in the plain run (648, 221); under leader-flap 1 500 → 1 494
		// bundle copies; 148 and 254 instances as before. Wall latencies and degrees move
		// with the rng stream (golden traces above): mean wall 47.55 → 47.57,
		// 70.35 → 69.86, 40.70 → 42.53, 41.15 → 40.82 ms.
		//
		// All four were re-pinned when a Batcher began to propose a partial
		// batch only while none of its own instances is undecided (were
		// 53bb1b24…c7681, 92e9e8c6…8196d, 1d1d0c48…96491, 1585a02d…d8c78). The
		// first three runs are the golden traces above, with the counts stated
		// there. Under leader-flap: 254 → 246 instances, a2.cons 880 → 885,
		// bundle copies 1 494 → 1 404, rounds on the pace / late 236 / 18 →
		// 234 / 12; a2.rm 221 and the 2 LearnMsg fetches as before. Mean wall
		// 47.57 → 48.33, 69.86 → 68.54, 42.53 → 40.57, 40.82 → 41.37 ms.
		//
		// All four were re-pinned when A2 got the pull (were e588d5ff…4756f5,
		// 617f3100…f24c88, 8bd28b99…25de9e, c45d6df9…d843e7) for two new
		// fields alone, BundlePullsServed and BundlePullsUnserved, 0 in all
		// four: with " BundlePullsServed:0 BundlePullsUnserved:0" cut out, each
		// text hashes to its previous digest.
		{"a1", harness.AlgoA1, "", 2, "6f4f7f4e2e3b99e6aa330c014a85840780436c42071c2ee141404daa8dc66654"},
		{"a1-partition-heal", harness.AlgoA1, "partition-heal", 2, "b092a2b30ef52150be4212bdac1ac40365ba047fdf4f715b206eebc72ff25432"},
		{"a2", harness.AlgoA2, "", 2, "473e411f943869ee61a3a75f08624bfaa8ee01c3d6c69d11af69fe0ad65befba"},
		{"a2-pipeline4-leader-flap", harness.AlgoA2, "leader-flap", 4, "704912c7344d8c12f67d0a0b0fe40015b651bfa8c386e2fab7baa5cc00651045"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, _, stats := goldenRun(tc.algo, tc.chaos, tc.pipeline, 3*time.Millisecond)
			sum := sha256.Sum256([]byte(stats))
			if got := hex.EncodeToString(sum[:]); got != tc.want {
				t.Errorf("Stats digest = %s, want %s; the run counted:\n%s", got, tc.want, stats)
			}
		})
	}
}
