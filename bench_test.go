// Benchmarks regenerating every table and figure of the paper's evaluation
// (§6, Figure 1a/1b) and its latency-degree theorems (4.1, 5.1, 5.2), plus
// ablations of the design choices DESIGN.md calls out.
//
// Each benchmark iteration simulates a full wide-area run and reports, as
// custom metrics, the two quantities Figure 1 compares:
//
//	degree     — measured latency degree Δ(m) of the probe message
//	igmsg/cast — inter-group messages attributable to one cast
//	wall_ms    — virtual-time latency from cast to last delivery
//
// ns/op reflects simulator speed, not protocol latency; the protocol's
// cost is the virtual-time and message metrics. Run:
//
//	go test -bench=. -benchmem
package wanamcast

import (
	"testing"
	"time"

	"wanamcast/internal/harness"
	"wanamcast/internal/types"
)

// figure1aRun drives one multicast to k groups and returns (degree,
// inter-group messages, wall latency).
func figure1aRun(b *testing.B, algo harness.Algo, k, d int) (int64, uint64, time.Duration) {
	b.Helper()
	s := harness.Build(algo, harness.Options{
		Groups: k, PerGroup: d,
		DetMergeInterval: time.Second, DetMergeStop: 500 * time.Millisecond,
	})
	dest := make([]types.GroupID, k)
	for i := range dest {
		dest[i] = types.GroupID(i)
	}
	members := s.Topo.Members(types.GroupID(k - 1))
	caster := members[len(members)-1]
	var id types.MessageID
	s.RT.Scheduler().At(15*time.Millisecond, func() {
		id = s.Cast(caster, "bench", types.NewGroupSet(dest...))
		if algo == harness.AlgoDetMerge {
			for _, p := range s.Topo.AllProcesses() {
				if p != caster {
					s.Cast(p, "slot", types.NewGroupSet(dest...))
				}
			}
		}
	})
	s.Run()
	deg, ok := s.DegreeOf(id)
	if !ok {
		b.Fatalf("%s: probe not delivered", algo)
	}
	if v := s.Check(); len(v) != 0 {
		b.Fatalf("%s: violations %v", algo, v)
	}
	wall, _ := s.Col.WallLatency(id)
	st := s.Col.Snapshot()
	inter := st.InterGroupMessages
	if algo == harness.AlgoDetMerge {
		// Per-cast accounting for [1] excludes the background stream and
		// averages over the slot's casts, matching the paper's per-cast
		// O(kd) row.
		if hb, ok := st.PerProtocol["dm.hb"]; ok {
			inter -= hb.InterGroup
		}
		inter /= uint64(s.Topo.N())
	}
	return deg, inter, wall
}

func benchFigure1a(b *testing.B, algo harness.Algo, k, d int) {
	var deg int64
	var msgs uint64
	var wall time.Duration
	for i := 0; i < b.N; i++ {
		deg, msgs, wall = figure1aRun(b, algo, k, d)
	}
	b.ReportMetric(float64(deg), "degree")
	b.ReportMetric(float64(msgs), "igmsg/cast")
	b.ReportMetric(float64(wall)/1e6, "wall_ms")
}

// Figure 1(a): atomic multicast comparison. One sub-benchmark per (row, k).
func BenchmarkFigure1aDelporte(b *testing.B) {
	for _, k := range []int{2, 3, 4, 5} {
		b.Run(kd(k, 3), func(b *testing.B) { benchFigure1a(b, harness.AlgoDelporte, k, 3) })
	}
}

func BenchmarkFigure1aRodrigues(b *testing.B) {
	for _, k := range []int{2, 3, 4, 5} {
		b.Run(kd(k, 3), func(b *testing.B) { benchFigure1a(b, harness.AlgoRodrigues, k, 3) })
	}
}

func BenchmarkFigure1aFritzke(b *testing.B) {
	for _, k := range []int{2, 3, 4, 5} {
		b.Run(kd(k, 3), func(b *testing.B) { benchFigure1a(b, harness.AlgoFritzke, k, 3) })
	}
}

func BenchmarkFigure1aA1(b *testing.B) {
	for _, k := range []int{2, 3, 4, 5} {
		b.Run(kd(k, 3), func(b *testing.B) { benchFigure1a(b, harness.AlgoA1, k, 3) })
	}
}

func BenchmarkFigure1aSkeen(b *testing.B) {
	for _, k := range []int{2, 3, 4, 5} {
		b.Run(kd(k, 3), func(b *testing.B) { benchFigure1a(b, harness.AlgoSkeen, k, 3) })
	}
}

func BenchmarkFigure1aDetMerge(b *testing.B) {
	for _, k := range []int{2, 3, 4, 5} {
		b.Run(kd(k, 3), func(b *testing.B) { benchFigure1a(b, harness.AlgoDetMerge, k, 3) })
	}
}

func kd(k, d int) string {
	return "k=" + itoa(k) + "/d=" + itoa(d)
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [8]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}

// figure1bRun drives one broadcast probe and returns (degree, inter-group
// messages per cast, wall latency).
func figure1bRun(b *testing.B, algo harness.Algo, groups, d int) (int64, uint64, time.Duration) {
	b.Helper()
	s := harness.Build(algo, harness.Options{
		Groups: groups, PerGroup: d,
		DetMergeInterval: time.Second, DetMergeStop: 500 * time.Millisecond,
	})
	all := s.Topo.AllGroups()
	warmups := 0
	if algo == harness.AlgoA2 {
		for g := 0; g < groups; g++ {
			s.CastAt(0, s.Topo.Members(types.GroupID(g))[0], "warm", all)
			warmups++
		}
	}
	caster := s.Topo.Members(0)[1%d]
	var id types.MessageID
	casts := 1
	s.RT.Scheduler().At(15*time.Millisecond, func() {
		id = s.Cast(caster, "bench", all)
		if algo == harness.AlgoDetMerge {
			for _, p := range s.Topo.AllProcesses() {
				if p != caster {
					s.Cast(p, "slot", all)
					casts++
				}
			}
		}
	})
	s.Run()
	deg, ok := s.DegreeOf(id)
	if !ok {
		b.Fatalf("%s: probe not delivered", algo)
	}
	if v := s.Check(); len(v) != 0 {
		b.Fatalf("%s: violations %v", algo, v)
	}
	wall, _ := s.Col.WallLatency(id)
	st := s.Col.Snapshot()
	inter := st.InterGroupMessages
	if hb, ok := st.PerProtocol["dm.hb"]; ok {
		inter -= hb.InterGroup
	}
	inter /= uint64(casts + warmups)
	return deg, inter, wall
}

func benchFigure1b(b *testing.B, algo harness.Algo, groups, d int) {
	var deg int64
	var msgs uint64
	var wall time.Duration
	for i := 0; i < b.N; i++ {
		deg, msgs, wall = figure1bRun(b, algo, groups, d)
	}
	b.ReportMetric(float64(deg), "degree")
	b.ReportMetric(float64(msgs), "igmsg/cast")
	b.ReportMetric(float64(wall)/1e6, "wall_ms")
}

// Figure 1(b): atomic broadcast comparison, n = groups × d processes.
func BenchmarkFigure1bSousa(b *testing.B) {
	for _, g := range []int{2, 3, 4} {
		b.Run(kd(g, 3), func(b *testing.B) { benchFigure1b(b, harness.AlgoSousa, g, 3) })
	}
}

func BenchmarkFigure1bVicente(b *testing.B) {
	for _, g := range []int{2, 3, 4} {
		b.Run(kd(g, 3), func(b *testing.B) { benchFigure1b(b, harness.AlgoVicente, g, 3) })
	}
}

func BenchmarkFigure1bA2(b *testing.B) {
	for _, g := range []int{2, 3, 4} {
		b.Run(kd(g, 3), func(b *testing.B) { benchFigure1b(b, harness.AlgoA2, g, 3) })
	}
}

func BenchmarkFigure1bDetMerge(b *testing.B) {
	for _, g := range []int{2, 3, 4} {
		b.Run(kd(g, 3), func(b *testing.B) { benchFigure1b(b, harness.AlgoDetMerge, g, 3) })
	}
}

// BenchmarkTheorem41: ∃ run of A1 with Δ(m) = 2 for a 2-group multicast.
func BenchmarkTheorem41(b *testing.B) {
	var deg int64
	for i := 0; i < b.N; i++ {
		c := NewCluster(Config{Groups: 2, PerGroup: 3})
		id := c.Multicast(c.Process(0, 0), "m", 0, 1)
		c.Run()
		deg, _ = c.LatencyDegree(id)
		if deg != 2 {
			b.Fatalf("degree = %d, want 2", deg)
		}
	}
	b.ReportMetric(float64(deg), "degree")
}

// BenchmarkTheorem51: ∃ run of A2 with Δ(m) = 1 (synchronized rounds).
func BenchmarkTheorem51(b *testing.B) {
	var deg int64
	for i := 0; i < b.N; i++ {
		c := NewCluster(Config{Groups: 2, PerGroup: 3})
		c.BroadcastAt(0, c.Process(0, 0), "warm0")
		c.BroadcastAt(0, c.Process(1, 0), "warm1")
		var id MessageID
		c.rt.Scheduler().At(50*time.Millisecond, func() {
			id = c.Broadcast(c.Process(0, 1), "probe")
		})
		c.Run()
		deg, _ = c.LatencyDegree(id)
		if deg != 1 {
			b.Fatalf("degree = %d, want 1", deg)
		}
	}
	b.ReportMetric(float64(deg), "degree")
}

// BenchmarkTheorem52: the broadcast cast after quiescence costs Δ(m) = 2.
func BenchmarkTheorem52(b *testing.B) {
	var deg int64
	for i := 0; i < b.N; i++ {
		c := NewCluster(Config{Groups: 2, PerGroup: 3})
		c.Broadcast(c.Process(0, 0), "first")
		c.Run() // quiesce
		id := c.Broadcast(c.Process(1, 0), "late")
		c.Run()
		deg, _ = c.LatencyDegree(id)
		if deg != 2 {
			b.Fatalf("degree = %d, want 2", deg)
		}
	}
	b.ReportMetric(float64(deg), "degree")
}

// BenchmarkA2Frequency sweeps the broadcast period around the round
// duration (§5.3): below it the mean latency degree stays 1; far above it
// every cast restarts quiescent rounds and pays 2.
func BenchmarkA2Frequency(b *testing.B) {
	for _, period := range []time.Duration{50 * time.Millisecond, 80 * time.Millisecond, 400 * time.Millisecond} {
		period := period
		b.Run(period.String(), func(b *testing.B) {
			var mean float64
			for i := 0; i < b.N; i++ {
				c := NewCluster(Config{Groups: 2, PerGroup: 3})
				c.BroadcastAt(0, c.Process(0, 0), "warm0")
				c.BroadcastAt(0, c.Process(1, 0), "warm1")
				var ids []MessageID
				for j := 1; j <= 10; j++ {
					j := j
					c.rt.Scheduler().At(time.Duration(j)*period, func() {
						ids = append(ids, c.Broadcast(c.Process(GroupID(j%2), j%3), "m"))
					})
				}
				c.Run()
				var sum int64
				for _, id := range ids {
					d, ok := c.LatencyDegree(id)
					if !ok {
						b.Fatal("message lost")
					}
					sum += d
				}
				mean = float64(sum) / float64(len(ids))
			}
			b.ReportMetric(mean, "mean_degree")
		})
	}
}

// BenchmarkTradeoffLatencyVsMessages is the §1/§6 trade-off: multicast a
// 2-group operation in an 8-group system via genuine A1 (latency 2, few
// messages) versus broadcasting it to everyone with warm A2 (latency 1,
// O(n²) messages).
func BenchmarkTradeoffLatencyVsMessages(b *testing.B) {
	b.Run("a1-genuine", func(b *testing.B) {
		var deg int64
		var msgs uint64
		for i := 0; i < b.N; i++ {
			s := harness.Build(harness.AlgoA1, harness.Options{Groups: 8, PerGroup: 3})
			id := s.Cast(s.Topo.Members(0)[0], "op", types.NewGroupSet(0, 1))
			s.Run()
			deg, _ = s.DegreeOf(id)
			msgs = s.Col.Snapshot().InterGroupMessages
		}
		b.ReportMetric(float64(deg), "degree")
		b.ReportMetric(float64(msgs), "igmsg/cast")
	})
	b.Run("a2-broadcast-all", func(b *testing.B) {
		var deg int64
		var msgs uint64
		for i := 0; i < b.N; i++ {
			s := harness.Build(harness.AlgoA2, harness.Options{Groups: 8, PerGroup: 3})
			all := s.Topo.AllGroups()
			for g := 0; g < 8; g++ {
				s.CastAt(0, s.Topo.Members(types.GroupID(g))[0], "warm", all)
			}
			var id types.MessageID
			s.RT.Scheduler().At(50*time.Millisecond, func() {
				id = s.Cast(s.Topo.Members(0)[0], "op", all)
			})
			s.Run()
			deg, _ = s.DegreeOf(id)
			msgs = s.Col.Snapshot().InterGroupMessages / 9 // amortize over the 9 casts
		}
		b.ReportMetric(float64(deg), "degree")
		b.ReportMetric(float64(msgs), "igmsg/cast")
	})
}

// BenchmarkAblationStageSkip measures A1 against the full Fritzke pipeline
// on a multi-group cast, at equal latency degree: A1 saves messages (direct
// instead of eager reliable multicast) but no consensus instance — every
// multi-group message takes an s2 decision in each group. The instance A1
// does save, on single-group messages, is pinned by
// amcast's TestStageSkippingSavesConsensus.
func BenchmarkAblationStageSkip(b *testing.B) {
	run := func(b *testing.B, algo harness.Algo) {
		var learns, msgs uint64
		var deg int64
		for i := 0; i < b.N; i++ {
			s := harness.Build(algo, harness.Options{Groups: 3, PerGroup: 3})
			var id types.MessageID
			s.RT.Scheduler().At(0, func() {
				id = s.Cast(s.Topo.Members(0)[0], "m", types.NewGroupSet(0, 1, 2))
			})
			s.Run()
			st := s.Col.Snapshot()
			learns, msgs = st.ConsensusInstances, st.TotalMessages
			deg, _ = s.DegreeOf(id)
		}
		b.ReportMetric(float64(learns), "consensus_learns")
		b.ReportMetric(float64(msgs), "msgs")
		b.ReportMetric(float64(deg), "degree")
	}
	b.Run("skip-on-a1", func(b *testing.B) { run(b, harness.AlgoA1) })
	b.Run("skip-off-fritzke", func(b *testing.B) { run(b, harness.AlgoFritzke) })
}

// BenchmarkAblationBatching: A1 proposes all pending s0/s2 messages per
// consensus instance ("to share the cost of consensus instances", §4.2).
// A burst of concurrent casts should need far fewer instances than casts.
func BenchmarkAblationBatching(b *testing.B) {
	for _, burst := range []int{1, 8, 32} {
		burst := burst
		b.Run("burst="+itoa(burst), func(b *testing.B) {
			var perCast float64
			for i := 0; i < b.N; i++ {
				s := harness.Build(harness.AlgoA1, harness.Options{Groups: 2, PerGroup: 3})
				s.RT.Scheduler().At(0, func() {
					for j := 0; j < burst; j++ {
						s.Cast(s.Topo.Members(0)[j%3], j, types.NewGroupSet(0, 1))
					}
				})
				s.Run()
				if v := s.Check(); len(v) != 0 {
					b.Fatalf("violations: %v", v)
				}
				perCast = float64(s.Col.Snapshot().ConsensusInstances) / float64(burst)
			}
			b.ReportMetric(perCast, "consensus_learns/cast")
		})
	}
}

// BenchmarkAblationProactive compares quiescent A2 with an always-on
// variant at a low cast rate over a fixed horizon: proactivity buys the
// latency-1 pipeline at the price of empty-round traffic.
func BenchmarkAblationProactive(b *testing.B) {
	const horizon = 2 * time.Second
	run := func(b *testing.B, alwaysOn bool) {
		var msgs uint64
		for i := 0; i < b.N; i++ {
			s := harness.Build(harness.AlgoA2, harness.Options{Groups: 2, PerGroup: 3, A2AlwaysOn: alwaysOn})
			all := s.Topo.AllGroups()
			for g := 0; g < 2; g++ {
				s.CastAt(0, s.Topo.Members(types.GroupID(g))[0], "warm", all)
			}
			s.CastAt(time.Second, s.Topo.Members(0)[0], "lone", all)
			s.RunUntil(horizon)
			msgs = s.Col.Snapshot().TotalMessages
			if v := s.Check(); len(v) != 0 {
				b.Fatalf("violations: %v", v)
			}
		}
		b.ReportMetric(float64(msgs), "msgs_2s")
	}
	b.Run("quiescent", func(b *testing.B) { run(b, false) })
	b.Run("always-on", func(b *testing.B) { run(b, true) })
}

// BenchmarkHeadlineSeparation is the paper's central claim in one bench:
// atomic multicast is inherently more expensive than atomic broadcast.
// The same message addressed to ALL groups costs Δ=2 through genuine A1
// (Prop. 3.1's lower bound) but Δ=1 through proactive A2 (Theorem 5.1).
func BenchmarkHeadlineSeparation(b *testing.B) {
	b.Run("a1-all-groups", func(b *testing.B) {
		var deg int64
		for i := 0; i < b.N; i++ {
			s := harness.Build(harness.AlgoA1, harness.Options{Groups: 3, PerGroup: 3})
			id := s.Cast(s.Topo.Members(0)[0], "m", s.Topo.AllGroups())
			s.Run()
			deg, _ = s.DegreeOf(id)
			if deg != 2 {
				b.Fatalf("genuine multicast to Γ measured Δ=%d, want 2", deg)
			}
		}
		b.ReportMetric(float64(deg), "degree")
	})
	b.Run("a2-warm", func(b *testing.B) {
		var deg int64
		for i := 0; i < b.N; i++ {
			s := harness.Build(harness.AlgoA2, harness.Options{Groups: 3, PerGroup: 3})
			all := s.Topo.AllGroups()
			for g := 0; g < 3; g++ {
				s.CastAt(0, s.Topo.Members(types.GroupID(g))[0], "warm", all)
			}
			var id types.MessageID
			s.RT.Scheduler().At(50*time.Millisecond, func() {
				id = s.Cast(s.Topo.Members(0)[0], "m", all)
			})
			s.Run()
			deg, _ = s.DegreeOf(id)
			if deg != 1 {
				b.Fatalf("warm broadcast measured Δ=%d, want 1", deg)
			}
		}
		b.ReportMetric(float64(deg), "degree")
	})
}

// BenchmarkAblationKeepAlive sweeps A2's quiescence-predictor patience
// (§5.3's suggested refinement) on a bursty workload with ~2.5-round gaps:
// patience buys latency degree one for post-gap casts at the price of
// empty-round traffic.
func BenchmarkAblationKeepAlive(b *testing.B) {
	for _, patience := range []int{1, 2, 4} {
		patience := patience
		b.Run("patience="+itoa(patience), func(b *testing.B) {
			var mean float64
			var msgs uint64
			for i := 0; i < b.N; i++ {
				s := buildA2KeepAlive(patience)
				all := s.Topo.AllGroups()
				for g := 0; g < 2; g++ {
					s.CastAt(0, s.Topo.Members(types.GroupID(g))[0], "warm", all)
				}
				var ids []types.MessageID
				for j := 1; j <= 6; j++ {
					j := j
					from := s.Topo.Members(types.GroupID(j % 2))[0]
					s.RT.Scheduler().At(time.Duration(j)*260*time.Millisecond, func() {
						ids = append(ids, s.Cast(from, j, all))
					})
				}
				s.Run()
				var sum int64
				for _, id := range ids {
					d, ok := s.DegreeOf(id)
					if !ok {
						b.Fatal("message lost")
					}
					sum += d
				}
				mean = float64(sum) / float64(len(ids))
				msgs = s.Col.Snapshot().TotalMessages
			}
			b.ReportMetric(mean, "mean_degree")
			b.ReportMetric(float64(msgs), "msgs")
		})
	}
}

func buildA2KeepAlive(patience int) *harness.System {
	return harness.Build(harness.AlgoA2, harness.Options{
		Groups: 2, PerGroup: 3, A2KeepAlive: patience,
	})
}

// BenchmarkExtensionPipeline measures the pipelined-rounds extension: at a
// cast rate far above one per round (10 ms period vs ~104 ms rounds), the
// paper's sequential A2 queues casts for the next proposable round while a
// deep pipeline proposes a fresh round per consensus completion. Reported:
// mean virtual-time wall latency per message.
func BenchmarkExtensionPipeline(b *testing.B) {
	for _, depth := range []int{1, 2, 8} {
		depth := depth
		b.Run("depth="+itoa(depth), func(b *testing.B) {
			var mean time.Duration
			for i := 0; i < b.N; i++ {
				s := harness.Build(harness.AlgoA2, harness.Options{
					Groups: 2, PerGroup: 3, Pipeline: depth,
				})
				all := s.Topo.AllGroups()
				for g := 0; g < 2; g++ {
					s.CastAt(0, s.Topo.Members(types.GroupID(g))[0], "warm", all)
				}
				var ids []types.MessageID
				for j := 1; j <= 30; j++ {
					j := j
					from := s.Topo.Members(types.GroupID(j % 2))[j%3]
					s.RT.Scheduler().At(time.Duration(10*j)*time.Millisecond, func() {
						ids = append(ids, s.Cast(from, j, all))
					})
				}
				s.Run()
				if v := s.Check(); len(v) != 0 {
					b.Fatalf("violations: %v", v)
				}
				var sum time.Duration
				for _, id := range ids {
					w, ok := s.Col.WallLatency(id)
					if !ok {
						b.Fatal("message lost")
					}
					sum += w
				}
				mean = sum / time.Duration(len(ids))
			}
			b.ReportMetric(float64(mean)/1e6, "mean_wall_ms")
		})
	}
}

// BenchmarkBatchedThroughput measures what the batched ordering engine
// buys at saturating load: 64 concurrent A1 multicasts to two groups,
// swept over MaxBatch. Reported per configuration:
//
//	ordered/learn — messages delivered per consensus learn (the
//	                amortization; MaxBatch=64 must be ≥5× MaxBatch=1)
//	vmsg/s        — delivered messages per second of virtual time
//	mean_batch    — mean decided batch size
//
// The sequential seed engine corresponds to MaxBatch=1.
func BenchmarkBatchedThroughput(b *testing.B) {
	measure := func(b *testing.B, maxBatch, pipeline int) Stats {
		var st Stats
		for i := 0; i < b.N; i++ {
			st = saturate(b, 64, maxBatch, pipeline)
		}
		b.ReportMetric(st.OrderedPerLearn, "ordered/learn")
		b.ReportMetric(st.ThroughputPerSec, "vmsg/s")
		b.ReportMetric(st.MeanBatchSize, "mean_batch")
		return st
	}
	var strict, batched Stats
	b.Run("maxbatch=1", func(b *testing.B) { strict = measure(b, 1, 1) })
	b.Run("maxbatch=8", func(b *testing.B) { measure(b, 8, 1) })
	b.Run("maxbatch=64", func(b *testing.B) { batched = measure(b, 64, 1) })
	b.Run("maxbatch=64/pipeline=4", func(b *testing.B) { measure(b, 64, 4) })
	if strict.OrderedPerLearn > 0 && batched.OrderedPerLearn < 5*strict.OrderedPerLearn {
		b.Fatalf("ordered/learn: MaxBatch=64 %.4f vs MaxBatch=1 %.4f — below the 5x bound",
			batched.OrderedPerLearn, strict.OrderedPerLearn)
	}
}

// BenchmarkSimThroughput measures raw simulator speed: a sustained A2
// stream, reporting virtual deliveries per wall second via ns/op.
func BenchmarkSimThroughput(b *testing.B) {
	for i := 0; i < b.N; i++ {
		c := NewCluster(Config{Groups: 3, PerGroup: 3})
		for g := 0; g < 3; g++ {
			c.BroadcastAt(0, c.Process(GroupID(g), 0), "warm")
		}
		for j := 1; j <= 50; j++ {
			c.BroadcastAt(time.Duration(j)*20*time.Millisecond, c.Process(GroupID(j%3), j%3), j)
		}
		c.Run()
		if got := len(c.Deliveries()); got != 53*9 {
			b.Fatalf("deliveries = %d", got)
		}
	}
}
