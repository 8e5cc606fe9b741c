package main

import (
	"fmt"
	"io"
	"time"

	"wanamcast/internal/harness"
	"wanamcast/internal/types"
)

// figures regenerates every table and figure of the paper's evaluation on
// the simulated WAN (d processes per group, inter one-way between groups)
// and prints paper-versus-measured rows:
//
//   - Figure 1(a): atomic multicast — latency degree and inter-group
//     messages for [4], [10], [5], A1, Skeen [2], and [1];
//   - Figure 1(b): atomic broadcast — the same for [12], [13], A2, [1];
//   - Theorems 4.1, 5.1, 5.2: the witness runs and their latency degrees;
//   - Proposition A.9: A2 falls silent after a finite burst, and the next
//     cast pays the restart hop;
//   - the §5.3 broadcast-frequency regime of A2.
//
// The output at the defaults is pinned byte for byte by
// testdata/figures.golden.
func figures(w io.Writer, d int, inter time.Duration) {
	figure1a(w, d, inter)
	fmt.Fprintln(w)
	figure1b(w, d, inter)
	fmt.Fprintln(w)
	theorems(w, d, inter)
	fmt.Fprintln(w)
	burst(w, d, inter)
	fmt.Fprintln(w)
	frequency(w, d, inter)
}

type row struct {
	algo      harness.Algo
	label     string
	paperDeg  string
	paperMsgs string
}

func figure1a(w io.Writer, d int, inter time.Duration) {
	fmt.Fprintln(w, "Figure 1(a) — Atomic Multicast (k destination groups, d =", d, "processes/group)")
	fmt.Fprintln(w, "algorithm        paper Δ   paper msgs    k=2           k=3           k=4           k=5")
	rows := []row{
		{harness.AlgoDelporte, "[4] Delporte", "k+1", "O(kd^2)"},
		{harness.AlgoRodrigues, "[10] Rodrigues", "4", "O(k^2d^2)"},
		{harness.AlgoFritzke, "[5] Fritzke", "2", "O(k^2d^2)"},
		{harness.AlgoA1, "A1 (this paper)", "2", "O(k^2d^2)"},
		{harness.AlgoSkeen, "[2] Skeen", "2", "O(k^2d^2)"},
		{harness.AlgoDetMerge, "[1] det-merge", "1", "O(kd)"},
	}
	for _, r := range rows {
		fmt.Fprintf(w, "%-16s %-9s %-12s", r.label, r.paperDeg, r.paperMsgs)
		for k := 2; k <= 5; k++ {
			deg, msgs := runMulticast(r.algo, k, d, inter)
			fmt.Fprintf(w, " Δ=%-2d m=%-6d", deg, msgs)
		}
		fmt.Fprintln(w)
	}
}

func runMulticast(algo harness.Algo, k, d int, inter time.Duration) (int64, uint64) {
	s := harness.Build(algo, harness.Options{
		Groups: k, PerGroup: d, Inter: inter,
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
		id = s.Cast(caster, "m", types.NewGroupSet(dest...))
		if algo == harness.AlgoDetMerge {
			for _, p := range s.Topo.AllProcesses() {
				if p != caster {
					s.Cast(p, "slot", types.NewGroupSet(dest...))
				}
			}
		}
	})
	s.Run()
	mustClean(s)
	deg, ok := s.DegreeOf(id)
	if !ok {
		fatalf("probe not delivered by %s", algo)
	}
	st := s.Col.Snapshot()
	msgs := st.InterGroupMessages
	if algo == harness.AlgoDetMerge {
		if hb, ok := st.PerProtocol["dm.hb"]; ok {
			msgs -= hb.InterGroup
		}
		msgs /= uint64(s.Topo.N())
	}
	return deg, msgs
}

func figure1b(w io.Writer, d int, inter time.Duration) {
	fmt.Fprintln(w, "Figure 1(b) — Atomic Broadcast (n = k·d processes)")
	fmt.Fprintln(w, "algorithm        paper Δ   paper msgs    k=2           k=3           k=4")
	rows := []row{
		{harness.AlgoSousa, "[12] Sousa", "2", "O(n)"},
		{harness.AlgoVicente, "[13] Vicente", "2", "O(n^2)"},
		{harness.AlgoA2, "A2 (this paper)", "1", "O(n^2)"},
		{harness.AlgoDetMerge, "[1] det-merge", "1", "O(n)"},
	}
	for _, r := range rows {
		fmt.Fprintf(w, "%-16s %-9s %-12s", r.label, r.paperDeg, r.paperMsgs)
		for k := 2; k <= 4; k++ {
			deg, msgs := runBroadcast(r.algo, k, d, inter)
			fmt.Fprintf(w, " Δ=%-2d m=%-6d", deg, msgs)
		}
		fmt.Fprintln(w)
	}
}

func runBroadcast(algo harness.Algo, groups, d int, inter time.Duration) (int64, uint64) {
	s := harness.Build(algo, harness.Options{
		Groups: groups, PerGroup: d, Inter: inter,
		DetMergeInterval: time.Second, DetMergeStop: 500 * time.Millisecond,
	})
	all := s.Topo.AllGroups()
	casts := 1
	if algo == harness.AlgoA2 {
		for g := 0; g < groups; g++ {
			s.CastAt(0, s.Topo.Members(types.GroupID(g))[0], "warm", all)
			casts++
		}
	}
	caster := s.Topo.Members(0)[1%d]
	var id types.MessageID
	s.RT.Scheduler().At(15*time.Millisecond, func() {
		id = s.Cast(caster, "probe", all)
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
	mustClean(s)
	deg, ok := s.DegreeOf(id)
	if !ok {
		fatalf("probe not delivered by %s", algo)
	}
	st := s.Col.Snapshot()
	msgs := st.InterGroupMessages
	if hb, ok := st.PerProtocol["dm.hb"]; ok {
		msgs -= hb.InterGroup
	}
	msgs /= uint64(casts)
	return deg, msgs
}

func theorems(w io.Writer, d int, inter time.Duration) {
	fmt.Fprintln(w, "Latency-degree theorems (witness runs)")

	// Theorem 4.1: A1, message to two groups, Δ = 2.
	s := harness.Build(harness.AlgoA1, harness.Options{Groups: 2, PerGroup: d, Inter: inter})
	id := s.Cast(s.Topo.Members(0)[0], "m", types.NewGroupSet(0, 1))
	s.Run()
	mustClean(s)
	deg, _ := s.DegreeOf(id)
	fmt.Fprintf(w, "  Theorem 4.1: A1 multicast to 2 groups       paper Δ=2, measured Δ=%d\n", deg)

	// Theorem 5.1: A2 with synchronized rounds, Δ = 1.
	s = harness.Build(harness.AlgoA2, harness.Options{Groups: 2, PerGroup: d, Inter: inter})
	all := s.Topo.AllGroups()
	s.CastAt(0, s.Topo.Members(0)[0], "warm0", all)
	s.CastAt(0, s.Topo.Members(1)[0], "warm1", all)
	var probe types.MessageID
	s.RT.Scheduler().At(inter/2, func() { probe = s.Cast(s.Topo.Members(0)[1%d], "probe", all) })
	s.Run()
	mustClean(s)
	deg, _ = s.DegreeOf(probe)
	fmt.Fprintf(w, "  Theorem 5.1: A2 broadcast, rounds running   paper Δ=1, measured Δ=%d\n", deg)

	// Theorem 5.2: A2 after premature quiescence, Δ = 2.
	s = harness.Build(harness.AlgoA2, harness.Options{Groups: 2, PerGroup: d, Inter: inter})
	s.Cast(s.Topo.Members(0)[0], "first", all)
	s.Run()
	late := s.Cast(s.Topo.Members(1)[0], "late", all)
	s.Run()
	mustClean(s)
	deg, _ = s.DegreeOf(late)
	fmt.Fprintf(w, "  Theorem 5.2: A2 broadcast after quiescence  paper Δ=2, measured Δ=%d\n", deg)

	// Proposition 3.1 cross-check: no genuine multicast measured below 2
	// for multi-group messages.
	fmt.Fprintln(w, "  Prop. 3.1 : no genuine multicast run measured Δ<2 for multi-group messages (see Figure 1a rows)")
}

// burst casts a finite burst of broadcasts, reports when the system stops
// sending messages, then casts once more after quiescence and shows the
// latency-degree penalty.
func burst(w io.Writer, d int, inter time.Duration) {
	fmt.Fprintln(w, "Proposition A.9 — quiescence after a finite burst")
	s := harness.Build(harness.AlgoA2, harness.Options{Groups: 2, PerGroup: d, Inter: inter})
	all := s.Topo.AllGroups()
	s.CastAt(0, s.Topo.Members(0)[0], "warm0", all)
	s.CastAt(0, s.Topo.Members(1)[0], "warm1", all)
	lastCast := time.Duration(0)
	for i := 1; i <= 5; i++ {
		lastCast = time.Duration(i) * 30 * time.Millisecond
		s.CastAt(lastCast, s.Topo.Members(0)[i%d], i, all)
	}
	s.Run()
	lastSend, _ := s.Col.LastSend()
	fmt.Fprintf(w, "  last cast at             %v\n", lastCast)
	fmt.Fprintf(w, "  last message sent at     %v (then silence — quiescent)\n", lastSend)
	fmt.Fprintf(w, "  virtual time at drain    %v\n", s.RT.Now())

	late := s.Cast(s.Topo.Members(1)[0], "late", all)
	s.Run()
	mustClean(s)
	deg, ok := s.DegreeOf(late)
	if !ok {
		fatalf("late message not delivered")
	}
	fmt.Fprintf(w, "  cast after quiescence    Δ=%d (Theorem 5.2: the restart costs one extra hop)\n", deg)
}

func frequency(w io.Writer, d int, inter time.Duration) {
	fmt.Fprintln(w, "§5.3 — A2 broadcast-frequency regimes (round time ≈ inter-group delay)")
	fmt.Fprintln(w, "period      mean Δ   note")
	for _, period := range []time.Duration{inter / 2, inter * 4 / 5, inter * 4} {
		s := harness.Build(harness.AlgoA2, harness.Options{Groups: 2, PerGroup: d, Inter: inter})
		all := s.Topo.AllGroups()
		s.CastAt(0, s.Topo.Members(0)[0], "warm0", all)
		s.CastAt(0, s.Topo.Members(1)[0], "warm1", all)
		var ids []types.MessageID
		for j := 1; j <= 10; j++ {
			j := j
			from := s.Topo.Members(types.GroupID(j % 2))[j%d]
			s.RT.Scheduler().At(time.Duration(j)*period, func() {
				ids = append(ids, s.Cast(from, j, all))
			})
		}
		s.Run()
		mustClean(s)
		var sum int64
		for _, id := range ids {
			dg, ok := s.DegreeOf(id)
			if !ok {
				fatalf("message lost in frequency sweep")
			}
			sum += dg
		}
		mean := float64(sum) / float64(len(ids))
		note := "rounds never stop: optimal regime"
		if mean > 1.5 {
			note = "rounds quiesce between casts: Δ=2 (Theorem 5.2)"
		}
		fmt.Fprintf(w, "%-11v %-8.2f %s\n", period, mean, note)
	}
}

func mustClean(s *harness.System) {
	if v := s.Check(); len(v) != 0 {
		fatalf("property violations: %v", v)
	}
}
