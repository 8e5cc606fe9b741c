package harness

import (
	"testing"
	"time"

	"wanamcast/internal/types"
)

// measureMcast returns the inter-group messages for one multicast to k
// groups of d processes (caster in the last destination group).
func measureMcast(t *testing.T, algo Algo, k, d int) float64 {
	t.Helper()
	return measureMcastPipelined(t, algo, k, d, 0)
}

// measureMcastPipelined is measureMcast at the given Options.Pipeline.
func measureMcastPipelined(t *testing.T, algo Algo, k, d, pipeline int) float64 {
	t.Helper()
	s := Build(algo, Options{
		Groups: k, PerGroup: d, Pipeline: pipeline,
		// det-merge needs a live heartbeat stream here (single cast, no
		// slot-fill); its per-cast cost is metered from the data-message
		// protocol label alone, as the paper's O(kd) row accounts it.
		DetMergeInterval: 100 * time.Millisecond, DetMergeStop: 800 * time.Millisecond,
	})
	dest := make([]types.GroupID, k)
	for i := range dest {
		dest[i] = types.GroupID(i)
	}
	members := s.Topo.Members(types.GroupID(k - 1))
	caster := members[len(members)-1]
	s.CastAt(15*time.Millisecond, caster, "m", types.NewGroupSet(dest...))
	s.Run()
	if v := s.Check(); len(v) != 0 {
		t.Fatalf("%s k=%d d=%d: %v", algo, k, d, v)
	}
	st := s.Col.Snapshot()
	if algo == AlgoDetMerge {
		return float64(st.PerProtocol["dm"].InterGroup)
	}
	return float64(st.InterGroupMessages)
}

// TestFigure1aMessageShapes asserts the paper's asymptotic columns as
// measured growth ratios:
//
//   - Delporte [4] is O(kd²): linear in k (doubling k−1 roughly doubles
//     the count), quadratic in d (doubling d roughly quadruples it);
//   - A1 is O(k²d²): quadratic in both;
//   - the A1/Delporte ratio grows with k (the §6 trade-off).
func TestFigure1aMessageShapes(t *testing.T) {
	// Linearity in k for Delporte: messages(k) ≈ a·k + b ⇒ second
	// differences vanish. Allow slack for the constant hops.
	d2, d3, d4, d5 := measureMcast(t, AlgoDelporte, 2, 3), measureMcast(t, AlgoDelporte, 3, 3),
		measureMcast(t, AlgoDelporte, 4, 3), measureMcast(t, AlgoDelporte, 5, 3)
	if diff1, diff2 := d3-d2, d4-d3; diff1 != diff2 || diff2 != d5-d4 {
		t.Errorf("Delporte not linear in k: increments %v %v %v", diff1, diff2, d5-d4)
	}

	// Quadratic growth in k for A1: second differences constant and
	// positive.
	a2, a3, a4, a5 := measureMcast(t, AlgoA1, 2, 3), measureMcast(t, AlgoA1, 3, 3),
		measureMcast(t, AlgoA1, 4, 3), measureMcast(t, AlgoA1, 5, 3)
	s1, s2, s3 := a3-a2, a4-a3, a5-a4
	if !(s2 > s1 && s3 > s2) {
		t.Errorf("A1 not superlinear in k: increments %v %v %v", s1, s2, s3)
	}
	if (s2-s1) != (s3-s2) || s2-s1 <= 0 {
		t.Errorf("A1 not quadratic in k: second differences %v %v", s2-s1, s3-s2)
	}

	// Quadratic growth in d for both A1 (k²d²) and Delporte (kd²):
	// doubling d should roughly quadruple the count (within the ±2kd
	// linear terms).
	for _, algo := range []Algo{AlgoA1, AlgoDelporte} {
		m2, m4 := measureMcast(t, algo, 3, 2), measureMcast(t, algo, 3, 4)
		ratio := m4 / m2
		if ratio < 3.0 || ratio > 4.6 {
			t.Errorf("%s: doubling d scaled messages by %.2f, want ≈4 (quadratic)", algo, ratio)
		}
	}

	// With Pipeline > 1 a group speaks to another as one party: its leader
	// alone sends its (TS, m), so every hop is 1 × d, the count is
	// (k+1)(k−1)d — O(k²d) — and doubling d doubles it, to the message. (A
	// cast whose exchange takes its 2Δ draws no pull.)
	if p2, p4 := measureMcastPipelined(t, AlgoA1, 3, 2, 4), measureMcastPipelined(t, AlgoA1, 3, 4, 4); p2 != 4*2*2 || p4 != 2*p2 {
		t.Errorf("A1 at Pipeline 4: %v messages at d=2 and %v at d=4, want (k+1)(k−1)d = 16 and 32 (linear in d)", p2, p4)
	}

	// det-merge is O(kd): linear in d.
	dm2, dm4 := measureMcast(t, AlgoDetMerge, 3, 2), measureMcast(t, AlgoDetMerge, 3, 4)
	if ratio := dm4 / dm2; ratio < 1.8 || ratio > 2.4 {
		t.Errorf("det-merge: doubling d scaled messages by %.2f, want ≈2 (linear)", ratio)
	}

	// The §6 trade-off: A1/Delporte message ratio grows with k.
	if !(a5/d5 > a2/d2) {
		t.Errorf("A1/Delporte ratio did not grow with k: %.2f at k=2, %.2f at k=5", a2/d2, a5/d5)
	}
}

// TestFigure1bMessageShapes asserts the broadcast columns: Sousa O(n) is
// linear in n, Vicente and A2 O(n²) quadratic.
func TestFigure1bMessageShapes(t *testing.T) {
	measure := func(algo Algo, groups, d int) float64 {
		s := Build(algo, Options{Groups: groups, PerGroup: d})
		all := s.Topo.AllGroups()
		casts := 1
		if algo == AlgoA2 {
			for g := 0; g < groups; g++ {
				s.CastAt(0, s.Topo.Members(types.GroupID(g))[0], "warm", all)
				casts++
			}
		}
		s.CastAt(15*time.Millisecond, s.Topo.Members(0)[0], "m", all)
		s.Run()
		if v := s.Check(); len(v) != 0 {
			t.Fatalf("%s: %v", algo, v)
		}
		return float64(s.Col.Snapshot().InterGroupMessages) / float64(casts)
	}
	// n doubles from 6 (2×3) to 12 (4×3).
	for _, tc := range []struct {
		algo     Algo
		lo, hi   float64
		expected string
	}{
		{AlgoSousa, 2.5, 3.5, "linear"}, // ratio ≈ 3 (inter-group share grows too)
		{AlgoVicente, 4.5, 6.5, "quadratic"},
		{AlgoA2, 3.0, 4.5, "quadratic"},
	} {
		m6 := measure(tc.algo, 2, 3)
		m12 := measure(tc.algo, 4, 3)
		ratio := m12 / m6
		if ratio < tc.lo || ratio > tc.hi {
			t.Errorf("%s: doubling n scaled messages by %.2f, want [%.1f,%.1f] (%s)",
				tc.algo, ratio, tc.lo, tc.hi, tc.expected)
		}
	}
}
