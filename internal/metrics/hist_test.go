package metrics

import (
	"math"
	"math/rand"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"
	"unsafe"
)

// widthAt is the width of the bucket holding d: the error bound on a
// quantile whose exact value is d.
func widthAt(d time.Duration) time.Duration {
	i := bucketOf(uint64(d))
	return time.Duration(bucketLo(i+1) - bucketLo(i))
}

// TestHist: early samples count as zero, Count / Sum / Min / Max / Mean are
// exact, a quantile lands in the bucket that holds the exact one, the maximum
// is exact however far out it lies, and Add sums.
func TestHist(t *testing.T) {
	var h Hist
	for _, d := range []time.Duration{-time.Millisecond, 50 * time.Microsecond, 300 * time.Microsecond, 300 * time.Microsecond, time.Second} {
		h.Observe(d)
	}
	at300 := bucketOf(uint64(300 * time.Microsecond))
	if h.buckets[0] != 1 || h.buckets[at300] != 2 || h.Count != 5 || h.Min != 0 || h.Max != time.Second {
		t.Fatalf("count %d min %v max %v, %d at zero, %d at 300µs", h.Count, h.Min, h.Max, h.buckets[0], h.buckets[at300])
	}
	if want := 50*time.Microsecond + 600*time.Microsecond + time.Second; h.Sum != want || h.Mean() != want/5 {
		t.Errorf("sum %v mean %v, want %v and %v", h.Sum, h.Mean(), want, want/5)
	}
	if q, exact := h.Quantile(0.6), 300*time.Microsecond; (q - exact).Abs() > widthAt(exact) {
		t.Errorf("p60 %v, want within %v of %v", q, widthAt(exact), exact)
	}
	if q := h.Quantile(1); q != time.Second {
		t.Errorf("p100 %v, want the maximum itself", q)
	}
	var sum Hist
	sum.Add(h)
	sum.Add(h)
	if sum.Count != 10 || sum.Sum != 2*h.Sum || sum.buckets[at300] != 4 || sum.Min != 0 || sum.Max != time.Second {
		t.Errorf("Add: count %d sum %v min %v max %v", sum.Count, sum.Sum, sum.Min, sum.Max)
	}
	if (Hist{}).Quantile(0.5) != 0 || (Hist{}).Mean() != 0 {
		t.Error("an empty histogram must report zero")
	}
	sum = Hist{}
	sum.Add(Hist{})
	if sum != (Hist{}) {
		t.Error("adding an empty histogram must change nothing")
	}
}

// TestHistBuckets pins the geometry: buckets tile the non-negative durations
// in order with no gap, none is wider than an eighth of its lower edge, the
// largest duration has a bucket, and the whole Hist fits 4 KB.
func TestHistBuckets(t *testing.T) {
	for i := 0; i < histBuckets; i++ {
		lo, next := bucketLo(i), bucketLo(i+1)
		if bucketOf(lo) != i || bucketOf(next-1) != i {
			t.Fatalf("bucket %d = [%d, %d) holds buckets %d..%d", i, lo, next, bucketOf(lo), bucketOf(next-1))
		}
		if w := next - lo; w != 1 && w*histSub > lo {
			t.Fatalf("bucket %d = [%d, %d) is wider than 1/%d of its lower edge", i, lo, next, histSub)
		}
	}
	if got := bucketOf(math.MaxInt64); got != histBuckets-1 {
		t.Fatalf("the largest duration lands in bucket %d of %d", got, histBuckets)
	}
	if size := unsafe.Sizeof(Hist{}); size > 4096 {
		t.Fatalf("a Hist is %d bytes, want at most 4096", size)
	}
}

// sampleSets are seeded sample sets spanning 100 ns – 10 s: uniform,
// log-uniform, and a bimodal one shaped like wan-mix (single-shard writes
// around 300 µs, multi-shard ones around 2Δ = 40 ms).
func sampleSets() map[string][]time.Duration {
	const lo, hi = 100 * time.Nanosecond, 10 * time.Second
	rng := rand.New(rand.NewSource(28))
	sets := map[string][]time.Duration{}
	for i := 0; i < 20000; i++ {
		sets["uniform"] = append(sets["uniform"], lo+time.Duration(rng.Int63n(int64(hi-lo))))
		sets["log-uniform"] = append(sets["log-uniform"], time.Duration(float64(lo)*math.Pow(float64(hi/lo), rng.Float64())))
		mode := 300 * time.Microsecond
		if rng.Intn(10) < 3 {
			mode = 40 * time.Millisecond
		}
		sets["bimodal"] = append(sets["bimodal"], mode+time.Duration(rng.ExpFloat64()*float64(mode)/8))
	}
	return sets
}

// TestHistAgainstNearestRank holds Hist to the exact rule it replaced:
// percentile over the sorted samples (still what Collector.Snapshot uses for
// the cast slab). Quantiles are within the width of the bucket holding the
// exact value; everything else is exact.
func TestHistAgainstNearestRank(t *testing.T) {
	for name, samples := range sampleSets() {
		var h Hist
		var sum time.Duration
		for _, d := range samples {
			h.Observe(d)
			sum += d
		}
		sorted := slices.Clone(samples)
		slices.Sort(sorted)
		if h.Count != uint64(len(samples)) || h.Sum != sum || h.Min != sorted[0] || h.Max != sorted[len(sorted)-1] || h.Mean() != sum/time.Duration(len(samples)) {
			t.Errorf("%s: count %d sum %v min %v max %v mean %v are not exact", name, h.Count, h.Sum, h.Min, h.Max, h.Mean())
		}
		for _, p := range []int{50, 95, 99} {
			exact, got := percentile(sorted, p), h.Quantile(float64(p)/100)
			if (got - exact).Abs() > widthAt(exact) {
				t.Errorf("%s: p%d = %v, want within %v of %v", name, p, got, widthAt(exact), exact)
			}
		}
	}
}

// TestHistAddIsObservingTheUnion: merging is exact, not approximate — the sum
// of two histograms is the histogram of both sample sets, field for field and
// bucket for bucket, whichever side is folded into which.
func TestHistAddIsObservingTheUnion(t *testing.T) {
	sets := sampleSets()
	var a, b, both Hist
	for _, d := range sets["uniform"] {
		a.Observe(d)
		both.Observe(d)
	}
	for _, d := range sets["bimodal"] {
		b.Observe(d)
		both.Observe(d)
	}
	ab, ba := a, b
	ab.Add(b)
	ba.Add(a)
	if ab != both || ba != both {
		t.Fatal("a.Add(b) differs from observing both sample sets into one Hist")
	}
}

// TestHistSingleSample: the [Min, Max] clamp makes one sample its own every
// quantile, to the nanosecond.
func TestHistSingleSample(t *testing.T) {
	for _, d := range []time.Duration{0, 7, 100, 3 * time.Millisecond, 270 * time.Millisecond, math.MaxInt64} {
		var h Hist
		h.Observe(d)
		for _, q := range []float64{0.001, 0.5, 0.95, 0.99, 1} {
			if got := h.Quantile(q); got != d {
				t.Errorf("one sample of %v: Quantile(%v) = %v", d, q, got)
			}
		}
	}
}

// TestHistOctaves: the cumulative view runs from the octave holding Min to
// the one holding Max, never decreases, ends at Count, and every edge is the
// largest duration its octave holds.
func TestHistOctaves(t *testing.T) {
	var h Hist
	for _, d := range []time.Duration{0, 20 * time.Microsecond, 20 * time.Microsecond, 270 * time.Millisecond} {
		h.Observe(d)
	}
	var prevLe time.Duration
	var prev uint64
	n := 0
	for le, cum := range h.Octaves {
		if n == 0 && (le != 7 || cum != 1) {
			t.Errorf("first octave le %v cum %d, want 7ns holding the zero sample", le, cum)
		}
		if n > 0 && (le <= prevLe || cum < prev || uint64(le+1)&uint64(le) != 0) {
			t.Errorf("octave %d: le %v cum %d after le %v cum %d", n, le, cum, prevLe, prev)
		}
		if (le >= 20*time.Microsecond) != (cum >= 3) {
			t.Errorf("le %v holds %d samples", le, cum)
		}
		prevLe, prev, n = le, cum, n+1
	}
	if prev != h.Count || prevLe < 270*time.Millisecond || prevLe >= 2*270*time.Millisecond {
		t.Errorf("last octave le %v cum %d, want the one holding 270ms and all %d samples", prevLe, prev, h.Count)
	}
	for range (Hist{}).Octaves {
		t.Error("an empty histogram has no octaves")
	}
}

// TestHistObserveAllocs: recording is an index and four adds.
func TestHistObserveAllocs(t *testing.T) {
	var h Hist
	d := time.Duration(1)
	if a := testing.AllocsPerRun(1000, func() { h.Observe(d); d = (3*d + 1) % (10 * time.Second) }); a != 0 {
		t.Fatalf("Observe allocated %.1f per op, want 0", a)
	}
}

// TestDistributionMemoryIsFixed: a service class, a fan-out bucket and a
// trace stage each take a million samples without allocating after the first
// (the per-op slices they replace grew 8 MB apiece here).
func TestDistributionMemoryIsFixed(t *testing.T) {
	var s Service
	stages := NewStageStats([]string{"order"})
	d := time.Duration(0)
	record := func() {
		d += 997 * time.Nanosecond
		s.RecordOutcome(2, d, true)
		s.RecordClassOutcome("write", d, true)
		stages.Observe(0, d)
	}
	record()
	if a := testing.AllocsPerRun(1_000_000, record); a != 0 {
		t.Fatalf("steady-state recording allocated %.2f per op, want 0", a)
	}
	st := s.Snapshot()
	if n := st.ByFanout[2].Count; n != 1_000_002 || st.ByClass["write"].Count != n || stages.Snapshot()[0].Count != uint64(n) {
		t.Fatalf("counts %d / %d / %d, want 1000002 each", n, st.ByClass["write"].Count, stages.Snapshot()[0].Count)
	}
}

// snapshotWhileRecording runs 8 recorders of perWorker samples each beside a
// goroutine that calls count() — a Snapshot — in a loop. Every snapshot's
// count must be monotone and the last one must equal the samples recorded.
// Under -race it also pins that snapshots read only what they copied under
// the lock.
func snapshotWhileRecording(t *testing.T, record func(time.Duration), count func() uint64) {
	const workers, perWorker = 8, 2000
	var wg sync.WaitGroup
	var done atomic.Bool
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				record(time.Duration(w*perWorker+i) * time.Microsecond)
			}
		}()
	}
	snapshots := make(chan struct{})
	go func() {
		defer close(snapshots)
		var prev uint64
		for !done.Load() {
			n := count()
			if n < prev {
				t.Errorf("snapshot count went from %d to %d", prev, n)
			}
			prev = n
		}
	}()
	wg.Wait()
	done.Store(true)
	<-snapshots
	if n := count(); n != workers*perWorker {
		t.Fatalf("final count %d, want %d", n, workers*perWorker)
	}
}

func TestStageStatsSnapshotWhileObserving(t *testing.T) {
	s := NewStageStats([]string{"enqueue", "order"})
	snapshotWhileRecording(t,
		func(d time.Duration) { s.Observe(1, d) },
		func() uint64 {
			sums := s.Snapshot()
			if len(sums) == 0 {
				return 0
			}
			if sums[0].Name != "order" || sums[0].P50 > sums[0].P99 || sums[0].P99 > sums[0].Max {
				t.Errorf("inconsistent stage summary %+v", sums[0])
			}
			return sums[0].Count
		})
}

func TestServiceSnapshotWhileRecording(t *testing.T) {
	var s Service
	snapshotWhileRecording(t,
		func(d time.Duration) {
			s.RecordOutcome(1, d, true)
			s.RecordClassOutcome("write", d, true)
		},
		func() uint64 {
			st := s.Snapshot()
			if one := st.ByFanout[1]; one.P50 > one.P99 || one.P99 > one.Max || st.ByClass["write"].Count > int(st.Ops) {
				t.Errorf("inconsistent service snapshot %+v", st)
			}
			return uint64(st.ByFanout[1].Count)
		})
}
