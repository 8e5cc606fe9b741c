package metrics

import (
	"fmt"
	"math"
	"math/bits"
	"time"
)

// The buckets are log-linear over whole nanoseconds: each power-of-two octave
// is cut into histSub equal parts, so a bucket is at most 12.5 % of its lower
// edge wide (values below 2·histSub get one each), and histBuckets of them
// cover every non-negative time.Duration: no overflow bucket hides a stall.
const (
	histSubBits = 3
	histSub     = 1 << histSubBits
	histBuckets = (64 - histSubBits) * histSub
)

// Hist is a distribution of durations in fixed memory (under 4 KB): Count,
// Min and Max are exact, Sum and Mean too until Sum saturates at the largest
// Duration (a lying clock's samples reach it), a quantile is exact to within
// the bucket that holds it, and a.Add(b) is the Hist that observing both
// sample sets would have built. The zero value is ready to use; it is a plain
// value with no lock, so the owner synchronises.
type Hist struct {
	Count    uint64
	Sum      time.Duration
	Min, Max time.Duration
	buckets  [histBuckets]uint64
}

// bucketOf returns the bucket holding v nanoseconds.
func bucketOf(v uint64) int {
	shift := max(bits.Len64(v)-histSubBits-1, 0)
	return shift<<histSubBits + int(v>>shift)
}

// bucketLo returns the smallest value bucket i holds (2^63 for histBuckets).
func bucketLo(i int) uint64 {
	shift := max(i>>histSubBits-1, 0)
	return uint64(i-shift<<histSubBits) << shift
}

// Observe records one sample; a negative one counts as zero.
func (h *Hist) Observe(d time.Duration) {
	d = max(d, 0)
	if h.Count == 0 || d < h.Min {
		h.Min = d
	}
	h.Max = max(h.Max, d)
	h.Count++
	h.Sum = satAdd(h.Sum, d)
	h.buckets[bucketOf(uint64(d))]++
}

// Add folds o into h.
func (h *Hist) Add(o Hist) {
	if o.Count == 0 {
		return
	}
	if h.Count == 0 || o.Min < h.Min {
		h.Min = o.Min
	}
	h.Max = max(h.Max, o.Max)
	h.Count += o.Count
	h.Sum = satAdd(h.Sum, o.Sum)
	for i, n := range o.buckets {
		h.buckets[i] += n
	}
}

// satAdd returns a + b for non-negative a and b, or the largest Duration where
// that would wrap negative (the sum of two fits a uint64).
func satAdd(a, b time.Duration) time.Duration {
	return time.Duration(min(uint64(a)+uint64(b), math.MaxInt64))
}

// Mean returns the mean sample (zero when empty).
func (h Hist) Mean() time.Duration {
	if h.Count == 0 {
		return 0
	}
	return h.Sum / time.Duration(h.Count)
}

// Quantile returns the q-quantile (0 < q <= 1; zero when empty): a point of
// the bucket holding the sample of nearest rank ⌈q·Count⌉, clamped to
// [Min, Max] so that a single sample and the maximum are exact.
func (h Hist) Quantile(q float64) time.Duration {
	if h.Count == 0 {
		return 0
	}
	rank := min(max(uint64(math.Ceil(q*float64(h.Count))), 1), h.Count)
	var seen uint64
	i := bucketOf(uint64(h.Min))
	for seen+h.buckets[i] < rank {
		seen += h.buckets[i]
		i++
	}
	lo, top := bucketLo(i), bucketLo(i+1)-1 // the bucket holds lo..top
	v := lo + uint64(float64(top-lo)*float64(rank-seen)/float64(h.buckets[i]))
	return min(max(time.Duration(min(v, math.MaxInt64)), h.Min), h.Max)
}

// String renders the summary, not the buckets, so a Stats prints readably.
func (h Hist) String() string {
	return fmt.Sprintf("{n=%d sum=%v min=%v p50=%v p99=%v max=%v}", h.Count, h.Sum, h.Min, h.Quantile(0.5), h.Quantile(0.99), h.Max)
}

// Octaves yields, for each octave from the one holding Min to the one holding
// Max, the largest duration it holds and how many samples are at or below it.
func (h Hist) Octaves(yield func(le time.Duration, atOrBelow uint64) bool) {
	if h.Count == 0 {
		return
	}
	var cum uint64
	last := bucketOf(uint64(h.Max)) >> histSubBits
	for oct := bucketOf(uint64(h.Min)) >> histSubBits; oct <= last; oct++ {
		for _, n := range h.buckets[oct*histSub : (oct+1)*histSub] {
			cum += n
		}
		if !yield(time.Duration(bucketLo((oct+1)*histSub)-1), cum) {
			return
		}
	}
}
