package metrics

import "time"

// LatenessBounds are LatenessHist's bucket upper bounds: doubling from
// 50 µs, fine enough to tell a sub-millisecond timer overshoot from a
// scheduling stall. Samples above the last bound fall in one more bucket.
var LatenessBounds = [...]time.Duration{
	50 * time.Microsecond, 100 * time.Microsecond, 200 * time.Microsecond, 400 * time.Microsecond,
	800 * time.Microsecond, 1600 * time.Microsecond, 3200 * time.Microsecond, 6400 * time.Microsecond,
}

// LatenessHist is a fixed-bucket histogram of how late something ran against
// its deadline. The live transport keeps one per lane for its WAN emulator:
// a frame held for the injected link delay is released by a runtime timer,
// and what the timer overshoots is charged to every protocol above it. The
// zero value is ready to use; it is a plain value, so the owner synchronises.
type LatenessHist struct {
	Buckets [len(LatenessBounds) + 1]uint64 // Buckets[i] counts samples <= LatenessBounds[i]; the last one the rest
	Count   uint64
	Sum     time.Duration
}

// Observe records one sample; a negative one (early) counts as zero.
func (h *LatenessHist) Observe(d time.Duration) {
	d = max(d, 0)
	i := 0
	for i < len(LatenessBounds) && d > LatenessBounds[i] {
		i++
	}
	h.Buckets[i]++
	h.Count++
	h.Sum += d
}

// Add folds o into h.
func (h *LatenessHist) Add(o LatenessHist) {
	for i, n := range o.Buckets {
		h.Buckets[i] += n
	}
	h.Count += o.Count
	h.Sum += o.Sum
}

// Mean returns the mean sample (zero when empty).
func (h LatenessHist) Mean() time.Duration {
	if h.Count == 0 {
		return 0
	}
	return h.Sum / time.Duration(h.Count)
}

// Quantile estimates the q-quantile (0 < q <= 1) by interpolating inside the
// bucket that holds it; a quantile in the overflow bucket reports the last
// bound.
func (h LatenessHist) Quantile(q float64) time.Duration {
	if h.Count == 0 {
		return 0
	}
	rank, seen, lo := q*float64(h.Count), 0.0, time.Duration(0)
	for i, bound := range LatenessBounds {
		n := float64(h.Buckets[i])
		if n > 0 && seen+n >= rank {
			return lo + time.Duration(float64(bound-lo)*(rank-seen)/n)
		}
		seen, lo = seen+n, bound
	}
	return lo
}
