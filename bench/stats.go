package main

import (
	"math"
	"sort"
	"time"
)

// quantile returns the nearest-rank p-quantile (0 < p <= 1) of sorted.
func quantile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(p * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	return sorted[rank-1]
}

// tailMinBeyond is how many samples must lie beyond a reported tail
// percentile: with fewer, the "percentile" is one or two outliers.
const tailMinBeyond = 10

// tailRank picks the tail percentile a sample of n supports: p99 when at
// least tailMinBeyond samples lie beyond it, otherwise the highest rank
// that still has that many beyond, and never below the median. It returns
// the 1-based rank and the percentile that rank stands for.
func tailRank(n int) (rank int, pct float64) {
	if n == 0 {
		return 0, 0
	}
	rank = int(math.Ceil(0.99 * float64(n)))
	if most := n - tailMinBeyond; rank > most {
		rank = most
	}
	if half := (n + 1) / 2; rank < half {
		rank = half
	}
	return rank, 100 * float64(rank) / float64(n)
}

// dist is a sorted latency sample in milliseconds.
type dist []float64

func newDist(ms []float64) dist {
	sort.Float64s(ms)
	return ms
}

func (d dist) p50() float64 { return quantile(d, 0.5) }

// tail returns the value at tailRank and the percentile it stands for.
func (d dist) tail() (ms, pct float64) {
	rank, pct := tailRank(len(d))
	if rank == 0 {
		return 0, 0
	}
	return d[rank-1], pct
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// mean of xs (0 when empty).
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// median of an unsorted slice (0 when empty); xs is left untouched.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return s[len(s)/2]
}

// quartiles returns Q1, Q2, Q3 with the method of Python's
// statistics.quantiles(xs, n=4) (exclusive), which is what the driver
// uses for the spread; fewer than two values give the value thrice.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0, 0, 0
	}
	if n == 1 {
		return s[0], s[0], s[0]
	}
	at := func(k int) float64 {
		j := k * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(k*(n+1)) - float64(j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(2), at(3)
}

// spread is the interquartile distance as a share of the median.
func spread(xs []float64) float64 {
	q1, q2, q3 := quartiles(xs)
	if q2 == 0 {
		return 0
	}
	return math.Abs(q3-q1) / math.Abs(q2)
}
