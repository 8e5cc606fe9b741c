package metrics

import (
	"runtime"
	rtmetrics "runtime/metrics"
	"time"
)

// ResourceSample is one measured run of a workload function: how long it
// took, how much it allocated, and how large the heap grew while it ran.
// The scale sweeps report these per topology shape so a scheduler or
// fast-path regression shows up as a number, not a feeling.
type ResourceSample struct {
	Wall     time.Duration // wall-clock elapsed
	Mallocs  uint64        // heap allocations performed by fn
	PeakHeap uint64        // max observed live-heap bytes during fn
}

// AllocsPer divides the allocation count over n events (0 on an empty run).
func (r ResourceSample) AllocsPer(n uint64) float64 {
	if n == 0 {
		return 0
	}
	return float64(r.Mallocs) / float64(n)
}

// PerSec divides n events over the elapsed wall clock (0 on a zero-length run).
func (r ResourceSample) PerSec(n uint64) float64 {
	if r.Wall <= 0 {
		return 0
	}
	return float64(n) / r.Wall.Seconds()
}

// MeasureResources runs fn and samples its resource footprint. Allocation
// counts come from runtime.MemStats deltas around the call; the peak heap
// is tracked by a background sampler reading the live-heap bytes (HeapAlloc,
// from runtime/metrics, which stops no world) every few milliseconds, plus
// one final post-run reading, so it is a close lower bound on the true
// maximum, not an exact one. The caller should be the only significant
// allocator while fn runs — the sweeps run one simulated system at a time.
func MeasureResources(fn func()) ResourceSample {
	var before runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)

	heap := []rtmetrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
	stop, peak := make(chan struct{}), make(chan uint64)
	go func() {
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		hi := before.HeapAlloc
		for {
			select {
			case <-stop:
				peak <- hi
				return
			case <-tick.C:
				rtmetrics.Read(heap)
				hi = max(hi, heap[0].Value.Uint64())
			}
		}
	}()

	start := time.Now()
	fn()
	wall := time.Since(start)
	close(stop)

	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	return ResourceSample{
		Wall:     wall,
		Mallocs:  after.Mallocs - before.Mallocs,
		PeakHeap: max(<-peak, after.HeapAlloc),
	}
}
