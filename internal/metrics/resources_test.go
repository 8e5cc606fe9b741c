package metrics

import (
	"runtime"
	"testing"
	"time"
)

// TestMeasureResourcesSeesALiveAllocation: a buffer that fn keeps live for
// several of the sampler's periods, then frees, shows in the peak heap —
// which the final reading alone would miss — and in the malloc count.
func TestMeasureResourcesSeesALiveAllocation(t *testing.T) {
	const size = 16 << 20
	s := MeasureResources(func() {
		buf := make([]byte, size)
		time.Sleep(30 * time.Millisecond)
		runtime.KeepAlive(buf)
		runtime.GC() // buf is garbage: gone before the final reading
	})
	if s.PeakHeap < size {
		t.Errorf("peak heap %d B, want at least the %d B fn held live", s.PeakHeap, size)
	}
	if s.Mallocs < 1 {
		t.Errorf("%d mallocs, want at least the buffer's", s.Mallocs)
	}
}
