package wanamcast

// Live-cluster throughput benchmark: a saturating A2 workload over real
// TCP sockets at the batched engine's MaxBatch=64 setting. Run:
//
//	go test -bench BenchmarkLiveThroughput -benchtime 3x
//
// ordered/s is end-to-end: wall time from the first cast until every
// process has delivered every message. Representative numbers are recorded
// in EXPERIMENTS.md.

import (
	"testing"
	"time"
)

func liveThroughputRun(tb testing.TB, basePort int) float64 {
	tb.Helper()
	l := NewLiveCluster(LiveConfig{
		Groups:           2,
		PerGroup:         3,
		BasePort:         basePort,
		WANDelay:         2 * time.Millisecond,
		MaxBatch:         64,
		Pipeline:         4,
		RetainDeliveries: 256,
	})
	if err := l.Start(); err != nil {
		tb.Fatal(err)
	}
	defer l.Stop()

	const casts = 360
	n := 6 // processes
	ids := make([]MessageID, 0, casts)
	start := time.Now()
	for i := 0; i < casts; i++ {
		ids = append(ids, l.Broadcast(l.Process(GroupID(i%2), i%3), i))
	}
	deadline := time.Now().Add(60 * time.Second)
	for {
		done := true
		for _, id := range ids {
			if l.DeliveredCount(id) < n {
				done = false
				break
			}
		}
		if done {
			break
		}
		if time.Now().After(deadline) {
			tb.Fatal("live throughput run did not complete within 60s")
		}
		time.Sleep(2 * time.Millisecond)
	}
	return float64(casts) / time.Since(start).Seconds()
}

func BenchmarkLiveThroughputWire(b *testing.B) {
	var perSec float64
	for i := 0; i < b.N; i++ {
		perSec = liveThroughputRun(b, 26000)
	}
	b.ReportMetric(perSec, "ordered/s")
	b.ReportMetric(perSec*6, "deliveries/s")
}
