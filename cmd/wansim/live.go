package main

import (
	"fmt"
	"math/rand"
	"os"
	"time"

	"wanamcast"
	"wanamcast/internal/harness"
	"wanamcast/internal/types"
)

// runLive drives the wansim workload over a real TCP cluster on localhost
// (algorithms a1 and a2 only) instead of the simulator, and prints wall
// throughput.
func runLive(algo harness.Algo, f *flags) {
	if algo != harness.AlgoA1 && algo != harness.AlgoA2 {
		fmt.Fprintf(os.Stderr, "wansim: -live supports a1 and a2 only (got %s)\n", algo)
		os.Exit(1)
	}
	casts, spread := f.casts, f.spread
	l := wanamcast.NewLiveCluster(f.cfg)
	if err := l.Start(); err != nil {
		fmt.Fprintln(os.Stderr, "wansim:", err)
		os.Exit(1)
	}
	defer l.Stop()

	cfg := f.cfg.WithDefaults()
	if *f.telemetry != "" {
		tsrv, err := harness.ServeTelemetry(*f.telemetry, l.TelemetrySource("wansim", nil))
		if err != nil {
			fmt.Fprintln(os.Stderr, "wansim:", err)
			os.Exit(1)
		}
		defer tsrv.Close()
		fmt.Printf("telemetry: http://%s/metrics\n", tsrv.Addr())
	}

	n := cfg.Groups * cfg.PerGroup
	fmt.Printf("live %s: %d groups x %d processes over TCP, wan=%v lan=%v lanes=%d sendqueue=%d flush=%v\n",
		algo, cfg.Groups, cfg.PerGroup, cfg.WANDelay, cfg.LANDelay, cfg.Lanes, cfg.SendQueue, cfg.FlushEvery)
	if cfg.Bandwidth > 0 {
		fmt.Printf("bandwidth      %d B/s per link (heartbeats exempt)\n", cfg.Bandwidth)
	}

	rng := rand.New(rand.NewSource(f.seed))
	period := time.Duration(float64(time.Second) / f.rate)
	begin := time.Now()
	ids := make([]wanamcast.MessageID, 0, casts)
	expected := 0
	for i := 0; i < casts; i++ {
		from := types.ProcessID(rng.Intn(n))
		if algo == harness.AlgoA2 {
			ids = append(ids, l.Broadcast(from, fmt.Sprintf("msg-%d", i)))
			expected += n
		} else {
			dest := pickDest(rng, cfg.Groups, spread)
			ids = append(ids, l.Multicast(from, fmt.Sprintf("msg-%d", i), dest...))
			expected += spread * cfg.PerGroup
		}
		if period > 0 {
			time.Sleep(period)
		}
	}
	for _, id := range ids {
		if !l.WaitDelivered(id, 1, 30*time.Second) {
			fmt.Fprintf(os.Stderr, "wansim: %v not delivered within 30s\n", id)
			os.Exit(1)
		}
	}
	// Drain the fan-out: every cast must reach all of its destinations.
	deadline := time.Now().Add(30 * time.Second)
	delivered := 0
	for time.Now().Before(deadline) {
		delivered = 0
		for _, id := range ids {
			delivered += l.DeliveredCount(id)
		}
		if delivered >= expected {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	elapsed := time.Since(begin)
	if f.verbose {
		for _, d := range l.Deliveries() {
			fmt.Printf("deliver %v at %v t=%v\n", d.ID, d.Process, d.At)
		}
	}
	fmt.Printf("casts          %d (%d deliveries of %d expected)\n", casts, delivered, expected)
	fmt.Printf("wall time      %v\n", elapsed.Round(time.Millisecond))
	fmt.Printf("ordered/sec    %.0f (deliveries/sec %.0f)\n",
		float64(casts)/elapsed.Seconds(), float64(delivered)/elapsed.Seconds())
	if w := l.Stats().Wire; w.BytesOut > 0 && casts > 0 {
		fmt.Printf("wire           %d B out, %.0f B/cast, %.1f frames/write",
			w.BytesOut, float64(w.BytesOut)/float64(casts), w.FramesPerEnvelope())
		if cr := w.CompressionRatio(); cr > 0 {
			fmt.Printf(", compression %.2fx", cr)
		}
		fmt.Println()
	}
	if *f.benchJSON != "" {
		r := l.BenchResult("wansim-live-"+string(algo), casts, elapsed)
		if err := harness.AppendBenchJSON(*f.benchJSON, r); err != nil {
			fmt.Fprintln(os.Stderr, "wansim: benchjson:", err)
			os.Exit(1)
		}
		fmt.Printf("benchjson      appended to %s\n", *f.benchJSON)
	}
}
