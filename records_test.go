package wanamcast

import (
	"bufio"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"testing"
)

// record is what TestBenchRecordsStamped reads of one line of a committed
// BENCH_*.json trajectory, as `go run -C bench . -workload W -seed N -out F`
// appends it.
type record struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Box      struct {
		Cores      int    `json:"cores"`
		GOMAXPROCS int    `json:"gomaxprocs"`
		Go         string `json:"go"`
		Commit     string `json:"commit"`
	} `json:"box"`
	Result struct {
		Metrics map[string]struct {
			Value float64 `json:"value"`
		} `json:"metrics"`
	} `json:"result"`
}

// TestBenchRecordsStamped: every record of every committed trajectory names
// the box it ran on (cores, GOMAXPROCS, Go version, commit), and the newest
// sim-scale seed-1 record reads the virtual latencies TestSimScaleCountsPinned
// pins the run to, to the µs, so a change that moves virtual time appends a
// record.
func TestBenchRecordsStamped(t *testing.T) {
	files, err := filepath.Glob("BENCH_*.json")
	if err != nil || len(files) == 0 {
		t.Fatalf("no BENCH_*.json trajectory: %v", err)
	}
	commit := regexp.MustCompile(`^[0-9a-f]{7,40}$`)
	var simScale *record
	for _, name := range files {
		f, err := os.Open(name)
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		sc := bufio.NewScanner(f)
		sc.Buffer(nil, 1<<20)
		for n := 1; sc.Scan(); n++ {
			var r record
			if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
				t.Fatalf("%s:%d: %v", name, n, err)
			}
			if b := r.Box; b.Cores <= 0 || b.GOMAXPROCS <= 0 || b.Go == "" || !commit.MatchString(b.Commit) {
				t.Errorf("%s:%d: box stamp %+v lacks cores, gomaxprocs, go or commit", name, n, b)
			}
			if r.Workload == "sim-scale" && r.Seed == 1 {
				simScale = &r
			}
		}
		if err := sc.Err(); err != nil {
			t.Fatal(err)
		}
	}
	if simScale == nil {
		t.Fatal("no sim-scale seed-1 record")
	}
	for metric, wantUS := range map[string]float64{"op_mean_ms": 183767, "op_p99_ms": 230325} {
		if got := math.Round(simScale.Result.Metrics[metric].Value * 1000); got != wantUS {
			t.Errorf("newest sim-scale seed-1 record: %s = %.0f µs, want %.0f µs", metric, got, wantUS)
		}
	}
}
