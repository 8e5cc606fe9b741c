// Command bench is the repository's one benchmark: six named workloads
// over the live TCP cluster, the KV service and the simulator, end-to-end
// metrics reported against the paper's latency floor, and per-layer
// metrics read from outside the program. README.md in this directory has
// the rationale; BENCHMARK.json at the repository root is the contract
// the driver runs it under.
//
//	go run -C bench . -workload <name|all> -seed N [-seconds S] [-trace 0|1] [-repeat K] [-out FILE]
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strings"
	"time"
)

func main() {
	var (
		workload = flag.String("workload", "all", "workload to run: "+strings.Join(workloadNames(), ", ")+", or all")
		seed     = flag.Int64("seed", 1, "seed of the generated inputs: the same seed gives the same schedule and destination sets")
		seconds  = flag.Float64("seconds", defaultSeconds, "length of the measured window")
		traced   = flag.Int("trace", 0, "1 adds a traced run and the layer drivers, and reports the per-layer metrics")
		repeat   = flag.Int("repeat", 1, "run the selection this many times, each run a process of its own, with seeds seed, seed+1, ..., and report each metric's spread")
		out      = flag.String("out", "", "append one JSON record per run to this file")
		contract = flag.Bool("contract", false, "print BENCHMARK.json as this binary defines it, and exit")
	)
	flag.Parse()
	if *contract {
		os.Stdout.Write(contractJSON())
		return
	}
	if flag.NArg() > 0 || *seconds <= 0 || *repeat < 1 || (*traced != 0 && *traced != 1) {
		flag.Usage()
		os.Exit(2)
	}
	var selected []workloadDef
	if *workload == "all" {
		selected = workloads
	} else if w, ok := workloadByName(*workload); ok {
		selected = []workloadDef{w}
	} else {
		fmt.Fprintf(os.Stderr, "bench: unknown workload %q (have %s, all)\n", *workload, strings.Join(workloadNames(), ", "))
		os.Exit(2)
	}
	window := time.Duration(*seconds * float64(time.Second))

	if *repeat > 1 {
		if err := repeatRuns(selected, *seed, *seconds, *traced, *repeat, *out); err != nil {
			fmt.Fprintf(os.Stderr, "bench: %v\n", err)
			os.Exit(1)
		}
		return
	}
	ok := true
	var last *result
	for _, w := range selected {
		res, err := measure(w, *seed, window, *traced == 1)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: %s: %v\n", w.name, err)
			os.Exit(1)
		}
		res.print(os.Stdout)
		if *out != "" {
			if err := res.appendTo(*out, *seed, window); err != nil {
				fmt.Fprintf(os.Stderr, "bench: %v\n", err)
				os.Exit(1)
			}
		}
		ok = ok && res.Correct
		last = res
	}
	// The driver runs one workload and reads the last line.
	line, _ := json.Marshal(last.driverLine())
	fmt.Println(string(line))
	if !ok {
		os.Exit(1)
	}
}

// repeatRuns measures run-to-run spread the way the driver does: every
// run is a process of its own (a process that has already run a workload
// carries its heap and its stopped clusters' timers into the next), set k
// uses seed+k, and every other set starts from the other end.
func repeatRuns(selected []workloadDef, seed int64, seconds float64, traced, sets int, out string) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	tmp, err := os.CreateTemp(outDir, "repeat-*.jsonl")
	if err != nil {
		return err
	}
	tmp.Close()
	defer os.Remove(tmp.Name())
	var records []record
	for k := 0; k < sets; k++ {
		order := selected
		if k%2 == 1 {
			order = reversed(selected)
		}
		for _, w := range order {
			cmd := exec.Command(self, "-workload", w.name, "-seed", fmt.Sprint(seed+int64(k)),
				"-seconds", fmt.Sprint(seconds), "-trace", fmt.Sprint(traced), "-out", tmp.Name())
			cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
			if err := cmd.Run(); err != nil {
				return fmt.Errorf("set %d, %s: %w", k+1, w.name, err)
			}
		}
	}
	data, err := os.ReadFile(tmp.Name())
	if err != nil {
		return err
	}
	for _, line := range strings.Split(strings.TrimSpace(string(data)), "\n") {
		var rec record
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			return fmt.Errorf("run record: %w", err)
		}
		records = append(records, rec)
	}
	if out != "" {
		if err := appendFile(out, data); err != nil {
			return err
		}
	}
	return printSpread(os.Stdout, records)
}

func workloadNames() []string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return names
}

func reversed(ws []workloadDef) []workloadDef {
	out := make([]workloadDef, len(ws))
	for i, w := range ws {
		out[len(ws)-1-i] = w
	}
	return out
}

// result is one workload's run, reduced to metrics.
type result struct {
	Workload  string
	Traced    bool
	Correct   bool
	Attempted int
	Failed    int
	Problems  []string
	// Invalid says why the run's latencies cannot be trusted although
	// every output was correct: the generator, not the system, was late.
	// Such a run is to be repeated, not read as a slow one.
	Invalid  string
	endToEnd values // the gated metrics, always from an untraced run
	named    values // the issue's metrics about one kind of op, from the same run
	layers   values // every per-layer metric, with -trace 1
}

// validAttempts is how often an open-loop run is made before a late
// generator is accepted as this run's condition.
const validAttempts = 2

// measure runs one workload: the untraced run every end-to-end number
// comes from and, when layers is set, a second traced run and the layer
// drivers for the per-layer numbers.
func measure(w workloadDef, seed int64, window time.Duration, layers bool) (*result, error) {
	runOnce := func(traced bool) (*run, error) {
		if w.live {
			return runLive(w, seed, window, traced, layers)
		}
		return runSim(seed, window)
	}
	// A run whose generator was late is invalid, not slow: the driver's
	// result line has no field to say so, so the seed is run again and the
	// first valid run counts. After validAttempts the last is reported and
	// marked. An attempt that fails the correctness gate is reported as it
	// is: a wrong output is not retried away.
	var plain *run
	invalid := ""
	for attempt := 1; attempt <= validAttempts; attempt++ {
		var err error
		if plain, err = runOnce(false); err != nil {
			return nil, err
		}
		invalid = plain.generatorInvalid()
		if invalid == "" || len(plain.problems) > 0 || plain.failures() > 0 {
			break
		}
		fmt.Fprintf(os.Stderr, "bench: %s: attempt %d is invalid, not slow: %s\n", w.name, attempt, invalid)
	}
	if err := plain.repeatSetups(seed); err != nil {
		return nil, err
	}
	res := &result{Workload: w.name, Traced: layers, Attempted: plain.main.sent, Failed: plain.failures(),
		Problems: plain.problems, Invalid: invalid}
	res.endToEnd, res.named = plain.endToEndValues()
	if layers {
		var traced *run
		if w.live {
			var err error
			if traced, err = runOnce(true); err != nil {
				return nil, fmt.Errorf("traced run: %w", err)
			}
			for _, p := range traced.problems {
				res.Problems = append(res.Problems, "traced run: "+p)
			}
			if n := traced.failures(); n > 0 {
				res.Problems = append(res.Problems, fmt.Sprintf("traced run: %d ops failed", n))
			}
		}
		drivers, err := runDrivers(seed)
		if err != nil {
			return nil, err
		}
		if w.name == "lan-sat" {
			base, err := runLive(singleNode, seed, window/4, false, false)
			if err != nil {
				return nil, fmt.Errorf("single-node baseline: %w", err)
			}
			drivers.set("baseline.single_node_ops_per_s", float64(base.completed())/base.window.Seconds(), "1 shard × 1 replica, same load")
		}
		res.layers = perLayerValues(plain, traced, drivers, res.named)
	}
	if res.Failed > 0 {
		res.Problems = append(res.Problems, fmt.Sprintf("%d of %d ops failed", res.Failed, res.Attempted))
	}
	res.Correct = len(res.Problems) == 0
	return res, nil
}

// lateLimit is how late, at the tail, the open-loop generator may send
// before its latencies stop meaning what they say.
const lateLimit = 2 * time.Millisecond

// lateTail is the tail of how long after schedule the generator sent.
func (r *run) lateTail() (v, pct float64) {
	late := make([]float64, 0, len(r.main.samples))
	for _, s := range r.main.samples {
		late = append(late, ms(s.late))
	}
	return newDist(late).tail()
}

// generatorInvalid explains why an open-loop run's numbers cannot be
// trusted: the generator, not the system, was late.
func (r *run) generatorInvalid() string {
	if r.w.rate == 0 || len(r.main.samples) == 0 {
		return ""
	}
	if v, pct := r.lateTail(); v > ms(lateLimit) {
		return fmt.Sprintf("the generator sent %.2f ms after schedule at p%.4g (limit %v)", v, pct, lateLimit)
	}
	return ""
}

// print writes every metric the run measured as "workload metric value
// unit": the gated end-to-end metrics, the named ones the workload has,
// and with -trace 1 the per-layer metrics.
func (res *result) print(w *os.File) {
	line := func(def metricDef, v value) {
		s := fmt.Sprintf("%s %s %.6g %s", res.Workload, def.name, v.v, def.unit)
		if v.note != "" {
			s += "  # " + v.note
		}
		fmt.Fprintln(w, s)
	}
	for _, def := range endToEnd {
		line(def, res.endToEnd[def.name])
	}
	for _, def := range named {
		if v, ok := res.named[def.name]; ok {
			line(def, v)
		}
	}
	if res.Traced {
		for _, def := range layerMetrics {
			line(def, res.layers[def.name])
		}
	}
	for _, p := range res.Problems {
		fmt.Fprintf(w, "%s PROBLEM %s\n", res.Workload, p)
	}
	if res.Invalid != "" {
		fmt.Fprintf(w, "%s INVALID, not slow: %s\n", res.Workload, res.Invalid)
	}
}

type metricJSON struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type driverJSON struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]metricJSON `json:"metrics"`
}

// driverLine is the one JSON object BENCHMARK.json's contract asks for:
// every end-to-end metric of an untraced run, every per-layer metric of a
// traced one.
func (res *result) driverLine() driverJSON {
	line := driverJSON{Correct: res.Correct, Attempted: res.Attempted, Failed: res.Failed,
		Metrics: make(map[string]metricJSON)}
	defs, vs := endToEnd, res.endToEnd
	if res.Traced {
		defs, vs = perLayer, res.layers
	}
	for _, def := range defs {
		line.Metrics[def.name] = metricJSON{Value: vs[def.name].v, Unit: def.unit}
	}
	return line
}

// record is what -out appends: the driver line stamped with the box and
// the run's settings, so a number is never compared across machines by
// accident.
type record struct {
	Workload string     `json:"workload"`
	Seed     int64      `json:"seed"`
	Seconds  float64    `json:"seconds"`
	Traced   bool       `json:"traced"`
	Box      box        `json:"box"`
	Result   driverJSON `json:"result"`
	// Named are the untraced run's metrics about one kind of op, which
	// the driver line carries only with -trace 1.
	Named    map[string]metricJSON `json:"named,omitempty"`
	Problems []string              `json:"problems,omitempty"`
	Invalid  string                `json:"invalid,omitempty"`
	At       string                `json:"at"`
}

type box struct {
	Cores      int     `json:"cores"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	Go         string  `json:"go"`
	Commit     string  `json:"commit"`
	WANDelayMS float64 `json:"wan_delay_ms"`
}

func (res *result) appendTo(path string, seed int64, window time.Duration) error {
	w, _ := workloadByName(res.Workload)
	commit := "unknown" // the driver's checkout is not a git repository
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		commit = strings.TrimSpace(string(out))
	}
	rec := record{
		Workload: res.Workload, Seed: seed, Seconds: window.Seconds(), Traced: res.Traced,
		Box: box{Cores: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), Go: runtime.Version(),
			Commit: commit, WANDelayMS: ms(w.wan)},
		Result: res.driverLine(), Problems: res.Problems, Invalid: res.Invalid, At: time.Now().UTC().Format(time.RFC3339),
	}
	if !res.Traced {
		rec.Named = make(map[string]metricJSON)
		for _, def := range named {
			if v, ok := res.named[def.name]; ok {
				rec.Named[def.name] = metricJSON{Value: v.v, Unit: def.unit}
			}
		}
	}
	line, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	return appendFile(path, append(line, '\n'))
}

func appendFile(path string, data []byte) error {
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// printSpread reports, per workload and metric, the quartiles and the
// interquartile spread over the repeated runs, against the bound
// BENCHMARK.json fixes: what the driver computes before it accepts the
// benchmark. Runs marked invalid are listed and left out.
func printSpread(w *os.File, records []record) error {
	bounds, err := boundsFromContract()
	if err != nil {
		return err
	}
	byWorkload := make(map[string][]record)
	for _, r := range records {
		if r.Invalid != "" {
			fmt.Fprintf(w, "%s seed %d left out: INVALID, not slow: %s\n", r.Workload, r.Seed, r.Invalid)
			continue
		}
		byWorkload[r.Workload] = append(byWorkload[r.Workload], r)
	}
	defs := perLayer
	if !records[0].Traced {
		defs = append(append([]metricDef(nil), endToEnd...), named...)
	}
	fmt.Fprintf(w, "%-14s %-30s %12s %12s %12s %8s %6s\n", "workload", "metric", "q1", "median", "q3", "spread", "bound")
	for _, wl := range workloads {
		for _, def := range defs {
			var xs []float64
			for _, r := range byWorkload[wl.name] {
				if m, ok := r.Result.Metrics[def.name]; ok {
					xs = append(xs, m.Value)
				} else if m, ok := r.Named[def.name]; ok {
					xs = append(xs, m.Value)
				}
			}
			if len(xs) == 0 {
				continue
			}
			q1, q2, q3 := quartiles(xs)
			sp, verdict := spread(xs), ""
			bound, gated := bounds[def.name]
			switch {
			case !gated:
				verdict = "not gated"
			case def.name != "setup_s" && sp > bound:
				verdict = "UNSTEADY: spread above the bound"
			case def.name != "setup_s" && sp > bound/3:
				verdict = "above a third of the bound"
			}
			fmt.Fprintf(w, "%-14s %-30s %12.6g %12.6g %12.6g %7.1f%% %5.0f%% %s\n",
				wl.name, def.name, q1, q2, q3, 100*sp, 100*bound, verdict)
		}
	}
	return nil
}

// contractPath is BENCHMARK.json as seen from the benchmark's directory,
// where `go run -C bench .` runs it.
const contractPath = "../BENCHMARK.json"

// boundsFromContract reads the end-to-end bounds out of BENCHMARK.json.
func boundsFromContract() (map[string]float64, error) {
	data, err := os.ReadFile(contractPath)
	if err != nil {
		return nil, fmt.Errorf("-repeat compares against BENCHMARK.json: %w", err)
	}
	var contract struct {
		EndToEnd []struct {
			Name  string  `json:"name"`
			Bound float64 `json:"bound"`
		} `json:"end_to_end"`
	}
	if err := json.Unmarshal(data, &contract); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	bounds := make(map[string]float64)
	for _, m := range contract.EndToEnd {
		bounds[m.Name] = m.Bound
	}
	return bounds, nil
}

// contractJSON renders BENCHMARK.json from the tables in spec.go, so the
// file the driver reads and the metrics the binary prints cannot drift.
func contractJSON() []byte {
	type workloadJSON struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type gatedJSON struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	type layerJSON struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	var c struct {
		Command    []string       `json:"command"`
		Paths      []string       `json:"paths"`
		RunSeconds int            `json:"run_seconds"`
		Workloads  []workloadJSON `json:"workloads"`
		EndToEnd   []gatedJSON    `json:"end_to_end"`
		PerLayer   []layerJSON    `json:"per_layer"`
	}
	c.Command = []string{"go", "run", "-C", "bench", "."}
	c.Paths = []string{"bench"}
	c.RunSeconds = defaultSeconds
	for _, w := range workloads {
		c.Workloads = append(c.Workloads, workloadJSON{w.name, w.why})
	}
	for _, m := range endToEnd {
		c.EndToEnd = append(c.EndToEnd, gatedJSON{m.name, m.unit, m.better, m.bound})
	}
	for _, m := range perLayer {
		c.PerLayer = append(c.PerLayer, layerJSON{m.name, m.unit, m.better})
	}
	out, err := json.MarshalIndent(c, "", "  ")
	if err != nil {
		panic(err) // plain strings and numbers always marshal
	}
	return append(out, '\n')
}
