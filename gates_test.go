package wanamcast

import (
	"bufio"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// gate is one structural count: the matches of pattern in the files under
// paths. A directory contributes its Go files, a named file itself.
type gate struct {
	what    string // what the count guards, and why it is want
	pattern string
	block   string // if set, only lines inside a block opened by a line matching it, up to its "}", count
	paths   []string
	tests   bool     // _test.go files count too
	skip    []string // files and directories that do not count
	want    int
}

// fieldLine matches a line that is neither blank nor a comment: inside a
// struct block, one field declaration.
const fieldLine = `^[ \t]*[^ \t/]`

// gates are the surfaces deleted on purpose, and a few counted ones, that must
// not come back unnoticed.
var gates = []gate{
	// The transport's read path is the only way a frame is read.
	{what: "a batch is no wire value: its registry codec is gone", pattern: `decodeBatchBody|appendBatchBody|decodeBatchInto|Register\[\*Batch\]|Register\(KindBatch`, paths: []string{"."}, tests: true},
	{what: "wire.DecodeFrame is gone", pattern: `func DecodeFrame\(`, paths: []string{"."}, tests: true},
	{what: "the simulator sizes a send from its sub-message, once", pattern: `AppendFrame|FrameValue`, paths: []string{"internal/node"}},
	{what: "DecodeFrameOrBatch is declared, and called only under bench/", pattern: `DecodeFrameOrBatch\(`, paths: []string{"."}, tests: true, skip: []string{"bench"}, want: 1},
	{what: "the svc client reads with Next and a typed decode", pattern: `ReadMsg\(`, paths: []string{"internal/svc/client.go"}},

	// What the CI Size step counts as "expected 0" (and two it expects once).
	{what: "the deleted chaos command", pattern: `wan[c]haos`, paths: []string{".", ".github/workflows/ci.yml", ".gitignore"}, tests: true},
	{what: "the deleted Fritzke knobs: the [5] pipeline is amcast.NewFritzke", pattern: `SkipStages|RMMode|LabelPrefix`, paths: []string{"."}},
	{what: "the deleted wire skip table: the ordering core carries payloads as bytes", pattern: `RegisterSkip|SkipValue|SkipValidates`, paths: []string{"."}},
	{what: "a payload typed as any in the ordering core: it is []byte from cast to delivery", pattern: `(?i)payload any`,
		paths: []string{"internal/rmcast", "internal/amcast", "internal/abcast", "internal/group", "internal/durable", "internal/baseline"}},
	{what: "the retired transport knobs, the sim's lane accounting and the two never-set hooks", pattern: `\b(InboxSize|SendQueue|FlushEvery|CompressMin|SetLanes|LaneStats|PairDelay|Healthy)\b`, paths: []string{"."}},
	{what: "svc.ClientConfig.DialTimeout and SeqBcastConfig.Sequencer, which nothing set", pattern: `cfg\.DialTimeout|DialTimeout +time|Sequencer: |cfg\.Sequencer`, paths: []string{"internal/svc", "internal/baseline"}},
	{what: "the per-delivery cast record: Collector.Deliveries is gone", pattern: `func \(c \*Collector\) Deliveries|\[\]Delivery\b`, paths: []string{"internal/metrics"}},
	{what: "the live cluster's count table, svc's three attach methods and second cluster interface, the optional store interface", pattern: `countOrder|countBound|OnDeliverAt|SetDeliverAt|RegisterSnapshot|DurableCluster|SyncStore`, paths: []string{"."}},
	{what: "svc's ReadTimeout: it is the readTimeout constant", pattern: `ReadTimeout`, paths: []string{"internal/svc"}},
	{what: "a session's dedup window held in a map: it is a ring", pattern: `applied map\[`, paths: []string{"internal/svc"}},
	{what: "a boxed receive method: a protocol, a test's too, lists typed handlers", pattern: `Receive\(from types\.ProcessID, body any\)`, paths: []string{"."}, tests: true},
	{what: "the deleted heartbeat and lease-grant pools", pattern: `hbPool|lgPool`, paths: []string{"."}},
	{what: "body any fields in tcp: a self-send rides a node.Slot, no copy is boxed", pattern: `^\s+body +any`, paths: []string{"internal/transport/tcp"}},
	{what: "a per-frame send queue: a link holds encoded frames", pattern: `outFrame`, paths: []string{"internal/transport/tcp"}},
	{what: "node.API and node.Registrar: a protocol holds the *node.Proc it runs on", pattern: `type (API|Registrar) interface`, paths: []string{"internal/node"}, tests: true},
	{what: "node.API and node.Registrar, named", pattern: `node\.(API|Registrar)\b`, paths: []string{"."}},
	{what: "the simulator's deleted call event: a crash suspicion is a plain event", pattern: `CallAfter|evCall`, paths: []string{"."}, tests: true},
	{what: "a second service command parser: commands reads every delivered cast", pattern: `func parseCommand\(`, paths: []string{"."}},
	{what: "a goroutine per reply: a reply is a post to the connection's writer", pattern: `go s\.(reply|writeMsg)\(`, paths: []string{"internal/svc/svc.go"}},
	{what: "the deleted A2 ablation knobs: the predictor's patience is Pipeline rounds", pattern: `AlwaysOn|KeepAliveRounds|A2KeepAlive`, paths: []string{"."}},
	{what: "benchjson: bench/ is the one place a run becomes a record", pattern: `(?i)benchjson`, paths: []string{"."}},
	{what: "OnSend methods: metrics.Collector's, the recorder chain is gone", pattern: `^func \(.*\) OnSend\(`, paths: []string{"."}, skip: []string{"bench"}, want: 1},
	{what: "the deleted distribution holders: metrics.Hist is the one way", pattern: `LatenessHist|LatenessBounds`, paths: []string{"."}, tests: true, skip: []string{"bench"}},
	{what: "NewStageStats takes no reservoir size", pattern: `^func NewStageStats\(names \[\]string\) `, paths: []string{"internal/metrics/stages.go"}, want: 1},
	{what: "a sort in a file that holds a distribution", pattern: `sort\.|slices\.Sort`, paths: []string{"internal/metrics/stages.go", "internal/metrics/hist.go"}},

	// What the CI Size step counted as "expected N": each a surface a change
	// may grow only on purpose, by moving want here.
	{what: "Collector On… declarations: nine that do more than count, plus the three fd.Observer one-liners", pattern: `^func \(c \*Collector\) On`, paths: []string{"."}, skip: []string{"bench"}, want: 12},
	{what: "_total series telemetry.go writes by hand: the derived won-proposal count and the per-degree map", pattern: `(emit|Fprintf)\(.*_total`, paths: []string{"internal/harness/telemetry.go"}, want: 2},
	{what: "field declarations of config.Config (= LiveConfig), harness.Options (= wanamcast.Config) and tcp.Config; the root package declares none", pattern: fieldLine, block: `^type (Config|Options) struct`,
		paths: []string{"internal/config/config.go", "internal/harness/harness.go", "internal/transport/tcp/tcp.go", "wanamcast.go"}, want: 42},
	{what: "flag registrations of the commands and the packages they share (examples/ declares its own)", pattern: `\b(flag|fs|all)\.(Bool|Int|Int64|Uint|Uint64|Float64|String|Duration|Func|BoolFunc|TextVar|Var)(Var)?\(`,
		paths: []string{"cmd", "internal", "live.go", "wanamcast.go"}, want: 46},
	{what: "commands: wankv, wannode, wansim (figures is wansim -figures, the fault scenarios are wankv -scenario and wansim -scenario)", pattern: `^func main\(\)`, paths: []string{"cmd"}, want: 3},
	{what: "hand wirings of A1/A2: durable builds both, baseline.NewFritzke the [5] preset", pattern: `(amcast|abcast)\.New(Fritzke)?\(`, paths: []string{"."}, want: 3},
	{what: "field declarations of the A1/A2 config, one group.Config", pattern: fieldLine, block: `^type Config struct`, paths: []string{"internal/group/group.go"}, want: 8},
	{what: "sync.Mutex fields in metrics.go", pattern: `^\s+\w+\s+sync\.Mutex`, paths: []string{"internal/metrics/metrics.go"}, want: 2},
	{what: "sync.Mutex fields in tcp.go: the dispatch path shares no jitter rng", pattern: `^\s+\w+\s+sync\.Mutex`, paths: []string{"internal/transport/tcp/tcp.go"}, want: 5},

	// What nothing set or read: the chaos fabric withholds a link's traffic
	// and changes its delay, nothing else.
	{what: "the fabric's per-link jitter overrides and the live dispatch's rng", pattern: `SetJitter|ClearJitter|jrng|rngMu`, paths: []string{"."}, tests: true},
	{what: "the client-side certificate counters, which no client recorded", pattern: `RecordCertVerify|CertVerifies|CertFailures|cert_(verifies|failures)_total`, paths: []string{"."}, tests: true},
	{what: "a baseline's wire label override: each label is a constant", pattern: `ProtoLabel +string|cfg\.ProtoLabel`, paths: []string{"internal/baseline"}, tests: true},
	{what: "sim.Scheduler.AfterPrio, which had no caller", pattern: `AfterPrio`, paths: []string{"."}},
	{what: "the simulator's copies of ConsensusRetry: only the live config.Config sets it", pattern: `ConsensusRetry`, paths: []string{"internal/harness", "internal/baseline"}},
	{what: "wansim's alias flags: -wan, -lan and -d are the one name of each", pattern: `fs\.\w+\(.*"(inter|intra|procs)"`, paths: []string{"cmd/wansim"}},

	// One copy of each fact: one Ω type, one wire byte count, one send record.
	{what: "fd.Detector: *fd.Oracle is the one Ω type, under both runtimes", pattern: `type Detector interface|fd\.Detector`, paths: []string{"."}, tests: true},
	{what: "the fabric's per-link byte counters: metrics' Wire.BytesOut is the one count", pattern: `LinkCounter|BytesByLink|TotalBytes|bwCounters|\.ctr\b`, paths: []string{"."}, tests: true},
	{what: "check.SendRecord: the genuineness check reads metrics.SendEvent", pattern: `SendRecord|func hasPrefix`, paths: []string{"."}, tests: true},
	{what: "a suspicion set, leader rule or subscriber list of the heartbeat detector's own: it embeds an fd.Oracle", pattern: `suspected +map|recomputeLeader|subs +\[\]func`, paths: []string{"internal/transport/tcp/fd.go"}},

	// One delivery path: a typed step under both runtimes.
	{what: "Proc.Tap and the boxed by-type dispatch: node.Deliver is the one step, Runtime.Hook the one test seam", pattern: `\.Tap\(|func \(p \*Proc\) (Tap|Deliver|deliver|handler)\(`, paths: []string{"."}, tests: true},
	{what: "a boxed decode or a dynamic-type lookup in node: a handler is found by its static type", pattern: `DecodeValue|reflect\.TypeOf`, paths: []string{"internal/node"}, tests: true},

	// One durability barrier: Flush, Sync, Maintain, and Sync a store's one fsync.
	{what: "Store.Commit, a second fsync path beside Sync", pattern: `Commit\(\) error`, paths: []string{"internal/storage"}, tests: true},
	{what: "Log.Deferred and Log.Enabled: no layer asks how a log syncs", pattern: `func \(l \*Log\) (Deferred|Enabled)\(|\.Deferred\(\)`, paths: []string{"."}, tests: true},
	{what: "an inline barrier in consensus: afterBarrier parks every reply behind CommitThen", pattern: `c\.log\.Commit\(\)`, paths: []string{"internal/consensus"}},
	{what: "the simulator's closure event: At/After schedule a timer with no owner", pattern: `\bevFn\b|fns +slab`, paths: []string{"internal/sim"}, tests: true},

	// A cast ID is issued once: a durable incarnation keeps incarnations apart.
	{what: "the restart gap, the cold-start flag and the snapshotted allocator: the incarnation number is the one guard against a re-issued cast ID", pattern: `restartSeqGap|ColdStart|sectionAlloc|resumed +bool`, paths: []string{"."}},
	{what: "a cast-ID allocator outside node.Proc.NewCast: durable's, the endpoint's and the baselines' counters", pattern: `castSeq|NextID|nextSeq|seqBits`, paths: []string{"."}},
	{what: "Proc.RecordCast: a caster records its cast by issuing its ID (the checker's and metrics.Service's RecordCast stay)", pattern: `func \(p \*Proc\) RecordCast|\.RecordCast\(id\)`, paths: []string{"."}},

	// A simulated cast at its allocation floor.
	{what: "the GroupSet intern table, state every process shared: a set of a few groups is a value", pattern: `intern[S]et|sets[M]u|max[S]ets|max[S]etKey`, paths: []string{"."}, tests: true},
	{what: "a proposal copied out of a scratch encoding: the Batcher carves it from its slab", pattern: `append\(Value\(nil\), b\.enc`, paths: []string{"internal/consensus"}},

	// One way a live process comes up: a command is a LiveCluster, and only
	// the two cluster wirings build a process host.
	{what: "a command's own transport, store or process host: wannode is a LiveCluster of one process", pattern: `tcp\.New\(|storage\.OpenDisk\(|durable\.New\(`, paths: []string{"cmd"}},
	{what: "a process host built outside the live cluster and the simulated system", pattern: `durable\.New\(`, paths: []string{"."}, skip: []string{"live.go", "internal/harness/harness.go"}},

	// One queue and one flush per service connection.
	{what: "a service connection's second write path, its exported writer loop, the server's writer goroutine and a caller's write deadline: the connection owns its writer and its write timeout, which flush alone sets", pattern: `WriteLoop|writeConn|\bwmu\b|\bwbuf\b|SetWriteDeadline`,
		paths: []string{"internal/transport/tcp/service.go", "internal/svc", "cmd"}, want: 1},
	{what: "a service connection's socket writes: flush's one", pattern: `\.c\.Write\(`, paths: []string{"internal/transport/tcp/service.go"}, want: 1},
}

// TestDeletedSurfacesStayDeleted fails on a gate whose count moved, with the
// lines it counted.
func TestDeletedSurfacesStayDeleted(t *testing.T) {
	for _, g := range gates {
		re := regexp.MustCompile(g.pattern)
		var hits []string
		for _, root := range g.paths {
			err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
				switch {
				case err != nil:
					return err
				case d.IsDir() && (d.Name() == ".git" || slices.Contains(g.skip, path)):
					return filepath.SkipDir
				case d.IsDir() || path == "gates_test.go" || slices.Contains(g.skip, path):
					return nil
				case path != root && (!strings.HasSuffix(path, ".go") || !g.tests && strings.HasSuffix(path, "_test.go")):
					return nil
				}
				lines, err := matching(path, re, g.block)
				hits = append(hits, lines...)
				return err
			})
			if err != nil {
				t.Fatal(err)
			}
		}
		if len(hits) != g.want {
			t.Errorf("%s: %d matches of %q, want %d:\n%s", g.what, len(hits), g.pattern, g.want, strings.Join(hits, "\n"))
		}
	}
}

// matching returns one path:line: text entry per match of re in path; with
// block set, only in the lines between one matching block and its "}".
func matching(path string, re *regexp.Regexp, block string) ([]string, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var open *regexp.Regexp
	if block != "" {
		open = regexp.MustCompile(block)
	}
	var hits []string
	inside := open == nil
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for n := 1; sc.Scan(); n++ {
		line := sc.Text()
		switch {
		case open != nil && open.MatchString(line):
			inside = true
			continue
		case open != nil && line == "}":
			inside = false
		}
		if !inside {
			continue
		}
		for range re.FindAllStringIndex(line, -1) {
			hits = append(hits, fmt.Sprintf("%s:%d: %s", path, n, line))
		}
	}
	return hits, sc.Err()
}
