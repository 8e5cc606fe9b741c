package wanamcast

import (
	"bufio"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// gate is one structural count: the lines that match pattern in the files
// under paths. A directory contributes its Go files, a named file itself.
type gate struct {
	what      string // what the count guards, and why it is want
	pattern   string
	paths     []string
	tests     bool // _test.go files count too
	skipBench bool // files under bench/ do not count
	want      int
}

// gates are the surfaces deleted on purpose, and a few counted ones, that must
// not come back unnoticed.
var gates = []gate{
	// The transport's read path is the only way a frame is read.
	{what: "a batch is no wire value: its registry codec is gone", pattern: `decodeBatchBody|appendBatchBody|decodeBatchInto|Register\[\*Batch\]|Register\(KindBatch`, paths: []string{"."}, tests: true},
	{what: "wire.DecodeFrame is gone", pattern: `func DecodeFrame\(`, paths: []string{"."}, tests: true},
	{what: "the simulator sizes a send from its sub-message, once", pattern: `AppendFrame|FrameValue`, paths: []string{"internal/node"}},
	{what: "DecodeFrameOrBatch is declared, and called only under bench/", pattern: `DecodeFrameOrBatch\(`, paths: []string{"."}, tests: true, skipBench: true, want: 1},
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
	{what: "a boxed receive method: a protocol lists typed handlers", pattern: `Receive\(from types\.ProcessID, body any\)`, paths: []string{"."}},
	{what: "the deleted heartbeat and lease-grant pools", pattern: `hbPool|lgPool`, paths: []string{"."}},
	{what: "body any fields in tcp: the lane's self-send value, the one copy still boxed", pattern: `^\s+body +any`, paths: []string{"internal/transport/tcp"}, want: 1},
	{what: "a per-frame send queue: a link holds encoded frames", pattern: `outFrame`, paths: []string{"internal/transport/tcp"}},
	{what: "node.API and node.Registrar: a protocol holds the *node.Proc it runs on", pattern: `type (API|Registrar) interface`, paths: []string{"internal/node"}, tests: true},
	{what: "node.API and node.Registrar, named", pattern: `node\.(API|Registrar)\b`, paths: []string{"."}},
	{what: "the simulator's deleted call event: a crash suspicion is a plain event", pattern: `CallAfter|evCall`, paths: []string{"."}, tests: true},
	{what: "a second service command parser: commands reads every delivered cast", pattern: `func parseCommand\(`, paths: []string{"."}},
	{what: "a goroutine per reply: a reply is a post to the connection's writer", pattern: `go s\.(reply|writeMsg)\(`, paths: []string{"internal/svc/svc.go"}},
	{what: "the deleted A2 ablation knobs: the predictor's patience is Pipeline rounds", pattern: `AlwaysOn|KeepAliveRounds|A2KeepAlive`, paths: []string{"."}},
	{what: "benchjson: bench/ is the one place a run becomes a record", pattern: `(?i)benchjson`, paths: []string{"."}},
	{what: "OnSend methods: metrics.Collector's, the recorder chain is gone", pattern: `^func \(.*\) OnSend\(`, paths: []string{"."}, skipBench: true, want: 1},
	{what: "the deleted distribution holders: metrics.Hist is the one way", pattern: `LatenessHist|LatenessBounds`, paths: []string{"."}, tests: true, skipBench: true},
	{what: "NewStageStats takes no reservoir size", pattern: `^func NewStageStats\(names \[\]string\) `, paths: []string{"internal/metrics/stages.go"}, want: 1},
	{what: "a sort in a file that holds a distribution", pattern: `sort\.|slices\.Sort`, paths: []string{"internal/metrics/stages.go", "internal/metrics/hist.go"}},
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
				case d.IsDir() && (d.Name() == ".git" || g.skipBench && path == "bench"):
					return filepath.SkipDir
				case d.IsDir() || path == "gates_test.go":
					return nil
				case path != root && (!strings.HasSuffix(path, ".go") || !g.tests && strings.HasSuffix(path, "_test.go")):
					return nil
				}
				lines, err := matching(path, re)
				hits = append(hits, lines...)
				return err
			})
			if err != nil {
				t.Fatal(err)
			}
		}
		if len(hits) != g.want {
			t.Errorf("%s: %d lines match %q, want %d:\n%s", g.what, len(hits), g.pattern, g.want, strings.Join(hits, "\n"))
		}
	}
}

// matching returns path's lines that match re, as path:line: text.
func matching(path string, re *regexp.Regexp) ([]string, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var hits []string
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for n := 1; sc.Scan(); n++ {
		if re.MatchString(sc.Text()) {
			hits = append(hits, fmt.Sprintf("%s:%d: %s", path, n, sc.Text()))
		}
	}
	return hits, sc.Err()
}
