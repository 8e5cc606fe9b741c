// Package configtest replays the CI workflow's invocations of a command
// against that command's own flag parser, so a renamed flag, a changed
// default or a dropped validation rule fails `go test ./cmd/...` before it
// fails a CI job. It is a package, not a _test file, because each
// command's parser lives in its own package main.
package configtest

import (
	"flag"
	"io"
	"os"
	"regexp"
	"strings"
	"testing"
)

// Run feeds parse — which registers the command's flags on the FlagSet it
// is handed, parses the arguments and validates the result — every
// `./cmd/<cmd> -…` and `/tmp/<cmd> -…` line of .github/workflows/ci.yml.
// parse must accept the line, or reject it where CI goes on to test
// `[ $? -eq 2 ]`. A shell variable stands in as "1". Run is called from
// cmd/<cmd>, two levels below the workflow.
func Run(t *testing.T, cmd string, parse func(fs *flag.FlagSet, args []string) error) {
	data, err := os.ReadFile("../../.github/workflows/ci.yml")
	if err != nil {
		t.Fatal(err)
	}
	text := strings.ReplaceAll(string(data), "\\\n", " ") // join continuation lines
	invocation := regexp.MustCompile(`(?:\./cmd/|/tmp/)` + cmd + `( +-[^ ;&|>\n]+(?: +[^ ;&|>\n]+)*)(; \[ \$\? -eq 2 \])?`)
	found := invocation.FindAllStringSubmatch(text, -1)
	if len(found) == 0 {
		t.Fatalf("ci.yml never runs %s", cmd)
	}
	for _, m := range found {
		args := strings.Fields(m[1])
		for i, a := range args {
			if strings.HasPrefix(a, "$") {
				args[i] = "1"
			}
		}
		fs := flag.NewFlagSet(cmd, flag.ContinueOnError)
		fs.SetOutput(io.Discard)
		err := parse(fs, args)
		t.Logf("%s %v: %v", cmd, args, err)
		if reject := m[2] != ""; reject != (err != nil) {
			t.Errorf("%s %v: err=%v, want rejected=%v", cmd, args, err, reject)
		}
	}
}
