package main

import (
	"flag"
	"io"
	"strings"
	"testing"
	"time"

	"wanamcast/internal/config/configtest"
)

// TestCIInvocations: every wankv command line in ci.yml parses and
// validates, or is rejected where CI expects exit 2.
func TestCIInvocations(t *testing.T) {
	configtest.Run(t, "wankv", func(fs *flag.FlagSet, args []string) error {
		_, err := parseFlags(fs, args)
		return err
	})
}

// TestScenarioLoadOverlapsFaults: a scenario's load runs until the
// schedule's last fault has fired. Four clients doing one op each finish
// in milliseconds; without the waves the partition would land on a
// cluster that had already stopped, and the run would pass without having
// met a single fault.
func TestScenarioLoadOverlapsFaults(t *testing.T) {
	fs := flag.NewFlagSet("wankv", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	f, err := parseFlags(fs, strings.Fields("-groups 2 -d 3 -wan 1ms -clients 4 -ops 1 -check "+
		"-scenario partition-heal -unit 100ms -port 27800 -svcport 27850"))
	if err != nil {
		t.Fatal(err)
	}
	begin := time.Now()
	if code := run(f); code != 0 {
		t.Fatalf("run exited %d", code)
	}
	if took := time.Since(begin); took < f.sc.Horizon() {
		t.Fatalf("run took %v, less than the scenario's %v horizon: the load ended before the faults", took, f.sc.Horizon())
	}
}
