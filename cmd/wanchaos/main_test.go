package main

import (
	"flag"
	"io"
	"testing"

	"wanamcast/internal/config/configtest"
)

// TestCIInvocations: every wanchaos command line in ci.yml parses and
// validates, or is rejected where CI expects exit 2.
func TestCIInvocations(t *testing.T) {
	configtest.Run(t, "wanchaos", func(fs *flag.FlagSet, args []string) error {
		_, err := parseFlags(fs, args)
		return err
	})
}

// TestNoDiskOrLeaseFlags: wanchaos leaves out of the shared binder the
// knobs it decides itself, so they are unknown flags, not ignored ones.
func TestNoDiskOrLeaseFlags(t *testing.T) {
	for _, args := range [][]string{{"-datadir", "/tmp/x"}, {"-leasems", "250"}, {"-benchjson", "b.json"}} {
		fs := flag.NewFlagSet("wanchaos", flag.ContinueOnError)
		fs.SetOutput(io.Discard)
		if _, err := parseFlags(fs, args); err == nil {
			t.Errorf("wanchaos %v: accepted", args)
		}
	}
}
