package main

import (
	"flag"
	"io"
	"strings"
	"testing"

	"wanamcast/internal/config/configtest"
)

// TestCIInvocations: every wansim command line in ci.yml parses and
// validates, or is rejected where CI expects exit 2.
func TestCIInvocations(t *testing.T) {
	configtest.Run(t, "wansim", func(fs *flag.FlagSet, args []string) error {
		_, err := parseFlags(fs, args)
		return err
	})
}

// TestSimNeedsNoPorts: only -live is bound by the live cluster's rules; a
// simulated topology may be far larger than the port space.
func TestSimNeedsNoPorts(t *testing.T) {
	for args, ok := range map[string]bool{
		"-algo a1 -sweep 15000x3 -casts 1":      true,
		"-groups 30000 -procs 2 -casts 0":       true,
		"-groups 30000 -procs 2 -casts 0 -live": false,
		"-groups 0":                             false,
		"-pipeline -1":                          false,
	} {
		fs := flag.NewFlagSet("wansim", flag.ContinueOnError)
		fs.SetOutput(io.Discard)
		if _, err := parseFlags(fs, strings.Fields(args)); (err == nil) != ok {
			t.Errorf("wansim %s: err=%v, want ok=%v", args, err, ok)
		}
	}
}
