package main

import (
	"flag"
	"io"
	"strings"
	"testing"
)

// TestParseFlags: wannode validates through the shared config like every
// command, and the knobs its hand-built endpoints cannot honour are
// unknown flags.
func TestParseFlags(t *testing.T) {
	for args, ok := range map[string]bool{
		"-id 0 -groups 2 -d 2 -datadir /var/lib/wannode-0": true,
		"-id 3 -groups 2 -d 2 -sendqueue 64 -flush 1ms":    true,
		"-id 4 -groups 2 -d 2":                             false,
		"-nofsync":                                         false,
		"-heartbeat 300ms":                                 false,
		"-compressmin 512":                                 false,
		"-port 65535":                                      false,
		"-maxbatch 8":                                      false,
		"-spanbuf 64":                                      false,
		"-telemetry :0":                                    false,
	} {
		fs := flag.NewFlagSet("wannode", flag.ContinueOnError)
		fs.SetOutput(io.Discard)
		if _, err := parseFlags(fs, strings.Fields(args)); (err == nil) != ok {
			t.Errorf("wannode %s: err=%v, want ok=%v", args, err, ok)
		}
	}
}
