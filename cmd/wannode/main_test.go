package main

import (
	"flag"
	"io"
	"strings"
	"testing"
)

// TestParseFlags: wannode validates through the shared config like every
// command and, as a LiveCluster of one process, takes every shared knob;
// the retired transport knobs and another command's -telemetry are unknown
// flags.
func TestParseFlags(t *testing.T) {
	for args, ok := range map[string]bool{
		"-id 0 -groups 2 -d 2 -datadir /var/lib/wannode-0": true,
		"-id 3 -groups 2 -d 2 -wan 20ms -bandwidth 50mbit": true,
		"-sendqueue 64 -flush 1ms":                         false,
		"-id 4 -groups 2 -d 2":                             false,
		"-nofsync":                                         false,
		"-heartbeat 300ms":                                 false,
		"-compressmin 512":                                 false,
		"-port 65535":                                      false,
		"-maxbatch 8":                                      true,
		"-spanbuf 64":                                      true,
		"-telemetry :0":                                    false,
		"-trace":                                           false,
	} {
		fs := flag.NewFlagSet("wannode", flag.ContinueOnError)
		fs.SetOutput(io.Discard)
		if _, err := parseFlags(fs, strings.Fields(args)); (err == nil) != ok {
			t.Errorf("wannode %s: err=%v, want ok=%v", args, err, ok)
		}
	}
}
