package main

import (
	"bytes"
	"flag"
	"io"
	"os"
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

// TestSimNeedsNoPorts: wansim validates the model alone — a simulated
// topology may be far larger than the port space — and what only a live
// cluster has (-live itself, the retired -benchjson, sockets, ordering
// lanes, stores, the tracer's outputs) is unknown to it, not accepted and
// ignored. The retired aliases -inter, -intra and -procs are unknown too:
// -wan, -lan and -d are the one name of each.
func TestSimNeedsNoPorts(t *testing.T) {
	for args, ok := range map[string]bool{
		"-algo a1 -sweep 15000x3 -casts 1":  true,
		"-groups 30000 -d 2 -casts 0":       true,
		"-figures -d 5 -wan 50ms":           true,
		"-inter 50ms":                       false,
		"-intra 1ms":                        false,
		"-procs 2":                          false,
		"-groups 0":                         false,
		"-pipeline -1":                      false,
		"-live":                             false,
		"-benchjson f":                      false,
		"-telemetry :0":                     false,
		"-port 1":                           false,
		"-datadir d":                        false,
		"-lanes 4":                          false,
		"-figures -sweep 4x3":               false,
		"-figures -scenario partition-heal": false,
		"-figures -algo all":                false,
	} {
		fs := flag.NewFlagSet("wansim", flag.ContinueOnError)
		fs.SetOutput(io.Discard)
		if _, err := parseFlags(fs, strings.Fields(args)); (err == nil) != ok {
			t.Errorf("wansim %s: err=%v, want ok=%v", args, err, ok)
		}
	}
}

// TestFiguresGolden: -figures at its defaults reproduces the committed
// tables byte for byte (the simulator is deterministic, so any difference
// is a protocol or a formatting change).
func TestFiguresGolden(t *testing.T) {
	want, err := os.ReadFile("testdata/figures.golden")
	if err != nil {
		t.Fatal(err)
	}
	fs := flag.NewFlagSet("wansim", flag.ContinueOnError)
	f, err := parseFlags(fs, []string{"-figures"})
	if err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	figures(&got, f.cfg.PerGroup, f.cfg.WANDelay)
	if !bytes.Equal(got.Bytes(), want) {
		t.Errorf("-figures differs from testdata/figures.golden; got:\n%s", got.Bytes())
	}
}

// TestCompareGolden: the README's -algo all comparison reproduces the table
// recorded before the simulated A1 and A2 processes were built by the
// durable host, byte for byte.
func TestCompareGolden(t *testing.T) {
	want, err := os.ReadFile("testdata/compare.golden")
	if err != nil {
		t.Fatal(err)
	}
	fs := flag.NewFlagSet("wansim", flag.ContinueOnError)
	f, err := parseFlags(fs, strings.Fields("-algo all -groups 3 -casts 30"))
	if err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	compareAll(&got, f)
	if !bytes.Equal(got.Bytes(), want) {
		t.Errorf("-algo all differs from testdata/compare.golden; got:\n%s", got.Bytes())
	}
}
