package config

import (
	"flag"
	"reflect"
	"strings"
	"testing"
	"time"

	"wanamcast/internal/storage"
	"wanamcast/internal/types"
)

// TestValidate covers every rule of Validate, once each, against the
// smallest change to a valid configuration that breaks it — and the
// neighbouring values that must pass.
func TestValidate(t *testing.T) {
	ms := time.Millisecond
	cases := []struct {
		name string
		edit func(c *Config)
		ok   bool
	}{
		{"defaults", func(c *Config) {}, true},
		{"full", func(c *Config) {
			*c = Config{Groups: 3, PerGroup: 3, BasePort: 22000, WANDelay: time.Second, MaxBatch: 64, Pipeline: 4, Lanes: 2}
		}, true},

		{"zero groups", func(c *Config) { c.Groups = 0 }, false},
		{"negative pergroup", func(c *Config) { c.PerGroup = -2 }, false},
		{"port below 1", func(c *Config) { c.BasePort = -5 }, false},
		{"ports run past 65535", func(c *Config) { c.BasePort = 65533 }, false},
		{"ports end at 65535", func(c *Config) { c.BasePort = 65530 }, true},
		{"default port has no room", func(c *Config) { c.Groups, c.PerGroup = 16000, 3 }, false},

		{"negative wan", func(c *Config) { c.WANDelay = -time.Second }, false},
		{"negative lan", func(c *Config) { c.LANDelay = -1 }, false},

		{"heartbeat below suspicion", func(c *Config) { c.HeartbeatEvery, c.SuspectAfter = 10*ms, 60*ms }, true},
		{"heartbeat equals suspicion", func(c *Config) { c.HeartbeatEvery, c.SuspectAfter = 60*ms, 60*ms }, false},
		{"heartbeat above default suspicion", func(c *Config) { c.HeartbeatEvery = 300 * ms }, false},
		{"suspicion below default heartbeat", func(c *Config) { c.SuspectAfter = 40 * ms }, false},
		{"negative heartbeat", func(c *Config) { c.HeartbeatEvery = -ms }, false},

		{"lease with default skew", func(c *Config) { c.LeaseDuration = 250 * ms }, true},
		{"negative lease", func(c *Config) { c.LeaseDuration = -ms }, false},
		{"negative skew", func(c *Config) { c.LeaseDuration, c.MaxClockSkew = 250*ms, -ms }, false},
		{"skew without lease", func(c *Config) { c.MaxClockSkew = 5 * ms }, false},
		{"skew consumes lease", func(c *Config) { c.LeaseDuration, c.MaxClockSkew = 20*ms, 20*ms }, false},
		{"default skew consumes lease", func(c *Config) { c.LeaseDuration = 10 * ms }, false},

		{"negative pipeline", func(c *Config) { c.Pipeline = -1 }, false},
		{"zero pipeline", func(c *Config) { c.Pipeline = 0 }, true},
		{"negative maxbatch", func(c *Config) { c.MaxBatch = -1 }, false},
		{"negative retry", func(c *Config) { c.ConsensusRetry = -1 }, false},
		{"negative lanes", func(c *Config) { c.Lanes = -1 }, false},

		{"bandwidth", func(c *Config) { c.Bandwidth = 6_250_000 }, true},
		{"negative bandwidth", func(c *Config) { c.Bandwidth = -1 }, false},

		{"durable", func(c *Config) { c.DataDir, c.NoFsync, c.SnapshotEvery = "/tmp/x", true, 128 }, true},
		{"snapshots off", func(c *Config) { c.DataDir, c.SnapshotEvery = "/tmp/x", -1 }, true},
		{"nofsync without datadir", func(c *Config) { c.NoFsync = true }, false},
		{"snapshots without a store", func(c *Config) { c.SnapshotEvery = 64 }, false},
		{"snapshots into StoreFor", func(c *Config) {
			c.SnapshotEvery = 64
			c.StoreFor = func(types.ProcessID) storage.Store { return storage.NewMem() }
		}, true},

		{"negative spanbuf", func(c *Config) { c.SpanBuf = -5 }, false},
	}
	for _, tc := range cases {
		c := Config{Groups: 2, PerGroup: 3}
		tc.edit(&c)
		if err := c.Validate(); (err == nil) != tc.ok {
			t.Errorf("%s: Validate() = %v, want ok=%v", tc.name, err, tc.ok)
		}
	}

	// A run that opens no socket is bound by the simulator's rules only:
	// no port range, no detector, lease or store rule.
	sim := Config{Groups: 15000, PerGroup: 3, HeartbeatEvery: time.Hour, NoFsync: true}
	if err := sim.ValidateModel(); err != nil {
		t.Errorf("ValidateModel(15000x3) = %v", err)
	}
	for _, bad := range []Config{{Groups: 0, PerGroup: 3}, {Groups: 2, PerGroup: 65}, {Groups: 2, PerGroup: 3, WANDelay: -1}, {Groups: 2, PerGroup: 3, Pipeline: -1},
		{Groups: 2, PerGroup: 3, MaxBatch: -1}, {Groups: 2, PerGroup: 3, Bandwidth: -1}, {Groups: 2, PerGroup: 3, Lanes: -1}} {
		if bad.ValidateModel() == nil {
			t.Errorf("ValidateModel(%+v) accepted", bad)
		}
	}
}

// TestWithDefaults: zero means the default, and so does a negative count or
// duration — NewLiveCluster does not validate, so a library caller's -1
// must never reach group % -1. The knob whose negative means "off" keeps it.
func TestWithDefaults(t *testing.T) {
	want := Config{Groups: 2, PerGroup: 3, BasePort: 19000, WANDelay: 100 * time.Millisecond,
		HeartbeatEvery: 50 * time.Millisecond, SuspectAfter: 250 * time.Millisecond, Lanes: 2, SnapshotEvery: 512}
	if got := (Config{}).WithDefaults(); !reflect.DeepEqual(got, want) {
		t.Errorf("zero config\n got %+v\nwant %+v", got, want)
	}
	neg := Config{Lanes: -1, HeartbeatEvery: -1, SuspectAfter: -1}
	if got := neg.WithDefaults(); !reflect.DeepEqual(got, want) {
		t.Errorf("negative knobs\n got %+v\nwant %+v", got, want)
	}
	got := Config{Groups: 5, LeaseDuration: time.Second, SnapshotEvery: -1}.WithDefaults()
	if got.Lanes != 5 || got.MaxClockSkew != 10*time.Millisecond || got.SnapshotEvery != -1 {
		t.Errorf("lanes=%d skew=%v snapevery=%d, want 5, 10ms, -1", got.Lanes, got.MaxClockSkew, got.SnapshotEvery)
	}
}

// TestBind: the flags land in the struct, a command's pre-set values are
// the defaults its usage shows, rates and millisecond knobs parse at flag
// time, asking for a tracing output turns tracing on, and a flag the
// command excepts is unknown to it.
func TestBind(t *testing.T) {
	parse := func(args ...string) (Config, string, error) {
		c := Config{Groups: 2, PerGroup: 3, BasePort: 27000, Pipeline: 2}
		fs := flag.NewFlagSet("cmd", flag.ContinueOnError)
		var usage strings.Builder
		fs.SetOutput(&usage)
		c.Bind(fs, "datadir", "nofsync")
		err := fs.Parse(args)
		fs.PrintDefaults()
		return c, usage.String(), err
	}

	c, usage, err := parse("-groups", "4", "-bandwidth", "50Mbit/s", "-leasems", "250", "-skewms", "5", "-wan", "5ms")
	if err != nil {
		t.Fatal(err)
	}
	want := Config{Groups: 4, PerGroup: 3, BasePort: 27000, Pipeline: 2, WANDelay: 5 * time.Millisecond,
		Bandwidth: 6_250_000, LeaseDuration: 250 * time.Millisecond, MaxClockSkew: 5 * time.Millisecond}
	if !reflect.DeepEqual(c, want) {
		t.Errorf("parsed %+v\nwant   %+v", c, want)
	}
	if !strings.Contains(usage, "(default 27000)") {
		t.Errorf("usage does not show the command's own -port default:\n%s", usage)
	}

	for _, args := range [][]string{{"-spanbuf", "1024"}, {"-flightdump", "/tmp/f.jsonl"}} {
		if c, _, err := parse(args...); err != nil || !c.TraceSpans {
			t.Errorf("%v: TraceSpans=%v err=%v, want tracing on", args, c.TraceSpans, err)
		}
	}
	if c, _, _ := parse("-lanes", "4"); c.TraceSpans {
		t.Error("tracing on without a tracing flag")
	}

	for _, args := range [][]string{
		{"-bandwidth", "50parsecs"}, {"-bandwidth", "-3mb"}, {"-bandwidth", "0.5bit"},
		{"-leasems", "soon"}, {"-spanbuf", "many"}, {"-datadir", "/tmp/x"}, {"-nofsync"},
		// Transport constants, not knobs: no workload ever set them.
		{"-inbox", "8"}, {"-sendqueue", "64"}, {"-flush", "1ms"}, {"-compressmin", "4096"},
	} {
		if _, _, err := parse(args...); err == nil {
			t.Errorf("%v: accepted", args)
		}
	}
}

// TestParseBandwidth: the human-readable rate forms all resolve to
// bytes/second, decimal units, bits divided by eight.
func TestParseBandwidth(t *testing.T) {
	good := map[string]int64{
		"":         0,
		"0":        0,
		"1":        1,
		"400b":     400,
		"1kb":      1_000,
		"6.25MB":   6_250_000,
		"2gb/s":    2_000_000_000,
		"8bit":     1,
		"50mbit":   6_250_000,
		"50Mbit/s": 6_250_000,
		"1gbit":    125_000_000,
		" 10kbit ": 1_250,
	}
	for in, want := range good {
		got, err := ParseBandwidth(in)
		if err != nil {
			t.Errorf("%q: %v", in, err)
		} else if got != want {
			t.Errorf("%q = %d B/s, want %d", in, got, want)
		}
	}
	for _, in := range []string{"x", "12parsecs", "-1mb", "0.5bit", "mb", "1.2.3kb"} {
		if _, err := ParseBandwidth(in); err == nil {
			t.Errorf("%q: accepted", in)
		}
	}
}
