package harness

import (
	"flag"
	"io"
	"testing"
)

// TestTelemetryFlag: an address that cannot be listened on is a usage
// error at flag time, and a good one lands and turns tracing on.
func TestTelemetryFlag(t *testing.T) {
	for arg, ok := range map[string]bool{":9090": true, "127.0.0.1:0": true, "localhost": false, "host:99999": false, "host:http": false} {
		fs := flag.NewFlagSet("cmd", flag.ContinueOnError)
		fs.SetOutput(io.Discard)
		trace := false
		addr := TelemetryFlag(fs, &trace)
		err := fs.Parse([]string{"-telemetry", arg})
		if (err == nil) != ok {
			t.Errorf("-telemetry %s: err=%v, want ok=%v", arg, err, ok)
		}
		if ok && (*addr != arg || !trace) {
			t.Errorf("-telemetry %s: addr=%q trace=%v", arg, *addr, trace)
		}
		if !ok && (*addr != "" || trace) {
			t.Errorf("-telemetry %s rejected yet stored: addr=%q trace=%v", arg, *addr, trace)
		}
	}
}
