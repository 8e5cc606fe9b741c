package main

import (
	"flag"
	"testing"

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
