package main

import (
	"bytes"
	"context"
	"errors"
	"os"
	"os/exec"
	"strings"
	"testing"
	"time"
)

// TestFleetWithoutSelfExits2: -fleet does nothing without -self, so the pair
// is checked at start-up — exit 2 with a message naming -self, before any
// listener opens. The test re-runs its own binary as mariod with those flags.
func TestFleetWithoutSelfExits2(t *testing.T) {
	if os.Getenv("MARIOD_TEST_MAIN") == "1" {
		os.Args = []string{"mariod", "-addr", "127.0.0.1:0", "-fleet", "http://127.0.0.1:1,http://127.0.0.1:2"}
		main()
		return
	}
	// Without the check the daemon would serve until killed.
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	cmd := exec.CommandContext(ctx, os.Args[0], "-test.run=^TestFleetWithoutSelfExits2$")
	cmd.Env = append(os.Environ(), "MARIOD_TEST_MAIN=1")
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	err := cmd.Run()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != 2 {
		t.Fatalf("mariod -fleet without -self: %v, want exit status 2 (stderr %q)", err, stderr.String())
	}
	if !strings.Contains(stderr.String(), "-self") {
		t.Errorf("the message does not name -self: %q", stderr.String())
	}
}
