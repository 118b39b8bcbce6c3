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

// TestUnknownExperimentExits2: a -run name that names no experiment is an
// error — exit 2 with the valid names — not a run of nothing that reports
// success. The test re-runs its own binary as the command.
func TestUnknownExperimentExits2(t *testing.T) {
	if os.Getenv("EXPERIMENTS_TEST_MAIN") == "1" {
		os.Args = []string{"experiments", "-fast", "-run", "figur6"}
		main()
		return
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	cmd := exec.CommandContext(ctx, os.Args[0], "-test.run=^TestUnknownExperimentExits2$")
	cmd.Env = append(os.Environ(), "EXPERIMENTS_TEST_MAIN=1")
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	err := cmd.Run()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != 2 {
		t.Fatalf("experiments -run figur6: %v, want exit status 2 (stderr %q)", err, stderr.String())
	}
	if !strings.Contains(stderr.String(), "figure6") {
		t.Errorf("the message does not list the valid names: %q", stderr.String())
	}
}
