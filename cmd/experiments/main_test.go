package main

import (
	"bytes"
	"context"
	"os"
	"os/exec"
	"strings"
	"testing"
	"time"
)

// TestCLI runs the command end to end: the test re-runs its own binary as
// experiments with each case's flags and checks the exit status and what the
// run printed. The zero-bubble comparison runs to exit 0; a -run name that
// names no experiment is an error — exit 2 with the valid names — not a run
// of nothing that reports success.
func TestCLI(t *testing.T) {
	if args, ok := os.LookupEnv("EXPERIMENTS_TEST_ARGS"); ok {
		os.Args = append([]string{"experiments"}, strings.Split(args, "\n")...)
		main()
		os.Exit(0) // not the test binary's PASS trailer: stdout is the command's
	}
	for _, tc := range []struct {
		name   string
		args   []string
		exit   int
		stdout string // a line the run prints, or ""
		stderr string
	}{
		{"zerobubble", []string{"-fast", "-run", "zerobubble"}, 0, "DualPipe-D", ""},
		{"unknown-run", []string{"-fast", "-run", "figur6"}, 2, "", "figure6"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
			defer cancel()
			cmd := exec.CommandContext(ctx, os.Args[0], "-test.run=^TestCLI$")
			cmd.Env = append(os.Environ(), "EXPERIMENTS_TEST_ARGS="+strings.Join(tc.args, "\n"))
			var stdout, stderr bytes.Buffer
			cmd.Stdout, cmd.Stderr = &stdout, &stderr
			if err := cmd.Run(); cmd.ProcessState == nil {
				t.Fatal(err)
			}
			if got := cmd.ProcessState.ExitCode(); got != tc.exit {
				t.Fatalf("experiments %s: exit status %d, want %d\nstderr:\n%s", strings.Join(tc.args, " "), got, tc.exit, stderr.String())
			}
			if !strings.Contains(stdout.String(), tc.stdout) {
				t.Errorf("stdout does not contain %q:\n%s", tc.stdout, stdout.String())
			}
			if !strings.Contains(stderr.String(), tc.stderr) {
				t.Errorf("stderr does not contain %q:\n%s", tc.stderr, stderr.String())
			}
		})
	}
}
