package main

import (
	"bytes"
	"context"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// TestCLI runs the command end to end: the test re-runs its own binary as
// mario with each case's flags and checks the exit status and that every
// artifact the flags name was written and is non-empty — a traced search
// writing its three trace artifacts, a measured run writing every timeline
// artifact and its drift report, a run through -device-speeds/-placement, and
// a bad workload flag, which exits 2.
func TestCLI(t *testing.T) {
	if args, ok := os.LookupEnv("MARIO_TEST_ARGS"); ok {
		os.Args = append([]string{"mario"}, strings.Split(args, "\n")...)
		main()
		os.Exit(0) // not the test binary's PASS trailer: stdout is the command's
	}
	dir := t.TempDir()
	at := func(name string) string { return filepath.Join(dir, name) }
	for _, tc := range []struct {
		name      string
		args      []string
		exit      int
		artifacts []string // files the run must write; "" is its stdout
	}{
		{"search-trace", []string{"-model", "LLaMA2-3B", "-devices", "4", "-gbs", "16",
			"-search-trace", at("trace.json"), "-search-spans", at("spans.jsonl"),
			"-search-trace-measured", at("measured.json"), "-search-summary"}, 0,
			[]string{"trace.json", "spans.jsonl", "measured.json"}},
		{"measured-run", []string{"-model", "LLaMA2-3B", "-devices", "4", "-gbs", "16", "-run", "1", "-viz",
			"-svg", at("best.svg"), "-trace", at("pred.json"), "-trace-measured", at("run.json"),
			"-events", at("events.jsonl"), "-drift"}, 0,
			[]string{"", "best.svg", "pred.json", "run.json", "events.jsonl"}},
		{"hetero", []string{"-model", "GPT3-13B", "-devices", "8", "-gbs", "32", "-mem", "72G", "-scheme", "V",
			"-device-speeds", "3=0.8", "-placement", "coopt", "-run", "1"}, 0, nil},
		{"bad-placement", []string{"-model", "LLaMA2-3B", "-devices", "4", "-placement", "sideways"}, 2, nil},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
			defer cancel()
			cmd := exec.CommandContext(ctx, os.Args[0], "-test.run=^TestCLI$")
			cmd.Env = append(os.Environ(), "MARIO_TEST_ARGS="+strings.Join(tc.args, "\n"))
			var stdout, stderr bytes.Buffer
			cmd.Stdout, cmd.Stderr = &stdout, &stderr
			if err := cmd.Run(); cmd.ProcessState == nil {
				t.Fatal(err)
			}
			if got := cmd.ProcessState.ExitCode(); got != tc.exit {
				t.Fatalf("mario %s: exit status %d, want %d\nstderr:\n%s", strings.Join(tc.args, " "), got, tc.exit, stderr.String())
			}
			for _, name := range tc.artifacts {
				if name == "" {
					if stdout.Len() == 0 {
						t.Error("nothing written to stdout")
					}
					continue
				}
				if fi, err := os.Stat(at(name)); err != nil || fi.Size() == 0 {
					t.Errorf("%s: not written or empty (%v)", name, err)
				}
			}
		})
	}
}
