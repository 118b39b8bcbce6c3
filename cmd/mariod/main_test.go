package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"os"
	"os/exec"
	"regexp"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"mario/internal/serve/api"
	"mario/internal/serve/client"
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

// childLog is a child process's stderr, written by exec's copier and read by
// the test while the child runs.
type childLog struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (l *childLog) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.buf.Write(p)
}

func (l *childLog) String() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.buf.String()
}

// waitFor polls the log until re matches it and returns the first submatch
// (the whole match when re has no group).
func (l *childLog) waitFor(t *testing.T, re *regexp.Regexp) string {
	t.Helper()
	for deadline := time.Now().Add(30 * time.Second); time.Now().Before(deadline); time.Sleep(10 * time.Millisecond) {
		if m := re.FindStringSubmatch(l.String()); m != nil {
			return m[len(m)-1]
		}
	}
	t.Fatalf("stderr never matched %q:\n%s", re, l.String())
	return ""
}

// health reads the daemon's /healthz body (a draining daemon answers 503
// with the same body).
func health(base string) (api.Health, error) {
	var h api.Health
	resp, err := http.Get(base + "/healthz")
	if err != nil {
		return h, err
	}
	defer resp.Body.Close()
	err = json.NewDecoder(resp.Body).Decode(&h)
	return h, err
}

// TestDaemonLifeCycle runs the real binary — the test binary re-run as
// mariod with a main and a debug listener on loopback ports — through its
// whole life: a traced plan through the client and its cache hit, the debug
// port's pprof, flight dump and metrics, a SIGQUIT dump that leaves the
// daemon serving, and a SIGTERM that drains it to exit 0. The debug port's
// /metrics is read before the main port's ever is: its scrape-time gauges
// must be fresh on their own. Signals go out only after /healthz answers,
// and serveUntilSignal registers its handlers before it starts serving.
func TestDaemonLifeCycle(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a real tuner search in a child process")
	}
	if os.Getenv("MARIOD_TEST_MAIN") == "1" {
		os.Args = []string{"mariod", "-addr", "127.0.0.1:0", "-debug-addr", "127.0.0.1:0"}
		main()
		return
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Minute)
	defer cancel()
	cmd := exec.CommandContext(ctx, os.Args[0], "-test.run=^TestDaemonLifeCycle$")
	cmd.Env = append(os.Environ(), "MARIOD_TEST_MAIN=1")
	var stderr childLog
	cmd.Stderr = &stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	exited := make(chan error, 1)
	go func() { exited <- cmd.Wait() }()
	reaped := false
	defer func() {
		if !reaped {
			cmd.Process.Kill()
			<-exited
		}
	}()

	debugAddr := stderr.waitFor(t, regexp.MustCompile(`mariod: debug endpoints on (\S+)`))
	addr := stderr.waitFor(t, regexp.MustCompile(`mariod: listening on (\S+)`))
	c := client.New("http://" + addr)
	dbg := client.New("http://" + debugAddr)
	for deadline := time.Now().Add(30 * time.Second); ; time.Sleep(25 * time.Millisecond) {
		h, err := health(c.BaseURL)
		if err == nil && h.OK {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("mariod not ready after 30 s: %+v, %v", h, err)
		}
	}

	req := api.PlanRequest{Model: "LLaMA2-3B", Devices: 4, GlobalBatch: 16, Memory: "40G", MicroBatches: []int{1, 2}}
	c.Trace = true
	fresh, err := c.Plan(ctx, req)
	if err != nil {
		t.Fatalf("plan: %v", err)
	}
	if fresh.Cached {
		t.Fatal("the first request was answered from the cache")
	}
	for _, phase := range []string{"optimize", "point"} {
		if !bytes.Contains(fresh.Trace, []byte(`"phase":"`+phase+`"`)) {
			t.Errorf("the search trace has no %s span: %.200s", phase, fresh.Trace)
		}
	}
	if _, err := client.Decode(fresh); err != nil {
		t.Fatalf("decode: %v", err)
	}

	// Every debug endpoint answers; the flight dump holds the real run's
	// phase summary and the metrics its search series and fresh gauges.
	resp, err := http.Get("http://" + debugAddr + "/debug/pprof/cmdline")
	if err != nil {
		t.Fatal(err)
	}
	cmdline, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || len(cmdline) == 0 {
		t.Errorf("debug /debug/pprof/cmdline: status %d, %d bytes", resp.StatusCode, len(cmdline))
	}
	resp, err = http.Get(dbg.BaseURL + "/debug/flight")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	flight := string(body)
	if resp.StatusCode != http.StatusOK {
		t.Errorf("debug /debug/flight: status %d", resp.StatusCode)
	}
	for _, want := range []string{"1 recent request(s)", "outcome=completed", "optimize", "point", "sim", fresh.Fingerprint[:12]} {
		if !strings.Contains(flight, want) {
			t.Errorf("debug /debug/flight misses %q in:\n%s", want, flight)
		}
	}
	metrics, err := dbg.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"mario_serve_cached_plans 1\n",
		"mario_serve_tuner_runs_total 1\n",
		"mario_search_runs_total 1\n",
		"mario_search_points_total{outcome=",
		"mario_search_sims_total",
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("debug /metrics misses %q", strings.TrimSpace(want))
		}
	}

	hit, err := c.Plan(ctx, req)
	if err != nil {
		t.Fatalf("repeat: %v", err)
	}
	if !hit.Cached || !bytes.Equal(hit.Plan, fresh.Plan) || hit.Fingerprint != fresh.Fingerprint || len(hit.Trace) != 0 {
		t.Errorf("repeat: cached=%v, same bytes %v, trace %d bytes; want a byte-identical cache hit with no trace",
			hit.Cached, bytes.Equal(hit.Plan, fresh.Plan), len(hit.Trace))
	}

	// SIGQUIT dumps the flight recorder and the daemon keeps serving.
	if err := cmd.Process.Signal(syscall.SIGQUIT); err != nil {
		t.Fatal(err)
	}
	stderr.waitFor(t, regexp.MustCompile(`(?s)flight recorder dump:.*recent request\(s\)`))
	if h, err := health(c.BaseURL); err != nil || !h.OK || h.CachedPlans != 1 {
		t.Fatalf("health after SIGQUIT: %+v, %v", h, err)
	}

	// SIGTERM drains and the process exits 0.
	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	err = <-exited
	reaped = true
	if err != nil {
		t.Fatalf("mariod after SIGTERM: %v\n%s", err, stderr.String())
	}
	if log := stderr.String(); !strings.Contains(log, "mariod: draining") || !strings.Contains(log, "mariod: drained, bye") {
		t.Errorf("no clean drain on stderr:\n%s", log)
	}
}
