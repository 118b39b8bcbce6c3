// Command mariod runs the mario planning service: an HTTP/JSON daemon that
// answers Optimize requests from a fingerprint-keyed plan cache, collapses
// concurrent identical requests onto one tuner run, streams tuner progress
// as NDJSON, traces every tuner run into a flight recorder, and drains
// gracefully on SIGINT/SIGTERM.
//
// Usage:
//
//	mariod [-addr :8347] [-cache 64] [-workers 2] [-queue 16]
//	       [-timeout 5m] [-max-timeout 15m] [-tuner-workers 0]
//	       [-drain-timeout 30s] [-debug-addr ""] [-max-body 0]
//	       [-fleet url1,url2] [-self url]
//	       [-fleet-retries 2] [-fleet-backoff 50ms]
//	       [-selfcheck] [-fleet-selfcheck]
//
// Endpoints: POST /v1/plan (?trace=1 embeds the search trace),
// POST /v1/plan/stream, GET /v1/models, GET /healthz, GET /metrics,
// GET /debug/flight.
//
// -fleet lists the other members of a planning fleet and -self this
// member's URL as peers see it; together they route blocking plan requests
// to each workload's consistent-hash owner, so the fleet computes every plan
// once and answers repeats from the owner's cache. -fleet without -self is a
// usage error (exit 2). See DESIGN.md §11 and docs/TUNING.md for the knobs.
//
// -debug-addr starts a second listener with the net/http/pprof profiling
// endpoints plus /debug/flight and /metrics — keep it loopback-only in
// production. SIGQUIT dumps the flight recorder (recent request traces and
// the slow log) to stderr without stopping the daemon.
//
// -selfcheck starts the server on a loopback port, exercises it end to end
// with the Go client (concurrent streamed fan-out, traced fresh run, cache
// hit, byte identity, flight recorder, metrics, debug listener), then
// delivers itself a SIGTERM to walk the real shutdown path, and exits 0 on
// success — the build's smoke test.
package main

import (
	"bytes"
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"sync"
	"syscall"
	"time"

	"mario/internal/serve"
	"mario/internal/serve/api"
	"mario/internal/serve/client"
)

func main() {
	var (
		addr         = flag.String("addr", ":8347", "listen address")
		cacheSize    = flag.Int("cache", 64, "plan-cache capacity (plans)")
		workers      = flag.Int("workers", 2, "concurrent plan computations")
		queue        = flag.Int("queue", 16, "admission queue depth beyond running flights")
		timeout      = flag.Duration("timeout", 5*time.Minute, "default per-request deadline")
		maxTimeout   = flag.Duration("max-timeout", 15*time.Minute, "ceiling for request-supplied deadlines")
		tunerWorkers = flag.Int("tuner-workers", 0, "cap on per-run tuner parallelism (0 = uncapped)")
		drainTimeout = flag.Duration("drain-timeout", 30*time.Second, "how long shutdown waits for in-flight plans")
		debugAddr    = flag.String("debug-addr", "", "optional second listener with pprof + /debug/flight + /metrics (keep loopback-only)")
		maxBody      = flag.Int64("max-body", 0, "request-body byte limit, 413 beyond it (0 = 1 MiB default)")
		fleetList    = flag.String("fleet", "", "comma-separated base URLs of the other fleet members")
		self         = flag.String("self", "", "this member's base URL as peers reach it (enables plan routing)")
		fleetRetries = flag.Int("fleet-retries", 2, "retries for a routed request to its owner")
		fleetBackoff = flag.Duration("fleet-backoff", 50*time.Millisecond, "base backoff between routing retries")
		selfcheck    = flag.Bool("selfcheck", false, "start on loopback, exercise the service end to end, then shut down")
		fleetCheck   = flag.Bool("fleet-selfcheck", false, "boot a loopback 3-member fleet, prove byte-identity + peer caching + a loadgen burst, then drain")
	)
	flag.Parse()

	var fleet []string
	for _, u := range strings.Split(*fleetList, ",") {
		if u = strings.TrimSpace(u); u != "" {
			fleet = append(fleet, u)
		}
	}
	if len(fleet) > 0 && *self == "" {
		fmt.Fprintln(os.Stderr, "mariod: -fleet routes plan requests only together with -self (this member's URL as peers reach it)")
		os.Exit(2)
	}
	opts := serve.Options{
		CacheSize:      *cacheSize,
		Workers:        *workers,
		QueueDepth:     *queue,
		DefaultTimeout: *timeout,
		MaxTimeout:     *maxTimeout,
		TunerWorkers:   *tunerWorkers,
		MaxBodyBytes:   *maxBody,
		Fleet:          fleet,
		Self:           *self,
		FleetRetries:   *fleetRetries,
		FleetBackoff:   *fleetBackoff,
	}

	if *selfcheck {
		os.Exit(runSelfcheck(opts, *drainTimeout))
	}
	if *fleetCheck {
		// The selfcheck boots its own loopback mesh; a configured fleet
		// would fight it.
		opts.Fleet, opts.Self = nil, ""
		os.Exit(runFleetSelfcheck(opts, *drainTimeout))
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "mariod: %v\n", err)
		os.Exit(1)
	}
	s := serve.New(opts)
	if *debugAddr != "" {
		if _, err := startDebugServer(s, *debugAddr); err != nil {
			fmt.Fprintf(os.Stderr, "mariod: %v\n", err)
			os.Exit(1)
		}
	}
	fmt.Fprintf(os.Stderr, "mariod: listening on %s\n", ln.Addr())
	if err := serveUntilSignal(ln, s, *drainTimeout); err != nil {
		fmt.Fprintf(os.Stderr, "mariod: %v\n", err)
		os.Exit(1)
	}
	fmt.Fprintln(os.Stderr, "mariod: drained, bye")
}

// startDebugServer listens on debugAddr and serves the profiling and
// introspection endpoints: /debug/pprof/*, /debug/flight and /metrics.
// These are deliberately off the main listener so operators can firewall
// them separately.
func startDebugServer(s *serve.Server, debugAddr string) (net.Addr, error) {
	ln, err := net.Listen("tcp", debugAddr)
	if err != nil {
		return nil, fmt.Errorf("debug listener: %w", err)
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.HandleFunc("/debug/flight", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		w.Write(s.FlightRecorder().Dump())
	})
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4")
		s.Registry().WriteProm(w)
	})
	go http.Serve(ln, mux)
	fmt.Fprintf(os.Stderr, "mariod: debug endpoints on %s\n", ln.Addr())
	return ln.Addr(), nil
}

// serveUntilSignal serves HTTP on ln until SIGINT/SIGTERM, then drains the
// planning service (in-flight and queued plans finish) and shuts the HTTP
// server down. SIGQUIT dumps the flight recorder to stderr without
// stopping the daemon. Returns nil on a clean drain.
func serveUntilSignal(ln net.Listener, s *serve.Server, drainTimeout time.Duration) error {
	httpSrv := &http.Server{Handler: s.Handler()}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	// SIGQUIT is the black-box dump: print the flight recorder and keep
	// serving (the Go runtime's default stack dump is suppressed while the
	// handler is registered).
	quit := make(chan os.Signal, 1)
	signal.Notify(quit, syscall.SIGQUIT)
	defer signal.Stop(quit)
	go func() {
		for range quit {
			fmt.Fprintln(os.Stderr, "mariod: SIGQUIT — flight recorder dump:")
			os.Stderr.Write(s.FlightRecorder().Dump())
		}
	}()

	errCh := make(chan error, 1)
	go func() { errCh <- httpSrv.Serve(ln) }()
	select {
	case err := <-errCh:
		return err
	case <-ctx.Done():
	}
	stop() // restore default signal handling: a second signal kills hard

	fmt.Fprintln(os.Stderr, "mariod: draining…")
	dctx, cancel := context.WithTimeout(context.Background(), drainTimeout)
	defer cancel()
	if err := s.Drain(dctx); err != nil {
		s.Close()
		return fmt.Errorf("drain: %w", err)
	}
	if err := httpSrv.Shutdown(dctx); err != nil {
		return fmt.Errorf("shutdown: %w", err)
	}
	return nil
}

// runSelfcheck is the -selfcheck body; returns the process exit code.
func runSelfcheck(opts serve.Options, drainTimeout time.Duration) int {
	fail := func(format string, args ...any) int {
		fmt.Fprintf(os.Stderr, "mariod selfcheck: FAIL: "+format+"\n", args...)
		return 1
	}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return fail("listen: %v", err)
	}
	s := serve.New(opts)
	debugAddr, err := startDebugServer(s, "127.0.0.1:0")
	if err != nil {
		return fail("%v", err)
	}
	done := make(chan error, 1)
	go func() { done <- serveUntilSignal(ln, s, drainTimeout) }()

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Minute)
	defer cancel()
	c := client.New("http://" + ln.Addr().String())
	c.Trace = true
	if err := c.WaitReady(ctx, 10*time.Second); err != nil {
		return fail("%v", err)
	}

	req := api.PlanRequest{
		Model:        "LLaMA2-3B",
		Devices:      4,
		GlobalBatch:  16,
		Memory:       "40G",
		MicroBatches: []int{1, 2},
	}

	// Fresh run, requested twice concurrently over the streaming endpoint:
	// the singleflight layer must collapse the pair onto one tuner run and
	// the NDJSON fan-out must deliver both subscribers a coherent story —
	// progress records then byte-identical terminal plans.
	type streamOut struct {
		resp   *api.PlanResponse
		events int
		err    error
	}
	outs := make([]streamOut, 2)
	var wg sync.WaitGroup
	for i := range outs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			outs[i].resp, outs[i].err = c.PlanStream(ctx, req, func(api.ProgressEvent) { outs[i].events++ })
		}(i)
	}
	wg.Wait()
	for i, o := range outs {
		if o.err != nil {
			return fail("streamed plan %d: %v", i, o.err)
		}
	}
	if outs[0].events+outs[1].events == 0 {
		return fail("neither concurrent stream reported progress events")
	}
	if !bytes.Equal(outs[0].resp.Plan, outs[1].resp.Plan) {
		return fail("concurrent streams returned different plan bytes")
	}
	if outs[0].resp.Fingerprint != outs[1].resp.Fingerprint {
		return fail("concurrent streams disagree on the fingerprint")
	}
	fresh := outs[0]
	if fresh.resp.Cached {
		fresh = outs[1]
	}
	if fresh.resp.Cached {
		return fail("both concurrent requests answered from cache")
	}
	if len(fresh.resp.Trace) == 0 {
		return fail("traced request returned no search trace")
	}
	if !bytes.Contains(fresh.resp.Trace, []byte(`"phase":"optimize"`)) ||
		!bytes.Contains(fresh.resp.Trace, []byte(`"phase":"point"`)) {
		return fail("search trace misses optimize/point spans: %.200s", fresh.resp.Trace)
	}

	// Same request again: must be a cache hit with byte-identical plan and
	// no trace (the run's trace lives in the flight recorder).
	hit, err := c.Plan(ctx, req)
	if err != nil {
		return fail("cached plan: %v", err)
	}
	if !hit.Cached {
		return fail("third request missed the cache")
	}
	if hit.Fingerprint != fresh.resp.Fingerprint {
		return fail("fingerprints differ: %s vs %s", fresh.resp.Fingerprint, hit.Fingerprint)
	}
	if !bytes.Equal(fresh.resp.Plan, hit.Plan) {
		return fail("cache hit not byte-identical to fresh plan")
	}
	if len(hit.Trace) != 0 {
		return fail("cache hit carried a trace")
	}
	plan, err := client.Decode(hit)
	if err != nil {
		return fail("decoding plan: %v", err)
	}
	fmt.Fprintf(os.Stderr, "mariod selfcheck: plan %s at %.2f samples/s (%d progress events across 2 streams)\n",
		plan.Best.Label(), plan.Best.Throughput, outs[0].events+outs[1].events)

	h, err := c.Health(ctx)
	if err != nil {
		return fail("healthz: %v", err)
	}
	if !h.OK || h.CachedPlans != 1 {
		return fail("unexpected health %+v", h)
	}

	// The flight recorder holds the one tuner run with its phase summary.
	flight, err := c.Flight(ctx)
	if err != nil {
		return fail("flight: %v", err)
	}
	for _, want := range []string{
		"1 recent request(s)", "outcome=completed", "optimize", "point", "sim",
		hit.Fingerprint[:12],
	} {
		if !strings.Contains(flight, want) {
			return fail("flight dump missing %q in:\n%s", want, flight)
		}
	}

	metrics, err := c.Metrics(ctx)
	if err != nil {
		return fail("metrics: %v", err)
	}
	// The second concurrent stream either shared the first one's flight
	// (singleflight collapse) or — small tuner runs finish in milliseconds
	// with reusable engines and branch-and-bound — arrived after completion
	// and was answered from the cache. Both are correct, so the expected hit
	// count derives from the observed responses: the explicit repeat request
	// plus any concurrent stream that reported cached.
	hits := 1
	for _, o := range outs {
		if o.resp.Cached {
			hits++
		}
	}
	for _, want := range []string{
		"mario_serve_tuner_runs_total 1",
		fmt.Sprintf("mario_serve_cache_hits_total %d", hits),
		"mario_serve_completed_total 3",
		"mario_search_runs_total 1",
		"mario_search_points_total{outcome=",
		"mario_search_sims_total",
		"mario_serve_request_seconds_count 3",
	} {
		if !strings.Contains(metrics, want) {
			return fail("metrics missing %q", want)
		}
	}

	// The debug listener answers pprof, the flight dump and metrics.
	for _, path := range []string{"/debug/pprof/cmdline", "/debug/flight", "/metrics"} {
		body, err := httpGet(ctx, "http://"+debugAddr.String()+path)
		if err != nil {
			return fail("debug %s: %v", path, err)
		}
		if len(body) == 0 {
			return fail("debug %s: empty body", path)
		}
	}

	// Walk the real shutdown path: deliver ourselves the signal systemd
	// (or ^C) would send and require a clean drain.
	if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
		return fail("sigterm: %v", err)
	}
	select {
	case err := <-done:
		if err != nil && !errors.Is(err, http.ErrServerClosed) {
			return fail("shutdown: %v", err)
		}
	case <-time.After(drainTimeout + 10*time.Second):
		return fail("server did not drain within %v", drainTimeout)
	}
	fmt.Fprintln(os.Stderr, "mariod selfcheck: OK")
	return 0
}

// httpGet fetches one URL and returns the body of a 200 response.
func httpGet(ctx context.Context, url string) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return nil, err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("%s: %s", url, resp.Status)
	}
	return io.ReadAll(resp.Body)
}
