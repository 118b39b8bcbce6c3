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
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"mario/internal/serve"
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

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "mariod: %v\n", err)
		os.Exit(1)
	}
	s := serve.New(opts)
	if *debugAddr != "" {
		if err := startDebugServer(s, *debugAddr); err != nil {
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
// introspection endpoints: /debug/pprof/*, and the service's own
// /debug/flight and /metrics handlers. These are deliberately off the main
// listener so operators can firewall them separately.
func startDebugServer(s *serve.Server, debugAddr string) error {
	ln, err := net.Listen("tcp", debugAddr)
	if err != nil {
		return fmt.Errorf("debug listener: %w", err)
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	service := s.Handler()
	mux.Handle("/debug/flight", service)
	mux.Handle("/metrics", service)
	go http.Serve(ln, mux)
	fmt.Fprintf(os.Stderr, "mariod: debug endpoints on %s\n", ln.Addr())
	return nil
}

// serveUntilSignal serves HTTP on ln until SIGINT/SIGTERM, then drains the
// planning service (in-flight and queued plans finish) and shuts the HTTP
// server down. SIGQUIT dumps the flight recorder to stderr without
// stopping the daemon. Returns nil on a clean drain.
func serveUntilSignal(ln net.Listener, s *serve.Server, drainTimeout time.Duration) error {
	httpSrv := &http.Server{Handler: s.Handler(), ReadHeaderTimeout: serve.ReadHeaderTimeout}
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
