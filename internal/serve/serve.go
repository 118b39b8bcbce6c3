// Package serve turns the mario optimizer into a resident planning service:
// an HTTP/JSON daemon that resolves Optimize requests into workloads (a
// workload's hash is its fingerprint), answers repeats from an LRU plan
// cache, collapses concurrent identical requests onto one tuner run
// (singleflight), bounds concurrent tuner work with a worker pool plus
// admission control, streams tuner progress as newline-delimited JSON, and
// drains gracefully on shutdown.
// Configured with fleet peers and its own URL, a server also routes blocking
// plan requests to each workload's consistent-hash owner (see fleet.go).
//
// The cache contract leans on the determinism the tuner already guarantees:
// the same fingerprint always produces byte-identical plan JSON, so a cache
// hit is indistinguishable from a fresh Optimize — the paper's "near
// zero-cost" move applied to planning itself.
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"time"

	"mario"
	"mario/internal/serve/api"
	"mario/internal/telemetry"
)

// Options configures a Server. The zero value gets sensible defaults.
type Options struct {
	// CacheSize bounds the LRU plan cache; 0 means 64 plans.
	CacheSize int
	// Workers is the tuner worker-pool size — how many plan computations
	// may run concurrently; 0 means 2.
	Workers int
	// QueueDepth bounds how many flights may wait for a worker beyond the
	// ones running; a full queue rejects new work with 429. 0 means 16.
	QueueDepth int
	// DefaultTimeout is the per-request deadline when the request does not
	// set one; 0 means 5 minutes.
	DefaultTimeout time.Duration
	// MaxTimeout caps request-supplied deadlines; 0 means 15 minutes.
	MaxTimeout time.Duration
	// TunerWorkers caps the per-run tuner parallelism (mario.Config.Workers)
	// a request may ask for; 0 leaves requests uncapped (0 = GOMAXPROCS).
	TunerWorkers int
	// Registry receives the server's metric series (and the search
	// metrics of every tuner run); nil allocates a private registry.
	// /metrics renders everything registered on it.
	Registry *telemetry.Registry
	// MaxBodyBytes bounds request bodies on the plan and stream
	// endpoints (oversized bodies get 413); 0 means 1 MiB.
	MaxBodyBytes int64

	// Fleet lists the base URLs of the other planning-fleet members. With
	// Self also set, blocking plan requests are routed to each workload's
	// consistent-hash owner; without Self, Fleet does nothing.
	Fleet []string
	// Self is this member's own advertised base URL: it places this member
	// on the hash ring.
	Self string
	// FleetRetries and FleetBackoff configure the routing clients' bounded
	// retry (client.Client Retries/Backoff); zero means no retries — a
	// routing failure already falls back to local computation.
	FleetRetries int
	FleetBackoff time.Duration
}

// What no deployment, test or benchmark sets differently: the flight
// recorder keeps the last flightRing request traces and the flightSlow slowest.
const (
	flightRing = 64
	flightSlow = 8
)

func (o Options) withDefaults() Options {
	if o.CacheSize <= 0 {
		o.CacheSize = 64
	}
	if o.Workers <= 0 {
		o.Workers = 2
	}
	if o.QueueDepth <= 0 {
		o.QueueDepth = 16
	}
	if o.DefaultTimeout <= 0 {
		o.DefaultTimeout = 5 * time.Minute
	}
	if o.MaxTimeout <= 0 {
		o.MaxTimeout = 15 * time.Minute
	}
	if o.Registry == nil {
		o.Registry = telemetry.NewRegistry()
	}
	if o.MaxBodyBytes <= 0 {
		o.MaxBodyBytes = 1 << 20
	}
	return o
}

// Server is the planning service: an http.Handler that answers Optimize
// requests from a fingerprint-keyed plan cache, deduplicates concurrent
// identical requests onto shared flights, and executes cache misses on a
// bounded worker pool. Every tuner run is traced with a telemetry.Tracer
// keyed by the workload fingerprint; the canonical trace is returned to
// clients that ask (?trace=1) and kept in the flight recorder either way.
// Create one with New, mount Handler, and call Drain (or Close) on
// shutdown.
type Server struct {
	opts      Options
	reg       *telemetry.Registry
	sm        *serverMetrics
	search    *telemetry.SearchMetrics
	flightRec *telemetry.FlightRecorder
	cache     *planCache
	fleet     *fleetState // peer routing; nil without Options.Fleet

	mu       sync.Mutex
	flights  map[string]*flight
	draining bool

	jobs chan *flight
	wg   sync.WaitGroup

	// run computes one flight's plan bytes, recording its spans on tracer;
	// tests replace it to make admission and drain behaviour deterministic.
	// What it returns is cached and served as is — writePlanResponse puts the
	// bytes into the response without scanning them — so it must be one JSON
	// value exactly as encoding/json writes it: optimize returns
	// json.Marshal(plan), compact and HTML-escaped, which is also what keeps
	// the response byte-equal to the encoder's. (The other source of served
	// bytes, a peer's answer, is checked by the read: api.ParsePlanResponse.)
	run func(ctx context.Context, req api.PlanRequest, wl *mario.Workload, tracer *telemetry.Tracer, progress func(api.ProgressEvent)) ([]byte, error)
}

// New builds a Server and starts its worker pool.
func New(opts Options) *Server {
	opts = opts.withDefaults()
	s := &Server{
		opts:      opts,
		reg:       opts.Registry,
		sm:        newServerMetrics(opts.Registry),
		search:    telemetry.NewSearchMetrics(opts.Registry),
		flightRec: telemetry.NewFlightRecorder(flightRing, flightSlow),
		cache:     newPlanCache(opts.CacheSize),
		flights:   make(map[string]*flight),
		jobs:      make(chan *flight, opts.QueueDepth),
	}
	s.sm.cacheCapacity.Set(int64(opts.CacheSize))
	if len(opts.Fleet) > 0 {
		s.fleet = newFleetState(opts)
	}
	s.run = s.optimize
	for i := 0; i < opts.Workers; i++ {
		s.wg.Add(1)
		go s.worker()
	}
	return s
}

// Registry returns the metrics registry /metrics renders.
func (s *Server) Registry() *telemetry.Registry { return s.reg }

// FlightRecorder returns the server's black box — the ring of recent
// request traces /debug/flight dumps.
func (s *Server) FlightRecorder() *telemetry.FlightRecorder { return s.flightRec }

// Handler returns the service's HTTP routes:
//
//	POST /v1/plan         blocking plan request → PlanResponse JSON
//	POST /v1/plan/stream  same request, NDJSON progress stream + final plan
//	GET  /v1/models       built-in model presets
//	GET  /healthz         readiness (503 while draining)
//	GET  /metrics         Prometheus text exposition
//	GET  /debug/flight    flight-recorder dump (recent traces + slow log)
//
// The plan endpoints accept ?trace=1 to embed the run's canonical search
// trace in the response.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/plan", func(w http.ResponseWriter, r *http.Request) { s.handlePlan(w, r, false) })
	mux.HandleFunc("POST /v1/plan/stream", func(w http.ResponseWriter, r *http.Request) { s.handlePlan(w, r, true) })
	mux.HandleFunc("GET /v1/models", s.handleModels)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /debug/flight", s.handleFlight)
	return mux
}

// Drain stops admitting new plan requests, lets queued and running flights
// finish, and returns when the worker pool has exited (or ctx expires).
// In-flight HTTP waiters are not interrupted — pair Drain with
// http.Server.Shutdown, which waits for them.
func (s *Server) Drain(ctx context.Context) error {
	s.mu.Lock()
	if !s.draining {
		s.draining = true
		close(s.jobs)
	}
	s.mu.Unlock()
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Close is Drain without grace: it cancels every in-progress flight and
// waits for the workers to exit.
func (s *Server) Close() {
	s.mu.Lock()
	if !s.draining {
		s.draining = true
		close(s.jobs)
	}
	for _, f := range s.flights {
		f.cancel()
	}
	s.mu.Unlock()
	s.wg.Wait()
}

// errBusy and errDraining are the admission-control refusals.
var (
	errBusy     = errors.New("serve: worker queue full")
	errDraining = errors.New("serve: server is draining")
)

// admit places one resolved request under the server mutex: a cache hit
// returns the stored bytes; an identical in-progress flight is joined; and
// otherwise a new flight is created and enqueued — unless the queue is full
// or the server is draining.
func (s *Server) admit(req api.PlanRequest, wl *mario.Workload) (data []byte, f *flight, created bool, err error) {
	fp := wl.Fingerprint()
	s.mu.Lock()
	defer s.mu.Unlock()
	if d, ok := s.cache.get(fp); ok {
		return d, nil, false, nil
	}
	if s.draining {
		return nil, nil, false, errDraining
	}
	if f, ok := s.flights[fp]; ok {
		f.waiters++
		return nil, f, false, nil
	}
	f = newFlight(req, wl)
	select {
	case s.jobs <- f:
		s.flights[fp] = f
		return nil, f, true, nil
	default:
		f.cancel()
		return nil, nil, false, errBusy
	}
}

// leave drops one waiter from a flight; the last waiter out cancels the
// flight's context so an abandoned tuner run stops burning a worker.
func (s *Server) leave(f *flight) {
	s.mu.Lock()
	f.waiters--
	if f.waiters <= 0 {
		f.cancel()
	}
	s.mu.Unlock()
}

// worker executes flights off the queue until Drain closes it.
func (s *Server) worker() {
	defer s.wg.Done()
	for f := range s.jobs {
		s.runFlight(f)
	}
}

// flightOutcome maps a run error to the flight recorder's outcome label.
func flightOutcome(err error) string {
	switch {
	case err == nil:
		return "completed"
	case errors.Is(err, context.Canceled):
		return "canceled"
	case errors.Is(err, context.DeadlineExceeded):
		return "timeout"
	default:
		return "error"
	}
}

// runFlight computes one flight's plan under a fingerprint-keyed tracer,
// populates the cache on success, files the trace with the flight recorder,
// and wakes the waiters. The flight leaves the dedup map before finish so a
// late identical request either hits the cache (success) or starts a fresh
// flight (failure) — it can never join a finished one.
func (s *Server) runFlight(f *flight) {
	if err := f.ctx.Err(); err != nil {
		s.removeFlight(f)
		f.finish(nil, err)
		return
	}
	s.sm.tunerRuns.Inc()
	fp := f.wl.Fingerprint()
	tracer := telemetry.New(fp)
	start := time.Now()
	data, err := s.run(f.ctx, f.req, f.wl, tracer, f.broadcast)
	elapsed := time.Since(start)
	tr := tracer.Snapshot()
	if raw, merr := json.Marshal(tr); merr == nil {
		f.trace = raw
	}
	s.flightRec.Record(telemetry.FlightRecord{
		Fingerprint: fp,
		Outcome:     flightOutcome(err),
		Start:       start,
		Elapsed:     elapsed,
		Trace:       tr,
	})
	if err == nil {
		s.cache.add(fp, data)
	}
	s.removeFlight(f)
	f.finish(data, err)
}

func (s *Server) removeFlight(f *flight) {
	s.mu.Lock()
	if fp := f.wl.Fingerprint(); s.flights[fp] == f {
		delete(s.flights, fp)
	}
	s.mu.Unlock()
}

// optimize is the production run function: it searches the flight's resolved
// workload with the flight's tracer and progress forwarding, and marshals the
// plan with the deterministic Plan codec.
func (s *Server) optimize(ctx context.Context, req api.PlanRequest, wl *mario.Workload, tracer *telemetry.Tracer, progress func(api.ProgressEvent)) ([]byte, error) {
	workers := req.Workers
	if s.opts.TunerWorkers > 0 && (workers <= 0 || workers > s.opts.TunerWorkers) {
		workers = s.opts.TunerWorkers
	}
	plan, err := wl.Optimize(ctx, mario.Config{
		Workers: workers,
		Tracer:  tracer,
		Metrics: s.search,
		Progress: func(n int, best string, throughput float64) {
			progress(api.ProgressEvent{Explored: n, Best: best, BestThroughput: throughput})
		},
	})
	if err != nil {
		return nil, err
	}
	return json.Marshal(plan)
}

// errorJSON writes a JSON error body with the given status.
func errorJSON(w http.ResponseWriter, status int, err error) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(map[string]string{"error": err.Error()})
}

// decodeRequest parses the request body and resolves it, once: everything
// behind the handler works on the workload it returns. The request is kept as
// it was sent — for its run hints (workers, timeout_sec) and to forward to
// another member. The decode is strict: one PlanRequest value, no field it
// does not have, and nothing but white space after it — Decode alone stops at
// the end of the first value, so a second object or plain garbage behind a
// valid request would be answered as if it were not there. The body is bounded
// by Options.MaxBodyBytes: an oversized request surfaces as
// *http.MaxBytesError, which the handlers map to 413.
func (s *Server) decodeRequest(w http.ResponseWriter, r *http.Request) (api.PlanRequest, *mario.Workload, error) {
	var req api.PlanRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, s.opts.MaxBodyBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		return req, nil, fmt.Errorf("serve: decoding request: %w", err)
	}
	if _, err := dec.Token(); err != io.EOF {
		if err == nil {
			err = errors.New("a second JSON value after the request")
		}
		return req, nil, fmt.Errorf("serve: decoding request: %w", err)
	}
	wl, err := req.Resolve()
	return req, wl, err
}

// decodeStatus maps a request-decoding failure to its HTTP status: 413 for
// a body over the MaxBodyBytes cap, 400 otherwise.
func decodeStatus(err error) int {
	var tooBig *http.MaxBytesError
	if errors.As(err, &tooBig) {
		return http.StatusRequestEntityTooLarge
	}
	return http.StatusBadRequest
}

// wantTrace reports whether the request asked for the search trace.
func wantTrace(r *http.Request) bool {
	switch r.URL.Query().Get("trace") {
	case "1", "true", "yes":
		return true
	}
	return false
}

// admissionStatus maps an admission refusal to its HTTP status.
func admissionStatus(err error) int {
	switch {
	case errors.Is(err, errBusy):
		return http.StatusTooManyRequests
	case errors.Is(err, errDraining):
		return http.StatusServiceUnavailable
	default:
		return http.StatusInternalServerError
	}
}

// handlePlan answers one plan request, blocking (/v1/plan: the envelope) or
// streaming (/v1/plan/stream: NDJSON progress lines, then a terminal line).
// Both go through the same decode, admission, cache, flight and outcome and
// differ only in how they write; the terminal line is the envelope with a
// type in front (writePlanResponse). Streams stay local: only blocking
// requests are routed to a fleet peer.
func (s *Server) handlePlan(w http.ResponseWriter, r *http.Request, stream bool) {
	start := time.Now()
	req, wl, err := s.decodeRequest(w, r)
	if err != nil {
		errorJSON(w, decodeStatus(err), err)
		return
	}
	fp := wl.Fingerprint()
	if !stream {
		if resp, ok := s.routeToPeer(r, req, fp); ok {
			s.sm.requests.Inc()
			s.sm.latency.ObserveDuration(time.Since(start))
			writePlanResponse(w, *resp, false)
			return
		}
	}
	s.sm.requests.Inc()
	s.sm.inFlight.Add(1)
	defer func() {
		s.sm.inFlight.Add(-1)
		s.sm.latency.ObserveDuration(time.Since(start))
	}()

	data, f, created, err := s.admit(req, wl)
	if err != nil {
		s.sm.rejected.Inc()
		errorJSON(w, admissionStatus(err), err)
		return
	}
	if stream {
		w.Header().Set("Content-Type", "application/x-ndjson")
	}
	if data != nil {
		s.sm.cacheHits.Inc()
		s.sm.completed.Inc()
		writePlanResponse(w, api.PlanResponse{Fingerprint: fp, Cached: true, Plan: data}, stream)
		return
	}
	s.sm.cacheMisses.Inc()
	if !created {
		s.sm.flightsShared.Inc()
	}

	var progress chan api.ProgressEvent // nil, never ready, unless streaming
	if stream {
		progress = f.subscribe()
	}
	fail := func(status int, err error) {
		if stream {
			writeRecord(w, streamRecord{Type: "error", Error: err.Error()})
		} else {
			errorJSON(w, status, err)
		}
	}
	ctx, cancel := context.WithTimeout(r.Context(), req.Timeout(s.opts.DefaultTimeout, s.opts.MaxTimeout))
	defer cancel()
	for waiting := true; waiting; {
		select {
		case ev := <-progress:
			writeRecord(w, progressRecord(ev))
		case <-f.done:
			waiting = false
		case <-ctx.Done():
			s.leave(f)
			s.sm.timeouts.Inc()
			fail(http.StatusGatewayTimeout, fmt.Errorf("serve: request abandoned: %w", ctx.Err()))
			return
		}
	}
	// Deliver progress still sitting in the buffer (broadcast happens-before
	// finish) so fast runs stream a coherent story.
	for len(progress) > 0 {
		writeRecord(w, progressRecord(<-progress))
	}
	if f.err != nil {
		s.sm.errors.Inc()
		fail(http.StatusInternalServerError, f.err)
		return
	}
	s.sm.completed.Inc()
	resp := api.PlanResponse{Fingerprint: fp, Shared: !created, Plan: f.data}
	if wantTrace(r) {
		resp.Trace = f.trace
	}
	writePlanResponse(w, resp, stream)
}

// streamRecord is an NDJSON line of the streaming endpoint other than the
// terminal plan: Type is "progress" (Explored/Best/BestThroughput set) or
// "error".
type streamRecord struct {
	Type           string  `json:"type"`
	Explored       int     `json:"explored,omitempty"`
	Best           string  `json:"best,omitempty"`
	BestThroughput float64 `json:"throughput,omitempty"`
	Error          string  `json:"error,omitempty"`
}

// progressRecord is the stream line of one progress event.
func progressRecord(ev api.ProgressEvent) streamRecord {
	return streamRecord{Type: "progress", Explored: ev.Explored, Best: ev.Best, BestThroughput: ev.BestThroughput}
}

// writeRecord writes one NDJSON line and flushes it to the client.
func writeRecord(w http.ResponseWriter, rec streamRecord) {
	json.NewEncoder(w).Encode(rec)
	if fl, ok := w.(http.Flusher); ok {
		fl.Flush()
	}
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	draining := s.draining
	s.mu.Unlock()
	plans, _ := s.cache.size()
	h := api.Health{
		OK:          !draining,
		Draining:    draining,
		InFlight:    s.sm.inFlight.Value(),
		Queued:      len(s.jobs),
		CachedPlans: plans,
	}
	w.Header().Set("Content-Type", "application/json")
	if draining {
		w.WriteHeader(http.StatusServiceUnavailable)
	}
	json.NewEncoder(w).Encode(h)
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	// Scrape-time gauges: refreshed here so the registry render is the
	// whole exposition.
	s.sm.queueDepth.Set(int64(len(s.jobs)))
	plans, bytes := s.cache.size()
	s.sm.cachedPlans.Set(int64(plans))
	s.sm.cachedPlanBytes.Set(bytes)
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	s.reg.WriteProm(w)
}

func (s *Server) handleFlight(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	w.Write(s.flightRec.Dump())
}

func (s *Server) handleModels(w http.ResponseWriter, r *http.Request) {
	models := mario.Models()
	names := make([]string, 0, len(models))
	for name := range models {
		names = append(names, name)
	}
	sort.Strings(names)
	writeJSON(w, map[string][]string{"models": names})
}

// writeJSON encodes v as the response body: /v1/models.
func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(v)
}

// writePlanResponse writes a /v1/plan answer — cache hit, fresh or shared
// flight, or an owner's answer being relayed — byte for byte as
// json.NewEncoder(w).Encode(resp) would, at a cost that does not depend on
// what the plan weighs. As a stream's terminal line (stream set) it writes
// the same bytes with {"type":"plan", in place of the opening brace, and no
// header. The encoder treats a RawMessage as untrusted: it re-validates and
// re-compacts every byte of the plan on every response. Here the envelope
// fields are written around resp.Plan and resp.Trace, which go out as they
// are stored. That is sound because of where they come from, not because
// they are checked again: Server.run and runFlight produce them with
// json.Marshal, and client.PlanRouted takes them out of a body whose whole
// grammar api.ParsePlanResponse has checked.
func writePlanResponse(w http.ResponseWriter, resp api.PlanResponse, stream bool) {
	buf := headPool.Get().(*[256]byte)
	defer headPool.Put(buf)
	head := append(buf[:0], '{')
	if stream {
		head = append(head, `"type":"plan",`...)
	}
	head = appendJSONString(append(head, `"fingerprint":`...), resp.Fingerprint)
	head = strconv.AppendBool(append(head, `,"cached":`...), resp.Cached)
	if resp.Shared {
		head = append(head, `,"shared":true`...)
	}
	if resp.Peer != "" {
		head = appendJSONString(append(head, `,"peer":`...), resp.Peer)
	}
	head = append(head, `,"plan":`...)
	plan := resp.Plan
	if len(plan) == 0 {
		plan = nullJSON
	}
	size := len(head) + len(plan) + len(planTail)
	if len(resp.Trace) > 0 {
		size += len(traceKey) + len(resp.Trace)
	}
	if !stream {
		w.Header()["Content-Type"] = jsonContentType
		w.Header().Set("Content-Length", strconv.Itoa(size))
	}
	w.Write(head)
	w.Write(plan)
	if len(resp.Trace) > 0 {
		w.Write(traceKey)
		w.Write(resp.Trace)
	}
	w.Write(planTail)
}

// What every plan response shares: its Content-Type value (one slice for all
// responses — net/http reads header values and never writes into them), a
// pool of head buffers, as the encoder pooled its own, and the constant
// pieces after the head — the spelling of a plan it does not have, the key of
// the optional trace, and the end.
var (
	jsonContentType = []string{"application/json"}
	headPool        = sync.Pool{New: func() any { return new([256]byte) }}
	nullJSON        = []byte("null")
	traceKey        = []byte(`,"trace":`)
	planTail        = []byte("}\n")
)

// appendJSONString appends s to dst as the JSON string encoding/json writes
// for it. A string of printable ASCII with nothing encoding/json escapes —
// every fingerprint, any sane peer URL — is itself between quotes; anything
// else is quoted by encoding/json.
func appendJSONString(dst []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < ' ' || c > '~' || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			quoted, _ := json.Marshal(s) // a string always encodes
			return append(dst, quoted...)
		}
	}
	return append(append(append(dst, '"'), s...), '"')
}
