package serve

import "mario/internal/telemetry"

// serverMetrics are the planning service's registry-backed instruments.
// The series names are the service's stable monitoring interface (the
// mariod selfcheck and the ops docs grep for them), unchanged from the
// hand-rolled obs.ServerStats counters they replaced.
type serverMetrics struct {
	// requests counts plan requests that passed validation (both the
	// blocking and the streaming endpoint).
	requests *telemetry.Counter
	// cacheHits and cacheMisses count plan-cache lookups.
	cacheHits, cacheMisses *telemetry.Counter
	// flightsShared counts requests that joined an already-running tuner
	// flight instead of starting their own (singleflight deduplication).
	flightsShared *telemetry.Counter
	// tunerRuns counts tuner executions actually started — the number the
	// singleflight/cache layers exist to minimise.
	tunerRuns *telemetry.Counter
	// rejected counts requests refused by admission control; timeouts
	// requests that gave up waiting; errors requests that failed
	// internally; completed requests answered with a plan.
	rejected, timeouts, errors, completed *telemetry.Counter
	// inFlight is the number of plan requests currently being handled.
	inFlight *telemetry.Gauge
	// queueDepth, cachedPlans, cachedPlanBytes and cacheCapacity are
	// scrape-time gauges the metrics handler refreshes before rendering. The
	// cache is bounded in entries (cacheCapacity); cachedPlanBytes is what
	// that bound currently amounts to in memory.
	queueDepth, cachedPlans, cachedPlanBytes, cacheCapacity *telemetry.Gauge
	// latency is the end-to-end plan-request latency histogram.
	latency *telemetry.Histogram
	// peerRoutedOK and peerRoutedErr count blocking plan requests forwarded
	// to their consistent-hash owner, by outcome (an error falls back to
	// local computation).
	peerRoutedOK, peerRoutedErr *telemetry.Counter
}

// newServerMetrics registers the mario_serve_* series on r.
func newServerMetrics(r *telemetry.Registry) *serverMetrics {
	return &serverMetrics{
		requests:        r.Counter("mario_serve_requests_total", "Validated plan requests."),
		cacheHits:       r.Counter("mario_serve_cache_hits_total", "Plan-cache hits."),
		cacheMisses:     r.Counter("mario_serve_cache_misses_total", "Plan-cache misses."),
		flightsShared:   r.Counter("mario_serve_flights_shared_total", "Requests deduplicated onto a running flight."),
		tunerRuns:       r.Counter("mario_serve_tuner_runs_total", "Tuner executions started."),
		rejected:        r.Counter("mario_serve_rejected_total", "Requests refused by admission control."),
		timeouts:        r.Counter("mario_serve_timeouts_total", "Requests that gave up waiting."),
		errors:          r.Counter("mario_serve_errors_total", "Requests failed with an internal error."),
		completed:       r.Counter("mario_serve_completed_total", "Requests answered with a plan."),
		inFlight:        r.Gauge("mario_serve_in_flight", "Plan requests currently being handled."),
		queueDepth:      r.Gauge("mario_serve_queue_depth", "Flights waiting for a worker."),
		cachedPlans:     r.Gauge("mario_serve_cached_plans", "Plans in the LRU cache."),
		cachedPlanBytes: r.Gauge("mario_serve_cached_plan_bytes", "Bytes of plan JSON held by the LRU cache."),
		cacheCapacity:   r.Gauge("mario_serve_cache_capacity", "LRU cache capacity."),
		latency:         r.Histogram("mario_serve_request_seconds", "End-to-end plan-request latency.", telemetry.LatencyBounds),

		peerRoutedOK:  r.LabeledCounter("mario_serve_peer_routed_total", "Plan requests forwarded to their hash-ring owner.", "result", "ok"),
		peerRoutedErr: r.LabeledCounter("mario_serve_peer_routed_total", "Plan requests forwarded to their hash-ring owner.", "result", "error"),
	}
}
