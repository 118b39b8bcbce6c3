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

import "mario/internal/serve/api"

// The wire types live in mario/internal/serve/api so the server and the
// client can share them without importing each other; these aliases keep
// the historical serve.* names working.
type (
	// PlanRequest is the body of POST /v1/plan and /v1/plan/stream.
	PlanRequest = api.PlanRequest
	// PlanResponse is the body of a successful POST /v1/plan.
	PlanResponse = api.PlanResponse
	// ProgressEvent is one streamed tuner progress update.
	ProgressEvent = api.ProgressEvent
	// Health is the /healthz body.
	Health = api.Health
)
