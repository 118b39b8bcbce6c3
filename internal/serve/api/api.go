// Package api holds the wire types of the mariod planning service: the
// plan request/response bodies, the streaming progress record, the health
// report. It exists so the server (internal/serve) and the client
// (internal/serve/client) can share one vocabulary without importing each
// other — a fleet member forwards plan requests to their owner through the
// client.
//
// These are the wire types' only names: the server, the client and the
// commands all import them from here. The streaming endpoint's terminal line
// carries the PlanResponse members behind a "type" member, so
// ParsePlanResponse reads it too.
package api

import (
	"encoding/json"
	"fmt"
	"math"
	"time"

	"mario"
	"mario/internal/cost"
	"mario/internal/profile"
)

// PlanRequest is the body of POST /v1/plan and /v1/plan/stream: a JSON
// spelling of mario.Config plus a model reference. What the request resolves
// to (Resolve) is the workload, and the workload's hash its fingerprint;
// Workers and TimeoutSec are not part of it — by the tuner's determinism
// contract they cannot change the result, only how fast or how long the server
// is willing to chase it.
type PlanRequest struct {
	// Model names a built-in preset (GPT3-13B, LLaMA2-3B, …). Exactly one
	// of Model and ModelConfig must be set.
	Model string `json:"model,omitempty"`
	// ModelConfig describes a custom model inline.
	ModelConfig *cost.ModelConfig `json:"model_config,omitempty"`
	// Scheme is "Auto" (default), a scheme name or a shape alias, as in
	// mario.Config.PipelineScheme.
	Scheme string `json:"scheme,omitempty"`
	// GlobalBatch and Devices shape the job (both required).
	GlobalBatch int `json:"global_batch"`
	Devices     int `json:"devices"`
	// Memory is the per-device budget ("40G", "512M", bytes); empty keeps
	// the hardware's.
	Memory string `json:"memory,omitempty"`
	// TP is the fixed tensor-parallel degree; absent means 1.
	TP int `json:"tp,omitempty"`
	// Checkpoint forces Mario's checkpointing on or off; nil lets the
	// tuner decide.
	Checkpoint *bool `json:"checkpoint,omitempty"`
	// SplitBackward additionally tries the ZB-H1 split-backward pass.
	SplitBackward bool `json:"split_backward,omitempty"`
	// MicroBatches restricts the candidate micro-batch sizes; absent or
	// empty means powers of two up to 32. Order matters: it is the grid
	// iteration order.
	MicroBatches []int `json:"micro_batches,omitempty"`
	// MinPP and MaxPP bound the pipeline dimension.
	MinPP int `json:"min_pp,omitempty"`
	MaxPP int `json:"max_pp,omitempty"`
	// NoBnB expands the grid in canonical order instead of best-first by
	// bound. The best plan is identical, but the trace and search stats
	// differ, so it is part of the workload.
	NoBnB bool `json:"no_bnb,omitempty"`
	// Machine overrides the emulated hardware imperfections; nil or {} uses
	// profile.DefaultMachine.
	Machine *profile.MachineSpec `json:"machine,omitempty"`
	// Hardware overrides the device description; nil uses A100-40G.
	Hardware *cost.Hardware `json:"hardware,omitempty"`
	// DeviceSpeeds declares per-device relative compute speeds (1 = nominal);
	// empty or all-nominal means homogeneous. When set it must hold exactly
	// Devices positive entries. Heterogeneous speeds open the tuner's
	// partitioning/placement axis.
	DeviceSpeeds []float64 `json:"device_speeds,omitempty"`
	// Placement selects the partitioning/placement search mode ("auto",
	// "uniform", "coopt"); empty means auto.
	Placement string `json:"placement,omitempty"`

	// Workers is a per-request hint for tuner parallelism, capped by the
	// server; 0 uses the server default. The plan is identical for every
	// worker count.
	Workers int `json:"workers,omitempty"`
	// TimeoutSec overrides the server's default per-request deadline,
	// capped by the server's maximum.
	TimeoutSec float64 `json:"timeout_sec,omitempty"`
}

// Resolve is the request's one check: the model reference is looked up,
// mario.Resolve validates and resolves everything that steers the plan, and
// timeout_sec — the one field with a range that is the service's own — is
// checked here. The request is not modified: forwarded to another member as it
// was sent, it resolves there to the same workload.
func (r *PlanRequest) Resolve() (*mario.Workload, error) {
	var model cost.ModelConfig
	switch {
	case r.Model != "" && r.ModelConfig != nil:
		return nil, fmt.Errorf("serve: set model or model_config, not both")
	case r.ModelConfig != nil:
		model = *r.ModelConfig
	case r.Model != "":
		var ok bool
		if model, ok = mario.LookupModel(r.Model); !ok {
			return nil, fmt.Errorf("serve: unknown model %q", r.Model)
		}
	default:
		return nil, fmt.Errorf("serve: model or model_config is required")
	}
	if r.TimeoutSec < 0 {
		return nil, fmt.Errorf("serve: timeout_sec must not be negative")
	}
	return mario.Resolve(r.Config(0), model)
}

// Validate is Resolve for callers that want the model and build the
// mario.Config themselves (Config).
func (r *PlanRequest) Validate() (cost.ModelConfig, error) {
	w, err := r.Resolve()
	if err != nil {
		return cost.ModelConfig{}, err
	}
	return w.Model, nil
}

// Fingerprint is the fingerprint of the workload the request resolves to with
// the given model (mario.Workload.Fingerprint). A request that does not
// resolve gets a fingerprint that matches nothing.
func (r *PlanRequest) Fingerprint(model cost.ModelConfig) string {
	w, err := mario.Resolve(r.Config(0), model)
	if err != nil {
		return fmt.Sprintf("unfingerprintable:%v", err)
	}
	return w.Fingerprint()
}

// Config spells the request as a mario.Config. workers is the resolved tuner
// parallelism (the server caps the request's hint).
func (r *PlanRequest) Config(workers int) mario.Config {
	conf := mario.Config{
		PipelineScheme:  r.Scheme,
		GlobalBatchSize: r.GlobalBatch,
		NumDevices:      r.Devices,
		MemoryPerDevice: r.Memory,
		TP:              r.TP,
		Checkpoint:      r.Checkpoint,
		SplitBackward:   r.SplitBackward,
		MicroBatchSizes: r.MicroBatches,
		MinPP:           r.MinPP,
		MaxPP:           r.MaxPP,
		NoBnB:           r.NoBnB,
		Workers:         workers,
		DeviceSpeeds:    r.DeviceSpeeds,
		Placement:       r.Placement,
		Hardware:        r.Hardware,
	}
	if r.Machine != nil {
		conf.Machine = *r.Machine
	}
	return conf
}

// Timeout resolves the request's deadline against the server's default and
// ceiling (none when max is not positive).
func (r *PlanRequest) Timeout(def, max time.Duration) time.Duration {
	ceil := max
	if ceil <= 0 {
		ceil = math.MaxInt64
	}
	d := def
	if r.TimeoutSec > 0 {
		// Compared in seconds: from about 9.2e9 s on, the nanosecond count
		// overflows a Duration.
		if r.TimeoutSec >= ceil.Seconds() {
			return ceil
		}
		d = time.Duration(r.TimeoutSec * float64(time.Second))
	}
	return min(d, ceil)
}

// PlanResponse is the body of a successful POST /v1/plan (and the terminal
// record of the streaming endpoint carries the same members, byte for byte).
type PlanResponse struct {
	// Fingerprint is the canonical workload identity the plan is cached
	// under.
	Fingerprint string `json:"fingerprint"`
	// Cached reports that the plan came from the LRU cache; Shared that the
	// request joined an already-running identical flight. Both false means
	// this request's flight computed the plan.
	Cached bool `json:"cached"`
	Shared bool `json:"shared,omitempty"`
	// Peer is the base URL of the fleet member that answered, set when the
	// consistent-hash router forwarded this request to the workload's
	// owner. The plan bytes are identical either way.
	Peer string `json:"peer,omitempty"`
	// Plan is the plan JSON (mario.LoadPlan decodes it). Byte-identical to
	// json.Marshal of the mario.Optimize result for the same inputs,
	// whether cached, shared, fresh or peer-answered: the server stores
	// those bytes once and writes them into every response as they are,
	// without encoding them again. In a response ParsePlanResponse read,
	// Plan and Trace are slices of the body that was read, not copies.
	Plan json.RawMessage `json:"plan"`
	// Trace is the canonical search trace ({"fingerprint":..,"spans":[..]}),
	// present when the request asked for ?trace=1 and a tuner run answered
	// it, on this member or on the owner the request was routed to (cache
	// hits carry no trace — the original run's trace lives in the flight
	// recorder of the member that ran it). Byte-identical across worker
	// counts.
	Trace json.RawMessage `json:"trace,omitempty"`
}

// ProgressEvent is one tuner progress update, streamed to every subscriber
// of a flight as it searches. Events arrive in canonical grid order (the
// tuner's merge-loop contract); a slow subscriber may observe gaps — each
// event is a complete snapshot, so dropping intermediate ones loses nothing
// but granularity.
type ProgressEvent struct {
	// Explored is the number of candidates merged so far.
	Explored int `json:"explored"`
	// Best and BestThroughput describe the best configuration found so far.
	Best           string  `json:"best"`
	BestThroughput float64 `json:"throughput"`
}

// Health is the /healthz body.
type Health struct {
	// OK is false while the server is draining.
	OK bool `json:"ok"`
	// Draining reports that shutdown has begun (new plan requests are
	// refused; in-flight ones are finishing).
	Draining bool `json:"draining"`
	// InFlight and Queued describe current load; CachedPlans the LRU fill.
	InFlight    int64 `json:"in_flight"`
	Queued      int   `json:"queued"`
	CachedPlans int   `json:"cached_plans"`
}

// RoutedHeader marks a plan request already forwarded once by the
// consistent-hash router; the receiving member answers locally instead of
// routing again, so ring disagreement during membership changes cannot
// bounce a request around the fleet.
const RoutedHeader = "X-Mario-Routed"
