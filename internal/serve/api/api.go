// Package api holds the wire types of the mariod planning service: the
// plan request/response bodies, the streaming progress record, the health
// report and the fleet shard protocol. It exists so the server
// (internal/serve) and the client (internal/serve/client) can share one
// vocabulary without importing each other — the server dispatches shard
// batches through the client when it coordinates a fleet.
//
// Compatibility note: internal/serve re-exports these types under their
// historical names (serve.PlanRequest = api.PlanRequest, …), so existing
// callers see no change.
package api

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"strings"
	"time"

	"mario"
	"mario/internal/cost"
	"mario/internal/pipeline"
	"mario/internal/place"
	"mario/internal/profile"
	"mario/internal/tuner"
)

// PlanRequest is the body of POST /v1/plan and /v1/plan/stream: a JSON
// mirror of mario.Config plus a model reference. Fields that steer the plan
// (model, cluster shape, search space, machine spec, tuner knobs) enter the
// workload fingerprint; resource hints (Workers, TimeoutSec) do not — by the
// tuner's determinism contract they cannot change the result, only how fast
// or how long the server is willing to chase it.
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
	// the hardware default.
	Memory string `json:"memory,omitempty"`
	// TP is the fixed tensor-parallel degree; absent means 1, and Validate
	// makes a spelled-out 1 absent — the search resolves both to the same
	// space, so they are one workload under one fingerprint.
	TP int `json:"tp,omitempty"`
	// Checkpoint forces Mario's checkpointing on or off; nil lets the
	// tuner decide.
	Checkpoint *bool `json:"checkpoint,omitempty"`
	// SplitBackward additionally tries the ZB-H1 split-backward pass.
	SplitBackward bool `json:"split_backward,omitempty"`
	// MicroBatches restricts the candidate micro-batch sizes; absent means
	// powers of two, and so does an empty list — the schema's omitempty
	// drops one whenever a request is encoded again (a member forwarding it
	// to its owner does), so Validate makes it nil and the two are one
	// workload under one fingerprint. Order matters (it is the grid
	// iteration order), so a non-empty list is fingerprinted as given.
	MicroBatches []int `json:"micro_batches,omitempty"`
	// MinPP and MaxPP bound the pipeline dimension.
	MinPP int `json:"min_pp,omitempty"`
	MaxPP int `json:"max_pp,omitempty"`
	// NoPrune disables the bound and memory prunes so the trace holds the
	// full Fig. 11 curve. It changes the trace, hence it is fingerprinted.
	NoPrune bool `json:"no_prune,omitempty"`
	// NoBnB expands the grid in canonical order instead of best-first by
	// bound. The best plan is identical, but the trace and search stats
	// differ, hence it is fingerprinted.
	NoBnB bool `json:"no_bnb,omitempty"`
	// Machine overrides the emulated hardware imperfections; nil uses
	// profile.DefaultMachine.
	Machine *profile.MachineSpec `json:"machine,omitempty"`
	// Hardware overrides the device description; nil uses A100-40G.
	Hardware *cost.Hardware `json:"hardware,omitempty"`
	// DeviceSpeeds declares per-device relative compute speeds (1 = nominal);
	// empty means homogeneous. When set it must hold exactly Devices positive
	// entries. Heterogeneous speeds open the tuner's partitioning/placement
	// axis, so the field is fingerprinted (all-nominal lists canonicalize to
	// nil first).
	DeviceSpeeds []float64 `json:"device_speeds,omitempty"`
	// Placement selects the partitioning/placement search mode ("auto",
	// "uniform", "coopt"); empty means auto. Fingerprinted (canonicalized to
	// lower case, with "auto" normalized to empty).
	Placement string `json:"placement,omitempty"`

	// Workers is a per-request hint for tuner parallelism, capped by the
	// server; 0 uses the server default. Not fingerprinted: the plan is
	// identical for every worker count.
	Workers int `json:"workers,omitempty"`
	// TimeoutSec overrides the server's default per-request deadline,
	// capped by the server's maximum. Not fingerprinted.
	TimeoutSec float64 `json:"timeout_sec,omitempty"`
}

// Validate checks the request and canonicalizes the fields the fingerprint
// depends on: the scheme is resolved to its canonical name, the memory spec
// to bytes, the model reference to a concrete configuration, and every
// spelling of a default to the absent field (tp 1, an empty micro_batches,
// all-nominal device_speeds, placement "auto"). What it leaves survives
// json.Marshal → decode → Validate with the same fingerprint, which is what
// the peer hop relies on (FuzzPlanRequestCanonical). It returns the resolved
// model.
func (r *PlanRequest) Validate() (cost.ModelConfig, error) {
	var model cost.ModelConfig
	switch {
	case r.Model != "" && r.ModelConfig != nil:
		return model, fmt.Errorf("serve: set model or model_config, not both")
	case r.ModelConfig != nil:
		model = *r.ModelConfig
	case r.Model != "":
		m, ok := mario.Models()[r.Model]
		if !ok {
			return model, fmt.Errorf("serve: unknown model %q", r.Model)
		}
		model = m
	default:
		return model, fmt.Errorf("serve: model or model_config is required")
	}
	if err := model.Validate(); err != nil {
		return model, err
	}
	if r.Devices <= 0 || r.GlobalBatch <= 0 {
		return model, fmt.Errorf("serve: devices (%d) and global_batch (%d) must be positive", r.Devices, r.GlobalBatch)
	}
	if name := strings.TrimSpace(r.Scheme); name == "" || strings.EqualFold(name, "auto") {
		r.Scheme = "Auto"
	} else {
		s, err := pipeline.ParseScheme(name)
		if err != nil {
			return model, err
		}
		r.Scheme = string(s)
	}
	if r.Memory != "" {
		if _, err := mario.ParseMemory(r.Memory); err != nil {
			return model, err
		}
	}
	if r.TP < 0 {
		return model, fmt.Errorf("serve: tp must not be negative (got %d)", r.TP)
	}
	if r.TP == 1 {
		r.TP = 0 // the search resolves an absent degree to 1
	}
	for _, m := range r.MicroBatches {
		if m <= 0 {
			return model, fmt.Errorf("serve: micro_batches entries must be positive (got %d)", m)
		}
	}
	if len(r.MicroBatches) == 0 {
		r.MicroBatches = nil // omitempty cannot send an empty list, so it is the absent one
	}
	if len(r.DeviceSpeeds) != 0 && len(r.DeviceSpeeds) != r.Devices {
		return model, fmt.Errorf("serve: %d device_speeds entries for %d devices", len(r.DeviceSpeeds), r.Devices)
	}
	for d, v := range r.DeviceSpeeds {
		if v <= 0 {
			return model, fmt.Errorf("serve: device_speeds[%d] = %g must be positive", d, v)
		}
	}
	if place.Homogeneous(r.DeviceSpeeds) {
		r.DeviceSpeeds = nil // all-nominal speeds are the homogeneous workload
	}
	pmode, err := place.ParseMode(r.Placement)
	if err != nil {
		return model, err
	}
	if pmode == place.ModeAuto {
		r.Placement = "" // the default mode fingerprints like an absent field
	} else {
		r.Placement = string(pmode)
	}
	if r.TimeoutSec < 0 {
		return model, fmt.Errorf("serve: timeout_sec must not be negative")
	}
	return model, nil
}

// fingerprintKey is the canonical identity of a planning workload. Field
// order is fixed and every field is either a value or a canonicalized
// pointer, so encoding/json renders identical requests to identical bytes.
type fingerprintKey struct {
	Model        cost.ModelConfig     `json:"model"`
	Scheme       string               `json:"scheme"`
	GlobalBatch  int                  `json:"global_batch"`
	Devices      int                  `json:"devices"`
	MemoryBytes  float64              `json:"memory_bytes"`
	TP           int                  `json:"tp"`
	Checkpoint   *bool                `json:"checkpoint"`
	Split        bool                 `json:"split"`
	MicroBatches []int                `json:"micro_batches"`
	MinPP        int                  `json:"min_pp"`
	MaxPP        int                  `json:"max_pp"`
	NoPrune      bool                 `json:"no_prune"`
	NoBnB        bool                 `json:"no_bnb"`
	Machine      *profile.MachineSpec `json:"machine"`
	Hardware     *cost.Hardware       `json:"hardware"`
	DeviceSpeeds []float64            `json:"device_speeds"`
	Placement    string               `json:"placement"`
}

// Fingerprint returns the workload fingerprint: a hex SHA-256 over the
// canonical JSON of every plan-steering field. Call Validate first — the
// fingerprint assumes canonicalized scheme and memory fields.
func (r *PlanRequest) Fingerprint(model cost.ModelConfig) string {
	memBytes := 0.0
	if r.Memory != "" {
		memBytes, _ = mario.ParseMemory(r.Memory) // validated already
	}
	key := fingerprintKey{
		Model:        model,
		Scheme:       r.Scheme,
		GlobalBatch:  r.GlobalBatch,
		Devices:      r.Devices,
		MemoryBytes:  memBytes,
		TP:           r.TP,
		Checkpoint:   r.Checkpoint,
		Split:        r.SplitBackward,
		MicroBatches: r.MicroBatches,
		MinPP:        r.MinPP,
		MaxPP:        r.MaxPP,
		NoPrune:      r.NoPrune,
		NoBnB:        r.NoBnB,
		Machine:      r.Machine,
		Hardware:     r.Hardware,
		DeviceSpeeds: r.DeviceSpeeds,
		Placement:    r.Placement,
	}
	data, err := json.Marshal(key)
	if err != nil {
		// Unreachable: every field is a plain value. Fail closed with a
		// never-matching fingerprint rather than panicking a server.
		return fmt.Sprintf("unfingerprintable:%v", err)
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:])
}

// Config translates the request into a mario.Config. workers is the resolved
// tuner parallelism (the server caps the request's hint).
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
		NoPrune:         r.NoPrune,
		NoBnB:           r.NoBnB,
		Workers:         workers,
		DeviceSpeeds:    r.DeviceSpeeds,
		Placement:       r.Placement,
	}
	if r.Machine != nil {
		conf.Machine = *r.Machine
	}
	if r.Hardware != nil {
		conf.Hardware = r.Hardware
	}
	return conf
}

// Timeout resolves the request's deadline against the server's default and
// ceiling.
func (r *PlanRequest) Timeout(def, max time.Duration) time.Duration {
	d := def
	if r.TimeoutSec > 0 {
		d = time.Duration(r.TimeoutSec * float64(time.Second))
	}
	if max > 0 && d > max {
		d = max
	}
	return d
}

// PlanResponse is the body of a successful POST /v1/plan (and the terminal
// record of the streaming endpoint carries the same fields).
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

// ShardProtoVersion is the fleet shard protocol version. A coordinator and
// its workers must agree exactly: a worker refuses a mismatched Proto with
// 400, and the coordinator's local fallback keeps the search exact while a
// mixed-version fleet rolls. Version 2 added the partitioning/placement
// workload fields (device_speeds, placement), which change the enumerated
// grid — a version-1 worker would index a different point list. Version 3
// dropped the per-instruction timeline from outcome candidates (the search
// scores points without one and re-simulates only the winner): a version-2
// worker would still ship timelines, and merging those beside local slim
// candidates would break the fleet ≡ local byte-identity of the plan. Version 4
// dropped the schedule too: an outcome candidate is coordinates, placement
// assignment and result totals, the coordinator rebuilds the one schedule it
// keeps (the winner's) itself, and a version-3 worker's schedules would land in
// the trace of a plan that must carry none. The coordinator checks the version
// and the fingerprint a response echoes; a mismatch is a dispatch error.
const ShardProtoVersion = 4

// ShardRequest is the body of POST /v1/shard: one coordinator-probed batch
// of grid points for the worker to evaluate against the given workload.
type ShardRequest struct {
	// Proto is the shard protocol version (ShardProtoVersion).
	Proto int `json:"proto"`
	// Workload identifies the search the points index into. The worker
	// validates and fingerprints it exactly like a plan request, so the
	// enumerated grid is the coordinator's bit for bit.
	Workload PlanRequest `json:"workload"`
	// Points are the probed grid points, in dispatch order.
	Points []tuner.ShardPoint `json:"points"`
	// Incumbent is the coordinator's best throughput so far; nil means no
	// incumbent yet (first wave).
	Incumbent *float64 `json:"incumbent,omitempty"`
}

// ShardResponse is the worker's reply: one outcome per dispatched point.
type ShardResponse struct {
	// Proto echoes the shard protocol version.
	Proto int `json:"proto"`
	// Fingerprint is the workload fingerprint the worker resolved. The
	// coordinator refuses a response whose fingerprint is not its own: the
	// worker enumerated another grid, so its indices name other points.
	Fingerprint string `json:"fingerprint"`
	// Outcomes mirror Points order, keyed by Idx.
	Outcomes []tuner.ShardOutcome `json:"outcomes"`
}
