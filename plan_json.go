package mario

import (
	"encoding/json"
	"fmt"
	"io"
	"slices"

	"mario/internal/cost"
	"mario/internal/profile"
	"mario/internal/tuner"
)

// The Plan JSON codec makes optimized plans durable, cacheable artifacts:
// the planning service (internal/serve) stores and serves them, and the
// remote client reconstructs a fully functional *Plan — Run, Drift and
// Visualize all work on a decoded plan, because the profiler is rebuilt from
// its deterministic inputs (model, hardware, machine spec, probe shape) and
// Best is re-simulated from its schedule.
//
// The encoding is deterministic: the same plan always marshals to the same
// bytes (struct-field order is fixed and encoding/json's float formatting is
// canonical), which is what lets the service promise cache hits that are
// byte-identical to a fresh Optimize.

// planVersion guards the wire format; bump it on incompatible changes.
// Version 2 added the partitioning/placement fields (Candidate.PlaceMode,
// Candidate.Place); their omitempty encoding keeps an axis-free version-2
// body identical to a version-1 body, so version-1 plans decode unchanged.
// Version 3 writes trace candidates without their schedules — Best is byte for
// byte what version 2 wrote — and records split_backward, the one input of a
// trace candidate's schedule (tuner.Space.SplitBackward) the body did not
// already carry. Version 4 writes no per-instruction timeline, Best's
// included (sim.Result.Timeline is never encoded): a reader re-simulates Best
// for it, and a version-3 reader, which would draw an empty chart from a body
// with none, refuses the version instead. Version-1 to -3 bodies still load —
// their timelines are ignored — and keep the trace schedules they carry;
// every save writes version 4.
const planVersion = 4

// minPlanVersion is the oldest wire format UnmarshalJSON still accepts.
const minPlanVersion = 1

// profilerJSON captures the deterministic inputs of a profile.Profiler. The
// probe-fit cache is deliberately absent: it is rebuilt on demand and, with
// the same inputs, refits to identical estimators.
type profilerJSON struct {
	Model   cost.ModelConfig    `json:"model"`
	HW      cost.Hardware       `json:"hw"`
	Spec    profile.MachineSpec `json:"spec"`
	Devices int                 `json:"devices"`
	Iters   int                 `json:"iters"`
}

// planJSON is the wire form of a Plan.
type planJSON struct {
	Version     int               `json:"version"`
	Best        tuner.Candidate   `json:"best"`
	Trace       []tuner.Candidate `json:"trace"`
	SearchStats tuner.SearchStats `json:"search_stats"`
	Profiler    profilerJSON      `json:"profiler"`
	MemLimit    float64           `json:"mem_limit"`
	TP          int               `json:"tp"`
	// SplitBackward records Config.SplitBackward: with tp and mem_limit it is
	// what rebuilds a trace candidate's schedule from its coordinates.
	SplitBackward bool `json:"split_backward,omitempty"`
}

// MarshalJSON implements json.Marshaler. Best is written with its schedule,
// so Run of a decoded plan needs no extra work, and its result totals; no
// candidate is written with a per-instruction timeline, which Drift and
// Visualize re-simulate from Best's schedule. The tuning trace is written as
// what Rank and Fig. 11 read — every candidate's coordinates, placement
// assignment and result totals (makespan, per-device peak memory and
// compute-busy time, throughput, OOM verdict) — and never with a schedule: a
// fresh search's trace holds none, and the ones a version-1 or -2 body brought
// along are dropped on save. Resimulate rebuilds any candidate's schedule and
// timeline from its coordinates and the space fields (tp, mem_limit,
// split_backward), so a decoded plan supports the same post-hoc analysis as
// the original.
func (p *Plan) MarshalJSON() ([]byte, error) {
	if p.Profiler == nil {
		return nil, fmt.Errorf("mario: plan has no profiler; only plans built by Optimize are serialisable")
	}
	trace := slices.Clone(p.Trace)
	for i := range trace {
		trace[i].Schedule = nil
	}
	return json.Marshal(planJSON{
		Version:     planVersion,
		Best:        p.Best,
		Trace:       trace,
		SearchStats: p.SearchStats,
		Profiler: profilerJSON{
			Model:   p.Profiler.Model,
			HW:      p.Profiler.HW,
			Spec:    p.Profiler.Spec,
			Devices: p.Profiler.Devices,
			Iters:   p.Profiler.Iters,
		},
		MemLimit:      p.space.DeviceMem,
		TP:            p.space.TP,
		SplitBackward: p.space.SplitBackward,
	})
}

// UnmarshalJSON implements json.Unmarshaler. Schedules embedded in the plan
// are re-validated by the pipeline codec, so corrupted or hand-edited files
// are rejected; the profiler is reconstructed with an empty probe cache.
func (p *Plan) UnmarshalJSON(data []byte) error {
	var in planJSON
	if err := json.Unmarshal(data, &in); err != nil {
		return fmt.Errorf("mario: decoding plan: %w", err)
	}
	if in.Version < minPlanVersion || in.Version > planVersion {
		return fmt.Errorf("mario: plan version %d not supported (want %d..%d)", in.Version, minPlanVersion, planVersion)
	}
	if in.Best.Schedule == nil {
		return fmt.Errorf("mario: decoded plan has no schedule")
	}
	p.Best = in.Best
	p.Trace = in.Trace
	p.SearchStats = in.SearchStats
	p.Profiler = &profile.Profiler{
		Model:   in.Profiler.Model,
		HW:      in.Profiler.HW,
		Spec:    in.Profiler.Spec,
		Devices: in.Profiler.Devices,
		Iters:   in.Profiler.Iters,
	}
	p.space = planSpace(&p.Best, in.TP, in.MemLimit, in.SplitBackward)
	return nil
}

// SavePlan writes a plan as JSON — the durable artifact the planning service
// caches and serves. LoadPlan restores it.
func SavePlan(w io.Writer, p *Plan) error {
	data, err := json.Marshal(p)
	if err != nil {
		return err
	}
	_, err = w.Write(data)
	return err
}

// LoadPlan reads a JSON plan written by SavePlan (or returned by the
// planning service) and reconstructs a runnable *Plan.
func LoadPlan(data []byte) (*Plan, error) {
	p := new(Plan)
	if err := json.Unmarshal(data, p); err != nil {
		return nil, err
	}
	return p, nil
}
