// Package mario is a Go reproduction of "Mario: Near Zero-cost Activation
// Checkpointing in Pipeline Parallelism" (PPoPP '25): a pipeline optimizer
// that tessellates activation checkpointing into existing pipeline schemes
// (1F1B "V", Chimera "X", Interleave "W"), hiding the recomputation in
// pipeline bubbles and balancing activation memory across devices.
//
// The public interface mirrors the paper's Listing 1: describe the cluster
// and the model, call Optimize to search for the best (scheme, pp, dp,
// micro-batch, checkpointing) configuration, and Run to execute the chosen
// schedule — here on an emulated cluster with one goroutine per device,
// since no GPUs are attached.
//
//	conf := mario.Config{PipelineScheme: "Auto", GlobalBatchSize: 128,
//	    NumDevices: 32, MemoryPerDevice: "40G"}
//	model := mario.Model("GPT3-13B")
//	plan, err := mario.Optimize(conf, model)
//	report, err := mario.Run(plan, 10)
package mario

import (
	"context"
	"fmt"
	"io"
	"math"
	"slices"
	"strconv"
	"strings"

	"mario/internal/cluster"
	"mario/internal/cost"
	"mario/internal/obs"
	"mario/internal/profile"
	"mario/internal/sim"
	"mario/internal/telemetry"
	"mario/internal/tuner"
	"mario/internal/viz"
)

// Config is the mario_conf of Listing 1.
type Config struct {
	// PipelineScheme is "Auto" (search the paper's three schemes), a
	// scheme name ("1F1B", "Chimera", "Interleave", "GPipe", "ZB-H1",
	// "DualPipe-D") or a shape alias ("V", "X", "W", "Z", "D"). The
	// split-backward schemes Z and D are opt-in, not part of Auto.
	PipelineScheme string
	// GlobalBatchSize is the fixed number of samples per training
	// iteration.
	GlobalBatchSize int
	// NumDevices is the total accelerator count.
	NumDevices int
	// MemoryPerDevice is the per-device capacity, e.g. "40G", "80G" or
	// "12345678" (bytes).
	MemoryPerDevice string
	// TP is the fixed tensor-parallel degree (Equation 1 keeps TP
	// constant); 0 means 1.
	TP int
	// Checkpoint forces Mario's checkpointing on (true) or off (false);
	// nil lets the tuner decide.
	Checkpoint *bool
	// SplitBackward additionally tries the ZB-H1-style split-backward
	// transformation on checkpointed candidates (the paper's §8 future
	// work), kept only when the simulator confirms a win within the memory
	// budget.
	SplitBackward bool
	// MicroBatchSizes restricts the candidate micro-batch sizes; nil means
	// powers of two.
	MicroBatchSizes []int
	// MinPP/MaxPP bound the pipeline dimension (defaults: 4..NumDevices).
	MinPP, MaxPP int
	// Machine overrides the emulated hardware imperfections; zero value
	// uses profile.DefaultMachine.
	Machine profile.MachineSpec
	// DeviceSpeeds declares the relative compute speed of each device
	// (1 = nominal, 0.8 = 25% slower compute); nil or all-ones means a
	// homogeneous cluster. When set it must hold exactly NumDevices positive
	// entries, in data-parallel-replica-major order (replica k runs on
	// devices [k·pp, (k+1)·pp)). Heterogeneous speeds open the tuner's
	// partitioning/placement axis and carry through to the emulated cluster.
	DeviceSpeeds []float64
	// Placement selects the layer-partitioning/placement search mode:
	// "auto" (default — co-optimized assignment explored alongside the
	// uniform baseline on heterogeneous clusters, legacy behaviour on
	// homogeneous ones), "uniform" (force the even split with identity
	// placement) or "coopt" (force the co-optimized assignment; useful even
	// on homogeneous clusters, where the partition DP offloads the
	// embedding- and LM-head-heavy boundary stages).
	Placement string
	// Hardware overrides the device description; zero value uses A100-40G
	// with the memory limit from MemoryPerDevice.
	Hardware *cost.Hardware
	// Progress, when non-nil, is invoked after every tuner candidate with
	// the number of candidates explored so far and the best configuration
	// found (its Label and estimated throughput). Callbacks arrive in the
	// search's expansion order, the same sequence for every Workers value.
	Progress func(explored int, bestLabel string, bestThroughput float64)
	// Workers bounds the number of concurrent tuner evaluations; 0 means
	// GOMAXPROCS, 1 searches sequentially. The chosen plan, trace and
	// search stats are identical for every value.
	Workers int
	// NoBnB expands the grid in canonical order instead of best-first by
	// bound. The prunes and the best plan are the same either way; best-first
	// typically simulates far fewer grid points, so the trace and the search
	// stats differ.
	NoBnB bool
	// Tracer, when non-nil, records the search's own telemetry: a
	// PhaseOptimize root span with the tuner grid, graph-pass and simulator
	// work nested under it (see internal/telemetry). The canonical exports
	// of the resulting trace are byte-identical for every Workers value; a
	// nil Tracer costs nothing.
	Tracer *telemetry.Tracer
	// Metrics, when non-nil, receives the search counters (grid outcomes,
	// memoization, simulator executions) as registry series. It is the one
	// way a search reaches a registry; a Tracer carries no metrics.
	Metrics *telemetry.SearchMetrics
}

// ModelConfig is the model_conf of Listing 1.
type ModelConfig = cost.ModelConfig

// Model returns a named preset (Table 4): "GPT3-1.6B", "GPT3-13B",
// "LLaMA2-3B", "LLaMA2-13B". It panics on unknown names (a deliberate
// fail-fast for a fixed catalogue; use LookupModel to ask).
func Model(name string) ModelConfig {
	m, ok := LookupModel(name)
	if !ok {
		panic(fmt.Sprintf("mario: unknown model %q", name))
	}
	return m
}

// LookupModel returns the named preset and whether there is one, without
// copying the catalogue.
func LookupModel(name string) (ModelConfig, bool) {
	m, ok := cost.Models[name]
	return m, ok
}

// Models lists the built-in model presets by name (a copy the caller owns).
func Models() map[string]ModelConfig {
	out := make(map[string]ModelConfig, len(cost.Models))
	for k, v := range cost.Models {
		out[k] = v
	}
	return out
}

// Plan is the optimized schedule returned by Optimize — the paper's
// "schedule" object, ready for Run.
type Plan struct {
	// Best is the winning configuration: the one candidate that carries its
	// Schedule (what Run executes). Its Result holds the totals it was scored
	// with and no Timeline: Drift and Visualize re-simulate Best for the
	// per-instruction records.
	Best tuner.Candidate
	// Trace is the full tuning trace in canonical grid order (Fig. 11's
	// curve): every explored candidate's coordinates, placement assignment and
	// result totals. Trace entries carry no Schedule and no Timeline — both
	// are pure functions of the entry's coordinates and the plan's space, and
	// Resimulate rebuilds them. (A plan decoded from a version-1 or -2 body
	// keeps the trace schedules that body carried.)
	Trace []tuner.Candidate
	// Profiler retains the fitted estimators for re-simulation.
	Profiler *profile.Profiler
	// SearchStats counts what the tuner explored, rejected for memory and
	// pruned while producing the plan.
	SearchStats tuner.SearchStats

	// space is what, with a candidate's coordinates and the profiler,
	// determines the candidate's schedule: the searched space's fields that
	// tuner.Tuner.Resimulate reads.
	space tuner.Space
}

// planSpace is the part of the space the search that chose best walked that a
// candidate's schedule depends on. The device count and the global batch are
// read off best's own coordinates, so a fresh plan and a decoded one hold
// trace candidates to the same identities.
func planSpace(best *tuner.Candidate, tp int, memLimit float64, splitBackward bool) tuner.Space {
	return tuner.Space{
		Devices:       best.PP * best.DP,
		GlobalBatch:   best.MicroBatch * best.Micros * best.DP,
		TP:            tp,
		DeviceMem:     memLimit,
		SplitBackward: splitBackward,
	}
}

// ParseMemory converts "40G", "512M", "1T" or a plain byte count to bytes.
func ParseMemory(s string) (float64, error) {
	s = strings.TrimSpace(strings.ToUpper(s))
	s = strings.TrimSuffix(s, "B") // tolerate "40GB", "512MB", …
	if s == "" {
		return 0, fmt.Errorf("mario: empty memory spec")
	}
	mult := 1.0
	switch s[len(s)-1] {
	case 'K':
		mult = 1 << 10
	case 'M':
		mult = 1 << 20
	case 'G':
		mult = 1 << 30
	case 'T':
		mult = 1 << 40
	}
	if mult != 1 {
		s = s[:len(s)-1]
	}
	v, err := strconv.ParseFloat(strings.TrimSpace(s), 64)
	if err != nil {
		return 0, fmt.Errorf("mario: invalid memory spec: %w", err)
	}
	if v <= 0 {
		return 0, fmt.Errorf("mario: memory must be positive")
	}
	v *= mult
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0, fmt.Errorf("mario: memory spec %q is not a finite byte count", s)
	}
	return v, nil
}

// Optimize searches Equation 1's space for the configuration with the best
// estimated throughput under the memory budget and returns the executable
// plan. It never aborts early; use OptimizeContext to bound or cancel the
// search.
func Optimize(conf Config, model ModelConfig) (*Plan, error) {
	return OptimizeContext(context.Background(), conf, model)
}

// OptimizeContext is Optimize with cancellation: when ctx is cancelled or
// its deadline passes, the tuner's worker pool stops evaluating grid points
// and the call returns ctx's error. A completed OptimizeContext returns a
// plan byte-identical to Optimize for the same inputs and any worker count —
// the property the planning service's cache relies on.
func OptimizeContext(ctx context.Context, conf Config, model ModelConfig) (*Plan, error) {
	w, err := Resolve(conf, model)
	if err != nil {
		return nil, err
	}
	return w.Optimize(ctx, conf)
}

// Optimize runs the search of w. run carries what belongs to one run of a
// search and not to the workload — Workers, Progress, Tracer, Metrics;
// its other fields were resolved into w and are not read again.
func (w *Workload) Optimize(ctx context.Context, run Config) (*Plan, error) {
	root := run.Tracer.Root(telemetry.PhaseOptimize, "")
	root.SetInt("devices", int64(w.Space.Devices))
	root.SetInt("global_batch", int64(w.Space.GlobalBatch))
	defer root.End()
	tn := w.tuner()
	tn.Span = root
	tn.Metrics = run.Metrics
	if cb := run.Progress; cb != nil {
		explored := 0
		tn.Progress = func(_ tuner.Candidate, best tuner.Candidate) {
			explored++
			cb(explored, best.Label(), best.Throughput)
		}
	}
	tn.Workers = run.Workers
	best, trace, err := tn.SearchContext(ctx, w.Space)
	if err != nil {
		return nil, err
	}
	return &Plan{Best: *best, Trace: trace, Profiler: tn.Prof, SearchStats: tn.Stats,
		space: planSpace(best, w.Space.TP, w.Space.DeviceMem, w.Space.SplitBackward)}, nil
}

// Event is one measured instruction execution.
type Event = obs.Event

// MeasuredStats is the per-device metrics digest derived from a measured
// run's event stream.
type MeasuredStats = obs.Stats

// DriftReport quantifies predicted-vs-measured disagreement; see Drift.
type DriftReport = obs.DriftReport

// RunReport summarises an execution of the plan on the emulated cluster: the
// emulator's report (measured iteration time, throughput, per-device peak
// memory, watchdog re-arms and, with RunOptions.CollectEvents, the event
// stream), plus what is derived from it.
type RunReport struct {
	cluster.Report
	// PeakMemMin and PeakMemMax are the per-device peak-memory extremes in
	// bytes (the (Min,Max GB) columns of Table 5).
	PeakMemMin, PeakMemMax float64
	// Stats is the per-device metrics digest derived from Events (nil when
	// no events were collected).
	Stats *MeasuredStats
}

// RunOptions configures observability for RunWithOptions. The zero value
// records nothing and adds no overhead.
type RunOptions struct {
	// CollectEvents retains the measured event stream in RunReport.Events
	// and derives RunReport.Stats from it.
	CollectEvents bool
}

// Run executes the plan's schedule for iters training iterations on the
// emulated cluster and reports measured throughput and memory.
func Run(p *Plan, iters int) (*RunReport, error) {
	return RunWithOptions(p, iters, RunOptions{})
}

// RunWithOptions is Run with options attached: optional in-report event
// collection with derived per-device stats.
func RunWithOptions(p *Plan, iters int, opts RunOptions) (*RunReport, error) {
	if p == nil || p.Best.Schedule == nil {
		return nil, fmt.Errorf("mario: plan has no schedule")
	}
	stages := p.Best.Schedule.NumStages()
	tp := max(p.space.TP, 1)
	// Plans tuned with a partitioning/placement assignment run on a machine
	// that mirrors it: the truth estimator carries the same layer split and
	// the emulator applies the same per-rank speed factors the simulator
	// scored with.
	mach, err := p.Profiler.NewMachine(p.Profiler.Model, stages, p.Best.MicroBatch, tp, p.Best.Place)
	if err != nil {
		return nil, err
	}
	mach.DP = p.Best.DP
	mach.CollectEvents = opts.CollectEvents
	rep, err := mach.Run(p.Best.Schedule, iters)
	if err != nil {
		return nil, err
	}
	out := &RunReport{Report: *rep}
	out.PeakMemMin, out.PeakMemMax = slices.Min(rep.PeakMem), slices.Max(rep.PeakMem)
	if opts.CollectEvents {
		out.Stats = obs.Compute(rep.Events, rep.Total)
	}
	return out, nil
}

// Drift joins a measured run's event stream with the plan's predicted
// timeline, which it re-simulates (Resimulate of Best), and quantifies the
// disagreement (per-kind latency MAPE, memory MAPE, worst-offending
// instructions). The report requires rep.Events, i.e. a run made with
// RunOptions.CollectEvents.
func Drift(p *Plan, rep *RunReport) (*DriftReport, error) {
	if rep == nil || len(rep.Events) == 0 {
		return nil, fmt.Errorf("mario: run report has no events (use RunOptions.CollectEvents)")
	}
	res, err := bestResult(p)
	if err != nil {
		return nil, err
	}
	return obs.ComputeDrift(rep.Events, res.Timeline, res.PeakMem, rep.PeakMem), nil
}

// Resimulate rebuilds the full simulation result — per-instruction timeline
// included — of one of the plan's candidates (a Trace entry, or Best). Plans
// carry a schedule for Best only and a timeline for none: Best is simulated
// once more from its schedule, and a trace entry's schedule is first rebuilt
// from its coordinates by the code path the search scored it with, then
// simulated once with the timeline on — alike on fresh and decoded plans.
// The candidate's stored totals must be reproduced bit for bit: a candidate
// that is not one of this plan's search (edited coordinates, a placement
// assignment of the wrong size) is refused before anything is built from it,
// and one whose totals do not come back is refused after. c is left
// untouched.
func Resimulate(p *Plan, c *tuner.Candidate) (*sim.Result, error) {
	if p == nil {
		return nil, fmt.Errorf("mario: no plan")
	}
	_, res, err := (&tuner.Tuner{Prof: p.Profiler}).Resimulate(context.Background(), c, p.space)
	return res, err
}

// bestResult re-simulates the plan's winner with its timeline on.
func bestResult(p *Plan) (*sim.Result, error) {
	if p == nil {
		return nil, fmt.Errorf("mario: no plan")
	}
	return Resimulate(p, &p.Best)
}

// Visualize writes the plan's simulated timeline, re-simulated from Best, as
// an ASCII Gantt chart — the paper's Fig. 5 visualisation.
func Visualize(w io.Writer, p *Plan) error {
	res, err := bestResult(p)
	if err != nil {
		return err
	}
	_, err = io.WriteString(w, viz.ASCII(res.Timeline, 0))
	return err
}
