// Package experiments regenerates every table and figure of the paper's
// evaluation (§6) on the emulated substrate. Each experiment has a function
// returning a typed result plus a printer that emits rows shaped like the
// paper's, so cmd/experiments can reproduce the whole evaluation and
// EXPERIMENTS.md can record paper-vs-measured values.
package experiments

import (
	"fmt"

	"mario/internal/cost"
	"mario/internal/graph"
	"mario/internal/pipeline"
	"mario/internal/profile"
	"mario/internal/scheme"
	"mario/internal/sim"
)

// Opts selects between the paper-scale experiments and reduced "fast" sizes
// for tests and benchmarks.
type Opts struct {
	// Fast shrinks device counts, batch sizes and sweeps so the experiment
	// finishes in well under a second.
	Fast bool
	// Workers bounds the concurrent tuner evaluations in experiments that
	// run the schedule tuner (Figure 11); 0 means GOMAXPROCS. The produced
	// tables and figures are identical for every value.
	Workers int
}

// gb converts bytes to binary gigabytes.
func gb(v float64) float64 { return v / (1 << 30) }

// variant names the four evaluated configurations of §6.
type variant string

const (
	vBase variant = "base" // original scheme, no checkpointing
	vCkpt variant = "ckpt" // naive checkpointing (pass 1 only)
	vOvlp variant = "ovlp" // + Mario passes 2–4
	vLmbs variant = "lmbs" // ovlp with doubled micro-batch size
)

var allVariants = []variant{vBase, vCkpt, vOvlp, vLmbs}

// evalConfig simulates one (scheme, variant) cell: it builds the schedule,
// applies the requested level of Mario optimization, and returns the
// simulation result. micros must already account for the variant's
// micro-batch size.
func evalConfig(sch pipeline.Scheme, devices, micros int, est *cost.Estimator, v variant, memLimit float64) (*sim.Result, *pipeline.Schedule, error) {
	s, err := scheme.Build(sch, scheme.Config{Devices: devices, Micros: micros})
	if err != nil {
		return nil, nil, err
	}
	opts := sim.Options{MemLimit: memLimit}
	switch v {
	case vBase:
		r, err := sim.Simulate(s, est, opts)
		return r, s, err
	case vCkpt:
		s = graph.ApplyCheckpoint(s)
		r, err := sim.Simulate(s, est, opts)
		return r, s, err
	case vOvlp, vLmbs:
		o, r, err := graph.Optimize(s, graph.Options{Estimator: est, Sim: opts, MaxRounds: 8})
		return r, o, err
	}
	return nil, nil, fmt.Errorf("experiments: unknown variant %q", v)
}

// newProfiler builds the standard profiler for a model on the default
// emulated A100 cluster.
func newProfiler(model cost.ModelConfig) *profile.Profiler {
	return &profile.Profiler{
		Model:   model,
		HW:      cost.A100_40G,
		Spec:    profile.DefaultMachine,
		Devices: 4,
		Iters:   10,
	}
}

// shapeOf renders "V-base"-style config labels.
func shapeOf(sch pipeline.Scheme, v variant) string {
	return fmt.Sprintf("%s-%s", sch.Shape(), v)
}
