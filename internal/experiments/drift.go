package experiments

import (
	"fmt"
	"io"

	"mario/internal/cost"
	"mario/internal/obs"
	"mario/internal/pipeline"
)

// DriftResult is the observability demo: one Mario-optimized GPT3-1.6B
// schedule estimated by the simulator and measured on the emulated cluster
// with event collection on, then aligned instruction by instruction.
type DriftResult struct {
	Config string
	Stats  *obs.Stats
	Drift  *obs.DriftReport
}

// Drift runs the measured-vs-predicted alignment on a checkpointed 1F1B
// schedule: it collects the event of every executed instruction,
// derives the per-device stats digest, and reports where the cluster's
// ground truth (jitter, launch overhead, p2p queueing) departs from the
// simulator's prediction.
func Drift(opt Opts) (*DriftResult, error) {
	devices, iters := 8, 3
	model := cost.GPT3_1_6B
	if opt.Fast {
		devices, iters = 4, 2
	}
	prof := newProfiler(model)
	micros := 4 * devices
	mbs := 2

	est, err := prof.EstimatorFor(devices, mbs, 1)
	if err != nil {
		return nil, err
	}
	pred, sched, err := evalConfig(pipeline.Scheme1F1B, devices, micros, est, vOvlp, 0)
	if err != nil {
		return nil, err
	}
	mach, err := prof.NewMachine(model, devices, mbs, 1, nil)
	if err != nil {
		return nil, err
	}
	mach.CollectEvents = true
	meas, err := mach.Run(sched, iters)
	if err != nil {
		return nil, err
	}
	return &DriftResult{
		Config: fmt.Sprintf("%s-mbs%d", shapeOf(pipeline.Scheme1F1B, vOvlp), mbs),
		Stats:  obs.Compute(meas.Events, meas.Total),
		Drift:  obs.ComputeDrift(meas.Events, pred.Timeline, pred.PeakMem, meas.PeakMem),
	}, nil
}

// PrintDrift renders the stats table followed by the drift report.
func PrintDrift(w io.Writer, r *DriftResult) {
	fmt.Fprintf(w, "config %s\n", r.Config)
	io.WriteString(w, r.Stats.Table())
	io.WriteString(w, "\n")
	io.WriteString(w, r.Drift.Format())
}
