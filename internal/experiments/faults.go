package experiments

import (
	"fmt"
	"io"

	"mario/internal/cluster"
	"mario/internal/cost"
	"mario/internal/fault"
	"mario/internal/pipeline"
	"mario/internal/sim"
)

// FaultsResult is the robustness demo: a base and a Mario-optimized variant
// of the same 1F1B configuration, each executed on the emulated cluster
// healthy and under every plan of a fault ensemble (by default the canonical
// straggler, flaky links and stall window), so the report shows both per-plan
// throughput retention and how much of the checkpointing gain survives
// degradation.
type FaultsResult struct {
	// Config labels the paired configuration (scheme-pp-mbs).
	Config string
	// Plans names the ensemble, in evaluation order.
	Plans []string
	// Base and Mario are the plain and the checkpointed schedule's rows.
	Base, Mario FaultsRow
	// HealthyGain is Mario/Base − 1 on the healthy measured runs, FaultedGain
	// the same ratio averaged over the plans both runs completed, and
	// Survival FaultedGain / HealthyGain (1 = the gain is fault-proof; it can
	// exceed 1 when faults hurt the base schedule more, and it is 0 when the
	// healthy gain itself is ≤ 0).
	HealthyGain, FaultedGain, Survival float64
}

// FaultsRow is one schedule's measured behaviour, healthy and under each
// ensemble plan.
type FaultsRow struct {
	// Label names the schedule: scheme-pp-mbs, then base or mario.
	Label string
	// Healthy is the measured throughput of the fault-free run the
	// retentions are normalised against.
	Healthy float64
	// Slack is the schedule's mean per-device bubble ratio in the healthy
	// prediction — the idle fraction Mario hides recomputation in. Schedules
	// with less slack have less room to absorb degradation.
	Slack float64
	// Outcomes holds one entry per ensemble plan, in ensemble order.
	Outcomes []PlanOutcome
	// MeanRetention and WorstRetention aggregate Outcomes (failed runs count
	// as zero retention).
	MeanRetention, WorstRetention float64
}

// PlanOutcome is one schedule's measured run under one fault plan.
type PlanOutcome struct {
	// Throughput is the measured throughput under the plan and Retention
	// its fraction of the schedule's healthy throughput.
	Throughput, Retention float64
	// Err is non-empty when the run failed outright (e.g. a link exhausted
	// its retry budget); Throughput and Retention are then zero.
	Err string
}

// Faults measures the (base, mario) pair of a 1F1B configuration under
// fault.DefaultEnsemble. Fully deterministic for a given Opts.Fast value.
func Faults(opt Opts) (*FaultsResult, error) {
	return measureFaults(opt, nil)
}

// measureFaults is Faults under the given ensemble; nil means
// fault.DefaultEnsemble.
func measureFaults(opt Opts, ensemble []fault.Plan) (*FaultsResult, error) {
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
	mach, err := prof.NewMachine(model, devices, mbs, 1, nil)
	if err != nil {
		return nil, err
	}
	if ensemble == nil {
		ensemble = fault.DefaultEnsemble(devices, 7)
	}
	r := &FaultsResult{Config: fmt.Sprintf("%s-%d-%d", pipeline.Scheme1F1B.Shape(), devices, mbs)}
	for _, p := range ensemble {
		r.Plans = append(r.Plans, p.Name)
	}
	for _, row := range []struct {
		v   variant
		tag string
		out *FaultsRow
	}{{vBase, "base", &r.Base}, {vOvlp, "mario", &r.Mario}} {
		pred, sched, err := evalConfig(pipeline.Scheme1F1B, devices, micros, est, row.v, 0)
		if err != nil {
			return nil, err
		}
		label := r.Config + "(" + row.tag + ")"
		if *row.out, err = measureRow(*mach, sched, pred, ensemble, iters); err != nil {
			return nil, fmt.Errorf("experiments: healthy run of %s: %w", label, err)
		}
		row.out.Label = label
	}

	r.HealthyGain = r.Mario.Healthy/r.Base.Healthy - 1
	n := 0
	for i := range ensemble {
		m, b := r.Mario.Outcomes[i], r.Base.Outcomes[i]
		if m.Err != "" || b.Err != "" || b.Throughput <= 0 {
			continue
		}
		r.FaultedGain += m.Throughput/b.Throughput - 1
		n++
	}
	if n > 0 {
		r.FaultedGain /= float64(n)
	}
	if r.HealthyGain > 0 {
		r.Survival = r.FaultedGain / r.HealthyGain
	}
	return r, nil
}

// measureRow runs sched on mach for iters iterations healthy, then once under
// every ensemble plan. Only a failed healthy run is an error; a failed faulted
// run is an outcome.
func measureRow(mach cluster.Machine, sched *pipeline.Schedule, pred *sim.Result, ensemble []fault.Plan, iters int) (FaultsRow, error) {
	var row FaultsRow
	for d := range pred.ComputeBusy {
		row.Slack += pred.BubbleRatio(d)
	}
	row.Slack /= float64(len(pred.ComputeBusy))
	healthy, err := mach.Run(sched, iters)
	if err != nil {
		return row, err
	}
	row.Healthy = healthy.SamplesPerSec
	row.WorstRetention = 1
	for i := range ensemble {
		mach.Faults = &ensemble[i]
		var out PlanOutcome
		if rep, err := mach.Run(sched, iters); err != nil {
			out.Err = err.Error()
		} else {
			out.Throughput = rep.SamplesPerSec
			out.Retention = out.Throughput / row.Healthy
		}
		row.MeanRetention += out.Retention
		row.WorstRetention = min(row.WorstRetention, out.Retention)
		row.Outcomes = append(row.Outcomes, out)
	}
	row.MeanRetention /= float64(len(ensemble))
	return row, nil
}

// PrintFaults renders the result as ASCII tables: retention per (schedule,
// plan), then the checkpoint-gain survival of the pair.
func PrintFaults(w io.Writer, r *FaultsResult) {
	fmt.Fprintf(w, "robustness: 2 schedules x %d fault plans (measured)\n", len(r.Plans))
	fmt.Fprintf(w, "%-18s %10s %7s", "schedule", "healthy/s", "slack%")
	for _, p := range r.Plans {
		fmt.Fprintf(w, " %12s", p)
	}
	fmt.Fprintf(w, " %6s %6s\n", "mean%", "worst%")
	for _, row := range []*FaultsRow{&r.Base, &r.Mario} {
		fmt.Fprintf(w, "%-18s %10.2f %7.1f", row.Label, row.Healthy, 100*row.Slack)
		for _, o := range row.Outcomes {
			if o.Err != "" {
				fmt.Fprintf(w, " %12s", "FAILED")
			} else {
				fmt.Fprintf(w, " %11.1f%%", 100*o.Retention)
			}
		}
		fmt.Fprintf(w, " %6.1f %6.1f\n", 100*row.MeanRetention, 100*row.WorstRetention)
	}
	fmt.Fprintf(w, "checkpoint-gain survival (mario vs base, same scheme-pp-mbs):\n")
	fmt.Fprintf(w, "  %-12s healthy gain %+6.2f%%  faulted gain %+6.2f%%  survival %5.1f%%\n",
		r.Config, 100*r.HealthyGain, 100*r.FaultedGain, 100*r.Survival)
}
