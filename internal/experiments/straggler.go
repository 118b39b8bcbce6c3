package experiments

import (
	"fmt"
	"io"

	"mario/internal/cluster"
	"mario/internal/cost"
	"mario/internal/pipeline"
)

// stragglerSpeed is the straggler's declared relative compute speed: its
// compute runs 1.35× as long as nominal.
const stragglerSpeed = 1 / 1.35

// StragglerResult is the straggler finding: a base and a Mario-optimized
// (ovlp) variant of the same 1F1B configuration, each executed on the
// emulated cluster healthy and with the middle device slowed through
// Machine.SpeedFactors. Mario fills bubbles with recompute, so its schedule
// has less slack to absorb a straggler and keeps less of its throughput.
type StragglerResult struct {
	// Config labels the pair (scheme-pp-mbs).
	Config string
	// Device is the straggler and Speed its relative compute speed.
	Device int
	Speed  float64
	// Base and Mario are the plain and the checkpointed schedule's rows.
	Base, Mario StragglerRow
}

// StragglerRow is one schedule's measured throughput, healthy and with the
// straggler.
type StragglerRow struct {
	// Label names the schedule: scheme-pp-mbs, then base or mario.
	Label string
	// Healthy and Straggled are measured samples/s.
	Healthy, Straggled float64
	// Slack is the mean per-device bubble ratio of the healthy prediction:
	// the idle fraction Mario hides recomputation in.
	Slack float64
}

// Retention is the fraction of the healthy throughput kept under the
// straggler.
func (r StragglerRow) Retention() float64 { return r.Straggled / r.Healthy }

// Straggler measures the (base, mario) pair of a 1F1B configuration healthy
// and with device D/2 at stragglerSpeed. Fully deterministic for a given
// Opts.Fast value.
func Straggler(opt Opts) (*StragglerResult, error) {
	devices, iters := 8, 3
	model := cost.GPT3_1_6B
	if opt.Fast {
		devices, iters = 4, 2
	}
	prof := newProfiler(model)
	micros, mbs := 4*devices, 2

	est, err := prof.EstimatorFor(devices, mbs, 1)
	if err != nil {
		return nil, err
	}
	healthy, err := prof.NewMachine(model, devices, mbs, 1, nil)
	if err != nil {
		return nil, err
	}
	r := &StragglerResult{
		Config: fmt.Sprintf("%s-%d-%d", pipeline.Scheme1F1B.Shape(), devices, mbs),
		Device: devices / 2,
		Speed:  stragglerSpeed,
	}
	straggled := *healthy
	straggled.SpeedFactors = make([]float64, devices)
	for d := range straggled.SpeedFactors {
		straggled.SpeedFactors[d] = 1
	}
	straggled.SpeedFactors[r.Device] = r.Speed
	for _, row := range []struct {
		v   variant
		tag string
		out *StragglerRow
	}{{vBase, "base", &r.Base}, {vOvlp, "mario", &r.Mario}} {
		pred, sched, err := evalConfig(pipeline.Scheme1F1B, devices, micros, est, row.v, 0)
		if err != nil {
			return nil, err
		}
		out := row.out
		out.Label = r.Config + "(" + row.tag + ")"
		for d := range pred.ComputeBusy {
			out.Slack += pred.BubbleRatio(d)
		}
		out.Slack /= float64(len(pred.ComputeBusy))
		if out.Healthy, err = samplesPerSec(healthy, sched, iters); err != nil {
			return nil, fmt.Errorf("experiments: healthy run of %s: %w", out.Label, err)
		}
		if out.Straggled, err = samplesPerSec(&straggled, sched, iters); err != nil {
			return nil, fmt.Errorf("experiments: straggled run of %s: %w", out.Label, err)
		}
	}
	return r, nil
}

// samplesPerSec is the measured throughput of iters iterations of sched on
// mach.
func samplesPerSec(mach *cluster.Machine, sched *pipeline.Schedule, iters int) (float64, error) {
	rep, err := mach.Run(sched, iters)
	if err != nil {
		return 0, err
	}
	return rep.SamplesPerSec, nil
}

// PrintStraggler renders the pair's healthy throughput, predicted slack and
// straggler retention.
func PrintStraggler(w io.Writer, r *StragglerResult) {
	fmt.Fprintf(w, "straggler: dev%d at speed 1/%.4g (measured)\n", r.Device, 1/r.Speed)
	fmt.Fprintf(w, "%-18s %10s %7s %12s %10s\n", "schedule", "healthy/s", "slack%", "straggler/s", "retained%")
	for _, row := range []StragglerRow{r.Base, r.Mario} {
		fmt.Fprintf(w, "%-18s %10.2f %7.1f %12.2f %10.2f\n",
			row.Label, row.Healthy, 100*row.Slack, row.Straggled, 100*row.Retention())
	}
}
