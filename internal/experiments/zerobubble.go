package experiments

import (
	"fmt"
	"io"

	"mario/internal/cost"
	"mario/internal/pipeline"
	"mario/internal/scheme"
	"mario/internal/sim"
)

// ZeroBubbleRow is one row of the zero-bubble scheme-family study: a scheme
// simulated end to end on a fixed workload, reporting the makespan, the worst
// per-device bubble fraction, and the largest per-device peak memory.
type ZeroBubbleRow struct {
	Scheme  string
	Time    float64 // makespan in seconds
	Bubble  float64 // worst-device bubble ratio
	PeakMem float64 // largest per-device peak in GB
}

// zeroBubbleSchemes lists the compared schemes in presentation order: the
// 1F1B baseline, both native split-backward schemes, and Chimera as the
// bidirectional fused-backward reference point for DualPipe-D.
var zeroBubbleSchemes = []pipeline.Scheme{
	pipeline.Scheme1F1B,
	pipeline.SchemeZBH1,
	pipeline.SchemeDualPipeD,
	pipeline.SchemeChimera,
}

// ZeroBubble compares the split-backward scheme family against 1F1B on an
// analytically costed workload: GPT3-13B on 64 A100s with 128 micro-batches
// (micro-batch size 2), or a reduced LLaMA2-3B / 8-device shape in fast mode.
// ZB-H1 fills pipeline bubbles with deferred weight-gradient work at the cost
// of a small gradient stash; DualPipe-D additionally runs the pipeline from
// both ends, trading a second weight replica for a far shorter ramp.
func ZeroBubble(opt Opts) ([]ZeroBubbleRow, error) {
	model, devices, micros := cost.GPT3_13B, 64, 128
	if opt.Fast {
		model, devices, micros = cost.LLaMA2_3B, 8, 16
	}
	est, err := cost.Analytic(cost.AnalyticConfig{
		Model:      model,
		HW:         cost.A100_40G,
		Stages:     devices,
		MicroBatch: 2,
	})
	if err != nil {
		return nil, err
	}
	var rows []ZeroBubbleRow
	for _, sch := range zeroBubbleSchemes {
		s, err := scheme.Build(sch, scheme.Config{Devices: devices, Micros: micros})
		if err != nil {
			return nil, fmt.Errorf("build %s: %w", sch.Shape(), err)
		}
		r, err := sim.Simulate(s, est, sim.Options{})
		if err != nil {
			return nil, fmt.Errorf("simulate %s: %w", sch.Shape(), err)
		}
		worst := 0.0
		for dev := 0; dev < devices; dev++ {
			if b := r.BubbleRatio(dev); b > worst {
				worst = b
			}
		}
		_, hi := r.MinMaxPeak()
		rows = append(rows, ZeroBubbleRow{
			Scheme:  string(sch),
			Time:    r.Total,
			Bubble:  worst,
			PeakMem: gb(hi),
		})
	}
	return rows, nil
}

// PrintZeroBubble renders the zero-bubble comparison table.
func PrintZeroBubble(w io.Writer, rows []ZeroBubbleRow) {
	fmt.Fprintf(w, "%-12s %10s %10s %12s\n", "Scheme", "Time (s)", "Bubble", "Peak (GB)")
	for _, r := range rows {
		fmt.Fprintf(w, "%-12s %10.3f %10.4f %12.1f\n", r.Scheme, r.Time, r.Bubble, r.PeakMem)
	}
}
