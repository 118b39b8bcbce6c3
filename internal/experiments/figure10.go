package experiments

import (
	"fmt"
	"io"

	"mario/internal/cost"
	"mario/internal/pipeline"
	"mario/internal/regress"
)

// Fig10Point pairs a configuration's simulator estimate with its measured
// value on the emulated cluster.
type Fig10Point struct {
	Config               string
	MemPredGB, MemMeasGB float64 // max-device peak
	ThptPred, ThptMeas   float64 // samples/sec
}

// Fig10Result is the simulator-accuracy evaluation of §6.6. The paper
// reports 5.1% MAPE on peak memory and 9.4% on throughput, with the partial
// order of configurations preserved.
type Fig10Result struct {
	Points      []Fig10Point
	MemMAPE     float64
	ThptMAPE    float64
	ThptKendall float64 // rank correlation of estimated vs measured
}

// Figure10 estimates GPT3-1.6B configurations on 8 GPUs with the profiled
// estimator and measures them on the emulated cluster (whose ground truth
// includes jitter and framework overheads the estimator never sees
// directly).
func Figure10(opt Opts) (*Fig10Result, error) {
	devices, iters := 8, 3
	model := cost.GPT3_1_6B
	if opt.Fast {
		devices, iters = 4, 2
	}
	prof := newProfiler(model)

	type cfg struct {
		sch pipeline.Scheme
		v   variant
		mbs int
	}
	var cfgs []cfg
	for _, sch := range []pipeline.Scheme{pipeline.Scheme1F1B, pipeline.SchemeChimera, pipeline.SchemeInterleave} {
		for _, mbs := range []int{1, 2} {
			cfgs = append(cfgs, cfg{sch, vBase, mbs}, cfg{sch, vOvlp, mbs})
		}
	}

	res := &Fig10Result{}
	var memT, memP, thT, thP []float64
	for _, c := range cfgs {
		micros := 4 * devices
		stages := devices
		if c.sch == pipeline.SchemeInterleave {
			stages = devices * 2
		}
		est, err := prof.EstimatorFor(stages, c.mbs, 1)
		if err != nil {
			return nil, err
		}
		pred, sched, err := evalConfig(c.sch, devices, micros, est, c.v, 0)
		if err != nil {
			return nil, err
		}
		mach, err := prof.NewMachine(model, stages, c.mbs, 1, nil)
		if err != nil {
			return nil, err
		}
		meas, err := mach.Run(sched, iters)
		if err != nil {
			return nil, err
		}
		_, predHi := pred.MinMaxPeak()
		_, measHi := minMax(meas.PeakMem)
		p := Fig10Point{
			Config:    fmt.Sprintf("%s-mbs%d", shapeOf(c.sch, c.v), c.mbs),
			MemPredGB: gb(predHi), MemMeasGB: gb(measHi),
			ThptPred: pred.SamplesPerSec, ThptMeas: meas.SamplesPerSec,
		}
		res.Points = append(res.Points, p)
		memT, memP = append(memT, measHi), append(memP, predHi)
		thT, thP = append(thT, meas.SamplesPerSec), append(thP, pred.SamplesPerSec)
	}
	res.MemMAPE = regress.MAPE(memT, memP)
	res.ThptMAPE = regress.MAPE(thT, thP)
	res.ThptKendall = regress.KendallTau(thT, thP)
	return res, nil
}

// PrintFigure10 renders the accuracy table.
func PrintFigure10(w io.Writer, r *Fig10Result) {
	fmt.Fprintf(w, "%-14s %12s %12s %12s %12s\n", "Config", "Mem est GB", "Mem meas GB", "Thpt est", "Thpt meas")
	for _, p := range r.Points {
		fmt.Fprintf(w, "%-14s %12.2f %12.2f %12.2f %12.2f\n", p.Config, p.MemPredGB, p.MemMeasGB, p.ThptPred, p.ThptMeas)
	}
	fmt.Fprintf(w, "memory MAPE %.1f%% (paper 5.1%%), throughput MAPE %.1f%% (paper 9.4%%), Kendall tau %.2f\n",
		100*r.MemMAPE, 100*r.ThptMAPE, r.ThptKendall)
}
