package experiments

import (
	"fmt"
	"io"
	"time"

	"mario/internal/cost"
	"mario/internal/tuner"
)

// Fig11Point is one tuning iteration of the cluster experiment (§6.7).
type Fig11Point struct {
	Label      string
	Throughput float64
	OOM        bool
}

// Fig11Result is the parameter-tuning curve over the 64-GPU cluster.
type Fig11Result struct {
	Points     []Fig11Point
	BestLabel  string
	BestThpt   float64
	TuningTime time.Duration
}

// Figure11 tunes GPT3-13B over a 64-GPU cluster with data parallelism
// (TP = 1, DP = 64/PP), searching pipeline scheme × PP × micro-batch size ×
// checkpointing. The paper uses a global batch of 128 and finds V-64-16 /
// X-64-16 / W-64-32 with Mario enabled as the per-scheme winners; our grid
// uses a global batch of 512 so the Interleave constraint
// (micros % PP == 0) admits deep pipelines, and sweeps mbs ∈ {1,2,4,8}.
// The paper's total tuning time is 210 s on real hardware feedback; the
// simulator-driven search here finishes in seconds.
func Figure11(opt Opts) (*Fig11Result, error) {
	devices, gbs := 64, 512
	mbs := []int{1, 2, 4, 8}
	if opt.Fast {
		devices, gbs = 8, 64
		mbs = []int{1, 2}
	}
	tn := &tuner.Tuner{Prof: newProfiler(cost.GPT3_13B), Workers: opt.Workers}
	start := time.Now()
	// NoPrune keeps every feasible point in the trace: the figure plots the
	// whole tuning curve, not just the points that could still win.
	best, trace, err := tn.Search(tuner.Space{
		Devices:      devices,
		GlobalBatch:  gbs,
		MicroBatches: mbs,
		TP:           1,
		DeviceMem:    cost.A100_40G.MemBytes,
		MaxRounds:    2,
		NoPrune:      true,
	})
	if err != nil {
		return nil, err
	}
	res := &Fig11Result{
		BestLabel:  best.Label(),
		BestThpt:   best.Throughput,
		TuningTime: time.Since(start),
	}
	for _, c := range trace {
		res.Points = append(res.Points, Fig11Point{Label: c.Label(), Throughput: c.Throughput, OOM: c.OOM})
	}
	return res, nil
}

// PrintFigure11 renders the tuning curve.
func PrintFigure11(w io.Writer, r *Fig11Result) {
	fmt.Fprintf(w, "tuning iterations: %d, best %s at %.2f samples/s, tuning time %v\n",
		len(r.Points), r.BestLabel, r.BestThpt, r.TuningTime.Round(time.Millisecond))
	for i, p := range r.Points {
		mark := ""
		if p.OOM {
			mark = " OOM"
		}
		fmt.Fprintf(w, "iter %3d  %-18s %10.2f%s\n", i, p.Label, p.Throughput, mark)
	}
}
