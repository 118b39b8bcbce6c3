package experiments

import (
	"fmt"
	"io"

	"mario/internal/cost"
	"mario/internal/pipeline"
)

// ThroughputRow is one configuration of Figure 6 or Table 5.
type ThroughputRow struct {
	Model      string
	Config     string // e.g. "V-ovlp"
	GlobalBS   int
	MicroBS    int
	MemMinGB   float64
	MemMaxGB   float64
	Throughput float64 // samples/sec (simulator estimate)
	OOM        bool    // exceeds the 40 GB device (the paper's underlined rows)
	// PeakPerDevice backs Figure 7.
	PeakPerDevice []float64
}

// baseMicroBS returns the paper's Micro BS column: 2 for V and X, 1 for W
// (Interleave consumes more memory, §6.1).
func baseMicroBS(sch pipeline.Scheme) int {
	if sch == pipeline.SchemeInterleave {
		return 1
	}
	return 2
}

// throughputGrid evaluates base/ckpt/ovlp/lmbs for every scheme on one
// model — the shared engine of Figure 6 (8 devices) and Table 5 (32
// devices).
func throughputGrid(model cost.ModelConfig, devices, globalBS int) ([]ThroughputRow, error) {
	prof := newProfiler(model)
	memLimit := cost.A100_40G.MemBytes
	var rows []ThroughputRow
	for _, sch := range []pipeline.Scheme{pipeline.Scheme1F1B, pipeline.SchemeChimera, pipeline.SchemeInterleave} {
		for _, v := range allVariants {
			mbs := baseMicroBS(sch)
			if v == vLmbs {
				mbs *= 2
			}
			if globalBS%mbs != 0 {
				continue
			}
			micros := globalBS / mbs
			stages := devices
			if sch == pipeline.SchemeInterleave {
				stages = devices * 2
			}
			if model.Layers < stages {
				continue
			}
			est, err := prof.EstimatorFor(stages, mbs, 1)
			if err != nil {
				return nil, err
			}
			// The simulator's MemLimit is not passed here: like the paper's
			// underlined Table 5 rows, OOM configurations are still
			// estimated by the simulator and flagged.
			res, _, err := evalConfig(sch, devices, micros, est, v, 0)
			if err != nil {
				return nil, fmt.Errorf("%s %s: %w", model.Name, shapeOf(sch, v), err)
			}
			lo, hi := res.MinMaxPeak()
			rows = append(rows, ThroughputRow{
				Model:         model.Name,
				Config:        shapeOf(sch, v),
				GlobalBS:      globalBS,
				MicroBS:       mbs,
				MemMinGB:      gb(lo),
				MemMaxGB:      gb(hi),
				Throughput:    res.SamplesPerSec,
				OOM:           hi > memLimit,
				PeakPerDevice: res.PeakMem,
			})
		}
	}
	return rows, nil
}

// Figure6 evaluates GPT3-1.6B and LLaMA2-3B on an 8-GPU pipeline with
// global batch size 128 (§6.1).
func Figure6(opt Opts) ([]ThroughputRow, error) {
	devices, gbs := 8, 128
	models := []cost.ModelConfig{cost.GPT3_1_6B, cost.LLaMA2_3B}
	if opt.Fast {
		devices, gbs = 4, 16
		models = models[:1]
	}
	var rows []ThroughputRow
	for _, m := range models {
		r, err := throughputGrid(m, devices, gbs)
		if err != nil {
			return nil, err
		}
		rows = append(rows, r...)
	}
	return rows, nil
}

// Table5 evaluates GPT3-13B and LLaMA2-13B on a 32-GPU pipeline with global
// batch size 128 (§6.2); rows whose max peak exceeds 40 GB correspond to
// the paper's underlined simulator-estimated values.
func Table5(opt Opts) ([]ThroughputRow, error) {
	devices, gbs := 32, 128
	models := []cost.ModelConfig{cost.GPT3_13B, cost.LLaMA2_13B}
	if opt.Fast {
		devices, gbs = 8, 32
		models = []cost.ModelConfig{cost.GPT3_13B}
	}
	var rows []ThroughputRow
	for _, m := range models {
		r, err := throughputGrid(m, devices, gbs)
		if err != nil {
			return nil, err
		}
		rows = append(rows, r...)
	}
	return rows, nil
}

// PrintThroughput renders rows in the shape of Table 5.
func PrintThroughput(w io.Writer, rows []ThroughputRow) {
	fmt.Fprintf(w, "%-12s %-8s %7s %6s %18s %14s\n", "Model", "Config", "Global", "Micro", "Memory (Min,Max GB)", "Thpt (smp/s)")
	for _, r := range rows {
		oom := ""
		if r.OOM {
			oom = "  (OOM on real 40G device; simulator estimate)"
		}
		fmt.Fprintf(w, "%-12s %-8s %7d %6d   [%6.2f, %7.2f]   %12.2f%s\n",
			r.Model, r.Config, r.GlobalBS, r.MicroBS, r.MemMinGB, r.MemMaxGB, r.Throughput, oom)
	}
}

// Figure7 returns the per-device peak memory of every Figure 6
// configuration (the paper plots the same data as bars per device).
func Figure7(opt Opts) ([]ThroughputRow, error) {
	return Figure6(opt)
}

// PrintFigure7 renders per-device memory bars.
func PrintFigure7(w io.Writer, rows []ThroughputRow) {
	for _, r := range rows {
		fmt.Fprintf(w, "%s %s:", r.Model, r.Config)
		for _, p := range r.PeakPerDevice {
			fmt.Fprintf(w, " %6.2f", gb(p))
		}
		fmt.Fprintln(w, " GB")
	}
}
