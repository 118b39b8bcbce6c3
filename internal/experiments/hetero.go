package experiments

import (
	"fmt"
	"io"

	"mario/internal/cost"
	"mario/internal/pipeline"
	"mario/internal/place"
	"mario/internal/profile"
	"mario/internal/tuner"
)

// HeteroRow is one placement mode of the heterogeneity demo: the best
// candidate the tuner found under that mode, its layer partition and
// stage→device placement, and the predicted (simulator) vs measured
// (emulated cluster) throughput.
type HeteroRow struct {
	Mode      place.Mode
	Label     string
	Partition []int
	DeviceOf  []int
	Predicted float64
	Measured  float64
}

// HeteroResult compares the uniform-split identity-placement baseline with
// the co-optimized partitioning+placement plan on the pinned heterogeneous
// scenario: GPT3-13B on 8 devices, one of which runs at 0.8× nominal speed,
// under a 72G per-device cap that rules out pp=4 (its checkpointed peak is
// ~84G for any placement), so the search settles at pp=8 where the uneven
// stack gives the co-optimizer real freedom.
type HeteroResult struct {
	Rows []HeteroRow
}

// Hetero runs the tuner twice over the pinned scenario — once forced to the
// uniform baseline, once forced to co-optimize — and executes each winner on
// an emulated cluster whose truth estimator carries the same partition and
// per-rank speed factors. Fully deterministic for a given Opts.Fast value.
func Hetero(opt Opts) (*HeteroResult, error) {
	gbs, iters := 64, 3
	if opt.Fast {
		gbs, iters = 32, 2
	}
	speeds := []float64{1, 1, 1, 0.8, 1, 1, 1, 1}
	hw := cost.A100_40G
	hw.MemBytes = 72 << 30
	prof := &profile.Profiler{
		Model:   cost.GPT3_13B,
		HW:      hw,
		Spec:    profile.DefaultMachine,
		Devices: 4,
		Iters:   10,
	}

	res := &HeteroResult{}
	for _, mode := range []place.Mode{place.ModeUniform, place.ModeCoOpt} {
		tn := &tuner.Tuner{Prof: prof, Workers: 1}
		best, _, err := tn.Search(tuner.Space{
			Devices:      8,
			GlobalBatch:  gbs,
			Schemes:      []pipeline.Scheme{pipeline.Scheme1F1B},
			MicroBatches: []int{2},
			DeviceMem:    float64(hw.MemBytes),
			MaxRounds:    8,
			DeviceSpeeds: speeds,
			Placement:    mode,
		})
		if err != nil {
			return nil, fmt.Errorf("hetero %s: %w", mode, err)
		}
		if best.Place == nil {
			return nil, fmt.Errorf("hetero %s: best candidate carries no assignment", mode)
		}
		mach, err := prof.NewMachine(prof.Model, best.Schedule.NumStages(), best.MicroBatch, 1, best.Place)
		if err != nil {
			return nil, fmt.Errorf("hetero %s: %w", mode, err)
		}
		mach.DP = best.DP
		rep, err := mach.Run(best.Schedule, iters)
		if err != nil {
			return nil, fmt.Errorf("hetero %s: %w", mode, err)
		}
		res.Rows = append(res.Rows, HeteroRow{
			Mode:      mode,
			Label:     best.Label(),
			Partition: best.Place.LayersPerStage,
			DeviceOf:  best.Place.DeviceOf,
			Predicted: best.Throughput,
			Measured:  rep.SamplesPerSec,
		})
	}
	return res, nil
}

// PrintHetero renders the comparison plus the co-opt gain over the baseline.
func PrintHetero(w io.Writer, r *HeteroResult) {
	fmt.Fprintf(w, "%-8s  %-22s  %-28s  %-20s  %10s  %10s\n",
		"mode", "config", "layers/stage", "stage→device", "pred thpt", "meas thpt")
	for _, row := range r.Rows {
		fmt.Fprintf(w, "%-8s  %-22s  %-28s  %-20s  %10.4f  %10.4f\n",
			row.Mode, row.Label, fmt.Sprint(row.Partition), fmt.Sprint(row.DeviceOf),
			row.Predicted, row.Measured)
	}
	if len(r.Rows) == 2 {
		u, c := r.Rows[0], r.Rows[1]
		fmt.Fprintf(w, "co-opt vs uniform: predicted %+.2f%%, measured %+.2f%%\n",
			100*(c.Predicted/u.Predicted-1), 100*(c.Measured/u.Measured-1))
	}
}
