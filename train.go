package mario

import (
	"fmt"
	"io"

	"mario/internal/cost"
	"mario/internal/graph"
	"mario/internal/pipeline"
	"mario/internal/scheme"
	"mario/internal/sim"
	"mario/internal/train"
	"mario/internal/viz"
)

// Schedule is the expanded instruction-list IR of one training iteration
// (§4: one ordered list of FW/CFW/BW/RC/SA/RA/SG/RG/AR/OS instructions per
// device).
type Schedule = pipeline.Schedule

// TrainConfig sizes the miniature real-tensor training runtime that stands
// in for the paper's Megatron-DeepSpeed deployment.
type TrainConfig = train.Config

// TrainStats reports the loss and per-device peak live activation bytes of
// one real-tensor training iteration.
type TrainStats = train.Stats

// Trainer executes Mario schedules on a real (miniature) transformer with
// one goroutine per device and channels for p2p tensors; activation
// checkpointing genuinely drops and recomputes tensors.
type Trainer = train.Trainer

// NewTrainer builds and partitions the miniature model.
func NewTrainer(cfg TrainConfig) (*Trainer, error) { return train.New(cfg) }

// BuildSchedule expands a named pipeline scheme ("V"/"1F1B", "X"/"Chimera",
// "W"/"Interleave", "GPipe", "Z"/"ZB-H1", "D"/"DualPipe-D") into a validated
// instruction-list schedule.
func BuildSchedule(schemeName string, devices, micros int) (*Schedule, error) {
	s, err := pipeline.ParseScheme(schemeName)
	if err != nil {
		return nil, err
	}
	return validated(scheme.Build(s, scheme.Config{Devices: devices, Micros: micros}))
}

// Checkpoint applies Mario's four graph-tuner passes (apply-checkpoint,
// overlap-recompute, remove-redundancy, prepose-forward) to a schedule,
// using an idealised uniform cost model (forward 1, backward 2) to guide the
// prepose search. The input is not modified. For cost models derived from a
// real model and hardware, use Optimize instead.
func Checkpoint(s *Schedule) (*Schedule, error) {
	if s == nil {
		return nil, fmt.Errorf("mario: nil schedule")
	}
	e := cost.Uniform(s.NumStages(), 1, 2, 0.25)
	opt, _, err := graph.Optimize(s, graph.Options{Estimator: e})
	return validated(opt, err)
}

// SplitBackward applies the ZB-H1-style extension (the paper's §8 future
// work): each backward is split into its input-gradient half, which
// unblocks the upstream stage early, and its weight-gradient half, which is
// sunk into later bubbles when that improves the simulated makespan. It
// composes with Checkpoint. Schedules containing split backwards run on the
// simulator, the cluster emulator and the miniature trainer, which produces
// the same losses and weights as for the fused schedule.
func SplitBackward(s *Schedule) (*Schedule, error) {
	if s == nil {
		return nil, fmt.Errorf("mario: nil schedule")
	}
	e := cost.Uniform(s.NumStages(), 1, 2, 0.25)
	opt, _, err := graph.SplitBackward(s, graph.Options{Estimator: e})
	return validated(opt, err)
}

// validated is where a schedule the graph passes rewrote leaves the library:
// the passes themselves do not re-validate what they return.
func validated(s *Schedule, err error) (*Schedule, error) {
	if err != nil {
		return nil, err
	}
	if err := pipeline.Validate(s); err != nil {
		return nil, err
	}
	return s, nil
}

// Render simulates the schedule under the idealised uniform cost model
// (forward 1, backward 2, free communication) and returns the timeline as
// an ASCII Gantt chart — the Fig. 5 visualisation for arbitrary schedules.
func Render(s *Schedule) (string, error) {
	r, err := simulateUniform(s)
	if err != nil {
		return "", err
	}
	return viz.ASCII(r.Timeline, 1), nil
}

// RenderSVG writes the schedule's idealised timeline as an SVG document.
func RenderSVG(w io.Writer, s *Schedule) error {
	r, err := simulateUniform(s)
	if err != nil {
		return err
	}
	return viz.SVG(w, r.Timeline)
}

// RenderChromeTrace writes the schedule's idealised timeline in the Chrome
// trace-event JSON format (open with chrome://tracing or Perfetto).
func RenderChromeTrace(w io.Writer, s *Schedule) error {
	r, err := simulateUniform(s)
	if err != nil {
		return err
	}
	return viz.ChromeTrace(w, r.Timeline)
}

func simulateUniform(s *Schedule) (*sim.Result, error) {
	if s == nil {
		return nil, fmt.Errorf("mario: nil schedule")
	}
	return sim.Simulate(s, cost.Uniform(s.NumStages(), 1, 2, 0.25), sim.Options{})
}
