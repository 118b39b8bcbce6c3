package experiments

import (
	"fmt"
	"io"

	"mario/internal/cost"
	"mario/internal/graph"
	"mario/internal/pipeline"
	"mario/internal/scheme"
	"mario/internal/sim"
)

// Fig2Step is one bar of Figure 2: the total time of the 4-stage 1F1B
// example after each optimization step, in units of t (the forward time).
type Fig2Step struct {
	Name  string
	Time  float64
	Paper float64
}

// Figure2 reproduces the running example of §3.1: D = 4, N = 4, F = t,
// B = 2t, free communication. The paper's step times are 21, 28, 25, 23
// and 22 t.
func Figure2(Opts) ([]Fig2Step, error) {
	const d, n = 4, 4
	e := cost.Uniform(d, 1, 2, 0.25)
	base, err := scheme.Build(pipeline.Scheme1F1B, scheme.Config{Devices: d, Micros: n})
	if err != nil {
		return nil, err
	}
	simT := func(s *pipeline.Schedule) (float64, error) {
		r, err := sim.Simulate(s, e, sim.Options{})
		if err != nil {
			return 0, err
		}
		return r.Total, nil
	}

	var steps []Fig2Step
	add := func(name string, t float64, paper float64) {
		steps = append(steps, Fig2Step{Name: name, Time: t, Paper: paper})
	}

	t0, err := simT(base)
	if err != nil {
		return nil, err
	}
	add("baseline (no ckpt)", t0, 21)

	// Each step edits the previous step's schedule, which is not read again.
	s := graph.ApplyCheckpoint(base)
	t1, err := simT(s)
	if err != nil {
		return nil, err
	}
	add("step 1: apply-checkpoint", t1, 28)

	graph.OverlapRecompute(s)
	t2, err := simT(s)
	if err != nil {
		return nil, err
	}
	add("step 2: overlap-recompute", t2, 25)

	graph.RemoveRedundancy(s)
	t3, err := simT(s)
	if err != nil {
		return nil, err
	}
	add("step 3: remove-redundancy", t3, 23)

	_, r4, err := graph.Optimize(base, graph.Options{Estimator: e})
	if err != nil {
		return nil, err
	}
	add("step 4: prepose-forward", r4.Total, 22)
	return steps, nil
}

// PrintFigure2 renders the step table.
func PrintFigure2(w io.Writer, steps []Fig2Step) {
	fmt.Fprintf(w, "%-28s %10s %10s\n", "Step", "Time (t)", "Paper (t)")
	for _, s := range steps {
		fmt.Fprintf(w, "%-28s %10.1f %10.1f\n", s.Name, s.Time, s.Paper)
	}
}
