package experiments

import (
	"fmt"
	"io"

	"mario/internal/cost"
	"mario/internal/graph"
	"mario/internal/pipeline"
	"mario/internal/scheme"
	"mario/internal/sim"
	"mario/internal/viz"
)

// Figure5 renders the pipeline visualisations of Fig. 5: the V/X/W schedules
// without checkpointing, plus the Mario-optimized 1F1B for contrast, as
// ASCII Gantt charts.
func Figure5(w io.Writer, opt Opts) error {
	d, n := 4, 8
	if opt.Fast {
		n = 4
	}
	for _, sch := range []pipeline.Scheme{pipeline.Scheme1F1B, pipeline.SchemeChimera, pipeline.SchemeInterleave} {
		s, err := scheme.Build(sch, scheme.Config{Devices: d, Micros: n})
		if err != nil {
			return err
		}
		e := cost.Uniform(s.NumStages(), 1, 2, 0.25)
		r, err := sim.Simulate(s, e, sim.Options{})
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "--- %s (%s shape), no checkpointing ---\n%s\n", sch, sch.Shape(), viz.ASCII(r.Timeline, 1))
	}
	// The same 1F1B pipeline after Mario's four passes.
	s, err := scheme.Build(pipeline.Scheme1F1B, scheme.Config{Devices: d, Micros: n})
	if err != nil {
		return err
	}
	e := cost.Uniform(d, 1, 2, 0.25)
	_, r, err := graph.Optimize(s, graph.Options{Estimator: e})
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "--- 1F1B with Mario checkpointing tessellated ---\n%s\n", viz.ASCII(r.Timeline, 1))
	return nil
}
